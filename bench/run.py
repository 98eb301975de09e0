"""startrace benchmark: time to verdict over fixed batteries of CLI runs.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload transport --seed 0 --seconds 30 --trace 0

Each workload is a fixed battery of ``startrace run`` invocations (see
``workloads.py``).  One parent process runs them one at a time, each in a
fresh child, so no invocation inherits a warm cache from another.

``--trace 0`` runs import-only children, then whole batteries until
``--seconds`` would be exceeded (at least one), and reports the
end-to-end metrics: ``verdict_s`` (median battery sum of the time from
``cli.main`` entry to the report being written), ``setup_s`` (median child
time to ``import startrace.cli``) and ``peak_rss_mb`` (largest child peak
RSS).  ``--trace 1`` runs one battery untraced and one traced and reports
the per-layer metrics of the traced one plus ``trace_overhead_s``.

Every output is checked: exit status, every case passing, the report's
SHA-256 against ``digests.json`` where one is recorded for the exact
command line, and the library grid residuals against 1e-5.  A failing or
timed-out child counts in ``failed`` and never stops the run.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 170.0
GRID_TOLERANCE = 1e-5

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Record:
    """What one child did: timings, memory, layer counters, verdict."""

    def __init__(self, inv):
        self.inv = inv
        self.import_s = None
        self.verdict_s = None
        self.maxrss_kb = 0
        self.layers = None
        self.digest = None
        self.error = None

    @property
    def failed(self):
        return self.error is not None

    def to_dict(self):
        return {
            "invocation": self.inv.key,
            "import_s": self.import_s,
            "verdict_s": self.verdict_s,
            "maxrss_kb": self.maxrss_kb,
            "sha256": self.digest,
            "error": self.error,
        }


class Runner:
    """Runs children for one benchmark run and checks what they return."""

    def __init__(self, seed, digests, deadline):
        self.seed = seed
        self.digests = digests
        self.deadline = deadline
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(OUT_DIR, "tmp"))
        self.count = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, inv, spans_path=None):
        self.count += 1
        rec = Record(inv)
        base = os.path.join(self.workdir, str(self.count))
        spec = {
            "src": os.path.join(ROOT, "src"),
            "kind": inv.kind,
            "argv": inv.argv,
            "report": base + ".report",
            "result": base + ".result.json",
            "trace": spans_path is not None,
            "spans": spans_path,
        }
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            rec.error = "run deadline reached before start"
            return rec
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), base + ".spec.json"],
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            rec.error = f"timed out after {timeout:.0f} s"
            return rec
        try:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            rec.error = f"exit {proc.returncode}, no result: {' '.join(tail)}"
            return rec
        rec.import_s = result["import_s"]
        rec.verdict_s = result.get("verdict_s")
        rec.maxrss_kb = result["maxrss_kb"]
        rec.layers = result.get("layers")
        rec.error = self._check(inv, proc.returncode, result, spec["report"], rec)
        return rec

    def _check(self, inv, returncode, result, report_path, rec):
        if returncode != 0 or result["exit"] != 0:
            return f"exit status {returncode}, cli status {result['exit']}"
        if inv.kind == "grid":
            grid = result["grid"]
            worst = max(grid["gs_residual"], grid["bracket_residual"])
            if not worst <= GRID_TOLERANCE:
                return f"grid residual {worst:.3e} over {GRID_TOLERANCE:g}"
            return None
        if inv.kind != "cli":
            return None
        with open(report_path, "rb") as fh:
            payload = fh.read()
        rec.digest = hashlib.sha256(payload).hexdigest()
        report = json.loads(payload)
        bad = [c["id"] for c in report["cases"] if not c["pass"]]
        if bad or not report["summary"]["pass"]:
            return f"cases failed: {', '.join(bad)}"
        if inv.exact:
            expected = self.digests.get(inv.key)
            if expected is None and self.seed == workloads.DEFAULT_SEED:
                return "no recorded digest at the default seed"
            if expected is not None and expected != rec.digest:
                return f"report digest {rec.digest[:12]} != recorded {expected[:12]}"
        return None

    def battery(self, invocations, spans_dir=None):
        workloads.write_inputs(invocations)
        records = []
        for i, inv in enumerate(invocations):
            spans = None
            if spans_dir is not None:
                name = inv.argv[1] if inv.kind == "cli" else inv.kind
                spans = os.path.join(spans_dir, f"{i}-{name}.json")
            records.append(self.child(inv, spans))
        return records


def _verdict(records):
    return sum(r.verdict_s for r in records if r.verdict_s is not None)


def run_untraced(runner, invocations, seconds):
    start = time.monotonic()
    probes = [
        runner.child(workloads.Invocation("import", [])) for _ in range(SETUP_PROBES)
    ]
    batteries = []
    while True:
        t = time.monotonic()
        batteries.append(runner.battery(invocations))
        now = time.monotonic()
        if now + (now - t) > min(start + seconds, runner.deadline):
            break
    records = probes + [r for b in batteries for r in b]
    imports = [r.import_s for r in records if r.import_s is not None]
    metrics = {
        "verdict_s": statistics.median(_verdict(b) for b in batteries),
        "setup_s": statistics.median(imports) if imports else 0.0,
        "peak_rss_mb": max(r.maxrss_kb for r in records) / 1024,
    }
    detail = {
        "batteries": [[r.to_dict() for r in b] for b in batteries],
        "setup_probes": [r.to_dict() for r in probes],
    }
    return records, metrics, END_TO_END_UNITS, detail


def run_traced(runner, invocations, spans_dir):
    os.makedirs(spans_dir, exist_ok=True)
    plain = runner.battery(invocations)
    traced = runner.battery(invocations, spans_dir)
    metrics = tracer.combine(r.layers for r in traced if r.layers is not None)
    metrics["trace_overhead_s"] = _verdict(traced) - _verdict(plain)
    units = dict(tracer.metric_units(), trace_overhead_s="s")
    detail = {
        "untraced": [r.to_dict() for r in plain],
        "traced": [r.to_dict() for r in traced],
        "spans_dir": spans_dir,
    }
    return plain + traced, metrics, units, detail


def _l3_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _version(package):
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment():
    l3 = _l3_bytes()
    grid_bytes = workloads.GRID_POINTS**2 * 8
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "grid_array_bytes": grid_bytes,
        "grid_array_over_l3": grid_bytes / l3 if l3 else None,
        "note": "no CPU pinning and no page-cache dropping; children run one at a time",
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _stop(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not os.path.isfile(os.path.join(ROOT, "src", "startrace", "cli.py")):
        print("error: no startrace source tree next to the benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read recorded digests: {err}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    inputs_dir = os.path.join(OUT_DIR, "inputs")
    invocations = workloads.battery(args.workload, args.seed, inputs_dir)
    runner = Runner(args.seed, digests, time.monotonic() + RUN_DEADLINE_S)
    try:
        if args.trace:
            spans_dir = os.path.join(OUT_DIR, "spans", f"{args.workload}-s{args.seed}")
            records, metrics, units, detail = run_traced(runner, invocations, spans_dir)
        else:
            records, metrics, units, detail = run_untraced(runner, invocations, args.seconds)
    finally:
        runner.close()
    failed = sum(r.failed for r in records)
    env = environment()
    for r in records:
        if r.failed:
            print(f"FAILED {r.inv.key}: {r.error}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {failed / len(records):.6g} ratio ({failed}/{len(records)})")
    print("environment " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    result_path = os.path.join(
        OUT_DIR, "results", f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "metrics": metrics,
                "failed": failed,
                "attempted": len(records),
                "detail": detail,
            },
            fh,
            indent=1,
        )
    out = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
