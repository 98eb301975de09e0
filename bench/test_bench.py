"""Self-tests of the benchmark harness.

Run from the root of a source checkout with::

    python3 -m pytest bench/test_bench.py -q

They use a small battery that reaches every traced layer in a few
seconds, not the timed workloads.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402

SEED = 7


def _small_battery(inputs_dir):
    def cli(*args):
        return Invocation("cli", ["run", *args])

    return [
        cli("transport-trace", "--n", "1", "--order", "2", "--seed", "0"),
        cli("trk-conditions", "--n", "1", "--order", "2", "--seed", "0"),
        cli("moyal-trace", "--n", "1", "--order", "2", "--seed", "0"),
        workloads._with_equiv(
            "normalized-uniqueness", workloads._SHAPE_N3_K4, 3, 4, SEED, inputs_dir
        ),
        cli("proportionality", "--n", "1", "--order", "2"),
        cli("strongly-closed", "--n", "1", "--order", "2", "--seed", "0"),
        cli("automorphism-invariance", "--n", "1", "--order", "2"),
        Invocation("cli", ["run", "gs-decompose", "--seed", str(SEED)], exact=False),
        Invocation("grid", ["--points", "256", "--seed", str(SEED)], exact=False),
    ]


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    os.makedirs(os.path.join(run.OUT_DIR, "tmp"), exist_ok=True)
    r = run.Runner(SEED, {}, time.monotonic() + 600)
    yield r
    r.close()


@pytest.fixture
def battery():
    return _small_battery(os.path.join(run.OUT_DIR, "inputs"))


def _traced(runner, battery, tmp_path, label):
    spans_dir = tmp_path / label
    spans_dir.mkdir()
    records = runner.battery(battery, str(spans_dir))
    assert [r.error for r in records] == [None] * len(records)
    return records, tracer.combine(r.layers for r in records)


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("self_s")}


def test_traced_counts_repeat_exactly(runner, battery, tmp_path):
    _, first = _traced(runner, battery, tmp_path, "a")
    _, second = _traced(runner, battery, tmp_path, "b")
    assert _counts(first) == _counts(second)
    for key in (
        "diffop.BiDiffOp.apply.terms",
        "equiv.cochain_terms",
        "gaussfn.GaussFn.diff_multi.reuse_ratio",
        "gsdecomp.bytes_computed",
    ):
        assert first[key] > 0, key
    for name in tracer.SPAN_NAMES:
        assert first[f"{name}.calls"] > 0, name


def test_traced_run_reports_same_digests(runner, battery, tmp_path):
    plain = runner.battery(battery)
    traced, _ = _traced(runner, battery, tmp_path, "t")
    assert [r.error for r in plain] == [None] * len(plain)
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert sum(r.digest is not None for r in plain) == len(plain) - 1


def test_spans_nest_and_self_times_add_up(runner, battery, tmp_path):
    records, metrics = _traced(runner, battery[:1], tmp_path, "s")
    (path,) = list((tmp_path / "s").iterdir())
    spans = json.loads(path.read_text())["spans"]
    assert spans[0][1] == -1 and spans[0][2] == "cli.main"
    assert all(0 <= parent < sid for sid, parent, *_ in spans[1:])
    total_self = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    main_span = spans[0][4] - spans[0][3]
    assert total_self == pytest.approx(main_span, rel=1e-6)


def test_every_binding_is_wrapped():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import startrace.cli\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "ids = {id(f) for f in t.patched}; left = 0\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.split('.')[0] != 'startrace': continue\n"
        "    owners = [mod] + [c for c in vars(mod).values() if isinstance(c, type)]\n"
        "    for owner in owners:\n"
        "        left += sum(id(v) in ids for v in vars(owner).values())\n"
        "print(left, len(t.patched))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, os.path.join(run.ROOT, "src"), run.HERE],
        capture_output=True,
        text=True,
        check=True,
    )
    left, patched = map(int, out.stdout.split())
    assert left == 0
    assert patched == len(tracer.TARGETS)


def test_digest_gate(runner):
    inv = Invocation("cli", ["run", "homogeneity", "--n", "1", "--order", "2"])
    runner.seed = workloads.DEFAULT_SEED
    (missing,) = runner.battery([inv])
    assert "no recorded digest" in missing.error
    runner.digests = {inv.key: "0" * 64}
    (wrong,) = runner.battery([inv])
    assert "digest" in wrong.error
    runner.digests = {inv.key: wrong.digest}
    (right,) = runner.battery([inv])
    assert right.error is None


def test_seeded_equivalences_keep_their_shape():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from startrace.cli import parse_expression

    for shape, n in ((workloads._SHAPE_N1_K4, 1), (workloads._SHAPE_N3_K4, 3)):
        shapes = set()
        for seed in range(6):
            entries = workloads.equivalence_entries(shape, seed)
            ops = [parse_expression(e["expression"], n) for e in entries]
            shapes.add(tuple(sorted(a for op in ops for a in op.coeffs)))
        assert len(shapes) == 1


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
