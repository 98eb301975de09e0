"""One benchmark invocation in a fresh process.

Usage: ``python3 child.py SPEC.json``, where the spec names the source
tree, the invocation and where to write results.  The child times
``import startrace.cli`` (set-up), then the call itself (verdict), and
writes a JSON result file; the parent treats a missing file as a failure.

A traced child installs :class:`tracer.Tracer` after the import and before
the call, and also writes its spans.
"""

import json
import os
import random
import resource
import sys
import time


def _grid_case(points, seed):
    """Library-level grid case on a seeded zero-integral 2D grid.

    Three translated, weighted copies of one tapered bump, minus the
    multiple of the bump that zeroes the total integral; the seed moves
    and weights the copies, so the array work does not depend on it.
    """
    # Imported here, after any tracer is installed, to bind the wrapped names.
    from startrace.gsdecomp import (
        bracket_decompose,
        bracket_residual,
        decomposition_residual,
        grid_integrate,
        grid_translate,
        gs_decompose,
        tapered_generate,
    )

    rng = random.Random(seed)
    phi = tapered_generate(2, 3.0, points, 1.8, points // 16)
    reach = points // 128
    u = None
    for _ in range(3):
        shift = (rng.randint(-reach, reach), rng.randint(-reach, reach))
        term = rng.choice([-2, -1, 1, 2]) * grid_translate(phi, shift)
        u = term if u is None else u + term
    u = u - (grid_integrate(u) / grid_integrate(phi)) * phi
    gs_residual = decomposition_residual(u, gs_decompose(u))
    return {
        "gs_residual": gs_residual,
        "bracket_residual": bracket_residual(u, bracket_decompose(u)),
    }


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t_import = time.perf_counter()
    import startrace.cli as cli

    result = {"import_s": time.perf_counter() - t_import}
    kind = spec["kind"]
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if kind == "cli":
        argv = spec["argv"] + ["--out", spec["report"]]
        start = time.perf_counter()
        result["exit"] = cli.main(argv)
        result["verdict_s"] = time.perf_counter() - start
    elif kind == "grid":
        args = dict(zip(spec["argv"][::2], spec["argv"][1::2]))
        start = time.perf_counter()
        result["grid"] = _grid_case(int(args["--points"]), int(args["--seed"]))
        result["verdict_s"] = time.perf_counter() - start
        result["exit"] = 0
    elif kind == "import":
        result["exit"] = 0
    else:
        raise ValueError(f"unknown invocation kind {kind!r}")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(spec["spans"])
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])


if __name__ == "__main__":
    main(sys.argv[1])
