"""The benchmark's workloads: fixed batteries of ``startrace run`` calls.

Each workload is a list of invocations run one at a time, each in a
fresh child process.  The benchmark seed reaches the program only through
generated inputs whose *size* does not depend on it:

* The CLI's own ``--seed`` draws the probe Gaussians' degrees and the
  random equivalence's shape, so one ``transport-trace`` call costs
  between 1 s and 11 s depending on it.  Exact scenarios therefore run
  at the pinned CLI seed 0.
* Where a scenario takes an equivalence file, the benchmark writes one
  from a fixed operator shape (the shape ``random_equivalence`` gives at
  seed 0) with signs drawn from the benchmark seed.  Values change with
  the seed; term counts and derivative orders do not.
* The grid cases take the benchmark seed directly: it moves bumps by
  whole cells and picks their weights, which leaves the work unchanged.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 0

# Operator shapes as (order k, magnitude, coefficient monomial, partials).
# A term without a pure multiplication part keeps T unital, which
# ``transport_star`` requires.
_SHAPE_N1_K4 = [
    (1, Fraction(1, 2), "p1^2", "dq1*dp1"),
    (1, Fraction(1), "q1", "dq1^2"),
    (2, Fraction(1), "p1^2", "dq1^2"),
    (3, Fraction(1), "q1*p1", "dp1"),
    (3, Fraction(2), "p1", "dq1*dp1"),
    (4, Fraction(1, 2), "q1^2", "dq1"),
    (4, Fraction(1), "p1", "dq1"),
]
_SHAPE_N3_K4 = [
    (1, Fraction(1), "q2*q3", "dq2*dp2"),
    (1, Fraction(1, 2), "p1^2", "dq1*dq3"),
    (2, Fraction(1), "", "dq3"),
    (2, Fraction(1), "p1", "dq1*dp2"),
    (3, Fraction(1), "q1*p2", "dp3^2"),
    (3, Fraction(2), "", "dq3*dp2"),
    (4, Fraction(1), "", "dq1*dp3"),
]


def equivalence_entries(shape, seed):
    """Equivalence-file entries: the fixed shape with seeded signs."""
    rng = random.Random(seed)
    entries = []
    for order, magnitude, monomial, partials in shape:
        coeff = magnitude * rng.choice([-1, 1])
        factors = [str(coeff)] + ([monomial] if monomial else []) + [partials]
        entries.append({"order": order, "expression": "*".join(factors)})
    return entries


class Invocation:
    """One child process: a CLI run, or the library-level grid case.

    ``argv`` is what the child passes to ``startrace.cli.main`` (with
    ``--out`` added by the runner); for the grid case it names the grid
    size and seed.  ``inputs`` maps a relative path to the JSON to write
    there before the child starts.
    """

    __slots__ = ("kind", "argv", "inputs", "exact")

    def __init__(self, kind, argv, inputs=None, exact=True):
        self.kind = kind
        self.argv = list(argv)
        self.inputs = dict(inputs or {})
        self.exact = exact

    @property
    def key(self):
        return " ".join([self.kind] + self.argv)


def _run(*args):
    return Invocation("cli", ["run", *args])


def _with_equiv(name, shape, n, order, seed, inputs_dir):
    path = os.path.join(inputs_dir, f"{name}-n{n}-K{order}-s{seed}.json")
    inv = _run(name, "--n", str(n), "--order", str(order), "--seed", "0", "--equiv", path)
    inv.inputs[path] = equivalence_entries(shape, seed)
    return inv


GRID_POINTS = 2048


def battery(workload, seed, inputs_dir):
    """Invocations of one workload at a benchmark seed."""
    if workload == "transport":
        return [
            _with_equiv("transport-trace", _SHAPE_N1_K4, 1, 4, seed, inputs_dir),
            _run("trk-conditions", "--n", "1", "--order", "4", "--seed", "0"),
        ]
    if workload == "moyal-wide":
        return [
            _run("moyal-trace", "--n", "2", "--order", "4", "--seed", "0"),
            _run("moyal-trace", "--n", "3", "--order", "2", "--seed", "0"),
        ]
    if workload == "normalize":
        return [
            _run("homogeneity", "--n", "3", "--order", "4"),
            _with_equiv("normalized-uniqueness", _SHAPE_N3_K4, 3, 4, seed, inputs_dir),
            _run("proportionality", "--n", "3", "--order", "4"),
            _run("automorphism-invariance", "--n", "3", "--order", "4"),
            _run("strongly-closed", "--n", "2", "--order", "4", "--seed", "0"),
        ]
    if workload == "grid":
        return [
            Invocation("cli", ["run", "gs-decompose", "--seed", str(seed)], exact=False),
            Invocation("cli", ["run", "brw-bracket", "--seed", str(seed)], exact=False),
            Invocation("grid", ["--points", str(GRID_POINTS), "--seed", str(seed)], exact=False),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("transport", "moyal-wide", "normalize", "grid")


def write_inputs(invocations):
    for inv in invocations:
        for path, data in inv.inputs.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1)
