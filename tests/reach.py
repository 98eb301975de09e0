"""Which functions of ``startrace`` do its runs enter?

:func:`entered` runs callables under ``sys.setprofile`` and collects the
code of every Python function they enter; :func:`package_functions` names
the code of every function and method that a ``startrace`` module
defines.  The Tier-1 guard in ``test_package.py`` runs every scenario at
n=1, K=3 through them.

Run as a script from the checkout root, this is the full reach probe::

    PYTHONPATH=src python tests/reach.py

It runs every scenario at (n, K, seed) = (1,4,0), (2,4,1), (3,4,2) and
(1,6,0) in both report formats, the batteries of the four benchmark
workloads (``bench/workloads.py``) and the benchmark's library grid case
(``bench/child.py``) on a 2048^2 grid, all in one process, and prints each
function of the package that none of them entered, marked ``traced``
where ``bench/tracer.py`` names it and ``public`` where it is in
``startrace.__all__``.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import sys
import tempfile
from collections import Counter
from functools import partial

import startrace
from startrace import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

CELLS = [(1, 4, 0), (2, 4, 1), (3, 4, 2), (1, 6, 0)]


def entered(calls):
    """``(codes, results)``: the code of every Python function entered while
    the callables ``calls`` run, one after another, and what each returned."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        results = [call() for call in calls]
    finally:
        sys.setprofile(previous)
    return codes, results


def scenario_runs(n, order, seed, out, formats=("json",)):
    """One ``startrace run`` call per scenario and report format, each
    writing its report to ``out``."""
    knobs = ["--n", str(n), "--order", str(order), "--seed", str(seed), "--out", out]
    return [
        partial(cli.main, ["run", name, *knobs, "--format", fmt])
        for name in cli.SCENARIOS
        for fmt in formats
    ]


def package_functions():
    """``{code: "module.qualname"}`` for every function and method that a
    module of ``startrace`` defines, properties and class and static
    methods included."""
    names = {}
    for info in pkgutil.iter_modules(startrace.__path__):
        module = importlib.import_module(f"startrace.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                parts = [member.fget, member.fset] if isinstance(member, property) else [member]
                for fn in filter(inspect.isfunction, parts):
                    names[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return names


def traced_targets():
    """``TARGETS`` of ``bench/tracer.py``, read as a literal without importing it."""
    path = ROOT / "bench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def traced_functions():
    """The code of each function that a ``bench/tracer.py`` target names."""
    codes = set()
    for _, module_name, path in traced_targets():
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if inspect.isfunction(obj):
            codes.add(obj.__code__)
    return codes


def public_functions():
    """``{name: function}`` for the functions among ``startrace.__all__``."""
    named = {name: getattr(startrace, name) for name in startrace.__all__}
    return {name: obj for name, obj in named.items() if inspect.isfunction(obj)}


def main():
    sys.path.insert(0, str(ROOT / "bench"))
    import child
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        out = str(pathlib.Path(tmp) / "report")
        calls = []
        for n, order, seed in CELLS:
            calls += scenario_runs(n, order, seed, out, ("json", "text"))
        for workload in workloads.WORKLOADS:
            battery = workloads.battery(workload, 0, tmp)
            workloads.write_inputs(battery)
            runs = [inv.argv for inv in battery if inv.kind == "cli"]
            calls += [partial(cli.main, [*argv, "--out", out]) for argv in runs]
        calls.append(partial(child._grid_case, workloads.GRID_POINTS, 0))
        codes, results = entered(calls)
    exits = Counter(r for r in results if isinstance(r, int))
    print(f"{len(calls)} runs, exit statuses {dict(sorted(exits.items()))}")
    marks = {"traced": traced_functions()}
    marks["public"] = {fn.__code__ for fn in public_functions().values()}
    unreached = {name: code for code, name in package_functions().items() if code not in codes}
    print(f"{len(unreached)} functions entered by no run:")
    for name, code in sorted(unreached.items()):
        print(" ", name, *(f"({mark})" for mark, held in marks.items() if code in held))


if __name__ == "__main__":
    main()
