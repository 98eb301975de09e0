"""The package's public surface."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import mpmath

import startrace
from reach import entered, public_functions, scenario_runs, traced_functions, traced_targets

# Public functions that no scenario enters and no span of bench/tracer.py
# names, each with why it stays.
KEPT = {
    "grid_bracket": "the Poisson bracket of two grids: the block kernel that "
    "bracket_residual runs, whole",
    "poisson_bracket": "the exact Poisson bracket of two Polys, the oracle of C_1^-",
    "standardize": "divides a trace down to its density 1 + O(nu), the normal form in "
    "which the paper compares traces",
    "symplectic_form_matrix": "the matrix J of Omega, whose m^T J m = J is_symplectic tests",
}


def test_every_public_name_resolves():
    missing = [name for name in startrace.__all__ if not hasattr(startrace, name)]
    assert missing == []


def test_exact_layers_bind_no_mpmath():
    for name in ("poly", "formal", "diffop", "gaussfn", "star", "trace", "equiv", "cli"):
        module = importlib.import_module(f"startrace.{name}")
        bound = [
            key
            for key, value in vars(module).items()
            if value is mpmath or getattr(value, "__module__", "").startswith("mpmath")
        ]
        assert bound == [], name


def test_grid_run_loads_no_scipy():
    # the grid layer's Simpson rules are numpy code: no run needs scipy
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from startrace.cli import main\n"
        "status = main(['run', 'brw-bracket', '--format', 'text'])\n"
        "print('scipy' in sys.modules, status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines()[-1] == "False 0"


def test_runs_load_no_mpmath():
    # exact residuals print with str and grid floats with a stdlib port of
    # nstr, so neither the import nor a run, exact or grid, loads mpmath;
    # the command line is read with getopt, so no run loads argparse or locale
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import startrace.cli\n"
        "names = ('mpmath', 'argparse', 'locale')\n"
        "loaded = [[n for n in names if n in sys.modules]]\n"
        "for name in ('moyal-trace', 'automorphism-invariance', 'gs-decompose'):\n"
        "    status = startrace.cli.main(['run', name, '--n', '1', '--order', '2'])\n"
        "    loaded.append(([n for n in names if n in sys.modules], status))\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines()[-1] == str([[]] + [([], 0)] * 3)


def test_traced_names_resolve():
    # the tracer wraps module attributes, and methods from their own class
    # body; each target must be a function of a startrace module defined
    # there, so a kernel moved to another module, or an alias left behind,
    # shows here rather than as a span that times the wrong code
    wrong = []
    for span, module_name, path in traced_targets():
        package, _, name = module_name.partition(".")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        target = None if owner is None else vars(owner).get(attr)
        if (
            package != "startrace"
            or getattr(startrace, name, None) is not module
            or not callable(target)
            or getattr(target, "__module__", None) != module_name
            or getattr(target, "__qualname__", None) != path
        ):
            wrong.append((span, module_name, path))
    assert wrong == []


def test_every_public_function_is_run_traced_or_kept(tmp_path):
    # every public function is entered by some scenario at n=1, K=3, named
    # by a tracer span, or kept above for a stated reason, so code that no
    # run reaches shows here rather than growing unnoticed
    codes, statuses = entered(scenario_runs(1, 3, 0, str(tmp_path / "report")))
    assert statuses == [0] * len(statuses)
    traced = traced_functions()
    unreached = {
        name
        for name, fn in public_functions().items()
        if fn.__code__ not in codes and fn.__code__ not in traced
    }
    assert sorted(unreached) == sorted(KEPT)


def _unused_imports(path):
    """Names that ``path`` imports and never reads, with their lines."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    # the package's __init__.py imports are its re-exports, so it is left out
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "startrace").glob("*.py") if p.name != "__init__.py"]
    files += (root / "tests").glob("*.py")
    unused = {p.relative_to(root).as_posix(): _unused_imports(p) for p in sorted(files)}
    assert {path: names for path, names in unused.items() if names} == {}
