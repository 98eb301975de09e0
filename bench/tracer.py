"""External span tracer for the traced benchmark run.

The tracer wraps the public layer functions of ``startrace`` from the
outside: the program carries no tracing code.  Modules import names
directly (``from startrace.gaussfn import gauss_integrate_exact``), so a
module-level function is replaced in every ``startrace`` module that binds
it, the package re-exports included; a method is replaced on its class,
together with any alias of it in the class body.

Spans live in memory as parallel lists indexed by span id, each with the
id of the span that was open when it started.  Self time is a span's
duration minus the durations of its direct children, computed once at the
end; the spans themselves are written out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Span name -> (module, attribute path).  Several targets may share one
# span name (the grid generators report together as ``generate``).
TARGETS = [
    ("cli.main", "startrace.cli", "main"),
    ("cli.emit_report", "startrace.cli", "emit_report"),
    ("equiv.transport_star", "startrace.equiv", "transport_star"),
    ("equiv.equiv_invert", "startrace.equiv", "equiv_invert"),
    ("equiv.transport_euler", "startrace.equiv", "transport_euler"),
    ("equiv.density_from_equivalence", "startrace.equiv", "density_from_equivalence"),
    ("star.moyal_construct", "startrace.star", "moyal_construct"),
    ("star.star_multiply", "startrace.star", "star_multiply"),
    ("star.closedness_integral", "startrace.star", "closedness_integral"),
    ("diffop.BiDiffOp.apply", "startrace.diffop", "BiDiffOp.apply"),
    ("diffop.BiDiffOp.conjugate", "startrace.diffop", "BiDiffOp.conjugate"),
    ("diffop.BiDiffOp.antisym", "startrace.diffop", "BiDiffOp.antisym"),
    ("diffop.DiffOp.apply", "startrace.diffop", "DiffOp.apply"),
    ("diffop.DiffOp.compose", "startrace.diffop", "DiffOp.compose"),
    ("gaussfn.GaussFn.diff_multi", "startrace.gaussfn", "GaussFn.diff_multi"),
    ("gaussfn.GaussFn.mul", "startrace.gaussfn", "GaussFn.__mul__"),
    ("gaussfn.gauss_integrate_exact", "startrace.gaussfn", "gauss_integrate_exact"),
    ("gaussfn.gauss_integrate_bigfloat", "startrace.gaussfn", "gauss_integrate_bigfloat"),
    ("poly.Poly.mul", "startrace.poly", "Poly.__mul__"),
    ("poly.Poly.translate", "startrace.poly", "Poly.translate"),
    ("formal.FormalScalar.mul", "startrace.formal", "FormalScalar.__mul__"),
    ("formal.FormalScalar.divide", "startrace.formal", "FormalScalar.divide"),
    ("trace.trace_eval", "startrace.trace", "trace_eval"),
    ("trace.trk_residual", "startrace.trace", "trk_residual"),
    ("trace.proportionality_factor", "startrace.trace", "proportionality_factor"),
    ("trace.normalization_residual", "startrace.trace", "normalization_residual"),
    ("gsdecomp.gs_decompose", "startrace.gsdecomp", "gs_decompose"),
    ("gsdecomp.bracket_decompose", "startrace.gsdecomp", "bracket_decompose"),
    ("gsdecomp.grid_diff", "startrace.gsdecomp", "grid_diff"),
    ("gsdecomp.generate", "startrace.gsdecomp", "tapered_generate"),
    ("gsdecomp.generate", "startrace.gsdecomp", "bump_generate"),
    ("gsdecomp.generate", "startrace.gsdecomp", "plateau_generate"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))

REUSE_RATIO = "gaussfn.GaussFn.diff_multi.reuse_ratio"
_DISTINCT = "gaussfn.GaussFn.diff_multi.distinct"

# Counters beyond calls and self time, each with its unit.
EXTRA_COUNTERS = {
    "diffop.BiDiffOp.apply.terms": "count",
    "poly.Poly.mul.terms_out": "count",
    REUSE_RATIO: "ratio",
    "equiv.cochain_terms": "count",
    "gsdecomp.bytes_computed": "bytes",
}

# Spans whose grid arrays count towards ``gsdecomp.bytes_computed``:
# arrays read and written at these boundaries, from their sizes.
_BYTE_SPANS = {"gsdecomp.gs_decompose", "gsdecomp.grid_diff", "gsdecomp.generate"}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_COUNTERS)
    return units


def combine(summaries):
    """Per-layer metrics of several traced processes.

    Counts and times add up; the reuse ratio is distinct (operand,
    multi-index) pairs over calls, each process counting its own pairs.
    """
    total = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    distinct = total.pop(_DISTINCT, 0)
    calls = total.get("gaussfn.GaussFn.diff_multi.calls", 0)
    total[REUSE_RATIO] = distinct / calls if calls else 0.0
    return total


def _grid_bytes(value):
    """Bytes of the grid arrays in a value: a GridFn, or nested sequences."""
    values = getattr(value, "values", None)
    if values is not None and hasattr(values, "nbytes"):
        return int(values.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_grid_bytes(v) for v in value)
    return 0


def _startrace_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and name.split(".")[0] == "startrace"
    ]


class Tracer:
    """Records one span per call of each wrapped layer function."""

    def __init__(self):
        self.parents = []
        self.names = []
        self.starts = []
        self.ends = []
        self._stack = []
        self._name_index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.apply_terms = 0
        self.mul_terms_out = 0
        self.cochain_terms = 0
        self.grid_bytes = 0
        self._diff_multi_keys = set()
        self.patched = {}

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every target; returns the number of bindings replaced."""
        replaced = 0
        for span, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(span, original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapper)
                        replaced += 1
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(span, original)
                for mod in _startrace_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            replaced += 1
            self.patched[original] = wrapper
        return replaced

    def _wrap(self, span, fn):
        index = self._name_index[span]
        observe = self._observer(span)
        clock = time.perf_counter
        parents, names, starts, ends, stack = (
            self.parents,
            self.names,
            self.starts,
            self.ends,
            self._stack,
        )

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(index)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observer(self, span):
        """Counter update run after a call returns, outside its span."""
        if span == "diffop.BiDiffOp.apply":

            def observe(args, result):
                self.apply_terms += len(args[0].coeffs)

        elif span == "poly.Poly.mul":

            def observe(args, result):
                if result is not NotImplemented:
                    self.mul_terms_out += len(result.terms)

        elif span == "gaussfn.GaussFn.diff_multi":

            def observe(args, result):
                self._diff_multi_keys.add((hash(args[0]), tuple(args[1])))

        elif span == "equiv.transport_star":

            def observe(args, result):
                self.cochain_terms += sum(len(c.coeffs) for c in result.cochains.values())

        elif span in _BYTE_SPANS:

            def observe(args, result):
                self.grid_bytes += _grid_bytes(args[:1]) + _grid_bytes(result)

        else:
            observe = None
        return observe

    # -- results ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= d
        return own

    def summary(self):
        """Raw per-layer counters of everything recorded so far."""
        out = {key: 0 for key in metric_units()}
        del out[REUSE_RATIO]
        for index, own in zip(self.names, self.self_times()):
            name = SPAN_NAMES[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        out["diffop.BiDiffOp.apply.terms"] = self.apply_terms
        out["poly.Poly.mul.terms_out"] = self.mul_terms_out
        out["equiv.cochain_terms"] = self.cochain_terms
        out["gsdecomp.bytes_computed"] = self.grid_bytes
        out[_DISTINCT] = len(self._diff_multi_keys)
        return out

    def dump(self, path):
        """Write every span as ``[id, parent, name, start_s, end_s]``."""
        spans = [
            [sid, parent, SPAN_NAMES[index], start, end]
            for sid, (parent, index, start, end) in enumerate(
                zip(self.parents, self.names, self.starts, self.ends)
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh, separators=(",", ":"))
