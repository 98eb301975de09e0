"""Grid-sampled decompositions into derivatives and Poisson brackets.

Compactly supported functions live on uniform symmetric boxes as
:class:`GridFn` samples.  ``gs_decompose`` splits a zero-integral
function into a divergence ``sum_i d_i g_i`` by the marginalize /
subtract-bump / cumulate recursion; ``bracket_decompose`` converts that
into Poisson-bracket pairs with cutoff coordinate functions.  Everything
is double precision: derivatives are 4th-order central differences and
integrals are composite Simpson rules.  Both Simpson rules, the total
and the running one, are this module's own numpy code.

Every :class:`GridFn` carries a support box: one half-open index range
per axis, inside the interior that its margin band leaves, with every
sample outside it exactly 0.0.  The public constructor measures the box
of the samples it is given; every result derives its box from its
operands' boxes: a stencil widens it by two cells along its axis, a
product takes the overlap, a sum the smallest box holding both, a
translation shifts it, a running integral extends it to the far end of
its axis.  Each kernel reads and writes only inside the boxes, into
arrays that start as zeros, and leaves every other sample alone: what it
would have computed there is a stencil of zeros, or a product with a
zero factor, which is 0.0 again (up to its sign).  Every float inside a
box is computed by the same operations in the same order as the
whole-array formulas, so results are bit-identical to them.  The margin
check (against ``MARGIN_SNAP_TOL``; NaN fails) and the snap to 0.0 cover
the part of the band that the box reaches into; the box is then clipped
to the interior.

A product of two functions covers the overlap of their boxes only while
both are finite, since ``inf * 0`` is NaN.  The bracket kernels take the
overlap of their stencils' boxes without that check: where one stencil
is zero the bracket term is zero, even if the other overflowed.

The kernels run about ``_BLOCK`` samples at a time, so no temporary of
the size of the box is written and read back: ``grid_diff`` and
``grid_bracket`` fill one output array, and the two residuals subtract
each term's block from a block of ``u`` and keep only its peak.  Sums
that may skip all-zero rows (``grid_integrate``) still run each pairwise
sum over the full length of its row.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np


class MarginError(ValueError):
    """A grid function failed the compact-support margin contract."""


class NonzeroIntegralError(ValueError):
    """Decomposition input has a total integral beyond tolerance."""


MIN_MARGIN = 5
# margin samples below this magnitude are snapped to exact zero; above it
# the compact-support contract is considered violated
MARGIN_SNAP_TOL = 1e-7
# decomposition pairs whose left entry stays below this (relative) size
# are dropped as numerically zero
DROP_TOL = 1e-9
# samples per pass of the blocked kernels (the grid_diff stencil, the
# Simpson rules): a block of each operand and temporary stays in cache
_BLOCK = 1 << 15


# -- support boxes ----------------------------------------------------
#
# A box is a tuple of half-open index ranges ``(lo, hi)``, one per axis;
# it is empty when any range is.


def _empty(box):
    return any(lo >= hi for lo, hi in box)


def _meet(a, b):
    """The overlap of two boxes."""
    return tuple((max(la, lb), min(ha, hb)) for (la, ha), (lb, hb) in zip(a, b))


def _join(a, b):
    """The smallest box holding two boxes."""
    if _empty(a):
        return b
    if _empty(b):
        return a
    return tuple((min(la, lb), max(ha, hb)) for (la, ha), (lb, hb) in zip(a, b))


def _along(box, axis, span):
    """``box`` with its range on ``axis`` replaced by ``span``."""
    return box[:axis] + (span,) + box[axis + 1 :]


def _widen(box, axis, cells):
    """``box`` grown by ``cells`` at both ends of ``axis``."""
    if _empty(box):
        return box
    lo, hi = box[axis]
    return _along(box, axis, (lo - cells, hi + cells))


def _moved(box, axis, cells):
    """``box`` shifted by ``cells`` along ``axis``."""
    lo, hi = box[axis]
    return _along(box, axis, (lo + cells, hi + cells))


def _key(box, origin=None):
    """Slices of ``box``, relative to the lower corner of ``origin`` if given."""
    if origin is None:
        return tuple(slice(lo, hi) for lo, hi in box)
    return tuple(slice(lo - o, hi - o) for (lo, hi), (o, _) in zip(box, origin))


def _nonzero_span(samples):
    """Index range of the nonzero entries of a 1D array; ``(0, 0)`` if none."""
    hit = np.flatnonzero(samples)
    return (int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0)


def _measure(values):
    """Box of the nonzero samples of ``values``; a NaN counts as nonzero."""
    nonzero = values != 0
    box = []
    for axis in range(values.ndim):
        others = tuple(i for i in range(values.ndim) if i != axis)
        box.append(_nonzero_span(nonzero.any(axis=others)))
    return tuple(box)


def _blocks(box, whole=None):
    """Sub-boxes of ``box`` in C order, about ``_BLOCK`` samples each.

    The axes from ``whole`` on, if given, are never split; nor is a
    trailing run of axes that fits in one block.
    """
    if _empty(box):
        return []
    first = len(box) if whole is None else whole
    inner = math.prod(hi - lo for lo, hi in box[first:])
    split = None
    for axis in reversed(range(first)):
        size = box[axis][1] - box[axis][0]
        if inner * size > _BLOCK:
            split = axis
            break
        inner *= size
    if split is None:
        return [box]
    step = max(1, _BLOCK // inner)
    lo, hi = box[split]
    block, blocks = list(box), []
    for head in itertools.product(*(range(*span) for span in box[:split])):
        block[:split] = [(i, i + 1) for i in head]
        for start in range(lo, hi, step):
            block[split] = (start, min(start + step, hi))
            blocks.append(tuple(block))
    return blocks


def _scratch(count, blocks):
    """``count`` buffers, each large enough for any of ``blocks``."""
    size = max((math.prod(hi - lo for lo, hi in b) for b in blocks), default=0)
    return [np.empty(size) for _ in range(count)]


def _view(buffer, box):
    """The start of a scratch buffer, shaped like ``box``."""
    shape = tuple(hi - lo for lo, hi in box)
    return buffer[: math.prod(shape)].reshape(shape)


class GridFn:
    """Samples of a compactly supported function on a symmetric box.

    The box is ``[-L_1, L_1] x ... x [-L_N, L_N]`` with the same number
    of points on every axis; values must vanish on a band of at least
    ``MIN_MARGIN`` cells at every boundary.
    """

    __slots__ = ("dimension", "half_widths", "points", "margin_cells", "values", "h", "_box")

    def __init__(self, half_widths, points, values, margin_cells):
        half_widths = tuple(float(w) for w in half_widths)
        if not half_widths or any(w <= 0 for w in half_widths):
            raise ValueError("half widths must be positive")
        if margin_cells < MIN_MARGIN:
            raise MarginError(f"margin must be at least {MIN_MARGIN} cells")
        if points <= 2 * margin_cells + 4:
            raise ValueError("grid too small for its margins")
        for w in half_widths:
            h = 2 * w / (points - 1)
            if not (math.isfinite(2 * w) and math.isfinite(h) and h > 0):
                raise ValueError("half widths must give a finite box with a positive spacing")
        values = np.array(values, dtype=float, order="C")
        if values.shape != (points,) * len(half_widths):
            raise ValueError("value array shape does not match the grid")
        self._fill(half_widths, points, values, margin_cells, _measure(values))

    @classmethod
    def _result(cls, half_widths, points, values, margin_cells, box):
        """A GridFn that takes ownership of ``values``, a C-contiguous float
        array this module has just allocated on the grid of
        ``half_widths``/``points``, with every sample outside ``box`` 0.0.

        No shape check and no copy; the margin is still checked and snapped
        where ``box`` reaches into it.
        """
        f = object.__new__(cls)
        f._fill(half_widths, points, values, margin_cells, box)
        return f

    def _fill(self, half_widths, points, values, margin_cells, box):
        if not _empty(box):
            box = _snap_margin(values, margin_cells, box)
        self.dimension = len(half_widths)
        self.half_widths = half_widths
        self.points = points
        self.margin_cells = margin_cells
        self.values = values
        self.h = tuple(2 * w / (points - 1) for w in half_widths)
        self._box = box

    # -- inspection ---------------------------------------------------

    def axis_coordinates(self, axis):
        return np.linspace(-self.half_widths[axis], self.half_widths[axis], self.points)

    def sup_norm(self):
        """``max |values|`` over the box, without an ``abs`` copy; a NaN
        propagates, and ``+ 0.0`` turns a ``-0.0`` into ``0.0`` as ``abs``
        would."""
        if _empty(self._box):
            return 0.0
        values = self.values[_key(self._box)]
        return float(np.maximum(values.max(), -values.min())) + 0.0

    def _check_compat(self, other):
        if (
            self.dimension != other.dimension
            or self.half_widths != other.half_widths
            or self.points != other.points
        ):
            raise ValueError("grid functions live on different grids")

    # -- pointwise algebra --------------------------------------------

    def _pointwise(self, op, operands, box, margin):
        """``op`` of the operands' samples on ``box``, zeros elsewhere."""
        out = np.zeros(self.values.shape)
        key = _key(box)
        op(*(x[key] if isinstance(x, np.ndarray) else x for x in operands), out=out[key])
        return GridFn._result(self.half_widths, self.points, out, margin, box)

    def __add__(self, other):
        self._check_compat(other)
        margin = min(self.margin_cells, other.margin_cells)
        box = _join(self._box, other._box)
        return self._pointwise(np.add, (self.values, other.values), box, margin)

    def __sub__(self, other):
        self._check_compat(other)
        margin = min(self.margin_cells, other.margin_cells)
        box = _join(self._box, other._box)
        return self._pointwise(np.subtract, (self.values, other.values), box, margin)

    def __neg__(self):
        return self._pointwise(np.negative, (self.values,), self._box, self.margin_cells)

    def __mul__(self, other):
        if isinstance(other, GridFn):
            self._check_compat(other)
            margin = max(self.margin_cells, other.margin_cells)
            # inf * 0 is NaN: a non-finite sample keeps its place in the result
            finite = math.isfinite(self.sup_norm()) and math.isfinite(other.sup_norm())
            box = (_meet if finite else _join)(self._box, other._box)
            return self._pointwise(np.multiply, (self.values, other.values), box, margin)
        c = float(other)
        box = self._box if math.isfinite(c) else ((0, self.points),) * self.dimension
        return self._pointwise(np.multiply, (self.values, c), box, self.margin_cells)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GridFn):
            return NotImplemented
        return (
            self.half_widths == other.half_widths
            and self.points == other.points
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return (
            f"GridFn(dim={self.dimension}, points={self.points}, "
            f"margin={self.margin_cells})"
        )

    # -- serialization ------------------------------------------------

    def to_dict(self):
        return {
            "dimension": self.dimension,
            "half_widths": list(self.half_widths),
            "points_per_axis": self.points,
            "margin_cells": self.margin_cells,
            "values": [float(v) for v in self.values.ravel()],
        }

    @classmethod
    def from_dict(cls, data):
        for field in ("dimension", "half_widths", "points_per_axis", "margin_cells", "values"):
            if field not in data:
                raise ValueError(f"grid file lacks field {field!r}")
        dimension, points = data["dimension"], data["points_per_axis"]
        margin, widths = data["margin_cells"], data["half_widths"]
        sizes = (dimension, points, margin)
        if any(isinstance(k, bool) or not isinstance(k, int) for k in sizes):
            raise ValueError("dimension, points_per_axis and margin_cells must be integers")
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if _number_array(widths, "half_widths").shape != (dimension,):
            raise ValueError("half_widths must list one width per dimension")
        values = _number_array(data["values"], "values")
        size = values.size  # dimension <= its bit length keeps the power small
        if not (points > 0 and dimension <= size.bit_length() and points**dimension == size):
            raise ValueError(f"values must list points_per_axis**dimension numbers, not {size}")
        return cls(widths, points, values.reshape((points,) * dimension), margin)


def _number_array(value, name):
    """A flat JSON list of finite numbers, bools excluded, as a float array;
    anything else (``json`` also reads ``NaN``, ``Infinity`` and ints past
    the float range) is a ValueError."""
    if not isinstance(value, list) or any(
        k is bool or not issubclass(k, (int, float)) for k in set(map(type, value))
    ):
        raise ValueError(f"{name} must be a flat list of numbers")
    try:
        array = np.array(value, dtype=float)
        if np.all(np.isfinite(array)):
            return array
    except OverflowError:
        pass
    raise ValueError(f"{name} must be finite numbers")


def _snap_margin(values, margin_cells, box):
    """Check that ``values`` (nearly) vanish where ``box`` reaches into the
    margin band, zero those samples, and return ``box`` clipped to the
    interior.

    A NaN on the band fails the check like any sample above the tolerance.
    Outside ``box`` every sample is 0.0 already.
    """
    points = values.shape[0]
    for axis, (lo, hi) in enumerate(box):
        for band in ((lo, min(hi, margin_cells)), (max(lo, points - margin_cells), hi)):
            if band[0] >= band[1]:
                continue
            part = values[_key(_along(box, axis, band))]
            # max |band| without an abs copy, as in sup_norm
            worst = float(np.maximum(part.max(), -part.min()))
            if not worst <= MARGIN_SNAP_TOL:
                raise MarginError(f"values reach {worst:.3e} on the declared margin")
            part[...] = 0.0
    return tuple((max(lo, margin_cells), min(hi, points - margin_cells)) for lo, hi in box)


# -- calculus ---------------------------------------------------------


def _check_differentiable(f):
    if f.margin_cells - 2 < MIN_MARGIN:
        raise MarginError("margin too thin to differentiate")


def _stencil(f, axis, box, out, scratch):
    """The ``grid_diff`` stencil of ``f`` on the samples of ``box``.

    ``out`` is shaped like ``box``, and ``scratch[0]`` holds the
    temporary.  Its first sum is taken as ``8 v[i+1] - v[i+2]``, which
    IEEE addition makes the same float as ``-v[i+2] + 8 v[i+1]`` in one
    pass fewer.  ``box`` must lie two cells inside the grid along ``axis``.
    """
    v = f.values
    t = _view(scratch[0], box)
    np.multiply(v[_key(_moved(box, axis, 1))], 8, out=out)
    out -= v[_key(_moved(box, axis, 2))]
    np.multiply(v[_key(_moved(box, axis, -1))], 8, out=t)
    out -= t
    out += v[_key(_moved(box, axis, -2))]
    out /= 12 * f.h[axis]


def grid_diff(f, axis):
    """4th-order central difference along an axis; costs two margin cells.

    ``(-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / 12h`` along the axis, on
    the box of ``f`` widened by two cells along it.
    """
    if not 0 <= axis < f.dimension:
        raise ValueError("axis out of range")
    _check_differentiable(f)
    box = _widen(f._box, axis, 2)
    out = np.zeros(f.values.shape)
    blocks = _blocks(box)
    scratch = _scratch(1, blocks)
    for block in blocks:
        _stencil(f, axis, block, out[_key(block)], scratch)
    return GridFn._result(f.half_widths, f.points, out, f.margin_cells - 2, box)


def _residual_sup(u, terms):
    """``max |u - sum(terms)|``, a block at a time, subtracting in order.

    Each term is a pair ``(box, write)``: the term is 0.0 outside ``box``,
    and ``write(sub, out, scratch)`` writes its samples on a sub-box
    ``sub`` of ``box`` into ``out``, shaped like ``sub``, with up to three
    ``scratch`` buffers.
    """
    region = u._box
    for box, _ in terms:
        region = _join(region, box)
    blocks = _blocks(region)
    acc, term, *scratch = _scratch(5, blocks)
    peaks = []
    for block in blocks:
        r = _view(acc, block)
        r[...] = u.values[_key(block)]
        for box, write in terms:
            sub = _meet(block, box)
            if _empty(sub):
                continue
            s = _view(term, sub)
            write(sub, s, scratch)
            part = r[_key(sub, block)]
            part -= s
        peaks.append(np.max(np.abs(r, out=r)))
    return float(np.max(peaks)) if peaks else 0.0


def _along_index(ndim, axis, index):
    """An index tuple that applies ``index`` to ``axis`` only."""
    key = [slice(None)] * ndim
    key[axis] = index
    return tuple(key)


def _simpson(y, dx, axis, box=None):
    """Composite Simpson integral of uniform samples along ``axis``.

    Odd ``N`` fits parabolas over intervals ``0..N-2``; even ``N`` fits
    them over ``0..N-3`` and adds Cartwright's last-interval correction.
    Only the rows that ``box`` (default: all of ``y``) reaches are summed,
    the rest integrate to 0.0; each row is summed over its full length.
    """
    n = y.shape[axis]
    stop = n - 3 if n % 2 == 0 else n - 2

    def at(a, index):
        return a[_along_index(a.ndim, axis, index)]

    result = np.zeros(y.shape[:axis] + y.shape[axis + 1 :])
    rows = tuple((0, size) for size in y.shape) if box is None else box
    for block in _blocks(_along(rows, axis, (0, n)), whole=axis):
        parts = [at(y[_key(block)], slice(start, stop + start, 2)) for start in range(3)]
        out = result[_key(block[:axis] + block[axis + 1 :])] if result.ndim else result
        np.sum(parts[0] + 4.0 * parts[1] + parts[2], axis=axis, out=out)
    result *= dx / 3.0
    if n % 2 == 0:
        # Cartwright's weights for spacings h0, h1, evaluated term for term
        # at h0 = h1 = h; simplified forms such as 5h/12 can round
        # differently and move grid reports in their last digits
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = h**3 / (6 * h * (h + h))
        result += alpha * at(y, -1) + beta * at(y, -2) - eta * at(y, -3)
    return result


def _cumulative_simpson(y, dx, axis, out=None):
    """Running Simpson integral of uniform samples along ``axis``, from 0.

    Interval ``k`` takes the parabola through samples ``k..k+2`` when
    ``k`` is even and through ``k-1..k+1`` when ``k`` is odd or last.
    Rows along ``axis`` are taken a block at a time, so the temporaries
    stay in cache.  The result goes to ``out`` (default a new array).

    On a window of the rows that starts at a ``_window_start`` and ends at
    the last sample or holds an odd number of samples, the rule gives the
    same floats as on the whole rows: the intervals have the same parity
    and the same parabolas, and none of them is taken as the last.
    """
    n = y.shape[axis]
    d = dx / 3
    out = np.empty(y.shape) if out is None else out

    def at(index):
        return _along_index(y.ndim, axis, index)

    for block in _blocks(tuple((0, size) for size in y.shape), whole=axis):
        r, o = y[_key(block)], out[_key(block)]
        a, b, c = r[at(slice(0, n - 2, 2))], r[at(slice(1, n - 1, 2))], r[at(slice(2, n, 2))]
        o[at(0)] = 0.0
        o[at(slice(1, n - 1, 2))] = d * (5 * a / 4 + 2 * b - c / 4)
        o[at(slice(2, n, 2))] = d * (5 * c / 4 + 2 * b - a / 4)
        if n % 2 == 0:
            o[at(-1)] = d * (5 * r[at(-1)] / 4 + 2 * r[at(-2)] - r[at(-3)] / 4)
        np.cumsum(o, axis=axis, out=o)
    return out


def _window_start(lo):
    """The even index at or below ``lo - 2`` where a running integral of
    samples that are zero before ``lo`` may start from 0.0: every interval
    before it reads only zeros."""
    return max(lo - 2, 0) // 2 * 2


def grid_integrate(f):
    """Composite Simpson integral over the whole box."""
    v = f.values
    for axis in reversed(range(f.dimension)):
        v = _simpson(v, f.h[axis], axis, f._box[: axis + 1])
    return float(v)


def grid_cumulative(f, axis):
    """Running Simpson integral from the lower box edge along an axis.

    Only meaningful when the result decays again: a nonzero integral
    along the axis leaves the far margin nonzero and raises.
    """
    if not 0 <= axis < f.dimension:
        raise ValueError("axis out of range")
    out = np.zeros(f.values.shape)
    box = f._box
    if not _empty(box):
        box = _along(box, axis, (_window_start(box[axis][0]), f.points))
        _cumulative_simpson(f.values[_key(box)], f.h[axis], axis, out=out[_key(box)])
    return GridFn._result(f.half_widths, f.points, out, f.margin_cells, box)


def grid_translate(f, cells):
    """Shift by whole cells per axis; the support must stay inside the margin."""
    if len(cells) != f.dimension:
        raise ValueError("need one shift per axis")
    margin = f.margin_cells - max(abs(int(c)) for c in cells) if cells else f.margin_cells
    if margin < MIN_MARGIN:
        raise MarginError("translation pushes the support into the margin")
    box = f._box
    for axis, c in enumerate(cells):
        box = _moved(box, axis, int(c))
    v = np.zeros(f.values.shape)
    if not _empty(box):
        v[_key(box)] = f.values[_key(f._box)]
    return GridFn._result(f.half_widths, f.points, v, margin, box)
# -- canonical profiles -----------------------------------------------


def _bump_profile(t):
    """``exp(-1/(1-t^2))`` inside (-1, 1), exactly zero outside."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _plateau_profile(t):
    """Smooth step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    num = np.zeros_like(t)
    pos = t > 0
    num[pos] = np.exp(-1.0 / t[pos])
    den = np.zeros_like(t)
    rising = t < 1
    den[rising] = np.exp(-1.0 / (1.0 - t[rising]))
    total = num + den  # strictly positive: at least one branch is active
    return num / total


def _cos8_profile(t):
    """``cos(pi t / 2)^8`` inside (-1, 1), exactly zero outside."""
    return np.where(np.abs(t) < 1, np.cos(np.pi * np.clip(t, -1, 1) / 2) ** 8, 0.0)


def _broadcast(value, dimension):
    if np.isscalar(value):
        return (float(value),) * dimension
    out = tuple(float(v) for v in value)
    if len(out) != dimension:
        raise ValueError("need one entry per axis")
    return out


def _profile_box(per_axis):
    """Box of the nonzero samples of an outer product of profiles."""
    return tuple(_nonzero_span(profile) for profile in per_axis)


def _axis_profile_product(per_axis):
    """Outer product of one profile per axis, multiplied in axis order.

    Only the box of the profiles' nonzero samples is written, into zeros:
    every other product has a zero factor.  The last multiply writes into
    the result, and a one-axis product is a copy of its profile.
    """
    values = np.zeros(tuple(len(profile) for profile in per_axis))
    box = _profile_box(per_axis)
    if _empty(box):
        return values
    parts = [profile[lo:hi] for profile, (lo, hi) in zip(per_axis, box)]
    if len(parts) == 1:
        values[_key(box)] = parts[0]
        return values
    inner = parts[0]
    for part in parts[1:-1]:
        inner = np.multiply.outer(inner, part)
    np.multiply.outer(inner, parts[-1], out=values[_key(box)])
    return values


def _unit_product_bump(
    profile, dimension, half_widths, points_per_axis, support, margin_cells
):
    """Product of ``profile(x_i / support_i)`` over the axes, scaled to unit
    Simpson integral; the support must clear the margin band by one cell."""
    half_widths = _broadcast(half_widths, dimension)
    support = _broadcast(support, dimension)
    h = [2 * w / (points_per_axis - 1) for w in half_widths]
    for w, s, hi in zip(half_widths, support, h):
        if s <= 0:
            raise ValueError("support half widths must be positive")
        if s >= w - (margin_cells + 1) * hi:
            raise MarginError("support too large for the declared margin")
    profiles = []
    for axis in range(dimension):
        x = np.linspace(-half_widths[axis], half_widths[axis], points_per_axis)
        profiles.append(profile(x / support[axis]))
    values = _axis_profile_product(profiles)
    f = GridFn._result(half_widths, points_per_axis, values, margin_cells, _profile_box(profiles))
    inside = values[_key(f._box)]
    inside *= 1.0 / grid_integrate(f)
    return GridFn._result(half_widths, points_per_axis, values, margin_cells, f._box)


def bump_generate(dimension, half_widths, points_per_axis, support, margin_cells=8):
    """Product bump supported in ``|x_i| < support_i``, unit Simpson integral."""
    return _unit_product_bump(
        _bump_profile, dimension, half_widths, points_per_axis, support, margin_cells
    )


def tapered_generate(dimension, half_widths, points_per_axis, support, margin_cells=8):
    """Unit-integral ``cos^8`` product bump: the gentle test-battery profile.

    C^5 across its support edge, so 4th-order grid calculus converges at
    full rate on it; the canonical exp-profile bump has much larger high
    derivatives near the edge and dominates any residual it enters.
    """
    return _unit_product_bump(
        _cos8_profile, dimension, half_widths, points_per_axis, support, margin_cells
    )


def plateau_generate(dimension, half_widths, points_per_axis, support, margin_cells=8):
    """Product cutoff equal to 1 on ``|x_i| <= support_i``, 0 near the boundary.

    The transition width per axis fills the room between the plateau and
    the margin band.
    """
    half_widths = _broadcast(half_widths, dimension)
    support = _broadcast(support, dimension)
    h = [2 * w / (points_per_axis - 1) for w in half_widths]
    decay = tuple(
        w - (margin_cells + 1) * hi - s for w, s, hi in zip(half_widths, support, h)
    )
    profiles = []
    for axis in range(dimension):
        d = decay[axis]
        if d <= 0:
            raise MarginError("no room for the cutoff to decay inside the margin")
        x = np.abs(np.linspace(-half_widths[axis], half_widths[axis], points_per_axis))
        profiles.append(_plateau_profile((support[axis] + d - x) / d))
    values = _axis_profile_product(profiles)
    return GridFn._result(
        half_widths, points_per_axis, values, margin_cells, _profile_box(profiles)
    )


# -- derivative decomposition -----------------------------------------


def _axis_ramp_values(f, axis):
    """Ramp of the canonical bump on one axis, and its discrete derivative.

    The ramp is the cumulative integral of the bump rescaled to end at
    exactly 1, so tail subtractions leave exact zeros on the far margin.
    Reinserting marginals against ``r_d = diff(ramp)`` rather than the
    sampled bump itself makes the divergence identity hold up to the
    differencing error of the input alone: the bump's own (much larger)
    discretization error cancels.
    """
    w = f.half_widths[axis]
    h = f.h[axis]
    x = np.linspace(-w, w, f.points)
    r = _bump_profile(x / (w / 2))
    ramp = _cumulative_simpson(r, h, 0)
    ramp = ramp / ramp[-1]
    r_d = np.zeros_like(ramp)
    r_d[2:-2] = (-ramp[4:] + 8 * ramp[3:-1] - 8 * ramp[1:-3] + ramp[:-4]) / (12 * h)
    return ramp, r_d


def integral_tolerance(f):
    """Zero-integral precondition scale: ``1e-8`` per unit of box volume."""
    volume = 1.0
    for w in f.half_widths:
        volume *= 2 * w
    return 1e-8 * volume


def _ramp_span(ramp):
    """Index range outside which ``ramp`` is exactly 0.0 (before) or 1.0 (after)."""
    return _nonzero_span(ramp)[0], int(np.flatnonzero(ramp != 1.0)[-1]) + 1


def _gs_recurse(u):
    axis = u.dimension - 1
    ramp, r_d = _axis_ramp_values(u, axis)
    cum = np.zeros(u.values.shape)
    # the running-rule marginal of u
    tail = np.zeros(u.values.shape[:-1])
    rows, box = u._box[:axis], u._box
    if not _empty(box):
        lo, hi = box[axis]
        # the running integral is 0.0 before lo - 1 and the tail from hi + 1
        # on; the ramp is 0.0 before ramp_lo and 1.0 from ramp_hi on, so
        # cum - tail * ramp is 0.0 outside the span of both
        ramp_lo, ramp_hi = _ramp_span(ramp)
        span = (min(lo - 1, ramp_lo), max(hi + 1, ramp_hi))
        start = _window_start(lo)
        stop = max(span[1], hi + 2)
        stop = min(stop + 1 - (stop - start) % 2, u.points)
        window = _along(box, axis, (start, stop))
        _cumulative_simpson(u.values[_key(window)], u.h[axis], axis, out=cum[_key(window)])
        tail[_key(rows)] = cum[_key(rows) + (stop - 1,)]
        if np.isfinite(tail).all():
            # past the span, tail - tail * 1.0 is 0.0
            cum[_key(rows) + (slice(span[1], stop),)] = 0.0
        else:
            # inf * 0.0 and inf - inf are NaN: the whole rows are needed
            cum[_key(rows) + (slice(stop, None),)] = tail[_key(rows)][..., np.newaxis]
            span = (0, u.points)
        box = _along(box, axis, span)
        for block in _blocks(box):
            part = cum[_key(block)]
            part -= tail[_key(block[:axis])][..., np.newaxis] * ramp[slice(*block[axis])]
    g_last = GridFn._result(u.half_widths, u.points, cum, u.margin_cells, box)
    if u.dimension == 1:
        return [g_last]
    w = GridFn._result(u.half_widths[:axis], u.points, tail, u.margin_cells, rows)
    out = []
    for g in _gs_recurse(w):
        # g times r_d: a non-finite g reaches where r_d is 0.0 (inf * 0 is NaN)
        span = _nonzero_span(r_d) if math.isfinite(g.sup_norm()) else (0, u.points)
        box = g._box + (span,)
        values = np.zeros(u.values.shape)
        if not _empty(box):
            np.multiply(
                g.values[_key(g._box)][..., np.newaxis],
                r_d[slice(*span)],
                out=values[_key(box)],
            )
        margin = min(g.margin_cells, u.margin_cells)
        out.append(GridFn._result(u.half_widths, u.points, values, margin, box))
    out.append(g_last)
    return out


def gs_decompose(u):
    """Split zero-integral ``u`` into ``g_1..g_N`` with ``sum_i d_i g_i = u``.

    Recursion over the last axis: marginalize, decompose the marginal,
    reinsert it against a unit bump, and cumulate what remains.  Each
    returned function is again compactly supported inside the box.
    """
    total = grid_integrate(u)
    if abs(total) > integral_tolerance(u):
        raise NonzeroIntegralError(
            f"total integral {total:.3e} exceeds tolerance {integral_tolerance(u):.3e}"
        )
    return _gs_recurse(u)


def decomposition_residual(u, parts):
    """Sup-norm of ``u - sum_i d_i parts[i]``."""
    if len(parts) != u.dimension:
        raise ValueError("need one part per axis")
    for g in parts:
        u._check_compat(g)
        _check_differentiable(g)
    terms = [
        (_widen(g._box, axis, 2), partial(_stencil, g, axis)) for axis, g in enumerate(parts)
    ]
    return _residual_sup(u, terms)


# -- bracket decomposition --------------------------------------------


def _check_bracket(a, b):
    if a.dimension != 2 or b.dimension != 2:
        raise ValueError("brackets need 2D grid functions")
    _check_differentiable(a)
    _check_differentiable(b)
    a._check_compat(b)


def _bracket_boxes(a, b):
    """Boxes of the two products of ``{a, b}``, ``da/dp db/dq`` and
    ``da/dq db/dp``: the overlaps of their stencils' boxes."""
    return (
        _meet(_widen(a._box, 1, 2), _widen(b._box, 0, 2)),
        _meet(_widen(a._box, 0, 2), _widen(b._box, 1, 2)),
    )


def _bracket_block(a, b, boxes, sub, out, scratch):
    """``{a, b}`` on the samples of ``sub`` into ``out``, shaped like it.

    The first product goes to ``out`` on its box, the second is
    subtracted on its own: where a product is 0.0 it is not computed.
    ``boxes`` are the products' boxes, from ``_bracket_boxes``.
    """
    first, second = (_meet(sub, box) for box in boxes)
    if first != sub:
        out[...] = 0.0
    for k, (part, (i, j)) in enumerate(((first, (1, 0)), (second, (0, 1)))):
        if _empty(part):
            continue
        d, e = (_view(buf, part) for buf in scratch[:2])
        _stencil(a, i, part, d, scratch[2:])
        _stencil(b, j, part, e, scratch[2:])
        target = out[_key(part, sub)]
        if k == 0:
            np.multiply(d, e, out=target)
        else:
            d *= e
            target -= d


def grid_bracket(a, b):
    """Poisson bracket ``da/dp db/dq - da/dq db/dp`` on a 2D (q, p) grid."""
    _check_bracket(a, b)
    boxes = _bracket_boxes(a, b)
    box = _join(*boxes)
    out = np.zeros(a.values.shape)
    blocks = _blocks(box)
    scratch = _scratch(3, blocks)
    for block in blocks:
        _bracket_block(a, b, boxes, block, out[_key(block)], scratch)
    margin = max(a.margin_cells, b.margin_cells) - 2
    return GridFn._result(a.half_widths, a.points, out, margin, box)


def _support_halfwidth(f, axis, tol):
    """Largest |coordinate| along an axis where ``f`` exceeds ``tol``."""
    if _empty(f._box):
        return 0.0
    others = tuple(i for i in range(f.dimension) if i != axis)
    values = f.values[_key(f._box)]
    peak = np.maximum(values.max(axis=others), -values.min(axis=others))
    hit = np.nonzero(peak > tol)[0] + f._box[axis][0]
    if hit.size == 0:
        return 0.0
    x = f.axis_coordinates(axis)
    return float(max(abs(x[hit[0]]), abs(x[hit[-1]])))


def bracket_decompose(u):
    """Write zero-integral 2D ``u`` as ``sum_j {a_j, b_j}`` with cutoffs.

    The divergence split ``u = d_q g_1 + d_p g_2`` becomes
    ``{g_2, s q} + {-g_1, s p}`` where the cutoff ``s`` is 1 on a box
    holding both supports, so each ``s``-weighted coordinate is again
    compactly supported.  Numerically zero pairs are dropped.
    """
    if u.dimension != 2:
        raise ValueError("bracket decomposition is defined on 2D (q, p) grids")
    norm = u.sup_norm()
    scale = max(1.0, norm)
    if norm <= DROP_TOL * scale:
        total = grid_integrate(u)
        if abs(total) > integral_tolerance(u):
            raise NonzeroIntegralError("total integral exceeds tolerance")
        return []
    g_q, g_p = gs_decompose(u)
    tol = DROP_TOL * max(1.0, g_q.sup_norm(), g_p.sup_norm())
    support = []
    for axis in range(2):
        c = max(
            _support_halfwidth(g_q, axis, tol), _support_halfwidth(g_p, axis, tol)
        )
        support.append(c + 2 * u.h[axis])
    cutoff = plateau_generate(
        2, u.half_widths, u.points, support, margin_cells=u.margin_cells
    )
    q = u.axis_coordinates(0)
    p = u.axis_coordinates(1)
    box = cutoff._box
    (q_lo, q_hi), (p_lo, p_hi) = box
    inside = cutoff.values[_key(box)]
    sp_values = np.zeros(u.values.shape)
    np.multiply(inside, p[np.newaxis, p_lo:p_hi], out=sp_values[_key(box)])
    sp = GridFn._result(u.half_widths, u.points, sp_values, cutoff.margin_cells, box)
    # the cutoff and g_q are this call's own arrays: reuse them in place
    inside *= q[q_lo:q_hi, np.newaxis]
    sq = GridFn._result(u.half_widths, u.points, cutoff.values, cutoff.margin_cells, box)
    inside = g_q.values[_key(g_q._box)]
    np.negative(inside, out=inside)
    minus_g_q = GridFn._result(
        u.half_widths, u.points, g_q.values, g_q.margin_cells, g_q._box
    )
    pairs = [(g_p, sq), (minus_g_q, sp)]
    keep_tol = DROP_TOL * scale
    return [(a, b) for a, b in pairs if a.sup_norm() > keep_tol]


def bracket_residual(u, pairs):
    """Sup-norm of ``u - sum_j {a_j, b_j}``."""
    for a, b in pairs:
        u._check_compat(a)
        _check_bracket(a, b)
    terms = []
    for a, b in pairs:
        boxes = _bracket_boxes(a, b)
        terms.append((_join(*boxes), partial(_bracket_block, a, b, boxes)))
    return _residual_sup(u, terms)


def brw_residual(u, phi, density):
    """How far ``f -> integral(f * density)`` is from factoring through totals.

    Returns ``|sigma(u) - (int u / int phi) * sigma(phi)|``; small when the
    density is constant on the supports, visibly nonzero otherwise.
    """
    c = grid_integrate(u) / grid_integrate(phi)
    sigma_u = grid_integrate(u * density)
    sigma_phi = grid_integrate(phi * density)
    return abs(sigma_u - c * sigma_phi)
