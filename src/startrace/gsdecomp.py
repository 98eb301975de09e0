"""Grid-sampled decompositions into derivatives and Poisson brackets.

Compactly supported functions live on uniform symmetric boxes as
:class:`GridFn` samples.  ``gs_decompose`` splits a zero-integral
function into a divergence ``sum_i d_i g_i`` by the marginalize /
subtract-bump / cumulate recursion; ``bracket_decompose`` converts that
into Poisson-bracket pairs with cutoff coordinate functions.  Everything
is double precision: derivatives are 4th-order central differences and
integrals are composite Simpson rules.  Both Simpson rules, the total
and the running one, are this module's own numpy code.

Every :class:`GridFn` holds exact zeros on its margin band: the
constructor checks the band against ``MARGIN_SNAP_TOL`` (NaN fails) and
snaps it to 0.0.  The derivative kernels rely on this.  They read the
stencil operands as shifted slices of the flat C-order buffer, where one
step along an axis is a fixed offset; a read that leaves the axis lands on
margin zeros, which is what a wrapping roll would read, so the result is
bit-identical to the roll formula.  The public constructor copies and
validates what callers pass; results this module has just allocated go
through ``GridFn._result``, which keeps the margin check but takes the
array as it is.

The kernels run ``_BLOCK`` flat elements at a time, so no full-size
temporary is written and read back: ``grid_diff`` and ``grid_bracket``
fill one output array, and the two residuals subtract each term's block
from a block of ``u`` and keep only its peak.  Each element sees the same
floating-point operations in the same order as the composed formulas
(``grid_diff(a, 1) * grid_diff(b, 0) - ...``), so every result is
bit-identical to them.  Those formulas margin-checked each intermediate
``GridFn``; the blocked kernels need not, because a stencil on a band
reads only margin zeros and so is exactly 0.0 there, and a product or
difference of such terms is 0.0 as well while its other factor is
finite.
"""

from __future__ import annotations

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
# elements per pass of the blocked kernels (the grid_diff stencil, the
# running Simpson rule): a block of each operand and temporary stays in cache
_BLOCK = 1 << 15


class GridFn:
    """Samples of a compactly supported function on a symmetric box.

    The box is ``[-L_1, L_1] x ... x [-L_N, L_N]`` with the same number
    of points on every axis; values must vanish on a band of at least
    ``MIN_MARGIN`` cells at every boundary.
    """

    __slots__ = ("dimension", "half_widths", "points", "margin_cells", "values", "h")

    def __init__(self, half_widths, points, values, margin_cells):
        half_widths = tuple(float(w) for w in half_widths)
        if not half_widths or any(w <= 0 for w in half_widths):
            raise ValueError("half widths must be positive")
        if margin_cells < MIN_MARGIN:
            raise MarginError(f"margin must be at least {MIN_MARGIN} cells")
        if points <= 2 * margin_cells + 4:
            raise ValueError("grid too small for its margins")
        values = np.array(values, dtype=float, order="C")
        if values.shape != (points,) * len(half_widths):
            raise ValueError("value array shape does not match the grid")
        self._fill(half_widths, points, values, margin_cells)

    @classmethod
    def _result(cls, half_widths, points, values, margin_cells):
        """A GridFn that takes ownership of ``values``, a float array this
        module has just allocated on the grid of ``half_widths``/``points``.

        No shape check, and no copy unless ``values`` is not C-contiguous
        (a running integral along a leading axis), since the derivative
        kernels read the flat C-order buffer.  The margin is still checked
        and snapped.
        """
        f = object.__new__(cls)
        f._fill(half_widths, points, np.ascontiguousarray(values), margin_cells)
        return f

    def _fill(self, half_widths, points, values, margin_cells):
        _snap_margin(values, margin_cells)
        self.dimension = len(half_widths)
        self.half_widths = half_widths
        self.points = points
        self.margin_cells = margin_cells
        self.values = values
        self.h = tuple(2 * w / (points - 1) for w in half_widths)

    # -- inspection ---------------------------------------------------

    def axis_coordinates(self, axis):
        return np.linspace(-self.half_widths[axis], self.half_widths[axis], self.points)

    def sup_norm(self):
        """``max |values|`` without an ``abs`` copy of the array; a NaN
        propagates, and ``+ 0.0`` turns a ``-0.0`` into ``0.0`` as ``abs``
        would."""
        values = self.values
        return float(np.maximum(values.max(), -values.min())) + 0.0

    def _check_compat(self, other):
        if (
            self.dimension != other.dimension
            or self.half_widths != other.half_widths
            or self.points != other.points
        ):
            raise ValueError("grid functions live on different grids")

    # -- pointwise algebra --------------------------------------------

    def __add__(self, other):
        self._check_compat(other)
        margin = min(self.margin_cells, other.margin_cells)
        return GridFn._result(
            self.half_widths, self.points, self.values + other.values, margin
        )

    def __sub__(self, other):
        self._check_compat(other)
        margin = min(self.margin_cells, other.margin_cells)
        return GridFn._result(
            self.half_widths, self.points, self.values - other.values, margin
        )

    def __neg__(self):
        return GridFn._result(
            self.half_widths, self.points, -self.values, self.margin_cells
        )

    def __mul__(self, other):
        if isinstance(other, GridFn):
            self._check_compat(other)
            margin = max(self.margin_cells, other.margin_cells)
            return GridFn._result(
                self.half_widths, self.points, self.values * other.values, margin
            )
        return GridFn._result(
            self.half_widths, self.points, self.values * float(other), self.margin_cells
        )

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
        dimension, points = data["dimension"], data["points_per_axis"]
        margin, widths = data["margin_cells"], data["half_widths"]
        sizes = (dimension, points, margin)
        if any(isinstance(k, bool) or not isinstance(k, int) for k in sizes):
            raise ValueError("dimension, points_per_axis and margin_cells must be integers")
        if _number_array(widths, "half_widths").shape != (dimension,):
            raise ValueError("half_widths must list one width per dimension")
        values = _number_array(data["values"], "values").reshape((points,) * dimension)
        return cls(widths, points, values, margin)


def _number_array(value, name):
    """A JSON list of finite numbers as a float array; anything else
    (``json`` also reads ``NaN`` and ``Infinity``) is a ValueError."""
    array = np.asarray(value) if isinstance(value, list) else None
    if array is None or array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a list of numbers")
    array = array.astype(float, copy=False)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite numbers")
    return array


def _snap_margin(values, margin_cells):
    """Check that ``values`` (nearly) vanish on the margin band, then zero it.

    A NaN on the band fails the check like any sample above the tolerance.
    """
    points = values.shape[0]
    for axis in range(values.ndim):
        moved = np.moveaxis(values, axis, 0)
        for band in (moved[:margin_cells], moved[points - margin_cells :]):
            # max |band| without an abs copy, as in sup_norm
            worst = float(np.maximum(band.max(), -band.min())) if band.size else 0.0
            if not worst <= MARGIN_SNAP_TOL:
                raise MarginError(f"values reach {worst:.3e} on the declared margin")
            band[...] = 0.0


# -- calculus ---------------------------------------------------------


def _blocks(size):
    """``(start, stop)`` of each ``_BLOCK``-element pass over ``size`` elements."""
    for start in range(0, size, _BLOCK):
        yield start, min(start + _BLOCK, size)


def _scratch(count, size):
    """``count`` block buffers for passes over ``size`` elements."""
    return [np.empty(min(_BLOCK, size)) for _ in range(count)]


def _check_differentiable(f):
    if f.margin_cells - 2 < MIN_MARGIN:
        raise MarginError("margin too thin to differentiate")


def _stencil(f, axis, start, stop, out, scratch):
    """The ``grid_diff`` stencil on flat elements ``start:stop`` into ``out``.

    The stencil runs on the flat buffer, where one step along ``axis`` is
    ``step`` elements, with ``scratch[0]`` as the temporary.  Its first sum
    is taken as ``8 v[i+1] - v[i+2]``, which IEEE addition makes the same
    float as ``-v[i+2] + 8 v[i+1]`` in one pass fewer.  An element within
    two steps of either end of the buffer, where a read would leave it,
    lies on the margin and gets 0.0.
    """
    v = f.values.reshape(-1)
    step = f.values.strides[axis] // f.values.itemsize
    lo = min(max(start, 2 * step), stop)
    hi = max(min(stop, v.size - 2 * step), lo)
    out[: lo - start] = 0.0
    out[hi - start :] = 0.0
    d, t = out[lo - start : hi - start], scratch[0][: hi - lo]
    np.multiply(v[lo + step : hi + step], 8, out=d)
    d -= v[lo + 2 * step : hi + 2 * step]
    np.multiply(v[lo - step : hi - step], 8, out=t)
    d -= t
    d += v[lo - 2 * step : hi - 2 * step]
    d /= 12 * f.h[axis]


def grid_diff(f, axis):
    """4th-order central difference along an axis; costs two margin cells.

    ``(-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / 12h`` along the axis.  A
    read that leaves the axis lands on margin zeros, so no wrap or padding
    is needed.
    """
    if not 0 <= axis < f.dimension:
        raise ValueError("axis out of range")
    _check_differentiable(f)
    out = np.empty(f.values.size)
    scratch = _scratch(1, out.size)
    for start, stop in _blocks(out.size):
        _stencil(f, axis, start, stop, out[start:stop], scratch)
    return GridFn._result(
        f.half_widths, f.points, out.reshape(f.values.shape), f.margin_cells - 2
    )


def _residual_sup(u, terms):
    """``max |u - sum(terms)|``, a block at a time, subtracting in order.

    Each term writes its flat elements ``start:stop`` into ``out`` when
    called as ``term(start, stop, out, scratch)``, with up to three
    ``scratch`` buffers.
    """
    v = u.values.reshape(-1)
    acc, term, *scratch = _scratch(5, v.size)
    peaks = []
    for start, stop in _blocks(v.size):
        r, s = acc[: stop - start], term[: stop - start]
        r[...] = v[start:stop]
        for write in terms:
            write(start, stop, s, scratch)
            r -= s
        peaks.append(np.max(np.abs(r, out=r)))
    return float(np.max(peaks))


def _simpson(y, dx, axis):
    """Composite Simpson integral of uniform samples along ``axis``.

    Odd ``N`` fits parabolas over intervals ``0..N-2``; even ``N`` fits
    them over ``0..N-3`` and adds Cartwright's last-interval correction.
    """
    n = y.shape[axis]
    stop = n - 3 if n % 2 == 0 else n - 2

    def at(index):
        key = [slice(None)] * y.ndim
        key[axis] = index
        return y[tuple(key)]

    parts = [at(slice(start, stop + start, 2)) for start in range(3)]
    if axis == 0:
        result = np.sum(parts[0] + 4.0 * parts[1] + parts[2], axis=0)
    else:
        # a block of leading rows at a time keeps the summand in cache
        result = np.empty(y.shape[:axis] + y.shape[axis + 1 :])
        rows = max(1, _BLOCK * y.shape[0] // y.size)
        for start in range(0, y.shape[0], rows):
            p0, p1, p2 = (p[start : start + rows] for p in parts)
            np.sum(p0 + 4.0 * p1 + p2, axis=axis, out=result[start : start + rows])
    result *= dx / 3.0
    if n % 2 == 0:
        # Cartwright's weights for spacings h0, h1, evaluated term for term
        # at h0 = h1 = h; simplified forms such as 5h/12 can round
        # differently and move grid reports in their last digits
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = h**3 / (6 * h * (h + h))
        result += alpha * at(-1) + beta * at(-2) - eta * at(-3)
    return result


def _cumulative_simpson(y, dx, axis):
    """Running Simpson integral of uniform samples along ``axis``, from 0.

    Interval ``k`` takes the parabola through samples ``k..k+2`` when
    ``k`` is even and through ``k-1..k+1`` when ``k`` is odd or last.
    Rows along ``axis`` are taken a block at a time, so the temporaries
    stay in cache.
    """
    y = np.swapaxes(y, axis, -1)
    n = y.shape[-1]
    d = dx / 3
    out = np.empty(y.shape)
    rows, out_rows = y.reshape(-1, n), out.reshape(-1, n)
    step = max(1, _BLOCK // n)
    for start in range(0, len(rows), step):
        r, o = rows[start : start + step], out_rows[start : start + step]
        a, b, c = r[:, 0 : n - 2 : 2], r[:, 1 : n - 1 : 2], r[:, 2:n:2]
        o[:, 0] = 0.0
        o[:, 1 : n - 1 : 2] = d * (5 * a / 4 + 2 * b - c / 4)
        o[:, 2:n:2] = d * (5 * c / 4 + 2 * b - a / 4)
        if n % 2 == 0:
            o[:, -1] = d * (5 * r[:, -1] / 4 + 2 * r[:, -2] - r[:, -3] / 4)
        np.cumsum(o, axis=1, out=o)
    return np.swapaxes(out, -1, axis)


def grid_integrate(f):
    """Composite Simpson integral over the whole box."""
    v = f.values
    for axis in reversed(range(f.dimension)):
        v = _simpson(v, f.h[axis], axis)
    return float(v)


def grid_cumulative(f, axis):
    """Running Simpson integral from the lower box edge along an axis.

    Only meaningful when the result decays again: a nonzero integral
    along the axis leaves the far margin nonzero and raises.
    """
    if not 0 <= axis < f.dimension:
        raise ValueError("axis out of range")
    c = _cumulative_simpson(f.values, f.h[axis], axis)
    return GridFn._result(f.half_widths, f.points, c, f.margin_cells)


def grid_translate(f, cells):
    """Shift by whole cells per axis; the support must stay inside the margin."""
    if len(cells) != f.dimension:
        raise ValueError("need one shift per axis")
    margin = f.margin_cells - max(abs(int(c)) for c in cells) if cells else f.margin_cells
    if margin < MIN_MARGIN:
        raise MarginError("translation pushes the support into the margin")
    # the samples that a roll would wrap round are margin zeros: drop them
    src, dst = [], []
    for c in map(int, cells):
        src.append(slice(max(-c, 0), f.points - max(c, 0)))
        dst.append(slice(max(c, 0), f.points - max(-c, 0)))
    v = np.zeros(f.values.shape)
    v[tuple(dst)] = f.values[tuple(src)]
    return GridFn._result(f.half_widths, f.points, v, margin)


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


def _axis_profile_product(per_axis):
    """Outer product of one profile per axis, multiplied in axis order.

    Only the last multiply writes a full-size array; the copy keeps a
    one-axis product from handing out its profile.
    """
    values = per_axis[0].copy()
    for profile in per_axis[1:]:
        values = np.multiply.outer(values, profile)
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
    f = GridFn._result(half_widths, points_per_axis, values, margin_cells)
    values *= 1.0 / grid_integrate(f)
    return GridFn._result(half_widths, points_per_axis, values, margin_cells)


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
    return GridFn._result(half_widths, points_per_axis, values, margin_cells)


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


def _gs_recurse(u):
    axis = u.dimension - 1
    ramp, r_d = _axis_ramp_values(u, axis)
    cum = _cumulative_simpson(u.values, u.h[axis], axis)
    rows = cum.reshape(-1, u.points)  # a view: cum is C-contiguous
    # the running-rule marginal of u, copied before cum is overwritten
    tail = rows[:, -1].copy()
    step = max(1, _BLOCK // u.points)
    for start in range(0, len(rows), step):
        rows[start : start + step] -= tail[start : start + step, np.newaxis] * ramp
    g_last = GridFn._result(u.half_widths, u.points, cum, u.margin_cells)
    if u.dimension == 1:
        return [g_last]
    w = GridFn._result(
        u.half_widths[:axis], u.points, tail.reshape(cum.shape[:-1]), u.margin_cells
    )
    out = [
        GridFn._result(
            u.half_widths,
            u.points,
            g.values[..., np.newaxis] * r_d,
            min(g.margin_cells, u.margin_cells),
        )
        for g in _gs_recurse(w)
    ]
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
    terms = [partial(_stencil, g, axis) for axis, g in enumerate(parts)]
    return _residual_sup(u, terms)


# -- bracket decomposition --------------------------------------------


def _check_bracket(a, b):
    if a.dimension != 2 or b.dimension != 2:
        raise ValueError("brackets need 2D grid functions")
    _check_differentiable(a)
    _check_differentiable(b)
    a._check_compat(b)


def _bracket_block(a, b, start, stop, out, scratch):
    """``{a, b}`` on flat elements ``start:stop`` into ``out``."""
    d, e = (buf[: stop - start] for buf in scratch[:2])
    _stencil(a, 1, start, stop, d, scratch[2:])
    _stencil(b, 0, start, stop, e, scratch[2:])
    np.multiply(d, e, out=out)
    _stencil(a, 0, start, stop, d, scratch[2:])
    _stencil(b, 1, start, stop, e, scratch[2:])
    d *= e
    out -= d


def grid_bracket(a, b):
    """Poisson bracket ``da/dp db/dq - da/dq db/dp`` on a 2D (q, p) grid."""
    _check_bracket(a, b)
    out = np.empty(a.values.size)
    scratch = _scratch(3, out.size)
    for start, stop in _blocks(out.size):
        _bracket_block(a, b, start, stop, out[start:stop], scratch)
    return GridFn._result(
        a.half_widths,
        a.points,
        out.reshape(a.values.shape),
        max(a.margin_cells, b.margin_cells) - 2,
    )


def _support_halfwidth(f, axis, tol):
    """Largest |coordinate| along an axis where ``f`` exceeds ``tol``."""
    others = tuple(i for i in range(f.dimension) if i != axis)
    peak = np.maximum(f.values.max(axis=others), -f.values.min(axis=others))
    hit = np.nonzero(peak > tol)[0]
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
    sp = GridFn._result(
        u.half_widths, u.points, cutoff.values * p[np.newaxis, :], cutoff.margin_cells
    )
    # the cutoff and g_q are this call's own arrays: reuse them in place
    cutoff.values *= q[:, np.newaxis]
    sq = GridFn._result(u.half_widths, u.points, cutoff.values, cutoff.margin_cells)
    np.negative(g_q.values, out=g_q.values)
    minus_g_q = GridFn._result(u.half_widths, u.points, g_q.values, g_q.margin_cells)
    pairs = [(g_p, sq), (minus_g_q, sp)]
    keep_tol = DROP_TOL * scale
    return [(a, b) for a, b in pairs if a.sup_norm() > keep_tol]


def bracket_residual(u, pairs):
    """Sup-norm of ``u - sum_j {a_j, b_j}``."""
    for a, b in pairs:
        u._check_compat(a)
        _check_bracket(a, b)
    return _residual_sup(u, [partial(_bracket_block, a, b) for a, b in pairs])


def brw_residual(u, phi, density):
    """How far ``f -> integral(f * density)`` is from factoring through totals.

    Returns ``|sigma(u) - (int u / int phi) * sigma(phi)|``; small when the
    density is constant on the supports, visibly nonzero otherwise.
    """
    c = grid_integrate(u) / grid_integrate(phi)
    sigma_u = grid_integrate(u * density)
    sigma_phi = grid_integrate(phi * density)
    return abs(sigma_u - c * sigma_phi)
