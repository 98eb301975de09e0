"""Grid decompositions: margins, calculus, divergence and bracket splits."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import tapered_bump

from startrace.gsdecomp import (
    MARGIN_SNAP_TOL,
    MIN_MARGIN,
    GridFn,
    MarginError,
    NonzeroIntegralError,
    _BLOCK,
    _axis_profile_product,
    _axis_ramp_values,
    _bump_profile,
    _cos8_profile,
    _cumulative_simpson,
    _plateau_profile,
    _simpson,
    bracket_decompose,
    bracket_residual,
    brw_residual,
    bump_generate,
    decomposition_residual,
    grid_bracket,
    grid_cumulative,
    grid_diff,
    grid_integrate,
    grid_translate,
    integral_tolerance,
    gs_decompose,
    plateau_generate,
    tapered_generate,
)


def zero_grid(points=128, dimension=1, half_width=3.0, margin=10):
    return GridFn(
        (half_width,) * dimension, points, np.zeros((points,) * dimension), margin
    )


def random_zero_integral(rng, points, support=1.8):
    """Seeded 2D combination of shifted gentle bumps with total integral 0."""
    phi = tapered_bump(points, 2, support)
    u = zero_grid(points, 2, margin=10)
    for _ in range(3):
        shift = (rng.randint(-5, 5), rng.randint(-5, 5))
        u = u + rng.choice([-2, -1, 1, 2]) * grid_translate(phi, shift)
    c = grid_integrate(u) / grid_integrate(phi)
    return u - c * phi


# -- GridFn contract --------------------------------------------------


def test_margin_is_enforced():
    with pytest.raises(MarginError):
        GridFn((3.0,), 64, np.ones(64), 8)
    with pytest.raises(MarginError):
        GridFn((3.0,), 64, np.zeros(64), 4)
    with pytest.raises(ValueError):
        GridFn((3.0,), 20, np.zeros(20), 8)
    nan_on_margin = np.zeros(64)
    nan_on_margin[1] = np.nan
    with pytest.raises(MarginError):
        GridFn((3.0,), 64, nan_on_margin, 8)


def test_trusted_results_keep_the_margin_check():
    # NaN * 0 lands on the wider margin of a product and must not be snapped
    v = np.zeros(64)
    v[9] = np.nan
    f = GridFn((3.0,), 64, v, 8)
    with pytest.raises(MarginError):
        f * zero_grid(64, 1, margin=10)


def test_margin_noise_is_snapped():
    v = np.zeros(64)
    v[1] = 1e-9
    v[40] = 0.5
    f = GridFn((3.0,), 64, v, 8)
    assert f.values[1] == 0.0
    assert f.values[40] == 0.5


def test_sup_norm_is_the_float_of_abs_max():
    rng = np.random.default_rng(3)
    v = np.zeros(64)
    v[10:54] = rng.normal(size=44)
    signed_zeros = np.where(np.arange(64) % 2, 0.0, -0.0)
    for values in (v, -v, np.abs(v), -np.zeros(64), signed_zeros):
        f = GridFn((3.0,), 64, values, 8)
        want = float(np.max(np.abs(f.values)))
        got = f.sup_norm()
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    v[30] = np.nan
    assert math.isnan(GridFn((3.0,), 64, v, 8).sup_norm())
    v[30] = -np.inf
    assert GridFn((3.0,), 64, v, 8).sup_norm() == math.inf


def test_json_round_trip():
    b = tapered_bump(64, 2, 1.5, margin_cells=8)
    back = GridFn.from_dict(b.to_dict())
    assert back == b
    bad = b.to_dict()
    bad["values"][0] = 1.0
    with pytest.raises(MarginError):
        GridFn.from_dict(bad)


@pytest.mark.parametrize("field", ["values", "half_widths"])
def test_json_numbers_are_every_finite_int_or_float_and_no_bool(field):
    grid = tapered_bump(64, 1, 1.5, margin_cells=8).to_dict()

    def load(x):
        numbers = list(grid[field])
        numbers[len(numbers) // 2] = x
        return GridFn.from_dict(dict(grid, **{field: numbers}))

    # an int past int64 made numpy build an object array, refused as not a
    # list of numbers although 1e30 loaded
    assert load(10**30) == load(1e30)
    # a bool among floats loaded as 1.0
    with pytest.raises(ValueError, match=f"^{field} must be a flat list of numbers$"):
        load(True)
    with pytest.raises(ValueError, match=f"^{field} must be finite numbers$"):
        load(10**400)


def test_public_constructor_copies():
    v = np.zeros(64)
    v[32] = 1.0
    f = GridFn((3.0,), 64, v, 8)
    v[32] = 5.0
    assert f.values[32] == 1.0
    assert not np.shares_memory(f.values, v)


def test_public_constructor_stores_c_order():
    # the derivative kernels read the flat C-order buffer
    v = np.zeros((64, 64))
    v[20:40, 30:34] = np.arange(80.0).reshape(20, 4)
    f = GridFn((3.0, 3.0), 64, v.T, 8)
    assert f.values.flags.c_contiguous
    assert np.array_equal(f.values, v.T)
    assert np.array_equal(grid_diff(f, 1).values, roll_diff(f, 1))


def test_results_never_alias_their_inputs():
    f = tapered_bump(64, 2, 1.2, margin_cells=12)
    g = grid_translate(f, (2, -1))
    u = grid_diff(f, 0)
    pairs = bracket_decompose(u)
    results = [
        f + g,
        f - g,
        -f,
        2 * f,
        f * g,
        g,
        u,
        grid_cumulative(u, 0),
        *gs_decompose(u),
        grid_bracket(f, g),
        *(h for pair in pairs for h in pair),
        bump_generate(2, 3.0, 64, 1.2, 12),
        tapered_generate(2, 3.0, 64, 1.2, 12),
        plateau_generate(2, 3.0, 64, 1.2, 12),
    ]
    assert len(pairs) == 2
    for i, r in enumerate(results):
        for x in (f, g, u, *results[:i]):
            if r is not x:
                assert not np.shares_memory(r.values, x.values)
    profile = np.linspace(0.0, 1.0, 64)
    assert not np.shares_memory(_axis_profile_product([profile]), profile)


def test_translate_guards_margin():
    b = tapered_bump(128, 1, 2.0, margin_cells=10)
    shifted = grid_translate(b, (4,))
    assert shifted.margin_cells == 6
    with pytest.raises(MarginError):
        grid_translate(b, (6,))


# -- calculus ---------------------------------------------------------


def test_diff_of_cumulative_recovers_input():
    # fundamental theorem on 512-point grids, zero-integral smooth inputs
    b = tapered_bump(512, 1, 2.2)
    for u in (grid_diff(b, 0), b - grid_translate(b, (3,))):
        c = grid_cumulative(u, 0)
        assert (grid_diff(c, 0) - u).sup_norm() <= 1e-6


def test_cumulative_needs_decay():
    b = tapered_bump(512, 1, 2.2)
    with pytest.raises(MarginError):
        grid_cumulative(b, 0)  # unit integral: the far margin cannot vanish


def test_integrate_odd_function():
    x = np.linspace(-3.0, 3.0, 257)
    prof = np.where(np.abs(x) < 2, np.cos(np.pi * np.clip(x / 2, -1, 1) / 2) ** 8, 0.0)
    f = GridFn((3.0,), 257, x * prof, 10)
    assert abs(grid_integrate(f)) <= 1e-12


@pytest.mark.parametrize("length", [15, 16, 255, 256])
def test_simpson_rules_match_reference(length):
    # every bit, along each axis, for odd and even sample counts
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(length)
    dx = 6.0 / (length - 1)
    for y in (rng.standard_normal(length), rng.standard_normal((length, length + 1))):
        for axis in range(y.ndim):
            assert np.array_equal(
                _simpson(y, dx, axis), integrate.simpson(y, dx=dx, axis=axis)
            )
            assert np.array_equal(
                _cumulative_simpson(y, dx, axis),
                integrate.cumulative_simpson(y, dx=dx, axis=axis, initial=0),
            )


def roll_diff(f, axis):
    """The 4th-order stencil written with wrapping rolls: the reference."""
    v = f.values
    return (
        -np.roll(v, -2, axis)
        + 8 * np.roll(v, -1, axis)
        - 8 * np.roll(v, 1, axis)
        + np.roll(v, 2, axis)
    ) / (12 * f.h[axis])


def composed_bracket(a, b):
    """The bracket composed of whole-grid derivatives: the reference."""
    if a.dimension != 2 or b.dimension != 2:
        raise ValueError("brackets need 2D grid functions")
    return grid_diff(a, 1) * grid_diff(b, 0) - grid_diff(a, 0) * grid_diff(b, 1)


def composed_bracket_residual(u, pairs):
    acc = u.values.copy()
    for a, b in pairs:
        u._check_compat(a)
        acc -= composed_bracket(a, b).values
    return float(np.max(np.abs(acc)))


def composed_decomposition_residual(u, parts):
    if len(parts) != u.dimension:
        raise ValueError("need one part per axis")
    acc = u.values.copy()
    for axis, g in enumerate(parts):
        u._check_compat(g)
        acc -= grid_diff(g, axis).values
    return float(np.max(np.abs(acc)))


# (dimension, points) at the thinnest margin grid_diff accepts: per
# dimension, a grid under one stencil block (_BLOCK = 2^15 elements) and one
# of several blocks whose flat length (40000, 40000, 64000) is not a multiple
# of the block
STENCIL_MARGIN = 7
STENCIL_GRIDS = [(1, 24), (1, 40000), (2, 24), (2, 200), (3, 20), (3, 40)]


@pytest.mark.parametrize("dimension, points", STENCIL_GRIDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flat_stencil_matches_roll_formula(dimension, points, data):
    samples = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    inner = (points - 2 * STENCIL_MARGIN,) * dimension
    values = np.zeros((points,) * dimension)
    values[(slice(STENCIL_MARGIN, points - STENCIL_MARGIN),) * dimension] = data.draw(
        arrays(np.float64, inner, elements=samples)
    )
    f = GridFn((3.0,) * dimension, points, values, STENCIL_MARGIN)
    for axis in range(dimension):
        assert np.array_equal(grid_diff(f, axis).values, roll_diff(f, axis))


@pytest.mark.parametrize("dimension, points", STENCIL_GRIDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_blocked_kernels_match_composed_formulas(dimension, points, data, seed):
    # up to seven operands: drawn arrays that large overrun hypothesis's
    # data budget, so each operand's samples come from the drawn seed, at a
    # drawn scale and margin; margins differ between operands, so the bands
    # of the terms differ too
    rng = np.random.default_rng(seed)
    margins = st.integers(STENCIL_MARGIN, min(STENCIL_MARGIN + 2, (points - 5) // 2))

    def draw():
        margin = data.draw(margins)
        inner = (slice(margin, points - margin),) * dimension
        values = np.zeros((points,) * dimension)
        values[inner] = rng.standard_normal(values[inner].shape)
        values *= 10.0 ** data.draw(st.integers(-6, 6))
        return GridFn((3.0,) * dimension, points, values, margin)

    u = draw()
    parts = [draw() for _ in range(dimension)]
    want = composed_decomposition_residual(u, parts)
    assert decomposition_residual(u, parts) == want
    if dimension != 2:
        return
    pairs = [(draw(), draw()) for _ in range(data.draw(st.integers(1, 2)))]
    for a, b in pairs:
        blocked, composed = grid_bracket(a, b), composed_bracket(a, b)
        assert blocked.margin_cells == composed.margin_cells
        assert blocked.values.tobytes() == composed.values.tobytes()
    assert bracket_residual(u, pairs) == composed_bracket_residual(u, pairs)


def raised(call, *args):
    with pytest.raises(ValueError) as info:
        call(*args)
    return type(info.value), str(info.value)


def test_blocked_kernels_raise_as_composed_formulas():
    flat = zero_grid(64, 2, margin=10)
    line = zero_grid(64, 1, margin=10)
    narrow = zero_grid(64, 2, half_width=2.0, margin=10)
    thin = zero_grid(64, 2, margin=6)  # differentiating leaves 4 < MIN_MARGIN
    operands = [
        (line, flat),
        (flat, line),
        (flat, narrow),
        (flat, thin),
        (thin, narrow),
    ]
    for a, b in operands:
        assert raised(grid_bracket, a, b) == raised(composed_bracket, a, b)
    residual_cases = [(flat, [(flat, flat), pair]) for pair in operands]
    residual_cases += [(narrow, [(flat, flat)]), (line, [(flat, flat)])]
    for u, pairs in residual_cases:
        want = raised(composed_bracket_residual, u, pairs)
        assert raised(bracket_residual, u, pairs) == want
    for parts in ([flat], [flat, narrow], [flat, thin], [thin, narrow], [line, flat]):
        want = raised(composed_decomposition_residual, flat, parts)
        assert raised(decomposition_residual, flat, parts) == want


def traced_peak(call, *args):
    """Peak bytes that numpy and Python allocate during ``call(*args)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_grid_kernels_allocate_no_full_size_temporaries():
    # one 512^2 array is 8 block buffers, so each bound below fails as soon
    # as a full-size temporary comes back
    u = random_zero_integral(random.Random(5), 512)
    array = u.values.nbytes
    blocks = 6 * _BLOCK * u.values.itemsize
    parts = gs_decompose(u)
    pairs = bracket_decompose(u)
    assert array == 8 * _BLOCK * u.values.itemsize and len(pairs) == 2
    assert traced_peak(decomposition_residual, u, parts) <= blocks
    assert traced_peak(bracket_residual, u, pairs) <= blocks
    assert traced_peak(grid_bracket, *pairs[0]) <= array + blocks
    assert traced_peak(grid_diff, u, 0) <= array + blocks
    assert traced_peak(gs_decompose, u) <= 2 * array + blocks
    assert traced_peak(bracket_decompose, u) <= 4 * array + blocks
    for generate in (tapered_generate, plateau_generate):
        assert traced_peak(generate, 2, 3.0, 512, 1.8, 14) <= array + blocks


def test_diff_needs_margin_headroom():
    b = tapered_bump(128, 1, 2.0, margin_cells=6)
    with pytest.raises(MarginError):
        grid_diff(b, 0)


# -- canonical bump ---------------------------------------------------


def test_bump_examples():
    b = bump_generate(1, 3.0, 512, 1.5)
    assert abs(grid_integrate(b) - 1.0) <= 1e-10
    assert b.values.min() >= 0.0
    x = b.axis_coordinates(0)
    assert np.all(b.values[np.abs(x) >= 1.5] == 0.0)


def test_bump_support_must_fit():
    with pytest.raises(MarginError):
        bump_generate(1, 3.0, 128, 2.95)


def test_plateau_is_exactly_one_on_support():
    s = plateau_generate(1, 3.0, 257, 1.2, margin_cells=8)
    x = s.axis_coordinates(0)
    assert np.all(s.values[np.abs(x) <= 1.2] == 1.0)
    assert np.all(s.values >= 0.0)
    assert np.all(s.values <= 1.0)


# -- divergence decomposition -----------------------------------------


def test_gs_one_dimensional_known_answer():
    b = bump_generate(1, 3.0, 512, 2.5, margin_cells=10)
    u = grid_diff(b, 0)
    (g,) = gs_decompose(u)
    assert (g - b).sup_norm() <= 1e-6
    assert decomposition_residual(u, [g]) <= 1e-5


def test_gs_zero_input():
    parts = gs_decompose(zero_grid(128, 2))
    assert len(parts) == 2
    assert all(g.sup_norm() == 0.0 for g in parts)


def test_gs_rejects_nonzero_integral():
    with pytest.raises(NonzeroIntegralError):
        gs_decompose(tapered_bump(128, 1, 2.0))


def test_gs_two_dimensional_reconstruction():
    b = tapered_bump(256, 2, 2.2)
    u = grid_diff(grid_translate(b, (3, -2)), 0) + grid_diff(
        grid_translate(b, (-4, 5)), 1
    )
    parts = gs_decompose(u)
    assert len(parts) == 2
    assert decomposition_residual(u, parts) <= 1e-5


def test_gs_battery_and_convergence_order():
    residuals = []
    for points in (128, 256, 512):
        u = grid_diff(tapered_bump(points, 1, 2.2), 0)
        residuals.append(decomposition_residual(u, gs_decompose(u)))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert residuals[1] <= 1e-5
    assert all(o >= 3.0 for o in orders)


def test_gs_random_battery():
    rng = random.Random(7)
    for _ in range(3):
        u = random_zero_integral(rng, 256)
        assert decomposition_residual(u, gs_decompose(u)) <= 1e-5


# -- bracket decomposition --------------------------------------------


def test_bracket_single_pair_example():
    b = tapered_bump(256, 2, 2.2)
    u = grid_diff(b, 1)  # d/dp of a bump
    pairs = bracket_decompose(u)
    assert len(pairs) == 1
    a, sq = pairs[0]
    assert (a - b).sup_norm() <= 1e-5
    # the partner is a cutoff-times-q function: linear in q on the support
    x = sq.axis_coordinates(0)
    mid = sq.points // 2
    assert sq.values[mid - 10, mid] == pytest.approx(x[mid - 10])
    assert (grid_bracket(a, sq) - u).sup_norm() <= 1e-5
    assert bracket_residual(u, pairs) <= 1e-5


def test_bracket_zero_input():
    assert bracket_decompose(zero_grid(128, 2)) == []


def test_bracket_needs_two_dimensions():
    with pytest.raises(ValueError):
        bracket_decompose(tapered_bump(128, 1, 2.0))


def test_bracket_rejects_nonzero_integral():
    with pytest.raises(NonzeroIntegralError):
        bracket_decompose(tapered_bump(128, 2, 2.0))


def test_bracket_random_battery():
    rng = random.Random(11)
    u = random_zero_integral(rng, 256)
    pairs = bracket_decompose(u)
    assert bracket_residual(u, pairs) <= 1e-5


# -- the functional consequence ---------------------------------------


def test_brw_functional_factors_through_totals():
    phi = tapered_bump(256, 2, 1.8)
    u = 2 * grid_translate(phi, (4, -3)) + 0.5 * grid_translate(phi, (-5, 2))
    flat = plateau_generate(2, 3.0, 256, 2.3, margin_cells=8)
    assert brw_residual(u, phi, flat) <= 1e-8

    # each bracket term individually annihilates the constant density
    c = grid_integrate(u) / grid_integrate(phi)
    for a, b in bracket_decompose(u - c * phi):
        assert abs(grid_integrate(grid_bracket(a, b) * flat)) <= 1e-10


def test_brw_functional_detects_nonconstant_density():
    phi = tapered_bump(256, 2, 1.8)
    u = 2 * grid_translate(phi, (4, -3)) + 0.5 * grid_translate(phi, (-5, 2))
    flat = plateau_generate(2, 3.0, 256, 2.3, margin_cells=8)
    q = np.linspace(-3.0, 3.0, 256)
    weighted = GridFn((3.0, 3.0), 256, flat.values * (q**2)[:, np.newaxis], 8)
    assert brw_residual(u, phi, weighted) >= 1e-3


# -- support boxes ----------------------------------------------------
#
# Every kernel works only inside the support boxes of its operands; each
# property below compares it with whole-array references (roll_diff, plain
# numpy, and the Simpson rules on whole arrays, which
# test_simpson_rules_match_reference holds to scipy bit for bit).

BOX_GRIDS = {1: 64, 2: 40, 3: 26}


def drawn_support(data, points, margin):
    """An index range inside the interior: anywhere, touching an interior
    edge, a single cell, or empty."""
    lo, hi = margin, points - margin
    kind = data.draw(st.sampled_from(["any", "edge", "single", "empty"]))
    if kind == "empty":
        return (lo, lo)
    if kind == "single":
        start = data.draw(st.integers(lo, hi - 1))
        return (start, start + 1)
    start = data.draw(st.integers(lo, hi - 1))
    stop = data.draw(st.integers(start + 1, hi))
    if kind == "edge":
        return (lo, stop) if data.draw(st.booleans()) else (start, hi)
    return (start, stop)


def drawn_grid(data, dimension, rng):
    """A GridFn whose samples are drawn nonzero on a drawn box, 0 elsewhere."""
    points = BOX_GRIDS[dimension]
    margin = data.draw(st.integers(9, 10))
    box = tuple(drawn_support(data, points, margin) for _ in range(dimension))
    values = np.zeros((points,) * dimension)
    inside = values[tuple(slice(lo, hi) for lo, hi in box)]
    inside[...] = rng.uniform(0.5, 2.0, inside.shape) * rng.choice([-1.0, 1.0], inside.shape)
    inside *= 10.0 ** data.draw(st.integers(-9, 3))
    f = GridFn((3.0,) * dimension, points, values, margin)
    if inside.size:
        assert f._box == box
    return f


def snapped(values, margin):
    """``values`` under the margin contract, on whole arrays: a band sample
    above MARGIN_SNAP_TOL raises, the rest of the band becomes 0.0."""
    v = values.copy()
    n = v.shape[0]
    for axis in range(v.ndim):
        moved = np.moveaxis(v, axis, 0)
        for band in (moved[:margin], moved[n - margin :]):
            worst = float(np.max(np.abs(band)))
            if not worst <= MARGIN_SNAP_TOL:
                raise MarginError(f"values reach {worst:.3e} on the declared margin")
            band[...] = 0.0
    return v


def reference_integrate(values, h):
    for axis in reversed(range(values.ndim)):
        values = _simpson(values, h[axis], axis)
    return float(values)


def reference_gs(u):
    """gs_decompose on whole arrays, snapping each result as it is made."""

    def recurse(v):
        axis = v.ndim - 1
        ramp, r_d = _axis_ramp_values(u, axis)
        cum = _cumulative_simpson(v, u.h[axis], axis)
        tail = cum[..., -1].copy()
        cum = snapped(cum - tail[..., np.newaxis] * ramp, u.margin_cells)
        if v.ndim == 1:
            return [cum]
        tail = snapped(tail, u.margin_cells)
        return [snapped(g[..., np.newaxis] * r_d, u.margin_cells) for g in recurse(tail)] + [cum]

    total = reference_integrate(u.values, u.h)
    if abs(total) > integral_tolerance(u):
        raise NonzeroIntegralError(
            f"total integral {total:.3e} exceeds tolerance {integral_tolerance(u):.3e}"
        )
    return recurse(u.values)


def reference_brw(u, phi, density):
    def integral(a, b):
        margin = max(a.margin_cells, b.margin_cells)
        return reference_integrate(snapped(a.values * b.values, margin), a.h)

    c = reference_integrate(u.values, u.h) / reference_integrate(phi.values, u.h)
    return abs(integral(u, density) - c * integral(phi, density))


def roll_bracket(a, b):
    return roll_diff(a, 1) * roll_diff(b, 0) - roll_diff(a, 0) * roll_diff(b, 1)


def reference_sup(u, terms):
    acc = u.values.copy()
    for term in terms:
        acc -= term
    return float(np.max(np.abs(acc)))


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message it raises."""
    try:
        return "ok", call(*args)
    except ValueError as err:
        return "raised", (type(err), str(err))


def boxed(f, want):
    """``f`` has exact zeros outside its box, its box lies inside its
    interior, and its samples equal ``want`` (whole-array reference)."""
    outside = np.ones(f.values.shape, dtype=bool)
    outside[tuple(slice(lo, hi) for lo, hi in f._box)] = False
    assert np.all(f.values[outside] == 0.0)
    if all(lo < hi for lo, hi in f._box):
        assert all(f.margin_cells <= lo and hi <= f.points - f.margin_cells for lo, hi in f._box)
    assert np.array_equal(f.values, want)
    assert f.sup_norm() == float(np.max(np.abs(want)))
    assert grid_integrate(f) == reference_integrate(want, f.h)


def same_outcome(call, reference, *args):
    """``call`` and its reference return equal samples or raise alike."""
    got, want = outcome(call, *args), outcome(reference, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
        return None
    return got[1], want[1]


@pytest.mark.parametrize("dimension", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_box_kernels_match_whole_array_formulas(dimension, data, seed):
    rng = np.random.default_rng(seed)
    f, g = drawn_grid(data, dimension, rng), drawn_grid(data, dimension, rng)
    boxed(f, f.values)
    boxed(f + g, f.values + g.values)
    boxed(f - g, f.values - g.values)
    boxed(-f, -f.values)
    boxed(2.5 * f, f.values * 2.5)
    boxed(f * g, f.values * g.values)
    reach = f.margin_cells - MIN_MARGIN
    cells = tuple(data.draw(st.integers(-reach, reach)) for _ in range(dimension))
    boxed(grid_translate(f, cells), np.roll(f.values, cells, tuple(range(dimension))))
    for axis in range(dimension):
        boxed(grid_diff(f, axis), roll_diff(f, axis))
        u = grid_diff(f, axis)
        pair = same_outcome(
            lambda u: grid_cumulative(u, axis),
            lambda u: snapped(_cumulative_simpson(u.values, u.h[axis], axis), u.margin_cells),
            u,
        )
        if pair is not None:
            boxed(pair[0], pair[1])
    u = grid_diff(f, dimension - 1) + grid_diff(g, 0)
    pair = same_outcome(gs_decompose, reference_gs, u)
    if pair is not None:
        parts, want = pair
        for part, values in zip(parts, want):
            boxed(part, values)
        terms = [roll_diff(part, axis) for axis, part in enumerate(parts)]
        assert decomposition_residual(u, parts) == reference_sup(u, terms)
    assert decomposition_residual(f, [g] * dimension) == reference_sup(
        f, [roll_diff(g, axis) for axis in range(dimension)]
    )
    if dimension != 2:
        return
    boxed(grid_bracket(f, g), roll_bracket(f, g))
    pairs = [(f, g), (g, f)][: data.draw(st.integers(1, 2))]
    assert bracket_residual(u, pairs) == reference_sup(u, [roll_bracket(a, b) for a, b in pairs])
    decomposed = outcome(bracket_decompose, u)
    if decomposed[0] == "ok" and decomposed[1]:
        g_q, g_p = reference_gs(u)
        for a, b in decomposed[1]:
            assert np.array_equal(a.values, g_p) or np.array_equal(a.values, -g_q)
            boxed(a, a.values)
            boxed(b, b.values)
        pairs = decomposed[1]
        assert bracket_residual(u, pairs) == reference_sup(u, [roll_bracket(a, b) for a, b in pairs])
    phi = tapered_generate(2, 3.0, f.points, 1.2, f.margin_cells)
    pair = same_outcome(brw_residual, reference_brw, u, phi, g)
    if pair is not None:
        assert pair[0] == pair[1]


@pytest.mark.parametrize("dimension", [1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_generators_write_only_their_box(dimension, data):
    points, margin = BOX_GRIDS[dimension], 7
    h = 6.0 / (points - 1)
    support = data.draw(st.floats(2 * h, 3.0 - (margin + 2) * h))
    x = np.linspace(-3.0, 3.0, points)

    def outer(profile):
        values = profile.copy()
        for _ in range(dimension - 1):
            values = np.multiply.outer(values, profile)
        return values

    for generate, profile in ((tapered_generate, _cos8_profile), (bump_generate, _bump_profile)):
        want = outer(profile(x / support))
        want *= 1.0 / reference_integrate(want, (h,) * dimension)
        boxed(generate(dimension, 3.0, points, support, margin), want)
    decay = 3.0 - (margin + 1) * h - support
    want = outer(_plateau_profile((support + decay - np.abs(x)) / decay))
    boxed(plateau_generate(dimension, 3.0, points, support, margin), want)


def test_empty_box_is_the_zero_function():
    for dimension, points in BOX_GRIDS.items():
        zero = zero_grid(points, dimension, margin=8)
        assert any(lo >= hi for lo, hi in zero._box)
        for f in (zero + zero, -zero, grid_diff(zero, 0), grid_cumulative(zero, 0), *gs_decompose(zero)):
            assert any(lo >= hi for lo, hi in f._box) and not f.values.any()
        assert grid_integrate(zero) == 0.0 and zero.sup_norm() == 0.0
    assert bracket_residual(zero_grid(40, 2), [(zero_grid(40, 2), zero_grid(40, 2))]) == 0.0


def test_non_finite_samples_keep_their_place_in_products():
    # inf * 0 is NaN wherever a non-finite sample meets the other's zeros
    v = np.zeros(64)
    v[30] = np.inf
    w = np.zeros(64)
    w[20] = 1.0
    f, g = GridFn((3.0,), 64, v, 8), GridFn((3.0,), 64, w, 8)
    with np.errstate(invalid="ignore"):
        for product in (f * g, g * f):
            assert np.array_equal(product.values, v * w, equal_nan=True)
        with pytest.raises(MarginError):
            f * math.inf
