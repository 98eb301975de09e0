"""Full acceptance battery.

Twelve numbered criteria, one verdict line printed per criterion (run
with ``-s`` to see them live).  Exact identities must vanish literally;
grid checks hold at stated tolerances; the high-precision pullback
checks hold at 50 digits.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import hamiltonian_flow, rational_rotation, tapered_bump

from startrace.diffop import DiffOp
from startrace.equiv import (
    Equivalence,
    density_from_equivalence,
    random_equivalence,
    symplectic_automorphism_check,
    transport_euler,
    transport_star,
)
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn, IntegralValue
from startrace.gsdecomp import (
    GridFn,
    bracket_decompose,
    bracket_residual,
    brw_residual,
    decomposition_residual,
    grid_diff,
    grid_integrate,
    grid_translate,
    gs_decompose,
    plateau_generate,
    tapered_generate,
)
from startrace.poly import PhaseSpace, Poly, mat_identity, mat_mul
from startrace.star import (
    associativity_residual,
    canonical_euler,
    closedness_integral,
    moyal_construct,
)
from startrace.trace import (
    InconsistentTracesError,
    default_probe_battery,
    moyal_trace,
    normalization_residual,
    proportionality_factor,
    trace_eval,
    trace_residual,
    trk_residual,
)


def _verdict(number, label, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def _random_monomial(rng, space, max_degree=4):
    exps = [0] * space.dim
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(space.dim)] += 1
    return Poly.monomial(space, tuple(exps), Fraction(rng.choice([-2, -1, 1, 2])))


def _random_gauss(rng, space):
    t = Fraction(rng.choice([1, 1, 2]))
    b = tuple(Fraction(rng.randint(-1, 1)) for _ in range(space.dim))
    poly = Poly.constant(space, Fraction(rng.choice([1, 2]), rng.choice([1, 2])))
    for _ in range(2):
        poly = poly + _random_monomial(rng, space, 3)
    return GaussFn.term(space, poly, t, b, 0)


def _random_zero_integral(rng, phi):
    u = GridFn(phi.half_widths, phi.points, np.zeros_like(phi.values), 10)
    for _ in range(3):
        shift = (rng.randint(-5, 5), rng.randint(-5, 5))
        u = u + rng.choice([-2, -1, 1, 2]) * grid_translate(phi, shift)
    return u - (grid_integrate(u) / grid_integrate(phi)) * phi


@pytest.fixture(scope="module")
def transported():
    """Five seeded equivalences with T_k of operator order <= 2, k <= 3,
    each carried to truncation order 4 with its product and density."""
    space = PhaseSpace(1)
    base = moyal_construct(space, 4)
    items = []
    for seed in range(5):
        low = random_equivalence(space, 3, seed)
        t = Equivalence(space, 4, low.ops)
        items.append((t, transport_star(t, base), density_from_equivalence(t)))
    return space, base, items


def test_criterion_01_moyal_associativity():
    start = time.time()
    rng = random.Random(2026)
    ok = True
    for n in (1, 2):
        space = PhaseSpace(n)
        product = moyal_construct(space, 6)
        for _ in range(10):
            triple = [_random_monomial(rng, space) for _ in range(3)]
            ok = ok and associativity_residual(product, *triple).is_zero()
    elapsed = time.time() - start
    ok = ok and elapsed <= 60.0
    _verdict(1, f"Moyal associativity on 20 monomial triples, K=6 ({elapsed:.1f}s)", ok)


def test_criterion_02_strong_closedness():
    space = PhaseSpace(1)
    product = moyal_construct(space, 6)
    rng = random.Random(7)
    ok = True
    for _ in range(10):
        u, v = _random_gauss(rng, space), _random_gauss(rng, space)
        for r in range(1, 7):
            ok = ok and closedness_integral(product, r, u, v).is_zero()
    _verdict(2, "commutator cochains integrate to zero, r=1..6, 10 pairs", ok)


def test_criterion_03_moyal_trace_property():
    space = PhaseSpace(1)
    product = moyal_construct(space, 6)
    tau = moyal_trace(space, 6)
    rng = random.Random(13)
    ok = True
    for _ in range(10):
        u, v = _random_gauss(rng, space), _random_gauss(rng, space)
        ok = ok and trace_residual(tau, product, u, v).is_zero()
    _verdict(3, "standard trace vanishes on commutators, 10 pairs, K=6", ok)


def test_criterion_04_homogeneity():
    space = PhaseSpace(1)
    tau = moyal_trace(space, 6)
    d = canonical_euler(space)
    battery = default_probe_battery(space)
    ok = len(battery) == 8
    for probe in battery:
        ok = ok and normalization_residual(tau, d, probe).is_zero()
    val = trace_eval(tau, GaussFn.gaussian(space, 1))
    two_pi = FormalScalar(
        {-1: IntegralValue(1, {Fraction(0): Fraction(2)})}, val.trunc_order
    )
    ok = ok and val == two_pi
    ok = ok and val.nu_scale_derivative() == two_pi.scale(Fraction(-1))
    _verdict(4, "normalization on 8 probes; worked value 2*pi/nu", ok)


def test_criterion_05_transported_trace(transported):
    space, _, items = transported
    ok = True
    for seed, (t, product, tau) in enumerate(items):
        rng = random.Random(100 + seed)
        for _ in range(2):
            u, v = _random_gauss(rng, space), _random_gauss(rng, space)
            ok = ok and trace_residual(tau, product, u, v).is_zero()
    _verdict(5, "transported density is a trace for 5 equivalences, K=4", ok)


def test_criterion_06_pullback_normalization(transported):
    space, _, items = transported
    battery = default_probe_battery(space)
    ok = True
    for t, _, tau in items:
        d = transport_euler(t, canonical_euler(space))
        for probe in battery[:3]:
            ok = ok and normalization_residual(tau, d, probe).is_zero()
    _verdict(6, "transported trace is normalized for the same 5 equivalences", ok)


def test_criterion_07_uniqueness_factor(transported):
    # T2 = A o T with A = exp(nu {H, .}) is another equivalence to the same
    # product for quadratic H, so its trace must be the same up to factor 1;
    # the cubic H = q1^3 is the control whose transported product differs.
    space, base, items = transported
    probe = GaussFn.gaussian(space, 1)
    one = FormalScalar.constant(Fraction(1), 4)
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    quadratics = [q * p, q * q + p * p]
    ok = True
    for i, (t, product, tau) in enumerate(items):
        t2 = hamiltonian_flow(quadratics[i % 2], 4).compose(t)
        ok = ok and t2 != t and transport_star(t2, base) == product
        tau2 = density_from_equivalence(t2)
        ok = ok and proportionality_factor(tau, tau2, probe) == one
    t, product, _ = items[0]
    control = transport_star(hamiltonian_flow(q**3, 4).compose(t), base)
    ok = ok and control != product
    _verdict(7, "flow-composed equivalences give factor exactly 1, K=4; cubic flow fires", ok)


def test_criterion_08_proportionality():
    space = PhaseSpace(1)
    probe = GaussFn.gaussian(space, 1)
    tau1 = moyal_trace(space, 4)
    target = FormalScalar({0: Fraction(1), 1: Fraction(3), 3: Fraction(-1, 2)}, 4)
    got = proportionality_factor(tau1, tau1.scale_by_series(target), probe)
    ok = got == target
    # a density belonging to a transported product is not proportional
    op = DiffOp.mult(Poly.variable(space, "q1") ** 2).compose(
        DiffOp.partial(space, "q1")
    )
    tau2 = density_from_equivalence(Equivalence(space, 4, {1: op}))
    try:
        proportionality_factor(tau1, tau2, probe)
        fired = False
    except InconsistentTracesError:
        fired = True
    ok = ok and fired
    _verdict(8, "factor 1 + 3*nu - 1/2*nu^3 recovered; mismatch detected", ok)


def test_criterion_09_order_k_conditions():
    space = PhaseSpace(1)
    base = moyal_construct(space, 6)
    t = Equivalence(
        space,
        6,
        {1: DiffOp.partial(space, "q1").compose(DiffOp.partial(space, "p1"))},
    )
    setups = [
        (moyal_trace(space, 6), base),
        (density_from_equivalence(t), transport_star(t, base)),
    ]
    rng = random.Random(11)
    ok = True
    for tau, product in setups:
        for _ in range(3):
            u, v = _random_gauss(rng, space), _random_gauss(rng, space)
            values = trk_residual(tau, product, u, v)
            ok = ok and len(values) == 6 and all(val.is_zero() for val in values)
    _verdict(9, "order-k trace conditions, k=0..5, Moyal and transported", ok)


def test_criterion_10_gs_decomposition():
    u1 = grid_diff(tapered_generate(1, 3.0, 512, 2.2, 14), 0)
    r1 = decomposition_residual(u1, gs_decompose(u1))
    b2 = tapered_generate(2, 3.0, 256, 2.2, 14)
    u2 = grid_diff(grid_translate(b2, (3, -2)), 0) + grid_diff(
        grid_translate(b2, (-4, 5)), 1
    )
    r2 = decomposition_residual(u2, gs_decompose(u2))
    residuals = []
    for points in (128, 256, 512):
        w = grid_diff(tapered_generate(1, 3.0, points, 2.2, 14), 0)
        residuals.append(decomposition_residual(w, gs_decompose(w)))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = r1 <= 1e-6 and r2 <= 1e-5 and all(o >= 3.0 for o in orders)
    _verdict(
        10,
        f"GS reconstruction 1D {r1:.1e}, 2D {r2:.1e}, "
        f"orders {orders[0]:.2f}/{orders[1]:.2f}",
        ok,
    )


def test_criterion_11_brw_bracket():
    rng = random.Random(3)
    phi = tapered_bump(256, 2, 1.8)
    ok = True
    for _ in range(3):
        u = _random_zero_integral(rng, phi)
        ok = ok and bracket_residual(u, bracket_decompose(u)) <= 1e-5
    w = 2 * grid_translate(phi, (4, -3)) + 0.5 * grid_translate(phi, (-5, 2))
    flat = plateau_generate(2, 3.0, 256, 2.3, margin_cells=8)
    ok = ok and brw_residual(w, phi, flat) <= 1e-8
    ok = ok and brw_residual(w, phi, 0.5 * flat) <= 1e-8
    coords = flat.axis_coordinates(0)
    weighted = GridFn(
        flat.half_widths, flat.points, flat.values * (coords**2)[:, np.newaxis], 8
    )
    ok = ok and brw_residual(w, phi, weighted) >= 1e-3
    _verdict(11, "bracket pairs reconstruct to 1e-5; functional discriminates", ok)


def test_criterion_12_automorphism_invariance():
    space = PhaseSpace(1)
    q1 = Poly.variable(space, "q1")
    u = GaussFn.term(space, Poly.constant(space, 1) + q1 * q1, 1, (1, 0), 0)
    quarter = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    squeeze = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    matrices = [
        mat_identity(2),
        quarter,
        rational_rotation(space),
        squeeze,
        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
        [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]],
        [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1, 3)]],
        mat_mul(rational_rotation(space), squeeze),
    ]
    ok = all(symplectic_automorphism_check(m, u) == IntegralValue.zero() for m in matrices)
    _verdict(12, "pullback invariance: exact zero for orthogonal and symplectic maps", ok)
