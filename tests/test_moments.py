"""The trace functionals integrated by parts on moment tables, against the
paths that build commutators, products and derivatives, kept as oracles."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plane_product, polys
from startrace import cli
from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import (
    density_from_equivalence,
    random_equivalence,
    transport_euler,
    transport_star,
)
from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    IntegralValue,
    gauss_integrate_exact,
    gauss_operator_integrals,
    gauss_pair_integrals,
    gauss_pullback_linear,
)
from startrace.poly import PhaseSpace, Poly
from startrace.star import canonical_euler, closedness_integral, moyal_construct
from startrace.trace import (
    TraceFunctional,
    _normalization_residual_by_derivatives,
    _trace_eval_by_products,
    _trace_residual_by_commutator,
    default_probe_battery,
    moyal_trace,
    normalization_residual,
    trace_eval,
    trace_residual,
    trk_residual,
)
from test_gaussfn import quadratic

RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
WIDTH = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)


def squeezes(space):
    """Hypothesis strategy: one scale ``s`` per canonical plane."""
    scale = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)])
    return st.lists(scale, min_size=space.n, max_size=space.n)


def diagonal_term(space, scales):
    """Hypothesis strategy: one term ``P e^Q`` with a diagonal ``Q`` whose
    widths are ``(t s^2, t/s^2)`` on each canonical plane, so that the
    product of the widths of such terms with the same scales, and of their
    sums, stays a square."""

    def build(poly, t, b, c):
        widths = [t * s * s for s in scales] + [t / (s * s) for s in scales]
        a = [[-widths[i] if i == j else 0 for j in range(space.dim)] for i in range(space.dim)]
        return GaussFn(space, {quadratic(space, a, b, c): poly})

    return st.builds(
        build,
        polys(space).filter(lambda p: not p.is_zero()),
        WIDTH,
        st.lists(RATIONAL, min_size=space.dim, max_size=space.dim),
        RATIONAL,
    )


def products(space, order):
    """Hypothesis strategy: ``(star product, its trace)``, Moyal or
    transported by a seeded ``random_equivalence``."""

    def build(seed):
        moyal = moyal_construct(space, order)
        if seed is None:
            return moyal, moyal_trace(space, order)
        t = random_equivalence(space, order, seed)
        return transport_star(t, moyal), density_from_equivalence(t)

    return st.builds(build, st.one_of(st.none(), st.integers(0, 50)))


def perturbed(space, tau, data):
    """``tau`` with a drawn polynomial that is not constant added to one
    order of its density from 1 to K-1, which in general is no longer a
    trace through order K."""
    order = tau.density.trunc_order
    k = data.draw(st.integers(1, order - 1))
    bump = data.draw(polys(space)) + Poly.variable(space, "q1")
    density = tau.density + FormalScalar({k: bump}, order)
    return TraceFunctional(space, density, tau.prefactor_exponent)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pair_residuals_match_the_commutator(n, data):
    space = PhaseSpace(n)
    order = data.draw(st.integers(2, 4 if n == 1 else 3))
    s, tau = data.draw(products(space, order))
    scales = data.draw(squeezes(space))
    u, v = data.draw(diagonal_term(space, scales)), data.draw(diagonal_term(space, scales))
    v = v * Poly.variable(space, f"p{n}")  # so that v is not u
    for t in (tau, perturbed(space, tau, data)):
        got = trace_residual(t, s, u, v)
        assert got == _trace_residual_by_commutator(t, s, u, v)
        assert got.trunc_order == order + t.prefactor_exponent
        e = t.prefactor_exponent
        assert trk_residual(t, s, u, v) == [
            got.get(k + 1 + e) or IntegralValue.zero() for k in range(order)
        ]
    assert gauss_pair_integrals(u, v, s.minus, tau.density.coeffs, order) is not None
    for r in range(order + 1):
        want = gauss_integrate_exact(s.minus[r].apply(u, v)) if r in s.minus else None
        assert closedness_integral(s, r, u, v) == (want or IntegralValue.zero())


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_eval_matches_the_products(n, data):
    # multi-term shifted integrands with rational widths and c != 0, under
    # drawn densities that start at nu^0
    space = PhaseSpace(n)
    term = squeezes(space).flatmap(lambda scales: diagonal_term(space, scales))
    terms = data.draw(st.lists(term, min_size=1, max_size=3))
    u = GaussFn.sum(space, terms)
    order = data.draw(st.integers(0, 4))
    density = FormalScalar(
        {0: data.draw(polys(space).filter(lambda p: not p.is_zero()))}
        | {k: data.draw(polys(space)) for k in range(1, order + 1)},
        order,
    )
    tau = TraceFunctional(space, density, data.draw(st.integers(-n, 0)))
    got = outcome(trace_eval, tau, u)
    assert got == outcome(_trace_eval_by_products, tau, u)
    if isinstance(got, FormalScalar):
        assert got.trunc_order == order + tau.prefactor_exponent


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_normalization_matches_the_derivatives(n, data):
    # the probe battery and a drawn integrand, under the canonical D with the
    # Moyal trace or under a transported D with its transported density
    space = PhaseSpace(n)
    order = data.draw(st.integers(2, 4 if n == 1 else 3))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 50)))
    d = canonical_euler(space)
    tau = moyal_trace(space, order)
    if seed is not None:
        t = random_equivalence(space, order, seed)
        d, tau = transport_euler(t, d), density_from_equivalence(t)
    if data.draw(st.booleans()):
        tau = perturbed(space, tau, data)
    term = squeezes(space).flatmap(lambda scales: diagonal_term(space, scales))
    probes = default_probe_battery(space) + [data.draw(term)]
    for u in probes:
        got = normalization_residual(tau, d, u)
        assert got == _normalization_residual_by_derivatives(tau, d, u)
        assert got.trunc_order == order + tau.prefactor_exponent


def test_flat_operands_match_the_commutator():
    # v flat along an axis (a polynomial, or a Gaussian in q alone): rows of
    # B_r whose every d^beta v vanishes have nothing to contract
    space = PhaseSpace(1)
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    u = GaussFn(space, {quadratic(space, [[-1, 0], [0, -4]], [F(1, 2), 0], 1): q + p})
    flat = [
        GaussFn.from_poly(p),
        GaussFn.from_poly(q * p + Poly.constant(space, 2)),
        GaussFn(space, {quadratic(space, [[-3, 0], [0, 0]], [0, F(1, 3)]): p * p}),
    ]
    moyal = moyal_construct(space, 3)
    t = random_equivalence(space, 3, 4)
    setups = [(moyal_trace(space, 3), moyal), (density_from_equivalence(t), transport_star(t, moyal))]
    bump = FormalScalar({1: q * q + p, 2: q}, 3)
    nonzero = 0
    for tau, s in setups:
        taus = [tau, TraceFunctional(space, tau.density + bump, tau.prefactor_exponent)]
        for a, b in [(u, w) for w in flat] + [(w, u) for w in flat]:
            assert gauss_pair_integrals(a, b, s.minus, tau.density.coeffs, 3) is not None
            for t in taus:
                got = trace_residual(t, s, a, b)
                assert got == _trace_residual_by_commutator(t, s, a, b)
                nonzero += not got.is_zero()
            for r in range(4):
                minus = s.minus.get(r)
                want = minus.apply(a, b) if minus is not None else None
                want = gauss_integrate_exact(want) if want is not None else IntegralValue.zero()
                assert closedness_integral(s, r, a, b) == want
    assert nonzero


def test_operands_outside_the_tables_take_the_oracle():
    space = PhaseSpace(1)
    s = transport_star(random_equivalence(space, 3, 4), moyal_construct(space, 3))
    tau = density_from_equivalence(random_equivalence(space, 3, 4))
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    u = GaussFn.term(space, q + Poly.constant(space, 1), 1, [1, 0], F(1, 2))
    v = GaussFn.term(space, p * p, 2, [0, F(1, 2)])
    sheared = gauss_pullback_linear(u, plane_product(space, [("shear-q", 0, F(1, 2))]))
    two_terms = u + GaussFn.gaussian(space, 3)
    # widths (2, 1) and (1, 1) sum to (3, 2): sqrt(6) is irrational
    squeezed = GaussFn(space, {quadratic(space, [[-2, 0], [0, -1]]): Poly.constant(space, 1)})
    for a, b in [(sheared, v), (v, sheared), (two_terms, v), (u, two_terms), (squeezed, u)]:
        assert gauss_pair_integrals(a, b, s.minus, tau.density.coeffs, 3) is None
        want = outcome(_trace_residual_by_commutator, tau, s, a, b)
        assert outcome(trace_residual, tau, s, a, b) == want
        for r in range(4):
            minus = s.minus.get(r)
            want = IntegralValue.zero() if minus is None else outcome(
                gauss_integrate_exact, minus.apply(a, b)
            )
            assert outcome(closedness_integral, s, r, a, b) == want
    assert outcome(trace_residual, tau, s, squeezed, u) is ArithmeticError
    # windows the tables do not cover: a density starting above nu^0, and
    # one truncated below the product's order
    shifted = tau.scale_by_series(FormalScalar({1: F(1)}, 3))
    short = moyal_trace(space, 2)
    for t in (shifted, short):
        assert trace_residual(t, s, u, v) == _trace_residual_by_commutator(t, s, u, v)
    assert trace_eval(shifted, sheared) == _trace_eval_by_products(shifted, sheared)
    d = canonical_euler(space)
    assert gauss_operator_integrals(sheared, {0: d.x}, tau.density.coeffs, 3) is None
    for w in (sheared, FormalScalar.constant(u, 3)):
        assert normalization_residual(tau, d, w) == _normalization_residual_by_derivatives(
            tau, d, w
        )


@pytest.mark.parametrize("n", [1, 2])
def test_cli_pair_and_probe_cases_apply_no_operator(monkeypatch, n):
    space = PhaseSpace(n)
    t = random_equivalence(space, 3, 0)
    moyal = moyal_construct(space, 3)
    setups = [
        (moyal_trace(space, 3), moyal, canonical_euler(space)),
        (
            density_from_equivalence(t),
            transport_star(t, moyal),
            transport_euler(t, canonical_euler(space)),
        ),
    ]

    def refuse(*args):
        raise AssertionError("an operator was applied")

    monkeypatch.setattr(BiDiffOp, "apply", refuse)
    monkeypatch.setattr(DiffOp, "apply", refuse)
    for tau, product, d in setups:
        cases = cli._gaussian_pair_cases(space, tau, product, 0)
        cases += cli._probe_cases(space, tau, d)
        assert len(cases) == 11 and all(case.passed for case in cases)
