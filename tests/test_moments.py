"""The trace functionals integrated by parts, against oracles that build
the commutators, products and derivatives first.

Every functional takes one path: ``trace_eval`` and
``normalization_residual`` read the moment rows of each term of their
operand, and the pair functionals read the transposes ``B^t_w`` of the
commutator cochains (``BiDiffOp.transpose``), summed per order into the
operators ``L_m`` of ``operator_trace_residual``, which vanish for a true
trace density and are built once per functional and product, however many
pairs meet them.  The oracles below build their integrands from public
pieces only: ``FormalScalar`` products, ``star_commutator``,
``EulerDerivation.apply`` and ``gauss_integrate_exact``.  Operands with
cross terms in their exponents, with several terms, and zero operands are
drawn and compared by outcome, value or error type.
"""

from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plane_product, polys, record_transposes, transposes_of
from startrace import cli, gaussfn
from startrace.cli import Scenario, run_scenario
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
    NonIntegrableError,
    adjoint_weights,
    gauss_integrate_exact,
    gauss_pair_integrals,
    gauss_pullback_linear,
    gauss_weight_integrals,
)
from startrace.poly import PhaseSpace, Poly
from startrace.star import (
    EulerDerivation,
    canonical_euler,
    closedness_integral,
    moyal_construct,
    star_commutator,
)
from startrace.trace import (
    TraceFunctional,
    default_probe_battery,
    moyal_trace,
    normalization_residual,
    operator_trace_residual,
    trace_eval,
    trace_residual,
    trk_residual,
)
from test_diffop import bidiffops
from test_gaussfn import quadratic

RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
WIDTH = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)


def eval_by_products(t, u):
    """``trace_eval`` by building ``u * rho`` as FormalScalars and integrating
    each order: a GaussFn ``u`` is the constant series at the density's
    order."""
    rho = t.density
    if not isinstance(u, FormalScalar):
        u = FormalScalar.constant(u, rho.trunc_order)
    as_gauss = {k: GaussFn.from_poly(c) for k, c in rho.coeffs.items()}
    prod = u * FormalScalar(as_gauss, rho.trunc_order)
    vals = {m: gauss_integrate_exact(g) for m, g in prod.coeffs.items()}
    return FormalScalar(vals, prod.trunc_order).shift(-t.space.n)


def residual_by_commutator(t, s, comm):
    """``trace_residual`` by integrating the star commutator ``comm =
    star_commutator(s, u, v)``, cut to the window ``min(K + m_rho, K_rho +
    1)``, since ``C_0^-`` is zero."""
    rho = t.density
    top = min(s.trunc_order + (rho.min_degree or 0), rho.trunc_order + 1)
    return eval_by_products(t, comm).truncate(top - t.space.n)


def normalization_by_derivatives(t, d, u):
    """``normalization_residual`` by applying ``D`` to the constant series
    ``u`` and integrating."""
    u = FormalScalar.constant(u, t.density.trunc_order)
    return eval_by_products(t, d.apply(u)) - eval_by_products(t, u).nu_scale_derivative()


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


def shears(space):
    """Hypothesis strategy: a product of one or two shears of canonical
    planes.  Pulling terms back along it gives their exponents cross terms;
    it is symplectic, so the widths' determinant of a term, and of a sum of
    terms pulled back along the same shear, stays a square."""
    step = st.tuples(
        st.sampled_from(["shear-q", "shear-p"]),
        st.integers(0, space.n - 1),
        st.sampled_from([F(1, 2), F(-1), F(2, 3)]),
    )
    return st.lists(step, min_size=1, max_size=2).map(lambda steps: plane_product(space, steps))


def operands(space, scales, data, count):
    """Draw ``count`` operands, each a sum of one or two terms of
    :func:`diagonal_term`; all of them are pulled back along one drawn
    shear, or the first alone, or none."""
    term = diagonal_term(space, scales)
    sums = st.lists(term, min_size=1, max_size=2).map(lambda ts: GaussFn.sum(space, ts))
    fns = [data.draw(sums) for _ in range(count)]
    mode = data.draw(st.sampled_from(["none", "all", "first"]))
    if mode != "none":
        m = data.draw(shears(space))
        fns = [gauss_pullback_linear(f, m) if i == 0 or mode == "all" else f
               for i, f in enumerate(fns)]
    return fns


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
    return TraceFunctional(space, tau.density + FormalScalar({k: bump}, order))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pair_residuals_match_the_commutator(n, data):
    # sums of one or two terms, with cross terms in u alone or in both
    space = PhaseSpace(n)
    order = data.draw(st.integers(2, 4 if n == 1 else 3))
    s, tau = data.draw(products(space, order))
    u, v = operands(space, data.draw(squeezes(space)), data, 2)
    v = v * Poly.variable(space, f"p{n}")  # so that v is not u
    comm = star_commutator(s, u, v)
    for t in (tau, perturbed(space, tau, data)):
        got = outcome(trace_residual, t, s, u, v)
        assert got == outcome(residual_by_commutator, t, s, comm)
        # a second call reads the operators the first memoized on s
        assert got == outcome(trace_residual, t, s, u, v)
        if isinstance(got, FormalScalar):
            assert gauss_pair_integrals(u, v, {}) == {}
            assert got.trunc_order == order - n
            assert trk_residual(t, s, u, v) == [
                got.get(k + 1 - n) or IntegralValue.zero() for k in range(order)
            ]
    assert operator_trace_residual(tau, s) == {}
    for r in range(order + 1):
        want = outcome(gauss_integrate_exact, comm.get(r) or GaussFn.zero(space))
        assert outcome(closedness_integral, s, r, u, v) == want


@lru_cache
def cochains(n, seed):
    """The cochains and commutator cochains of the Moyal product at K = 3,
    or of its transport by ``random_equivalence`` at ``seed``."""
    space = PhaseSpace(n)
    s = moyal_construct(space, 3)
    if seed is not None:
        s = transport_star(random_equivalence(space, 3, seed), s)
    return list(s.cochains.values()) + list(s.minus.values())


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transpose_moves_the_weight_onto_one_operand(n, data):
    # integral of w B(u, v) = integral of u B^t_w(v), exactly, for B a Moyal
    # or transported cochain or a drawn operator with polynomial coefficients
    space = PhaseSpace(n)
    source = data.draw(st.sampled_from(["moyal", "transported", "drawn"]))
    if source == "drawn":
        b = data.draw(bidiffops(space, top=2))
    else:
        seed = None if source == "moyal" else data.draw(st.integers(0, 20))
        b = data.draw(st.sampled_from(cochains(n, seed)))
    w = data.draw(polys(space))
    scales = data.draw(squeezes(space))
    u, v = data.draw(diagonal_term(space, scales)), data.draw(diagonal_term(space, scales))
    bt = b.transpose(w)
    want = gauss_integrate_exact(GaussFn.from_poly(w) * b.apply(u, v))
    assert gauss_integrate_exact(u * bt.apply(v)) == want
    assert gauss_pair_integrals(u, v, {0: bt}).get(0, IntegralValue.zero()) == want
    # term by term: (-1)^|alpha| d^alpha o (a_{alpha,beta} w) o d^beta
    terms = [
        DiffOp(space, {beta: c * w}).diff_multi(alpha) * (-1) ** sum(alpha)
        for (alpha, beta), c in b.coeffs.items()
    ]
    assert bt == DiffOp.sum(space, terms)


@pytest.mark.parametrize("n, order", [(1, 4), (1, 6), (2, 4), (3, 4)])
def test_operator_residual_vanishes_for_true_densities(n, order):
    space = PhaseSpace(n)
    moyal = moyal_construct(space, order)
    assert operator_trace_residual(moyal_trace(space, order), moyal) == {}
    for seed in range(3):
        t = random_equivalence(space, order, seed)
        tau, s = density_from_equivalence(t), transport_star(t, moyal)
        assert operator_trace_residual(tau, s) == {}


@pytest.mark.parametrize("n", [1, 2])
def test_operator_residual_controls_fire(n):
    # rho + nu^2 q1 breaks the trace identity from order 3, and the Moyal
    # density 1 breaks it against a transported product (seeds 0 and 1;
    # at seed 2 the transported density is a constant series, still a
    # trace); each pair's residual is nonzero at exactly the orders where
    # L_m is
    space = PhaseSpace(n)
    moyal = moyal_construct(space, 4)
    bump = FormalScalar({2: Poly.variable(space, "q1")}, 4)
    for seed in range(3):
        t = random_equivalence(space, 4, seed)
        s, tau = transport_star(t, moyal), density_from_equivalence(t)
        bumped = TraceFunctional(space, tau.density + bump)
        for f in [bumped, moyal_trace(space, 4)] if seed < 2 else [bumped]:
            ops = operator_trace_residual(f, s)
            assert ops and min(ops) == (3 if f is bumped else 4)
            if f is bumped and seed == 0:
                assert sorted(ops) == [3, 4]
            for _, (u, v) in zip(range(3), cli._gauss_pairs(space, seed)):
                got = trace_residual(f, s, u, v)
                assert got == residual_by_commutator(f, s, star_commutator(s, u, v))
                assert {m + n for m, c in got.coeffs.items() if not c.is_zero()} == set(ops)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_eval_matches_the_products(n, data):
    # multi-term shifted integrands with rational widths and c != 0, their
    # terms sheared or not, under drawn densities that start at nu^0
    space = PhaseSpace(n)
    term = squeezes(space).flatmap(lambda scales: diagonal_term(space, scales))
    sheared = st.tuples(term, shears(space)).map(lambda fm: gauss_pullback_linear(*fm))
    term = st.one_of(term, sheared)
    u = GaussFn.sum(space, data.draw(st.lists(term, min_size=1, max_size=3)))
    order = data.draw(st.integers(0, 4))
    density = FormalScalar(
        {0: data.draw(polys(space).filter(lambda p: not p.is_zero()))}
        | {k: data.draw(polys(space)) for k in range(1, order + 1)},
        order,
    )
    # a factor nu^(e+n) of the functional, e from -n to 0, shifts its density
    e = data.draw(st.integers(-n, 0))
    tau = TraceFunctional(space, density.shift(e + n))
    got = outcome(trace_eval, tau, u)
    assert got == outcome(eval_by_products, tau, u)
    if isinstance(got, FormalScalar):
        assert got.trunc_order == order + e
    # and a series of such integrands, read in the product's window
    series = FormalScalar({0: u, 1: u * Poly.variable(space, "q1")}, order)
    assert outcome(trace_eval, tau, series) == outcome(eval_by_products, tau, series)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_normalization_matches_the_derivatives(n, data):
    # the probe battery and a drawn integrand of one or two terms, sheared or
    # not, under the canonical D with the Moyal trace or under a transported
    # D with its transported density
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
    probes = default_probe_battery(space) + operands(space, data.draw(squeezes(space)), data, 1)
    for u in probes:
        got = outcome(normalization_residual, tau, d, u)
        assert got == outcome(normalization_by_derivatives, tau, d, u)
        if isinstance(got, FormalScalar):
            assert got.trunc_order == order - n


def test_flat_operands_match_the_commutator():
    # v flat along an axis (a polynomial, or a Gaussian in q alone): terms of
    # L_m whose every d^beta v vanishes have nothing to integrate.  The true
    # densities have no L_m at all; the bumped ones do
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
        assert operator_trace_residual(tau, s) == {}
        taus = [tau, TraceFunctional(space, tau.density + bump)]
        for a, b in [(u, w) for w in flat] + [(w, u) for w in flat]:
            for t in taus:
                got = trace_residual(t, s, a, b)
                assert got == residual_by_commutator(t, s, star_commutator(s, a, b))
                nonzero += not got.is_zero()
            for r in range(4):
                minus = s.minus.get(r)
                want = minus.apply(a, b) if minus is not None else None
                want = gauss_integrate_exact(want) if want is not None else IntegralValue.zero()
                assert closedness_integral(s, r, a, b) == want
    assert nonzero


def test_operands_outside_the_tables_take_the_oracle():
    # tau is the density of s, so every L_m is zero: a pair with a cross
    # term, several terms or no exact integral must still give the oracle's
    # value or error, never a 0
    space = PhaseSpace(1)
    s = transport_star(random_equivalence(space, 3, 4), moyal_construct(space, 3))
    tau = density_from_equivalence(random_equivalence(space, 3, 4))
    assert operator_trace_residual(tau, s) == {}
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    u = GaussFn.term(space, q + Poly.constant(space, 1), 1, [1, 0], F(1, 2))
    v = GaussFn.term(space, p * p, 2, [0, F(1, 2)])
    sheared = gauss_pullback_linear(u, plane_product(space, [("shear-q", 0, F(1, 2))]))
    two_terms = u + GaussFn.gaussian(space, 3)
    # widths (2, 1) and (1, 1) sum to (3, 2): sqrt(6) is irrational
    squeezed = GaussFn(space, {quadratic(space, [[-2, 0], [0, -1]]): Poly.constant(space, 1)})
    # a Gaussian in q alone times a polynomial does not decay along p
    q_only = GaussFn(space, {quadratic(space, [[-3, 0], [0, 0]], [0, F(1, 3)]): p * p})
    pairs = [(sheared, v), (v, sheared), (two_terms, v), (u, two_terms), (squeezed, u)]
    pairs += [(GaussFn.from_poly(p), q_only), (q_only, GaussFn.from_poly(q * p))]
    for a, b in pairs:
        want = outcome(residual_by_commutator, tau, s, star_commutator(s, a, b))
        assert outcome(trace_residual, tau, s, a, b) == want
        for r in range(4):
            minus = s.minus.get(r)
            want = IntegralValue.zero() if minus is None else outcome(
                gauss_integrate_exact, minus.apply(a, b)
            )
            assert outcome(closedness_integral, s, r, a, b) == want
    assert outcome(trace_residual, tau, s, squeezed, u) is ArithmeticError
    for a, b in pairs[-2:]:
        assert outcome(trace_residual, tau, s, a, b) is NonIntegrableError
        assert outcome(closedness_integral, s, 1, a, b) is NonIntegrableError
    # a density starting above nu^0, one truncated below the product's
    # order, and one truncated two orders below it, whose window stops at
    # K_rho + 1 for every pair
    shifted = tau.scale_by_series(FormalScalar({1: F(1)}, 3))
    for t in (shifted, moyal_trace(space, 2), moyal_trace(space, 1)):
        assert trace_residual(t, s, u, v) == residual_by_commutator(t, s, star_commutator(s, u, v))
    assert trace_residual(moyal_trace(space, 1), s, u, v).trunc_order == 2 - 1
    assert trace_eval(shifted, sheared) == eval_by_products(shifted, sheared)
    d = canonical_euler(space)
    for w in (sheared, two_terms):
        assert normalization_residual(tau, d, w) == normalization_by_derivatives(tau, d, w)


def test_zero_operands_keep_the_window():
    # the CLI's third probe pair at n=3, seed 2 has v = 0; a zero operand
    # gives the zero series in the window of a nonzero one
    space = PhaseSpace(3)
    (u, w), _, (x, zero) = [pair for _, pair in zip(range(3), cli._gauss_pairs(space, 2))]
    assert zero.is_zero() and not x.is_zero()
    s = moyal_construct(space, 4)
    tau = moyal_trace(space, 4)
    bump = FormalScalar({2: Poly.variable(space, "q1")}, 4)
    bumped = TraceFunctional(space, tau.density + bump)
    for t in (tau, bumped):
        full = trace_residual(t, s, u, w)
        assert t is tau or not full.is_zero()
        for a, b in [(x, zero), (zero, x), (zero, zero)]:
            got = trace_residual(t, s, a, b)
            assert got.is_zero() and got.trunc_order == full.trunc_order
            assert trk_residual(t, s, a, b) == [IntegralValue.zero()] * 4
        got, want = trace_eval(t, zero), trace_eval(t, x)
        assert got.is_zero() and got.trunc_order == want.trunc_order
        got = normalization_residual(t, canonical_euler(space), zero)
        assert got.is_zero() and got.trunc_order == want.trunc_order
    for r in range(5):
        assert closedness_integral(s, r, x, zero) == IntegralValue.zero()
        assert closedness_integral(s, r, zero, x) == IntegralValue.zero()
    assert run_scenario(Scenario("moyal-trace", n=3, trunc_order=4, seed=2)).all_pass()


def test_kernels_raise_for_what_they_cannot_integrate():
    space, other = PhaseSpace(1), PhaseSpace(2)
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    g = GaussFn.gaussian(space, 1)
    one, unit = {0: DiffOp.identity(space)}, {0: Poly.constant(space, 1)}
    s, tau, d = moyal_construct(space, 2), moyal_trace(space, 2), canonical_euler(space)
    # an operand that is not a GaussFn
    for bad in (q, FormalScalar.constant(g, 2), 1):
        for call in (
            lambda: gauss_pair_integrals(bad, g, one),
            lambda: gauss_pair_integrals(g, bad, one),
            lambda: gauss_weight_integrals(bad, unit),
            lambda: trace_residual(tau, s, g, bad),
            lambda: normalization_residual(tau, d, bad),
        ):
            with pytest.raises(TypeError):
                call()
    with pytest.raises(TypeError):
        trace_eval(tau, q)
    # operands, operators and weights on different phase spaces
    far = GaussFn.gaussian(other, 1)
    for call in (
        lambda: gauss_pair_integrals(g, far, {}),
        lambda: gauss_pair_integrals(g, g, {0: DiffOp.identity(other)}),
        lambda: adjoint_weights(space, {0: DiffOp.identity(other)}, unit, 0),
        lambda: adjoint_weights(space, one, {0: Poly.constant(other, 1)}, 0),
        lambda: gauss_weight_integrals(g, {0: Poly.constant(other, 1)}),
        lambda: trace_eval(moyal_trace(other, 2), g),
        lambda: trace_residual(tau, s, g, far),
    ):
        with pytest.raises(ValueError, match="phase space"):
            call()
    # a moment row past MAX_EXPONENT, where the product raised before
    big = GaussFn.term(space, q**200, 1)
    heavy = TraceFunctional(space, tau.density + FormalScalar({1: q**100}, 2))
    for call in (
        lambda: trace_eval(heavy, big),
        lambda: normalization_residual(heavy, d, big),
        lambda: gauss_pair_integrals(big, GaussFn.term(space, q**100, 1), one),
    ):
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            call()
    assert outcome(eval_by_products, heavy, big) is ValueError
    # each term pair is integrated, even when its operator image is zero
    q_only = GaussFn(space, {quadratic(space, [[-3, 0], [0, 0]], [0, F(1, 3)]): p * p})
    squeezed = GaussFn(space, {quadratic(space, [[-2, 0], [0, -1]]): Poly.constant(space, 1)})
    for a, b, err in [
        (g + q_only, GaussFn.from_poly(p), NonIntegrableError),
        (GaussFn.from_poly(p), g + q_only, NonIntegrableError),
        (g + squeezed, g, ArithmeticError),
    ]:
        with pytest.raises(err):
            gauss_pair_integrals(a, b, {})
        with pytest.raises(err):
            gauss_pair_integrals(a, b, {0: DiffOp.zero(space)})
    with pytest.raises(NonIntegrableError):
        gauss_weight_integrals(g + q_only, {})
    with pytest.raises(ArithmeticError):
        gauss_weight_integrals(squeezed, adjoint_weights(space, {}, unit, 0))


def test_functionals_build_no_product(monkeypatch):
    # sheared, multi-term and zero operands reach the moment tables alone
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, 4)
    s = transport_star(t, moyal_construct(space, 3))
    tau = density_from_equivalence(t)
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    bumped = TraceFunctional(space, tau.density + FormalScalar({2: q}, 3))
    d = transport_euler(t, canonical_euler(space))
    u = GaussFn.term(space, q + Poly.constant(space, 1), 1, [1, 0], F(1, 2))
    u = u + GaussFn.gaussian(space, 3)
    v = GaussFn.term(space, p * p, 2, [0, F(1, 2)])
    shear = plane_product(space, [("shear-q", 0, F(1, 2)), ("shear-p", 0, F(-1))])
    zero = GaussFn.zero(space)
    families = [[u, v, zero], [gauss_pullback_linear(f, shear) for f in (u, v)] + [zero]]
    series = FormalScalar({0: u, 1: v}, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a product, a derivative or an operator image was built")

    for owner, name in [
        (GaussFn, "__mul__"),
        (DiffOp, "apply"),
        (BiDiffOp, "apply"),
        (EulerDerivation, "apply"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    nonzero = 0
    for fns in families:
        for f in (tau, bumped):
            for a in fns:
                nonzero += not trace_eval(f, a).is_zero()
                normalization_residual(f, d, a)
                for b in fns:
                    nonzero += not trace_residual(f, s, a, b).is_zero()
                    for r in range(4):
                        closedness_integral(s, r, a, b)
    trace_eval(tau, series)
    assert nonzero


def test_normalization_integrates_each_term_once(monkeypatch):
    # D's adjoint weights and -(m+e) rho_m fold into one weight per order,
    # so each term of u meets its moment rows once, not once per side
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, 4)
    d = transport_euler(t, canonical_euler(space))
    q = Poly.variable(space, "q1")
    rho = density_from_equivalence(t).density + FormalScalar({2: q}, 3)
    tau = TraceFunctional(space, rho)
    u = GaussFn.term(space, q + Poly.constant(space, 1), 1, [1, 0], F(1, 2))
    u = u + GaussFn.gaussian(space, 3) + GaussFn.term(space, q * q, 2, [0, F(1, 2)])
    want = normalization_by_derivatives(tau, d, u)
    assert not want.is_zero()
    calls = []
    original = gaussfn._term_integrals

    def counting(p, q, weights):
        calls.append(q)
        return original(p, q, weights)

    monkeypatch.setattr(gaussfn, "_term_integrals", counting)
    assert normalization_residual(tau, d, u) == want
    assert sorted(calls, key=str) == sorted(u.coeffs, key=str)


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
    transposes = record_transposes(monkeypatch)
    # the three pairs of a case list share one transpose of each (C_r^-, rho_j)
    for tau, product, d in setups:
        transposes.clear()
        with monkeypatch.context() as m:
            m.setattr(DiffOp, "apply", refuse)
            cases = cli._gaussian_pair_cases(space, tau, product, 0)
            cases += cli._probe_cases(space, tau, d)
        assert len(cases) == 11 and all(case.passed for case in cases)
        assert Counter(transposes) == Counter(transposes_of(tau, product))
    # and so does every scenario run: one build per (functional, product),
    # with the closedness integrals read as the residual of density 1
    moyal_once = Counter(transposes_of(moyal_trace(space, 3), moyal))
    transported = Counter(transposes_of(setups[1][0], setups[1][1]))
    for name, want in [
        ("moyal-trace", moyal_once),
        ("strongly-closed", moyal_once),
        ("transport-trace", transported),
        ("trk-conditions", moyal_once + transported),
    ]:
        transposes.clear()
        assert run_scenario(Scenario(name, n=n, trunc_order=3)).all_pass()
        assert Counter(transposes) == want, name
