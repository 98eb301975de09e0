import random
from fractions import Fraction as F

import pytest

from conftest import apply_euler, commutator
from startrace.diffop import DiffOp
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn, IntegralValue
from startrace.poly import PhaseSpace, Poly
from startrace.star import EulerDerivation, canonical_euler, moyal_construct
from startrace.trace import (
    InconsistentTracesError,
    TraceFunctional,
    default_probe_battery,
    moyal_trace,
    normalization_residual,
    operator_trace_residual,
    proportionality_factor,
    standardize,
    trace_eval,
    trace_residual,
    trk_residual,
)


@pytest.fixture
def space():
    return PhaseSpace(1)


@pytest.fixture
def moyal(space):
    return moyal_construct(space, 4)


@pytest.fixture
def tau(space):
    return moyal_trace(space, 4)


def gauss_probe(space):
    return GaussFn.gaussian(space, 1)


def test_trace_of_gaussian(tau, space):
    got = trace_eval(tau, gauss_probe(space))
    assert got == FormalScalar({-1: IntegralValue(1, {0: 2})}, 3)


def test_trace_of_zero(tau, space):
    assert trace_eval(tau, GaussFn.zero(space)).is_zero()


def test_trace_linearity_over_orders(space):
    rho = FormalScalar(
        {0: Poly.constant(space, 1), 1: Poly.constant(space, -1)}, 4
    )
    t = TraceFunctional(space, rho)
    got = trace_eval(t, gauss_probe(space))
    two_pi = IntegralValue(1, {0: 2})
    assert got == FormalScalar({-1: two_pi, 0: -two_pi}, 3)


def test_trace_residual_vanishes_for_moyal(tau, moyal, space):
    from test_gaussfn import random_gauss

    rng = random.Random(3)
    for _ in range(4):
        u = random_gauss(rng, space, max_degree=2)
        v = random_gauss(rng, space, max_degree=2)
        assert trace_residual(tau, moyal, u, v).is_zero()
    u = random_gauss(rng, space, max_degree=2)
    assert trace_residual(tau, moyal, u, u).is_zero()


def test_inner_derivation_annihilation(tau, moyal, space):
    from test_gaussfn import random_gauss

    rng = random.Random(5)
    u = random_gauss(rng, space, max_degree=2)
    a = random_gauss(rng, space, max_degree=2)
    assert trace_eval(tau, commutator(moyal, u, a)).is_zero()


def test_trk_zero_order_is_poisson_integral(tau, moyal, space):
    from test_gaussfn import random_gauss

    rng = random.Random(7)
    u = random_gauss(rng, space, max_degree=2)
    v = random_gauss(rng, space, max_degree=2)
    assert trk_residual(tau, moyal, u, v)[0].is_zero()


def test_trk_matches_trace_residual_coefficient(space, moyal):
    # order-k condition == nu^{k+1+e} coefficient of the residual series,
    # checked against a density that deliberately breaks the trace property.
    rho = FormalScalar({0: Poly.constant(space, 1), 1: Poly.variable(space, "q1")}, 4)
    t = TraceFunctional(space, rho)
    from test_gaussfn import random_gauss

    rng = random.Random(9)
    u = random_gauss(rng, space, max_degree=2)
    v = random_gauss(rng, space, max_degree=2)
    res = trace_residual(t, moyal, u, v)
    for k, got in enumerate(trk_residual(t, moyal, u, v)):
        coeff = res.get(k + 1 - space.n)
        if coeff is None:
            assert got.is_zero()
        else:
            assert got == coeff
    assert not trace_residual(t, moyal, u, v).is_zero()


def test_operator_residual_is_memoized_per_density(tau, moyal, space):
    # one product met by two densities keeps two residuals; an equal density
    # built anew reads the first build, and no caller can write to it
    bump = FormalScalar({2: Poly.variable(space, "q1")}, 4)
    flat = operator_trace_residual(tau, moyal)
    ops = operator_trace_residual(TraceFunctional(space, tau.density + bump), moyal)
    assert flat == {} and sorted(ops) == [3]
    assert len(moyal.residuals) == 2
    assert operator_trace_residual(moyal_trace(space, 4), moyal) is flat
    assert operator_trace_residual(TraceFunctional(space, tau.density + bump), moyal) is ops
    assert len(moyal.residuals) == 2
    with pytest.raises(TypeError):
        ops[0] = DiffOp.identity(space)
    with pytest.raises(TypeError):
        del ops[3]
    assert sorted(ops) == [3]


def test_trk_out_of_range(tau, moyal, space):
    # one value per order k = 0..K-1 and none beyond
    u = gauss_probe(space)
    assert len(trk_residual(tau, moyal, u, u)) == moyal.trunc_order == 4


def test_standardize_examples(space, tau):
    c = FormalScalar({2: F(3)}, 4)
    scaled = tau.scale_by_series(c)
    std = standardize(scaled)
    trunc = min(std.density.trunc_order, tau.density.trunc_order)
    assert std.density.truncate(trunc) == tau.density.truncate(trunc)
    assert standardize(tau) == tau
    rho = FormalScalar({0: Poly.constant(space, 2)}, 4)
    # the functional 2 * integral(u dV): its factor nu^n lives in the density
    t = TraceFunctional(space, rho.shift(space.n))
    std = standardize(t)
    assert std.density == FormalScalar.constant(Poly.constant(space, 1), 4)
    assert standardize(std) == std


def test_standardize_rejects_zero(space):
    t = TraceFunctional(space, FormalScalar.zero(4))
    with pytest.raises(ValueError):
        standardize(t)


def test_proportionality_constructed_factor(tau, space):
    c = FormalScalar({0: F(1), 1: F(3)}, 4)
    t2 = tau.scale_by_series(c)
    got = proportionality_factor(tau, t2, gauss_probe(space))
    assert got == c
    assert proportionality_factor(tau, tau, gauss_probe(space)) == FormalScalar(
        {0: F(1)}, 4
    )


def test_proportionality_monomial_factor(tau, space):
    c = FormalScalar({2: F(1)}, 4)
    t2 = tau.scale_by_series(c)
    got = proportionality_factor(tau, t2, gauss_probe(space))
    trunc = min(got.trunc_order, c.trunc_order)
    assert got.truncate(trunc) == c.truncate(trunc)


def test_proportionality_of_standardization_is_monomial_times_unit(tau, space):
    c = FormalScalar({1: F(2), 2: F(1)}, 4)
    t2 = tau.scale_by_series(c)
    got = proportionality_factor(standardize(t2), t2, gauss_probe(space))
    assert got.min_degree == 1
    assert got.get(1) == F(2)


def test_proportionality_detects_inconsistency(tau, space):
    # a density with a nonscalar slice is not proportional to the flat trace.
    rho = FormalScalar(
        {0: Poly.constant(space, 1), 1: Poly.variable(space, "q1") * Poly.variable(space, "q1")},
        4,
    )
    crooked = TraceFunctional(space, rho)
    with pytest.raises(InconsistentTracesError):
        proportionality_factor(tau, crooked, gauss_probe(space))


def test_normalization_moyal(tau, space):
    d = canonical_euler(space)
    assert normalization_residual(tau, d, gauss_probe(space)).is_zero()
    assert normalization_residual(tau, d, GaussFn.zero(space)).is_zero()


def test_normalization_battery(tau, space):
    d = canonical_euler(space)
    for fn in default_probe_battery(space):
        assert normalization_residual(tau, d, fn).is_zero()


def test_euler_choice_does_not_change_trace_composition(tau, space):
    # two distinct nu-Euler derivations of the Moyal product give the same
    # trace composition: their difference is a vector field with divergence
    # zero against the flat density.
    d = canonical_euler(space)
    x2 = d.x + (-1) * DiffOp.partial(space, "p1")
    d2 = EulerDerivation(space, x2)
    for fn in default_probe_battery(space):
        u = FormalScalar.constant(fn, 4)
        assert trace_eval(tau, apply_euler(d, u)) == trace_eval(tau, apply_euler(d2, u))


def test_scaled_trace_has_scaled_normalization_residual(tau, space):
    # scaling a normalized trace by 1 + c nu^r breaks normalization by
    # exactly -r c nu^r tau(u): the computation inside the uniqueness
    # argument, verified literally.
    r, c = 2, F(5)
    scaled = tau.scale_by_series(FormalScalar({0: F(1), r: c}, 4))
    d = canonical_euler(space)
    u = gauss_probe(space)
    got = normalization_residual(scaled, d, u)
    want = trace_eval(tau, u).scale(-r * c).shift(r).truncate(got.trunc_order)
    assert got == want
    assert not got.is_zero()
