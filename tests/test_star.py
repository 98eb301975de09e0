import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_fns, random_poly, rational_rotation, record_transposes, transposes_of
from startrace.cli import Scenario, run_scenario
from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import density_from_equivalence, random_equivalence, transport_star
from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    IntegralValue,
    gauss_integrate_exact,
    gauss_pullback_linear,
)
from startrace.poly import PhaseSpace, Poly, poisson_bracket
from startrace.star import (
    EulerDerivation,
    StarProduct,
    associativity_residual,
    canonical_euler,
    closedness_integral,
    conformality_defect,
    derivation_residual,
    moyal_construct,
    poisson_cochain,
    star_commutator,
    star_multiply,
)
from startrace.trace import moyal_trace, trk_residual


@pytest.fixture
def space():
    return PhaseSpace(1)


@pytest.fixture
def moyal(space):
    return moyal_construct(space, 4)


def test_moyal_first_cochain_halves_poisson(moyal, space):
    rng = random.Random(2)
    for _ in range(6):
        u = random_poly(rng, space)
        v = random_poly(rng, space)
        assert moyal.cochain(1).apply(u, v) * 2 == poisson_bracket(u, v)
    assert moyal.cochain(1).antisym() == poisson_cochain(space)


def test_moyal_q_times_p(moyal, space):
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    got = star_multiply(moyal, q, p)
    want = FormalScalar({0: q * p, 1: Poly.constant(space, F(-1, 2))}, 4)
    assert got == want


@pytest.mark.parametrize(
    "m, symplectic",
    [
        ([[1, 1], [0, 1]], True),
        ([[2, 0], [0, F(1, 2)]], True),
        (rational_rotation(PhaseSpace(1)), True),
        # det 2 scales order k by 2^k: only the pointwise product agrees
        ([[2, 0], [0, 1]], False),
    ],
    ids=["shear", "squeeze", "rational-rotation", "control-diag-2-1"],
)
def test_moyal_linear_symplectic_covariance(moyal, space, m, symplectic):
    # (u o M) * (v o M) = (u * v) o M, coefficient by coefficient
    rng = random.Random(11)
    u = GaussFn.term(space, random_poly(rng, space, 2), 1, (1, 0))
    v = GaussFn.term(space, random_poly(rng, space, 2), 2, (0, F(-1, 2)), 1)
    got = star_multiply(moyal, gauss_pullback_linear(u, m), gauss_pullback_linear(v, m))
    prod = star_multiply(moyal, u, v)
    assert got.trunc_order == prod.trunc_order == 4
    for k in range(5):
        want = gauss_pullback_linear(prod.get(k), m)
        assert (got.get(k) == want) is (symplectic or k == 0), k


def test_moyal_psq_times_qsq(moyal, space):
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    got = star_multiply(moyal, p * p, q * q)
    want = FormalScalar(
        {
            0: p * p * q * q,
            1: 2 * p * q,
            2: Poly.constant(space, F(1, 2)),
        },
        4,
    )
    assert got == want


def test_star_unit(moyal, space):
    rng = random.Random(3)
    one = Poly.constant(space, 1)
    for _ in range(4):
        u = random_poly(rng, space)
        assert star_multiply(moyal, u, one) == FormalScalar.constant(u, 4)
        assert star_multiply(moyal, one, u) == FormalScalar.constant(u, 4)


def test_star_zeroth_order_is_product(moyal, space):
    g = GaussFn.gaussian(space, 1)
    got = star_multiply(moyal, g, g)
    assert got.get(0) == GaussFn.gaussian(space, 2)


def test_commutator_examples(moyal, space):
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    got = star_commutator(moyal, q, p)
    assert got == FormalScalar({1: Poly.constant(space, -1)}, 4)
    u = random_poly(random.Random(5), space)
    assert star_commutator(moyal, u, u).is_zero()
    got2 = star_commutator(moyal, p * p, q * q)
    assert got2 == FormalScalar({1: 4 * p * q}, 4)
    assert got2.get(1) == poisson_bracket(p * p, q * q)


@lru_cache(maxsize=None)
def commutator_products(n):
    """Moyal and a transported product, truncated at K = 3 (n=1) or 2 (n=2)."""
    space = PhaseSpace(n)
    trunc = 3 if n == 1 else 2
    moyal = moyal_construct(space, trunc)
    # seed 32 gives the transported product a nonzero C_2^- at n=1 and n=2
    transported = transport_star(random_equivalence(space, trunc, seed=32), moyal)
    return {"moyal": moyal, "transported": transported}


def formal_operands(space):
    """Hypothesis strategy: a GaussFn, or a nu-series of them whose window
    and lowest degree vary independently of the product's."""
    nonzero = gauss_fns(space).filter(lambda g: not g.is_zero())
    coeffs = st.dictionaries(st.integers(0, 2), nonzero, min_size=1, max_size=3)
    series = st.builds(
        lambda c, extra: FormalScalar(c, max(c) + extra), coeffs, st.integers(-1, 2)
    )
    return series | gauss_fns(space)


@pytest.mark.parametrize("kind", ["moyal", "transported"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_commutator_matches_difference_of_products(kind, n, data):
    s = commutator_products(n)[kind]
    operands = formal_operands(s.space)
    u, v = data.draw(operands), data.draw(operands)
    got = star_commutator(s, u, v)
    want = star_multiply(s, u, v) - star_multiply(s, v, u)
    assert got == want
    assert got.trunc_order == want.trunc_order


def test_commutator_window_of_shifted_series():
    from test_gaussfn import random_gauss

    s = commutator_products(1)["transported"]
    rng = random.Random(41)
    g1, g2, g3 = (random_gauss(rng, s.space) for _ in range(3))
    u = FormalScalar({1: g1, 2: g2}, 5)
    v = FormalScalar({2: g3}, 6)
    got = star_commutator(s, u, v)
    # min(K_u + min_v, K_v + min_u, K + min_u + min_v) = min(7, 7, 6)
    assert got.trunc_order == 6
    assert got == star_multiply(s, u, v) - star_multiply(s, v, u)
    assert got.min_degree == 4


def count_calls(monkeypatch, name):
    """Wrap ``BiDiffOp.<name>``; the returned list grows by one per call."""
    calls = []
    original = getattr(BiDiffOp, name)

    def counting(self, *args):
        calls.append(name)
        return original(self, *args)

    monkeypatch.setattr(BiDiffOp, name, counting)
    return calls


def test_commutator_applies_each_cached_cochain_once(monkeypatch, moyal, space):
    from test_gaussfn import random_gauss

    rng = random.Random(29)
    u, v = random_gauss(rng, space), random_gauss(rng, space)
    t = random_equivalence(space, 4, seed=31)
    sp = transport_star(t, moyal)
    setups = [(moyal, moyal_trace(space, 4)), (sp, density_from_equivalence(t))]
    antisym = count_calls(monkeypatch, "antisym")
    apply = count_calls(monkeypatch, "apply")
    transposes = record_transposes(monkeypatch)
    # Moyal's even C_r^- vanish: only C_1^- and C_3^- are applied
    star_commutator(moyal, u, v)
    assert len(apply) == 2
    apply.clear()
    star_commutator(sp, u, v)
    assert sorted(sp.minus) == [1, 2, 3, 4]
    assert len(apply) == 4
    apply.clear()
    # the integrals apply no cochain: they transpose each cached C_r^- and
    # read the pair against the transposes.  The closedness integrals read
    # the residual of density 1, which the first of them builds by
    # transposing every C_r^- against 1; trk_residual transposes each C_r^-
    # once per density coefficient rho_j with r + j <= K, and takes every
    # order k from that one build, which the Moyal trace of density 1
    # shares with the closedness integrals
    one = Poly.constant(space, 1)
    for s, tau in setups:
        for r in range(0, 5):
            closedness_integral(s, r, u, v)
        assert transposes == [(s.minus[r], one) for r in sorted(s.minus)]
        transposes.clear()
        trk_residual(tau, s, u, v)
        want = [] if s is moyal else transposes_of(tau, s)
        assert Counter(transposes) == Counter(want)
        transposes.clear()
    assert antisym == []
    assert apply == []
    run_scenario(Scenario("trk-conditions", n=1, trunc_order=4))
    assert apply == []
    t0 = random_equivalence(space, 4, seed=0)
    want = transposes_of(moyal_trace(space, 4), moyal)
    want += transposes_of(density_from_equivalence(t0), transport_star(t0, moyal))
    assert Counter(transposes) == Counter(want)


def test_moyal_associativity_on_monomials():
    rng = random.Random(7)
    for n in (1, 2):
        space = PhaseSpace(n)
        s = moyal_construct(space, 4)
        for _ in range(6):
            u = random_poly(rng, space, max_degree=3)
            v = random_poly(rng, space, max_degree=3)
            w = random_poly(rng, space, max_degree=3)
            assert associativity_residual(s, u, v, w).is_zero()


def test_associativity_unit(moyal, space):
    one = Poly.constant(space, 1)
    v = random_poly(random.Random(9), space)
    w = random_poly(random.Random(10), space)
    assert associativity_residual(moyal, one, v, w).is_zero()


def test_broken_product_rejected(space):
    with pytest.raises(ValueError):
        StarProduct(space, 2, {1: BiDiffOp.product_cochain(space)})


def test_moyal_strong_closedness(moyal, space):
    rng = random.Random(11)
    from test_gaussfn import random_gauss

    for _ in range(4):
        u = random_gauss(rng, space, max_degree=2)
        v = random_gauss(rng, space, max_degree=2)
        for r in range(1, 5):
            assert closedness_integral(moyal, r, u, v).is_zero()
    u = random_gauss(rng, space, max_degree=2)
    assert closedness_integral(moyal, 3, u, u).is_zero()


def test_closedness_order_one_is_poisson_for_any_product(space):
    # integral of {u,v} is a total divergence, so it dies for every product.
    rng = random.Random(13)
    from test_gaussfn import random_gauss

    s = moyal_construct(space, 2)
    u = random_gauss(rng, space, max_degree=2)
    v = random_gauss(rng, space, max_degree=2)
    bracket = poisson_cochain(space).apply(u, v)
    assert gauss_integrate_exact(bracket).is_zero()
    assert closedness_integral(s, 1, u, v) == gauss_integrate_exact(bracket) * 2


def test_closed_product_integral_identity(moyal, space):
    # strong closedness in product form: integral of u*v equals integral of uv
    # order by order beyond nu^0.
    from test_gaussfn import random_gauss

    rng = random.Random(17)
    u = random_gauss(rng, space, max_degree=2)
    v = random_gauss(rng, space, max_degree=2)
    prod = star_multiply(moyal, u, v)
    for k, coeff in prod.items():
        got = gauss_integrate_exact(coeff)
        if k == 0:
            assert got == gauss_integrate_exact(u * v)
        else:
            assert got.is_zero()


def test_closedness_integral_checks_its_order(moyal, space):
    u = GaussFn.gaussian(space, 1)
    v = Poly.variable(space, "q1") * GaussFn.gaussian(space, 2)
    assert closedness_integral(moyal, 0, u, v) == IntegralValue.zero()
    for r in (-1, 5):
        with pytest.raises(ValueError):
            closedness_integral(moyal, r, u, v)


def test_conformality_canonical(space):
    d = canonical_euler(space)
    assert conformality_defect(d.x) == {}


def test_conformality_examples(space):
    q_dq = DiffOp.mult(Poly.variable(space, "q1")).compose(DiffOp.partial(space, "q1"))
    # q dq alone is conformal in one canonical pair: d(i_X Omega) = dq^dp.
    assert conformality_defect(q_dq) == {}
    full_euler = DiffOp.zero(space)
    for name in space.variables:
        full_euler = full_euler + DiffOp.mult(Poly.variable(space, name)).compose(
            DiffOp.partial(space, name)
        )
    assert conformality_defect(full_euler) != {}
    with pytest.raises(ValueError):
        EulerDerivation(space, full_euler)


def test_homogeneity_integral(space):
    # integral of X u = -n * integral of u for the conformal field.
    from test_gaussfn import random_gauss

    rng = random.Random(19)
    for n in (1, 2):
        sp = PhaseSpace(n)
        d = canonical_euler(sp)
        for _ in range(4):
            u = random_gauss(rng, sp, max_degree=2)
            lhs = gauss_integrate_exact(d.x.apply(u))
            rhs = gauss_integrate_exact(u) * (-n)
            assert lhs == rhs


def test_moyal_euler_derivation(moyal, space):
    d = canonical_euler(space)
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    assert derivation_residual(moyal, d, q, p).is_zero()
    rng = random.Random(23)
    from test_gaussfn import random_gauss

    for _ in range(3):
        u = random_gauss(rng, space, max_degree=2)
        v = random_gauss(rng, space, max_degree=2)
        assert derivation_residual(moyal, d, u, v).is_zero()
    one = Poly.constant(space, 1)
    v = random_poly(rng, space)
    assert derivation_residual(moyal, d, one, v).is_zero()


def test_derivation_with_corrections_changes_residual(moyal, space):
    # a generic correction term breaks the derivation property, so the
    # residual detector must see it.
    dq = DiffOp.partial(space, "q1")
    q = Poly.variable(space, "q1")
    d = EulerDerivation(
        space, canonical_euler(space).x, corrections={1: DiffOp.mult(q).compose(dq)}
    )
    p = Poly.variable(space, "p1")
    res = derivation_residual(moyal, d, q * q, p)
    assert not res.is_zero()
