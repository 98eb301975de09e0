"""Equivalence operators: inversion, transport, adjoints, automorphisms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamiltonian_flow, plane_product, random_poly, rational_rotation
from test_gaussfn import random_gauss

from startrace import equiv
from startrace.cli import Scenario, main, run_scenario
from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import (
    Equivalence,
    density_from_equivalence,
    equiv_adjoint,
    equiv_invert,
    is_symplectic,
    random_equivalence,
    symplectic_automorphism_check,
    symplectic_form_matrix,
    transport_euler,
    transport_star,
)
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn, IntegralValue, gauss_integrate_exact, gauss_pullback_linear
from startrace.poly import PhaseSpace, Poly, mat_mul, mat_transpose, poisson_bracket
from startrace.star import (
    associativity_residual,
    canonical_euler,
    derivation_residual,
    moyal_construct,
    star_multiply,
)
from startrace.trace import (
    normalization_residual,
    proportionality_factor,
    trace_residual,
)


def dqdp(space):
    return DiffOp(space, {(1, 1): Poly.constant(space, 1)})


def test_invert_mixed_partial_example():
    space = PhaseSpace(1)
    t = Equivalence(space, 2, {1: dqdp(space)})
    s = equiv_invert(t)
    want1 = -1 * dqdp(space)
    want2 = DiffOp(space, {(2, 2): Poly.constant(space, 1)})
    assert s.ops == {1: want1, 2: want2}


@pytest.mark.parametrize("n,seed", [(1, 11), (1, 12), (2, 13)])
def test_invert_composes_back_to_identity(n, seed):
    space = PhaseSpace(n)
    t = random_equivalence(space, 3, seed)
    s = equiv_invert(t)
    assert t.compose(s) == Equivalence.identity(space, 3)
    assert s.compose(t) == Equivalence.identity(space, 3)


def test_invert_round_trip_on_monomials():
    # pointwise check on the monomial basis through total degree 6
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, seed=21)
    s = equiv_invert(t)
    for a in range(7):
        for b in range(7 - a):
            mono = Poly.monomial(space, (a, b), 1)
            back = s.apply(t.apply(mono))
            assert back == FormalScalar.constant(mono, 3)


def test_apply_refuses_what_is_not_a_function():
    # a rational came back wrapped as FormalScalar(3) and None as
    # FormalScalar(None); star_multiply refused both
    t = random_equivalence(PhaseSpace(1), 2, seed=3)
    for w in (3, Fraction(1, 2), "q1", None):
        with pytest.raises(TypeError, match="as a formal function"):
            t.apply(w)


def test_unital_detection():
    space = PhaseSpace(1)
    assert random_equivalence(space, 3, seed=5).is_unital()
    shifted = Equivalence(space, 1, {1: DiffOp.mult(Poly.variable(space, "q1"))})
    assert not shifted.is_unital()


def test_transport_first_cochain_example():
    # T = Id + nu dq dp shifts C_1 by the symmetric coboundary of dq dp
    space = PhaseSpace(1)
    t = Equivalence(space, 2, {1: dqdp(space)})
    sp = transport_star(t, moyal_construct(space, 2))
    rng = random.Random(31)
    for _ in range(5):
        u = random_poly(rng, space)
        v = random_poly(rng, space)
        want = (
            poisson_bracket(u, v) * Fraction(1, 2)
            - u.diff("q1") * v.diff("p1")
            - u.diff("p1") * v.diff("q1")
        )
        assert sp.cochain(1).apply(u, v) == want


@pytest.mark.parametrize("n,seed", [(1, 41), (1, 42), (2, 43)])
def test_transport_matches_conjugation(n, seed):
    space = PhaseSpace(n)
    trunc = 3 if n == 1 else 2
    t = random_equivalence(space, trunc, seed)
    s = equiv_invert(t)
    moyal = moyal_construct(space, trunc)
    sp = transport_star(t, moyal)
    rng = random.Random(seed)
    for _ in range(3):
        u = random_poly(rng, space)
        v = random_poly(rng, space)
        direct = star_multiply(sp, u, v)
        routed = s.apply(star_multiply(moyal, t.apply(u), t.apply(v)))
        common = min(direct.trunc_order, routed.trunc_order)
        assert direct.truncate(common) == routed.truncate(common)


@pytest.mark.parametrize("trunc", [1, 2, 3, 4])
def test_transport_matches_one_pass_conjugate_sum(trunc):
    # C'_m = sum_{a+r+b+c=m} S_a o C_r o (T_b (x) T_c), one conjugate per
    # quadruple, against the two-stage build through P_j; the second base
    # product has polynomial cochains
    space = PhaseSpace(1)
    t = random_equivalence(space, trunc, seed=80 + trunc)
    inv, fwd = equiv_invert(t).series(), t.series()
    moyal = moyal_construct(space, trunc)
    other = transport_star(random_equivalence(space, trunc, seed=90 + trunc), moyal)
    for s in (moyal, other):
        base = {0: s.cochain(0), **s.cochains}
        want = {
            m: BiDiffOp.sum(
                space,
                (
                    c_r.conjugate(s_a, t_b, fwd[m - a - r - b])
                    for a, s_a in inv.items()
                    for r, c_r in base.items()
                    for b, t_b in fwd.items()
                    if m - a - r - b in fwd
                ),
            )
            for m in range(1, trunc + 1)
        }
        got = transport_star(t, s).cochains
        assert got == {m: c for m, c in want.items() if not c.is_zero()}


@pytest.mark.parametrize("n,trunc", [(1, 2), (1, 4), (2, 3), (3, 2)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_transported_minus_is_the_antisymmetric_part_of_its_cochains(n, trunc, seed):
    # minus is transported from s.minus alone and the cochains are built
    # later from C_0 and s.cochains; the second base has polynomial
    # cochains, with nonzero C_r^- at even r
    space = PhaseSpace(n)
    moyal = moyal_construct(space, trunc)
    other = transport_star(random_equivalence(space, trunc, seed + 1), moyal)
    for s in (moyal, other):
        sp = transport_star(random_equivalence(space, trunc, seed), s)
        minus = {r: c.antisym() for r, c in sp.cochains.items()}
        assert sp.minus == {r: c for r, c in minus.items() if not c.is_zero()}


def record_transports(monkeypatch):
    """Whether each transport build was the full one, whose base holds C_0."""
    full = []
    transport = equiv._transport

    def recording(space, trunc, base, fwd, inv):
        full.append(0 in base)
        return transport(space, trunc, base, fwd, inv)

    monkeypatch.setattr(equiv, "_transport", recording)
    return full


def test_trace_scenarios_build_no_full_transported_cochains(monkeypatch, capsys):
    full = record_transports(monkeypatch)
    for name in ("transport-trace", "trk-conditions"):
        assert main(["run", name, "--n", "2", "--order", "3"]) == 0
    capsys.readouterr()
    assert full == [False, False]


def test_transported_cochains_are_built_once_on_first_read(monkeypatch):
    space = PhaseSpace(1)
    full = record_transports(monkeypatch)
    sp = transport_star(random_equivalence(space, 3, seed=81), moyal_construct(space, 3))
    assert repr(sp) == "StarProduct(n=1, K=3, minus orders=[1, 2, 3])"
    assert full == [False]
    first = sp.cochains
    assert sp.cochains is first
    assert sp.cochain(2) is first[2]
    assert full == [False, True]


def test_transport_keeps_unit():
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, seed=51)
    sp = transport_star(t, moyal_construct(space, 3))
    one = Poly.constant(space, 1)
    v = random_poly(random.Random(52), space)
    assert star_multiply(sp, one, v) == FormalScalar.constant(v, 3)
    assert star_multiply(sp, v, one) == FormalScalar.constant(v, 3)


def test_transport_stays_associative():
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, seed=61)
    sp = transport_star(t, moyal_construct(space, 3))
    rng = random.Random(62)
    for _ in range(3):
        u = random_poly(rng, space, max_degree=2)
        v = random_poly(rng, space, max_degree=2)
        w = random_poly(rng, space, max_degree=2)
        assert associativity_residual(sp, u, v, w).is_zero()


def test_star_multiply_takes_each_derivative_once(monkeypatch):
    space = PhaseSpace(1)
    sp = transport_star(random_equivalence(space, 4, seed=71), moyal_construct(space, 4))
    rng = random.Random(72)
    u, v = random_gauss(rng, space), random_gauss(rng, space)
    diff = GaussFn.diff
    calls = []

    def counting_diff(self, axis):
        calls.append(axis)
        return diff(self, axis)

    monkeypatch.setattr(GaussFn, "diff", counting_diff)
    # every prefix of the axis-by-axis path to each multi-index of each slot
    prefixes = set()
    for op in sp.cochains.values():
        for key in op.coeffs:
            for side, alpha in enumerate(key):
                step = [0] * space.dim
                for axis, k in enumerate(alpha):
                    for _ in range(k):
                        step[axis] += 1
                        prefixes.add((side, tuple(step)))
    first = star_multiply(sp, u, v)
    assert 0 < len(calls) <= len(prefixes)
    taken = len(calls)
    assert star_multiply(sp, u, v) == first
    assert len(calls) == taken


def test_transport_rejects_non_unital():
    space = PhaseSpace(1)
    t = Equivalence(space, 2, {1: DiffOp.identity(space)})
    with pytest.raises(ValueError):
        transport_star(t, moyal_construct(space, 2))


def test_transport_rejects_mismatched_order():
    space = PhaseSpace(1)
    t = random_equivalence(space, 2, seed=71)
    with pytest.raises(ValueError):
        transport_star(t, moyal_construct(space, 3))


def test_adjoint_euler_scaling_example():
    # (q dq)* = -1 - q dq
    space = PhaseSpace(1)
    q = Poly.variable(space, "q1")
    t = Equivalence(space, 1, {1: DiffOp(space, {(1, 0): q})})
    adj = equiv_adjoint(t)
    want = DiffOp(space, {(0, 0): Poly.constant(space, -1), (1, 0): -1 * q})
    assert adj.ops == {1: want}


@pytest.mark.parametrize("seed", [81, 82])
def test_adjoint_duality_under_integrals(seed):
    space = PhaseSpace(1)
    rng = random.Random(seed)
    t = random_equivalence(space, 3, seed)
    adj = equiv_adjoint(t)
    u = random_gauss(rng, space)
    v = random_gauss(rng, space)
    for k, op in t.ops.items():
        lhs = gauss_integrate_exact(op.apply(u) * v)
        rhs = gauss_integrate_exact(u * adj.ops[k].apply(v))
        assert lhs == rhs


def test_density_examples():
    space = PhaseSpace(1)
    q = Poly.variable(space, "q1")
    scaling = Equivalence(space, 1, {1: DiffOp(space, {(1, 0): q})})
    tau = density_from_equivalence(scaling)
    assert tau.density == FormalScalar(
        {0: Poly.constant(space, 1), 1: Poly.constant(space, -1)}, 1
    )
    assert tau.is_standard()

    mixed = Equivalence(space, 2, {1: dqdp(space)})
    assert density_from_equivalence(mixed).density == FormalScalar.constant(
        Poly.constant(space, 1), 2
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("trunc", [4, 6])
def test_density_is_the_adjoint_equivalence_applied_to_one(n, trunc):
    # the density integrates T_k by parts; the oracle builds every adjoint
    space = PhaseSpace(n)
    one = Poly.constant(space, 1)
    for seed in range(4):
        t = random_equivalence(space, trunc, seed)
        assert density_from_equivalence(t).density == equiv_adjoint(t).apply(one)


def test_exact_scenarios_build_no_operator_adjoint(monkeypatch):
    def refuse(self):
        raise AssertionError("an operator adjoint was built")

    monkeypatch.setattr(DiffOp, "adjoint", refuse)
    for name in ("transport-trace", "normalized-uniqueness", "trk-conditions"):
        assert run_scenario(Scenario(name, n=1, trunc_order=3)).all_pass(), name


@pytest.mark.parametrize("n,trunc,seed", [(1, 3, 93), (2, 2, 94)])
def test_build_at_order_k_is_a_prefix_of_order_k_plus_one(n, trunc, seed):
    # trk-conditions at order K reads T_1..T_K, C_1..C_K and the density
    # through nu^{K-1}, so it may build at K instead of K + 1.
    space = PhaseSpace(n)
    low = random_equivalence(space, trunc, seed)
    high = random_equivalence(space, trunc + 1, seed)
    assert low.ops == {k: op for k, op in high.ops.items() if k <= trunc}
    s_low = transport_star(low, moyal_construct(space, trunc))
    s_high = transport_star(high, moyal_construct(space, trunc + 1))
    assert trunc in s_low.cochains
    assert s_low.cochains == {r: c for r, c in s_high.cochains.items() if r <= trunc}
    rho_low = density_from_equivalence(low).density
    rho_high = density_from_equivalence(high).density
    assert rho_low == rho_high.truncate(trunc)


@pytest.mark.parametrize("n,seed", [(1, 91), (2, 92)])
def test_transported_trace_is_a_trace(n, seed):
    space = PhaseSpace(n)
    t = random_equivalence(space, 2, seed)
    sp = transport_star(t, moyal_construct(space, 2))
    tau = density_from_equivalence(t)
    rng = random.Random(seed)
    for _ in range(2):
        u = random_gauss(rng, space)
        v = random_gauss(rng, space)
        assert trace_residual(tau, sp, u, v).is_zero()


def test_transport_euler_first_order_formula():
    # D'_1 = xi o T_1 - T_1 o xi + T_1; for T_1 = q^2 dp this is (3/2) q^2 dp
    space = PhaseSpace(1)
    q = Poly.variable(space, "q1")
    t = Equivalence(space, 1, {1: DiffOp(space, {(0, 1): q * q})})
    d = transport_euler(t, canonical_euler(space))
    assert d.x == canonical_euler(space).x
    assert d.corrections == {1: DiffOp(space, {(0, 1): q * q * Fraction(3, 2)})}


@pytest.mark.parametrize("seed", [101, 102])
def test_transported_euler_is_a_derivation(seed):
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, seed)
    sp = transport_star(t, moyal_construct(space, 3))
    d = transport_euler(t, canonical_euler(space))
    rng = random.Random(seed)
    u = random_poly(rng, space)
    v = random_poly(rng, space)
    assert derivation_residual(sp, d, u, v).is_zero()
    g = random_gauss(rng, space)
    h = random_gauss(rng, space)
    assert derivation_residual(sp, d, g, h).is_zero()


@pytest.mark.parametrize("seed", [111, 112])
def test_transported_trace_is_normalized(seed):
    space = PhaseSpace(1)
    t = random_equivalence(space, 3, seed)
    tau = density_from_equivalence(t)
    d = transport_euler(t, canonical_euler(space))
    rng = random.Random(seed)
    for _ in range(2):
        assert normalization_residual(tau, d, random_gauss(rng, space)).is_zero()


def test_symplectic_form_and_membership():
    space = PhaseSpace(1)
    assert symplectic_form_matrix(space) == [
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0)],
    ]
    assert is_symplectic(space, rational_rotation(space))
    assert is_symplectic(space, [[1, 1], [0, 1]])
    assert is_symplectic(space, [[Fraction(2), 0], [0, Fraction(1, 2)]])
    assert not is_symplectic(space, [[2, 0], [0, 2]])

    space2 = PhaseSpace(2)
    assert is_symplectic(space2, rational_rotation(space2, i=1))


def test_automorphism_check_exact_paths():
    space = PhaseSpace(1)
    u = GaussFn.gaussian(space, 1) * (
        Poly.constant(space, 1) + Poly.variable(space, "q1") ** 2
    )
    identity = [[1, 0], [0, 1]]
    quarter_turn = [[0, 1], [-1, 0]]
    assert symplectic_automorphism_check(identity, u) == IntegralValue.zero()
    assert symplectic_automorphism_check(quarter_turn, u) == IntegralValue.zero()


def test_automorphism_check_bigfloat_paths():
    # squeezes and shears take the integral through elimination, and the
    # residual is still the exact zero value
    space = PhaseSpace(1)
    u = (GaussFn.gaussian(space, 1) * Poly.variable(space, "p1")).translate(
        (1, Fraction(-1, 2))
    )
    squeeze = [[Fraction(2), 0], [0, Fraction(1, 2)]]
    shear = [[1, 1], [0, 1]]
    for m in (squeeze, shear):
        assert symplectic_automorphism_check(m, u) == IntegralValue.zero()
    # control: diag(2, 1) halves a nonzero integral, so the residual is not zero
    w = u + GaussFn.gaussian(space, 1)
    stretch = gauss_integrate_exact(gauss_pullback_linear(w, [[2, 0], [0, 1]]) - w)
    assert stretch == gauss_integrate_exact(w) * Fraction(-1, 2)
    assert not stretch.is_zero()


def test_automorphism_check_rejects_non_symplectic():
    space = PhaseSpace(1)
    with pytest.raises(ValueError):
        symplectic_automorphism_check([[2, 0], [0, 2]], GaussFn.gaussian(space, 1))


@pytest.mark.parametrize(
    "m",
    [[[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [[1]], []],
    ids=["extra-row", "extra-column", "ragged", "one-by-one", "empty"],
)
def test_matrix_of_the_wrong_shape_is_rejected(m):
    # zip used to truncate the extra row, so is_symplectic said True and the
    # checks behind it died with IndexError
    space = PhaseSpace(1)
    u = GaussFn.gaussian(space, 1)
    for check in (
        lambda: is_symplectic(space, m),
        lambda: symplectic_automorphism_check(m, u),
        lambda: gauss_pullback_linear(u, m),
    ):
        with pytest.raises(ValueError, match="matrix shape must match"):
            check()


RATIONAL_ENTRY = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_int_symplectic_test_matches_matrix_products(n, data):
    space = PhaseSpace(n)
    d = space.dim
    j = symplectic_form_matrix(space)
    step = st.tuples(
        st.sampled_from(["shear-q", "shear-p", "squeeze", "scale-q"]),
        st.integers(0, n - 1),
        RATIONAL_ENTRY.filter(bool),
    )
    drawn = st.lists(st.lists(RATIONAL_ENTRY, min_size=d, max_size=d), min_size=d, max_size=d)
    steps = data.draw(st.lists(step, min_size=1, max_size=3))
    built = plane_product(space, steps)
    rotated = mat_mul(built, rational_rotation(space, data.draw(st.integers(0, n - 1))))
    # one entry moved: a near miss that only a full check rejects
    nudged = [row[:] for row in rotated]
    x, y = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    nudged[x][y] += data.draw(RATIONAL_ENTRY)
    for m in (data.draw(drawn), built, rotated, nudged):
        assert is_symplectic(space, m) == (mat_mul(mat_transpose(m), mat_mul(j, m)) == j)
    # shears, squeezes and rotations are symplectic; scale-q alone is not
    if all(kind != "scale-q" for kind, _, _ in steps):
        assert is_symplectic(space, rotated)
    if len(steps) == 1 and steps[0][0] == "scale-q" and steps[0][2] != 1:
        assert not is_symplectic(space, rotated)


def test_symplectic_pullback_is_star_automorphism():
    # C_r(u o m, v o m) = C_r(u, v) o m for symplectic m, order by order
    space = PhaseSpace(1)
    m = rational_rotation(space)
    moyal = moyal_construct(space, 4)
    rng = random.Random(121)
    for _ in range(3):
        u = random_poly(rng, space)
        v = random_poly(rng, space)
        lhs = star_multiply(moyal, u.pullback_linear(m), v.pullback_linear(m))
        uv = star_multiply(moyal, u, v)
        for k in range(5):
            want = uv.get(k)
            got = lhs.get(k)
            if want is None:
                assert got is None
            else:
                assert got == want.pullback_linear(m)


def test_uniqueness_cross_construction():
    # T2 = A o T with A = exp(nu {H, .}) differs from T.  For quadratic H,
    # A is a Moyal automorphism, so T2 transports Moyal to the same product
    # and the two normalized traces agree with factor exactly 1.  For the
    # cubic H = q1^3 the bracket is no Moyal derivation (the defect starts
    # at nu^3), and the transported products differ.
    space = PhaseSpace(1)
    trunc = 3
    moyal = moyal_construct(space, trunc)
    t = random_equivalence(space, trunc, seed=131)
    product = transport_star(t, moyal)
    tau1 = density_from_equivalence(t)
    probe = GaussFn.gaussian(space, 1)
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    g = random_poly(random.Random(132), space)
    for h in (q * p, q * q + p * p, q**3):
        a = hamiltonian_flow(h, trunc)
        assert a.ops[1].apply(g) == poisson_bracket(h, g)
        t2 = a.compose(t)
        assert t2 != t
        if h == q**3:
            assert transport_star(t2, moyal) != product
            continue
        assert transport_star(t2, moyal) == product
        factor = proportionality_factor(tau1, density_from_equivalence(t2), probe)
        assert factor == FormalScalar.constant(1, trunc)


def test_moyal_trace_pullback_matches_original():
    # tau_M(u o m) = tau_M(u) exactly for an orthogonal symplectic map
    space = PhaseSpace(1)
    m = rational_rotation(space)
    probes = [
        GaussFn.gaussian(space, 1),
        GaussFn.gaussian(space, 2),
        GaussFn.gaussian(space, 1) * Poly.variable(space, "q1") ** 2,
    ]
    for u in probes:
        pulled = gauss_pullback_linear(u, m)
        assert isinstance(pulled, GaussFn)
        assert gauss_integrate_exact(pulled) == gauss_integrate_exact(u)
