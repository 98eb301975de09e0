import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    gauss_fns,
    iterated_diff,
    multi_indices,
    plane_product,
    polys,
    random_poly,
    rational_rotation,
)
from startrace.equiv import is_symplectic
from startrace.poly import (
    PhaseSpace,
    Poly,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    poisson_bracket,
)


@pytest.fixture
def space():
    return PhaseSpace(1)


def qp(space):
    return Poly.variable(space, "q1"), Poly.variable(space, "p1")


def test_bracket_sign_convention(space):
    q, p = qp(space)
    assert poisson_bracket(q, p) == Poly.constant(space, -1)
    assert poisson_bracket(p, q) == Poly.constant(space, 1)


def test_bracket_of_squares(space):
    q, p = qp(space)
    assert poisson_bracket(p * p, q * q) == 4 * p * q


def test_derivative_is_bracket_with_conjugate(space):
    # dv/dp = {v, q} and dv/dq = -{v, p} under this sign convention.
    rng = random.Random(7)
    q, p = qp(space)
    for _ in range(20):
        v = random_poly(rng, space)
        assert v.diff("p1") == poisson_bracket(v, q)
        assert v.diff("q1") == -poisson_bracket(v, p)


def test_jacobi_and_leibniz():
    rng = random.Random(11)
    for n in (1, 2):
        space = PhaseSpace(n)
        for _ in range(12):
            f = random_poly(rng, space, max_degree=2)
            g = random_poly(rng, space, max_degree=2)
            h = random_poly(rng, space, max_degree=2)
            jac = (
                poisson_bracket(f, poisson_bracket(g, h))
                + poisson_bracket(g, poisson_bracket(h, f))
                + poisson_bracket(h, poisson_bracket(f, g))
            )
            assert jac.is_zero()
            leib = poisson_bracket(f, g * h) - (
                poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
            )
            assert leib.is_zero()


def test_symplectic_pullback_respects_bracket():
    rng = random.Random(3)
    space = PhaseSpace(2)
    m = rational_rotation(space, i=1)
    for _ in range(10):
        f = random_poly(rng, space, max_degree=3)
        g = random_poly(rng, space, max_degree=3)
        lhs = poisson_bracket(f.pullback_linear(m), g.pullback_linear(m))
        rhs = poisson_bracket(f, g).pullback_linear(m)
        assert lhs == rhs


def test_translate_expands_binomially(space):
    q, _ = qp(space)
    shifted = (q * q).translate([F(1), F(0)])
    assert shifted == q * q + 2 * q + Poly.constant(space, 1)


def test_translate_rejects_wrong_length(space):
    q, p = qp(space)
    with pytest.raises(ValueError, match="wrong length"):
        (q + p).translate([F(1)])
    with pytest.raises(ValueError, match="wrong length"):
        (q + p).translate([F(1), F(2), F(3)])


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_translate_is_evaluation_at_shifted_point(n, data):
    space = PhaseSpace(n)
    f = data.draw(polys(space))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(rational, min_size=space.dim, max_size=space.dim)
    a, x = data.draw(vector), data.draw(vector)
    assert f.translate(a).evaluate(x) == f.evaluate([xi + ai for xi, ai in zip(x, a)])


@pytest.mark.parametrize("kind", ["poly", "gauss"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_diff_multi_jet_matches_iterated_diff(kind, n, data):
    space = PhaseSpace(n)
    f = data.draw(polys(space) if kind == "poly" else gauss_fns(space))
    fresh = type(f)(space, f.terms)
    requests = data.draw(st.lists(multi_indices(space), min_size=1, max_size=6))
    for alpha in requests:
        assert f.diff_multi(alpha) == iterated_diff(fresh, alpha)
    # the cached jet changes neither equality nor hashing
    assert f == fresh and hash(f) == hash(fresh)


def test_evaluate_exact(space):
    q, p = qp(space)
    f = q * q * p - F(1, 2) * p
    assert f.evaluate([F(2), F(3)]) == F(2) ** 2 * 3 - F(3, 2)


def test_diff_against_sympy():
    import sympy

    rng = random.Random(19)
    space = PhaseSpace(2)
    syms = sympy.symbols(" ".join(space.variables))
    for _ in range(6):
        f = random_poly(rng, space, max_degree=4, n_terms=6)
        expr = sum(
            sympy.Rational(c) * sympy.prod([s**e for s, e in zip(syms, exps)])
            for exps, c in f.terms.items()
        )
        for axis, s in enumerate(syms):
            got = f.diff(axis)
            want = sympy.expand(sympy.diff(expr, s))
            got_expr = sum(
                sympy.Rational(c) * sympy.prod([t**e for t, e in zip(syms, exps)])
                for exps, c in got.terms.items()
            )
            assert sympy.expand(got_expr - want) == 0


def test_matrix_helpers_exact():
    assert mat_det([[1, 2], [3, 4]]) == -2
    rng = random.Random(5)
    for _ in range(8):
        d = rng.choice([2, 3, 4])
        m = [[F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(d)] for _ in range(d)]
        if mat_det(m) == 0:
            continue
        assert mat_mul(m, mat_inverse(m)) == mat_identity(d)


def test_poly_rendering(space):
    q, p = qp(space)
    f = q * q - F(1, 2) * Poly.constant(space, 1) + 4 * q * p
    assert str(f) == "q1^2 + 4*q1*p1 - 1/2"


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitution_round_trips(n, data):
    space = PhaseSpace(n)
    f = data.draw(polys(space))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    a = data.draw(st.lists(rational, min_size=space.dim, max_size=space.dim))
    assert f.translate(a).translate([-x for x in a]) == f
    step = st.tuples(
        st.sampled_from(["shear-q", "shear-p", "squeeze"]),
        st.integers(0, n - 1),
        rational.filter(bool),
    )
    m = plane_product(space, data.draw(st.lists(step, min_size=1, max_size=3)))
    assert is_symplectic(space, m)
    assert f.pullback_linear(m).pullback_linear(mat_inverse(m)) == f
