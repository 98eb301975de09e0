import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plane_product, polys, random_poly, rational_rotation
from startrace.gaussfn import (
    GaussFn,
    IntegralValue,
    NonIntegrableError,
    gauss_integrate_bigfloat,
    gauss_integrate_exact,
    gauss_pullback_linear,
    isotropic_exponent,
)
from startrace.poly import MAX_EXPONENT, PhaseSpace, Poly, mat_det


@pytest.fixture
def space():
    return PhaseSpace(1)


def random_gauss(rng, space, max_degree=3):
    t = F(rng.choice([1, 2, 3]), rng.choice([1, 2]))
    b = [F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(space.dim)]
    c = F(rng.randint(-1, 1))
    return GaussFn.term(space, random_poly(rng, space, max_degree), t, b, c)


def quadratic(space, a, b=None, c=0):
    """The exponent ``x^T A x/2 + b.x + c`` as a Poly, for a symmetric ``a``."""
    d = space.dim
    b = [0] * d if b is None else b
    pairs = [((0,) * d, c)]
    for i in range(d):
        unit = tuple(int(k == i) for k in range(d))
        pairs.append((unit, b[i]))
        for j in range(i, d):
            exps = tuple(int(k == i) + int(k == j) for k in range(d))
            pairs.append((exps, F(a[i][j]) / 2 if i == j else a[i][j]))
    return Poly(space, pairs)


def general(space, a, b=None, c=0, poly=None):
    """``poly * exp(x^T A x/2 + b.x + c)``, with ``poly = 1`` by default."""
    poly = Poly.constant(space, 1) if poly is None else poly
    return GaussFn(space, {quadratic(space, a, b, c): poly})


def hermite_oracle(fn):
    """Numeric 2D integral over the plane (n=1) of a GaussFn of width one.

    The substitution ``x = sqrt(2) y`` turns ``exp(-|x|^2/2)`` into the
    Hermite weight ``exp(-|y|^2)``, so a 40-node tensor Gauss-Hermite rule
    integrates the smooth remainder of the integrand.
    """
    ys, ws = np.polynomial.hermite.hermgauss(40)
    scale = math.sqrt(2)
    total = 0.0
    for yq, wq in zip(ys, ws):
        for yp, wp in zip(ys, ws):
            weight = wq * wp * math.exp(yq * yq + yp * yp)
            total += weight * fn.evaluate_float([scale * yq, scale * yp])
    return total * scale * scale


def test_exponent_addition(space):
    g1 = GaussFn.gaussian(space, 1)
    assert g1 * g1 == GaussFn.gaussian(space, 2)


def test_polynomial_absorption(space):
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    g = GaussFn.gaussian(space, 1)
    assert (q * g) * GaussFn.from_poly(p) == (q * p) * g


def test_cancellation(space):
    a = GaussFn.term(space, random_poly(random.Random(1), space), 2)
    assert (a + a * (-1)).is_zero()


def test_diff_examples(space):
    q = Poly.variable(space, "q1")
    g = GaussFn.gaussian(space, 1)
    assert g.diff("q1") == (-1 * q) * g
    assert (q * g).diff("q1") == (Poly.constant(space, 1) - q * q) * g
    assert GaussFn.from_poly(q * q).diff("p1").is_zero()


def test_integrate_plain_gaussian(space):
    got = gauss_integrate_exact(GaussFn.gaussian(space, 1))
    assert got == IntegralValue(1, {0: 2})
    oracle = hermite_oracle(GaussFn.gaussian(space, 1))
    assert abs(got.as_mpf(20) - oracle) < mpmath.mpf("1e-12")


def test_integrate_second_moment(space):
    q = Poly.variable(space, "q1")
    fn = (q * q) * GaussFn.gaussian(space, 1)
    got = gauss_integrate_exact(fn)
    assert got == IntegralValue(1, {0: 2})
    assert abs(got.as_mpf(20) - hermite_oracle(fn)) < mpmath.mpf("1e-12")


@pytest.mark.parametrize(
    "exps, b, want",
    [
        # at t = 2 the moments (e-1)!!/w^(e/2) and (e-1)!!/w^e differ
        ((0, 0), None, IntegralValue(1, {0: 1})),
        ((2, 0), None, IntegralValue(1, {0: F(1, 2)})),
        ((0, 0), (1, 0), IntegralValue(1, {F(1, 4): 1})),
    ],
    ids=["plain", "second-moment", "shifted"],
)
def test_integrate_at_width_two(space, exps, b, want):
    fn = GaussFn.term(space, Poly.monomial(space, exps), 2, b)
    assert gauss_integrate_exact(fn) == want


def test_integrate_odd_vanishes(space):
    q = Poly.variable(space, "q1")
    assert gauss_integrate_exact(q * GaussFn.gaussian(space, 1)).is_zero()


def test_integrate_shifted(space):
    fn = GaussFn.gaussian(space, 1, b=[1, 0])
    got = gauss_integrate_exact(fn)
    assert got == IntegralValue(1, {F(1, 2): 2})
    assert abs(got.as_mpf(20) - hermite_oracle(fn)) < mpmath.mpf("1e-12")


def test_nonintegrable_term_rejected(space):
    q = Poly.variable(space, "q1")
    with pytest.raises(NonIntegrableError):
        gauss_integrate_exact(GaussFn.from_poly(q))


def test_derivatives_integrate_to_zero():
    rng = random.Random(23)
    for n in (1, 2):
        space = PhaseSpace(n)
        for _ in range(6):
            fn = random_gauss(rng, space)
            for axis in range(space.dim):
                assert gauss_integrate_exact(fn.diff(axis)).is_zero()


def test_integration_by_parts():
    rng = random.Random(29)
    space = PhaseSpace(1)
    for _ in range(8):
        f, g = random_gauss(rng, space), random_gauss(rng, space)
        for axis in range(space.dim):
            lhs = gauss_integrate_exact(f * g.diff(axis))
            rhs = gauss_integrate_exact(f.diff(axis) * g)
            assert (lhs + rhs).is_zero()


def test_translation_invariance():
    rng = random.Random(31)
    space = PhaseSpace(2)
    for _ in range(5):
        fn = random_gauss(rng, space)
        shifted = fn.translate([F(1), F(-1, 2), F(0), F(2)])
        assert gauss_integrate_exact(shifted) == gauss_integrate_exact(fn)


def test_bigfloat_matches_exact():
    rng = random.Random(37)
    space = PhaseSpace(1)
    shear = [[F(1), F(1)], [F(0), F(1)]]
    for _ in range(5):
        fn = random_gauss(rng, space)
        # the same terms with each exponent written from its matrix A = -t I
        (q, poly), = fn.coeffs.items()
        t, b, c = isotropic_exponent(q)
        rebuilt = general(space, [[-t, 0], [0, -t]], b, c, poly)
        assert rebuilt == fn
        assert gauss_integrate_exact(rebuilt - fn.diff(0)) == gauss_integrate_exact(fn)
        # a unit-determinant shear takes the integral through elimination
        sheared = gauss_pullback_linear(fn, shear)
        assert isotropic_exponent(next(iter(sheared.coeffs))) is None
        exact = gauss_integrate_exact(fn).as_mpf(50)
        numeric = gauss_integrate_bigfloat(sheared, precision=50)
        with mpmath.workdps(60):
            assert abs(exact - numeric) < mpmath.mpf("1e-45") * (1 + abs(exact))


def test_bigfloat_anisotropic_unit_determinant(space):
    # exp(-q^2 - p^2/4): A = diag(-2, -1/2), det(-A) = 1, so the integral is 2pi.
    fn = general(space, [[F(-2), F(0)], [F(0), F(-1, 2)]])
    got = gauss_integrate_bigfloat(fn, precision=50)
    with mpmath.workdps(60):
        assert abs(got - 2 * mpmath.pi) < mpmath.mpf("1e-45")


def test_bigfloat_rejects_indefinite(space):
    # A = diag(1, -1) and A = I grow along an axis: rejected when built
    for mat in ([[F(1), F(0)], [F(0), F(-1)]], [[F(1), F(0)], [F(0), F(1)]]):
        with pytest.raises(ValueError, match="grow"):
            general(space, mat)
    # -A = [[1, -2], [-2, 1]] has det(-A) = -3 < 0 with no growing axis
    fn = general(space, [[F(-1), F(2)], [F(2), F(-1)]])
    with pytest.raises(NonIntegrableError):
        gauss_integrate_bigfloat(fn, precision=30)


def test_exponent_key_checked(space):
    q = Poly.variable(space, "q1")
    one = Poly.constant(space, 1)
    with pytest.raises(ValueError, match="degree"):
        GaussFn(space, {q**3: one})
    with pytest.raises(ValueError, match="grow"):
        GaussFn(space, {q * q: one})
    with pytest.raises(ValueError, match="phase space"):
        GaussFn(space, {Poly.zero(PhaseSpace(2)): one})
    with pytest.raises(TypeError):
        GaussFn(space, {(1, (0, 0), 0): one})
    # the polynomial of a term is checked too: one from another space would
    # be decoded on the wrong axes
    zero = Poly.zero(space)
    with pytest.raises(ValueError, match="operands live on different phase spaces"):
        GaussFn(space, {zero: Poly.variable(PhaseSpace(2), "q2")})
    with pytest.raises(TypeError, match="must be Polys"):
        GaussFn(space, {zero: 3})


def test_pullback_orthogonal_stays_isotropic(space):
    m = rational_rotation(space)
    g = GaussFn.gaussian(space, 1)
    assert gauss_pullback_linear(g, m) == g
    q = Poly.variable(space, "q1")
    fn = (q * q) * GaussFn.gaussian(space, 1, (1, -1), 2)
    back = gauss_pullback_linear(fn, m)
    assert all(isotropic_exponent(key) is not None for key in back.coeffs)
    assert gauss_integrate_exact(back) == gauss_integrate_exact(fn)


def test_pullback_identity(space):
    fn = random_gauss(random.Random(3), space)
    ident = [[F(1), F(0)], [F(0), F(1)]]
    assert gauss_pullback_linear(fn, ident) == fn


def test_pullback_anisotropic_routes_to_bigfloat(space):
    m = [[F(2), F(0)], [F(0), F(1, 2)]]
    back = gauss_pullback_linear(GaussFn.gaussian(space, 1), m)
    assert back == general(space, [[F(-4), F(0)], [F(0), F(-1, 4)]])
    assert isotropic_exponent(next(iter(back.coeffs))) is None
    got = gauss_integrate_bigfloat(back, precision=50)
    with mpmath.workdps(60):
        assert abs(got - 2 * mpmath.pi) < mpmath.mpf("1e-45")


def test_pullback_change_of_variables():
    # integral of f(Mx) = |det M|^{-1} * integral of f, checked at 50 digits.
    rng = random.Random(41)
    space = PhaseSpace(1)
    m = [[F(2), F(1)], [F(0), F(1)]]
    fn = random_gauss(rng, space, max_degree=2)
    back = gauss_pullback_linear(fn, m)
    lhs = gauss_integrate_bigfloat(back, precision=50)
    with mpmath.workdps(60):
        rhs = gauss_integrate_exact(fn).as_mpf(50) / 2
        assert abs(lhs - rhs) < mpmath.mpf("1e-44") * (1 + abs(rhs))


RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def gauss_parts(space):
    """Hypothesis strategy: ``(P, t, b, c)`` of one term ``P(x) exp(-t|x|^2/2 + b.x + c)``."""
    return st.tuples(
        polys(space),
        st.fractions(min_value=F(1, 2), max_value=3, max_denominator=2),
        st.lists(RATIONAL, min_size=space.dim, max_size=space.dim),
        RATIONAL,
    )


def shifted_gauss(space):
    """Hypothesis strategy: one term ``P(x) exp(-t|x|^2/2 + b.x + c)``."""
    return gauss_parts(space).map(lambda parts: GaussFn.term(space, *parts))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_isotropic_term_integrates_alike_as_general(n, data):
    # an exponent built from its matrix A = -t I is the isotropic key itself,
    # and a unit-determinant shear of it integrates through elimination alike
    space = PhaseSpace(n)
    poly, t, b, c = data.draw(gauss_parts(space))
    f = GaussFn.term(space, poly, t, b, c)
    a = [[-t if i == j else 0 for j in range(space.dim)] for i in range(space.dim)]
    assert general(space, a, b, c, poly) == f
    shear = plane_product(space, [("shear-q", 0, F(1))])
    assert gauss_integrate_exact(gauss_pullback_linear(f, shear)) == gauss_integrate_exact(f)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pullback_integral_is_exact(n, data):
    # integral of f(Mx) = |det M|^{-1} * integral of f, as exact values
    space = PhaseSpace(n)
    f = data.draw(shifted_gauss(space))
    step = st.tuples(
        st.sampled_from(["shear-q", "shear-p", "squeeze", "scale-q"]),
        st.integers(0, n - 1),
        RATIONAL.filter(bool),
    )
    m = plane_product(space, data.draw(st.lists(step, min_size=1, max_size=3)))
    want = gauss_integrate_exact(f) * F(1, abs(mat_det(m)))
    assert gauss_integrate_exact(gauss_pullback_linear(f, m)) == want


def test_irrational_root_rejected(space):
    # exp(-q^2 - p^2/2): det(-A) = 2, so the integral carries sqrt(2)
    fn = general(space, [[F(-2), F(0)], [F(0), F(-1)]])
    with pytest.raises(ArithmeticError, match="irrational"):
        gauss_integrate_exact(fn)


def test_indefinite_form_with_square_determinant_rejected():
    # -A = [[1, 2], [2, 1]] on (q1, q2) and on (p1, p2): the diagonal is
    # positive and det(-A) = 9 is a square, but the second pivot is -3
    space = PhaseSpace(2)
    block = [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 2], [0, 0, 2, 1]]
    fn = general(space, [[-F(v) for v in row] for row in block])
    with pytest.raises(NonIntegrableError):
        gauss_integrate_exact(fn)


def test_semidefinite_form_rejected(space):
    # -A = [[1, 1], [1, 1]]: the second pivot is 0, and it is never divided by
    fn = general(space, [[F(-1), F(-1)], [F(-1), F(-1)]])
    with pytest.raises(NonIntegrableError):
        gauss_integrate_exact(fn)


def test_pullback_singular_rejected(space):
    with pytest.raises(ValueError):
        gauss_pullback_linear(
            GaussFn.gaussian(space, 1), [[F(1), F(1)], [F(1), F(1)]]
        )


def test_value_ring_basics():
    two_pi = IntegralValue(1, {0: 2})
    assert (two_pi - two_pi).is_zero()
    mixed = IntegralValue(0, {1: 1}) - IntegralValue(0, {2: 1})
    assert not mixed.is_zero()
    with pytest.raises(ValueError):
        IntegralValue(1, {0: 1}) + IntegralValue(2, {0: 1})
    ratio = IntegralValue(1, {F(3, 2): 6}).divide_by(IntegralValue(1, {F(1, 2): 2}))
    assert ratio == IntegralValue(0, {1: 3})


def test_value_rendering():
    assert str(IntegralValue(1, {0: 2})) == "2*pi"
    assert str(IntegralValue(0, {F(1, 2): 2})) == "2*exp(1/2)"
    assert str(IntegralValue.zero()) == "0"


def test_exponent_rendering(space):
    # every part of the exponent negative, unit coefficients dropped
    g = GaussFn.gaussian(space, 2, (-1, -3), F(-1, 2))
    assert str(g) == "exp(-|x|^2 - q1 - 3*p1 - 1/2)"
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    h = GaussFn.term(space, q + p, 1, (0, 2), 1) + GaussFn.from_poly(q)
    assert str(h) == "q1 + (q1 + p1)*exp(-1/2*|x|^2 + 2*p1 + 1)"
    assert repr(GaussFn.gaussian(space, 0, None, -1)) == "GaussFn(exp(-1))"
    assert str(GaussFn.zero(space)) == "0"
    # an anisotropic exponent prints as its polynomial, after the isotropic ones
    sheared = gauss_pullback_linear(GaussFn.gaussian(space, 2), [[1, 1], [0, 1]])
    assert str(sheared + g) == (
        "exp(-|x|^2 - q1 - 3*p1 - 1/2) + exp(-q1^2 - 2*q1*p1 - 2*p1^2)"
    )


# -- the packed kernels against the formulas they replace -----------------


def pulled_back_gauss(space):
    """Hypothesis strategy: a drawn term, pulled back by a product of shears
    and squeezes near the identity, so its exponent is anisotropic."""
    step = st.tuples(
        st.sampled_from(["shear-q", "shear-p", "squeeze"]),
        st.integers(0, space.n - 1),
        st.sampled_from([F(-1, 2), F(1, 2), F(2, 3), F(3, 2)]),
    )
    return st.tuples(shifted_gauss(space), st.lists(step, min_size=1, max_size=2)).map(
        lambda fs: gauss_pullback_linear(fs[0], plane_product(space, fs[1]))
    )


def gauss_operands(space):
    """Hypothesis strategy: sums of up to two terms, isotropic or pulled back,
    with polynomial parts too."""
    term = st.one_of(
        shifted_gauss(space),
        pulled_back_gauss(space),
        polys(space).map(GaussFn.from_poly),
    )
    return st.lists(term, max_size=2).map(lambda ts: sum(ts, GaussFn.zero(space)))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_diff_and_product_match_poly_formulas(n, data):
    space = PhaseSpace(n)
    f, g = data.draw(gauss_operands(space)), data.draw(gauss_operands(space))
    poly = data.draw(polys(space))
    axis = data.draw(st.integers(0, space.dim - 1))
    # (dP + P dQ) exp(Q), summed by the public constructor from Poly operations
    want = GaussFn(
        space,
        [(q, p.diff(axis)) for q, p in f.coeffs.items()]
        + [(q, p * q.diff(axis)) for q, p in f.coeffs.items()],
    )
    assert f.diff(axis) == want
    # exponents add and polynomials multiply, term by term
    product = GaussFn(
        space, [(q1 + q2, p1 * p2) for q1, p1 in f.coeffs.items() for q2, p2 in g.coeffs.items()]
    )
    assert f * g == product
    assert f * poly == poly * f == GaussFn(space, [(q, p * poly) for q, p in f.coeffs.items()])
    for got in (f.diff(axis), f * g, f * poly):
        for p in got.coeffs.values():
            assert p.den > 0 and 0 not in p.nums.values()
            assert math.gcd(p.den, *p.nums.values()) == 1


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_exact_integral_matches_hermite_oracle(data):
    # width-one terms, shifted or pulled back near the identity: the
    # integer moment rows against 40-node Gauss-Hermite quadrature
    space = PhaseSpace(1)
    poly = data.draw(polys(space))
    entry = st.sampled_from([F(-1, 2), F(0), F(1, 3), F(1)])
    b = data.draw(st.lists(entry, min_size=2, max_size=2))
    c = data.draw(st.sampled_from([F(0), F(-1, 2), F(1)]))
    f = GaussFn.term(space, poly, 1, b, c)
    kind = data.draw(st.sampled_from(["shifted", "shear", "squeeze"]))
    if kind != "shifted":
        s = data.draw(st.sampled_from([F(-1, 2), F(1, 3), F(1, 2)]))
        step = ("shear-q", 0, s) if kind == "shear" else ("squeeze", 0, 1 + s / 2)
        f = gauss_pullback_linear(f, plane_product(space, [step]))
        assert all(isotropic_exponent(q) is None for q in f.coeffs)
    got = gauss_integrate_exact(f).as_mpf(30)
    oracle = hermite_oracle(f)
    assert abs(got - oracle) < mpmath.mpf("1e-9") * (1 + abs(oracle))


def translated_integral(poly, widths, b, c, root):
    """``integral of poly exp(-sum_i w_i x_i^2/2 + b.x + c)`` as ``(s, r)``
    with value ``r e^s pi^n``, taken by translating ``poly`` to the center
    and keeping its even monomials, each with centered moments
    ``(e-1)!!/w^(e/2)``; ``root`` is ``sqrt(prod_i w_i)``."""
    mu = [bi / w for bi, w in zip(b, widths)]
    s = c + sum(bi * m for bi, m in zip(b, mu)) / 2
    total = F(0)
    for exps, coeff in poly.translate(mu).terms.items():
        if not any(e % 2 for e in exps):
            for e, w in zip(exps, widths):
                coeff *= math.prod(range(e - 1, 0, -2)) / w ** (e // 2)
            total += coeff
    return s, total * 2 ** (len(widths) // 2) / root


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_moment_rows_match_the_translated_polynomial(n, data):
    # the unshifted polynomial on shifted moment rows against translating
    # it first, with shifts whose denominators are not 1 and squeezed widths
    space = PhaseSpace(n)
    poly = data.draw(polys(space))
    t = data.draw(st.sampled_from([F(1, 2), F(1), F(4, 3), F(3)]))
    scales = data.draw(st.lists(st.sampled_from([F(1), F(2), F(2, 3)]), min_size=n, max_size=n))
    widths = [t * s * s for s in scales] + [t / (s * s) for s in scales]
    b = data.draw(st.lists(RATIONAL, min_size=space.dim, max_size=space.dim))
    c = data.draw(RATIONAL)
    a = [[-widths[i] if i == j else 0 for j in range(space.dim)] for i in range(space.dim)]
    f = GaussFn(space, {quadratic(space, a, b, c): poly})
    want = IntegralValue(n, [translated_integral(poly, widths, b, c, t**n)])
    assert gauss_integrate_exact(f) == want


@pytest.mark.parametrize("n", [1, 2])
def test_gaussian_kernels_keep_the_exponent_guard(n):
    space = PhaseSpace(n)
    dim = space.dim
    q, p = Poly.variable(space, "q1"), Poly.variable(space, f"p{n}")
    top = p**MAX_EXPONENT
    g = GaussFn.gaussian(space, 1)
    # exp(-|x|^2/2 - q1*pn): d/dq1 multiplies P = pn^255 by -pn
    (q0,) = g.coeffs
    cross = GaussFn(space, {q0 - q * p: top})
    with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
        cross.diff(0)
    # where dQ has no part, the derivative only lowers the top exponent
    b = (1,) + (0,) * (dim - 1)
    lowered = GaussFn.term(space, MAX_EXPONENT * p ** (MAX_EXPONENT - 1), 0, b)
    assert GaussFn.term(space, top, 0, b).diff(dim - 1) == lowered
    with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
        (top * g) * (p * g)
    with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
        (top * g) * p
    with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
        p * (top * g)
    # a full field does not carry into the next axis
    both = (top * g) * (q**MAX_EXPONENT * g)
    (poly,) = both.coeffs.values()
    assert poly.terms == {(MAX_EXPONENT,) + (0,) * (dim - 2) + (MAX_EXPONENT,): 1}


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_gaussian_kernels_build_nothing_per_monomial(n, data):
    # a derivative builds one Poly per term and a product none on the way,
    # neither builds a Fraction, and an integral builds as many Fractions
    # for a many-monomial P as for P = 1
    space = PhaseSpace(n)
    f, g = data.draw(gauss_operands(space)), data.draw(gauss_operands(space))
    poly = data.draw(polys(space).filter(lambda p: not p.is_zero()))
    axis = data.draw(st.integers(0, space.dim - 1))
    f.diff(axis)  # the exponents keep their derivatives in their jets
    h = data.draw(st.one_of(shifted_gauss(space), pulled_back_gauss(space)))
    q = next(iter(h.coeffs), None)
    built = []
    new, trusted, mul = F.__new__, Poly._trusted.__func__, Poly.__mul__

    def counted_new(cls, *args, **kwargs):
        built.append("Fraction")
        return new(cls, *args, **kwargs)

    def counted_trusted(cls, *args):
        built.append("Poly")
        return trusted(cls, *args)

    def counted_mul(self, other):
        if isinstance(other, Poly):
            built.append("Poly.__mul__")
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "__new__", staticmethod(counted_new))
        mp.setattr(Poly, "_trusted", classmethod(counted_trusted))
        mp.setattr(Poly, "__mul__", counted_mul)
        f.diff(axis)
        assert built == ["Poly"] * len(f.coeffs)
        built.clear()
        f * g, f * poly, poly * f
        assert "Fraction" not in built and "Poly.__mul__" not in built
        if q is not None:
            counts = []
            for p in (Poly.constant(space, 1), poly):
                built.clear()
                gauss_integrate_exact(GaussFn(space, {q: p}))
                counts.append(built.count("Fraction"))
            assert counts[0] == counts[1]
