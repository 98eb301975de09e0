import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_fns, iterated_diff, multi_indices, polys, random_poly
from startrace.diffop import BiDiffOp, DiffOp
from startrace.gaussfn import GaussFn, gauss_integrate_exact
from startrace.poly import PhaseSpace, Poly, poisson_bracket


@pytest.fixture
def space():
    return PhaseSpace(1)


def random_diffop(rng, space, max_order=3, n_terms=3, coeff_degree=2):
    coeffs = {}
    for _ in range(n_terms):
        alpha = [0] * space.dim
        for _ in range(rng.randint(0, max_order)):
            alpha[rng.randrange(space.dim)] += 1
        poly = random_poly(rng, space, max_degree=coeff_degree, n_terms=2)
        key = tuple(alpha)
        coeffs[key] = coeffs.get(key, Poly.zero(space)) + poly
    return DiffOp(space, coeffs)


def monomial_basis(space, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=space.dim):
        if sum(exps) <= max_degree:
            yield Poly.monomial(space, exps)


def test_apply_examples(space):
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    q_dq = DiffOp.mult(q).compose(DiffOp.partial(space, "q1"))
    assert q_dq.apply(q * q) == 2 * q * q
    f = random_poly(random.Random(2), space)
    assert DiffOp.identity(space).apply(f) == f
    dq_dp = DiffOp(space, {(1, 1): Poly.constant(space, 1)})
    assert dq_dp.apply(q * p) == Poly.constant(space, 1)


def test_compose_canonical_commutation(space):
    dq = DiffOp.partial(space, "q1")
    q = DiffOp.mult(Poly.variable(space, "q1"))
    got = dq.compose(q)
    want = DiffOp.identity(space) + q.compose(dq)
    assert got == want


def test_compose_identity(space):
    a = random_diffop(random.Random(5), space)
    assert a.compose(DiffOp.identity(space)) == a
    assert DiffOp.identity(space).compose(a) == a


def test_compose_euler_square(space):
    q = Poly.variable(space, "q1")
    euler = DiffOp.mult(q).compose(DiffOp.partial(space, "q1"))
    got = euler.compose(euler)
    want = DiffOp(
        space,
        {(1, 0): q, (2, 0): q * q},
    )
    assert got == want
    # oracle: composition must agree with sequential application
    for mono in monomial_basis(space, 4):
        assert got.apply(mono) == euler.apply(euler.apply(mono))


def test_compose_agrees_with_sequential_apply():
    rng = random.Random(13)
    for n in (1, 2):
        space = PhaseSpace(n)
        for _ in range(8):
            a = random_diffop(rng, space)
            b = random_diffop(rng, space)
            ab = a.compose(b)
            for mono in monomial_basis(space, 3 if n == 2 else 6):
                assert ab.apply(mono) == a.apply(b.apply(mono))


def small_polys(space):
    """Hypothesis strategy: nonzero polynomials of one or two terms, so that
    a failing draw is small from the start and shrinks fast."""
    exps = st.tuples(*[st.integers(0, 2)] * space.dim)
    coeffs = st.sampled_from([Fraction(c, d) for c in (1, -1, 2, -2) for d in (1, 2)])
    return st.dictionaries(exps, coeffs, min_size=1, max_size=2).map(lambda t: Poly(space, t))


def diffops(space, top=2):
    """Hypothesis strategy: nonzero operators of one to three terms, orders
    <= top per axis."""
    terms = st.dictionaries(multi_indices(space, top), small_polys(space), min_size=1, max_size=3)
    return terms.map(lambda d: DiffOp(space, d))


def bidiffops(space, top=1):
    """Hypothesis strategy: nonzero bidifferential operators of one or two
    terms, orders <= top per axis in each slot."""
    index = multi_indices(space, top)
    terms = st.dictionaries(st.tuples(index, index), small_polys(space), min_size=1, max_size=2)
    return terms.map(lambda d: BiDiffOp(space, d))


def operands(kind, space):
    """Hypothesis strategy: small polynomials, or one-term Gaussians
    ``P exp(-|x|^2/2 + b.x)`` with integer ``b``."""
    if kind == "poly":
        return small_polys(space)
    shifts = st.lists(st.integers(-1, 1), min_size=space.dim, max_size=space.dim)
    return st.builds(lambda p, b: GaussFn.term(space, p, 1, b), small_polys(space), shifts)


def leibniz_compose(a, b):
    """``a o b`` term by term through the generalized Leibniz rule
    ``d^alpha o c = sum_{gamma <= alpha} binom(alpha, gamma) (d^{alpha-gamma} c) d^gamma``,
    with every derivative taken by repeated ``.diff``: the oracle of the
    jet-based ``compose``."""
    pairs = []
    for alpha, ca in a.coeffs.items():
        for beta, cb in b.coeffs.items():
            for gamma in itertools.product(*(range(x + 1) for x in alpha)):
                rest = tuple(x - g for x, g in zip(alpha, gamma))
                weight = math.prod(math.comb(x, g) for x, g in zip(alpha, gamma))
                key = tuple(g + y for g, y in zip(gamma, beta))
                pairs.append((key, ca * iterated_diff(cb, rest) * weight))
    return DiffOp(a.space, pairs)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compose_matches_leibniz_oracle(n, data):
    space = PhaseSpace(n)
    a, b = data.draw(diffops(space)), data.draw(diffops(space))
    assert a.compose(b) == leibniz_compose(a, b)


def adjoint_by_terms(a):
    """``sum_alpha (-1)^|alpha| d^alpha o a_alpha``, one multiplication
    operator and one jet read per term: the oracle of the transposing
    ``adjoint``."""
    return DiffOp.sum(
        a.space,
        (DiffOp.mult(c).diff_multi(alpha) * (-1) ** sum(alpha) for alpha, c in a.coeffs.items()),
    )


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_adjoint_matches_termwise_oracle(n, data):
    a = data.draw(diffops(PhaseSpace(n)))
    assert a.adjoint() == adjoint_by_terms(a)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_operator_jets_are_derivatives_after_the_operator(n, data):
    # d^delta o A and d^delta o B, read from the jets, against d^delta of the value
    space = PhaseSpace(n)
    index = multi_indices(space, top=1)
    a = data.draw(diffops(space, top=1))
    keys = st.tuples(index, index)
    b = BiDiffOp(
        space, data.draw(st.dictionaries(keys, small_polys(space), min_size=1, max_size=2))
    )
    shifts = st.lists(st.integers(-1, 1), min_size=space.dim, max_size=space.dim)
    gauss = st.builds(lambda p, s: GaussFn.term(space, p, 1, s), small_polys(space), shifts)
    u, v = data.draw(gauss), data.draw(gauss)
    delta = data.draw(index.filter(any))
    assert a.diff_multi(delta).apply(u) == iterated_diff(a.apply(u), delta)
    assert b.diff_multi(delta).apply(u, v) == iterated_diff(b.apply(u, v), delta)
    # a jet entry is the iterated single derivative, and is built once
    assert b.diff_multi(delta) == iterated_diff(b, delta)
    assert b.diff_multi(delta) is b.diff_multi(delta)


@pytest.mark.parametrize("kind", ["poly", "gauss"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_operator_laws_on_drawn_operands(kind, n, data):
    # every composite the packed kernel builds acts as the composite of actions
    space = PhaseSpace(n)
    a, c = data.draw(diffops(space, top=1)), data.draw(diffops(space, top=1))
    s, t = data.draw(diffops(space, top=1)), data.draw(diffops(space, top=1))
    b = data.draw(bidiffops(space))
    u, v = data.draw(operands(kind, space)), data.draw(operands(kind, space))
    assert a.compose(c).apply(u) == a.apply(c.apply(u))
    assert b.precompose(s, t).apply(u, v) == b.apply(s.apply(u), t.apply(v))
    assert b.postcompose(s).apply(u, v) == s.apply(b.apply(u, v))
    assert b.antisym().apply(u, v) == b.apply(u, v) - b.apply(v, u)
    if kind == "gauss":
        lhs = gauss_integrate_exact(a.adjoint().apply(u) * v)
        assert (lhs - gauss_integrate_exact(u * a.apply(v))).is_zero()


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_operator_kernel_builds_no_poly_per_key(n, data):
    # the operator algebra works on packed keys alone: a return to one Poly
    # per operator key shows up here as Poly constructions
    space = PhaseSpace(n)
    a, c = data.draw(diffops(space)), data.draw(diffops(space))
    s, t = data.draw(diffops(space, top=1)), data.draw(diffops(space, top=1))
    b = data.draw(bidiffops(space))
    axis = data.draw(st.integers(0, space.dim - 1))
    built = []
    init, trusted = Poly.__init__, Poly._trusted.__func__

    def counted_init(self, *args):
        built.append("__init__")
        init(self, *args)

    def counted_trusted(cls, *args):
        built.append("_trusted")
        return trusted(cls, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Poly, "__init__", counted_init)
        mp.setattr(Poly, "_trusted", classmethod(counted_trusted))
        a.diff(axis), a.compose(c), b.diff(axis)
        b.precompose(s, t), b.postcompose(s), b.antisym()
        assert built == []
        Poly.constant(space, 1)
        assert built == ["_trusted"]


def test_adjoint_examples(space):
    dq = DiffOp.partial(space, "q1")
    assert dq.adjoint() == -1 * dq
    assert DiffOp.identity(space).adjoint() == DiffOp.identity(space)
    q = Poly.variable(space, "q1")
    q_dq = DiffOp.mult(q).compose(dq)
    want = DiffOp(space, {(0, 0): Poly.constant(space, -1), (1, 0): -q})
    assert q_dq.adjoint() == want


def test_adjoint_duality_and_involution(space):
    from test_gaussfn import random_gauss

    rng = random.Random(17)
    for _ in range(6):
        a = random_diffop(rng, space)
        assert a.adjoint().adjoint() == a
        f, g = random_gauss(rng, space), random_gauss(rng, space)
        lhs = gauss_integrate_exact(a.apply(f) * g)
        rhs = gauss_integrate_exact(f * a.adjoint().apply(g))
        assert (lhs - rhs).is_zero()


def test_bidiff_apply_examples(space):
    q = Poly.variable(space, "q1")
    p = Poly.variable(space, "p1")
    b = BiDiffOp(space, {((1, 0), (0, 1)): Poly.constant(space, 1)})
    assert b.apply(q, p) == Poly.constant(space, 1)
    u = random_poly(random.Random(7), space)
    v = random_poly(random.Random(8), space)
    assert BiDiffOp.product_cochain(space).apply(u, v) == u * v
    # a polynomial beside a Gaussian operand, in either slot, gives a Gaussian
    g = GaussFn.gaussian(space, 1)
    pc = BiDiffOp.product_cochain(space)
    assert pc.apply(u, g) == pc.apply(g, u) == g * u
    assert b.apply(q, g) == g.diff("p1") and b.apply(g, p) == g.diff("q1")


@pytest.mark.parametrize("kind", ["poly", "gauss", "poly-gauss", "gauss-poly"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bidiff_apply_matches_term_by_term_sum(kind, n, data):
    space = PhaseSpace(n)
    index = multi_indices(space, top=3 - n)
    # few left multi-indices, so that terms share a row
    lefts = data.draw(st.lists(index, min_size=1, max_size=2))
    keys = st.tuples(st.sampled_from(lefts), index)
    b = BiDiffOp(space, data.draw(st.dictionaries(keys, polys(space), max_size=5)))
    operands = {"poly": polys, "gauss": gauss_fns}
    left, _, right = kind.partition("-")
    u = data.draw(operands[left](space))
    v = data.draw(operands[right or left](space))
    # a Gaussian operand in either slot makes a Gaussian; the zero operator
    # gives the zero of u's class
    want = (Poly if kind == "poly" else GaussFn).zero(space) if b.nums else type(u).zero(space)
    for (alpha, beta), poly in b.coeffs.items():
        want = want + poly * (iterated_diff(u, alpha) * iterated_diff(v, beta))
    got = b.apply(u, v)
    assert got == want and type(got) is type(want)
    zero = BiDiffOp.zero(space).apply(u, v)
    assert zero == type(u).zero(space) and type(zero) is type(u)
    assert b.apply(u, u) == b.apply(u + type(u).zero(space), u)


def test_poisson_cochain_matches_bracket():
    rng = random.Random(9)
    for n in (1, 2):
        space = PhaseSpace(n)
        coeffs = {}
        one = Poly.constant(space, 1)
        for i in range(n):
            ei_q = tuple(1 if k == i else 0 for k in range(space.dim))
            ei_p = tuple(1 if k == n + i else 0 for k in range(space.dim))
            coeffs[(ei_p, ei_q)] = coeffs.get((ei_p, ei_q), Poly.zero(space)) + one
            coeffs[(ei_q, ei_p)] = coeffs.get((ei_q, ei_p), Poly.zero(space)) - one
        cochain = BiDiffOp(space, coeffs)
        for _ in range(6):
            u = random_poly(rng, space)
            v = random_poly(rng, space)
            assert cochain.apply(u, v) == poisson_bracket(u, v)


def test_antisym(space):
    one = Poly.constant(space, 1)
    sym = BiDiffOp(space, {((1, 0), (1, 0)): one})
    assert sym.antisym().is_zero()
    anti = BiDiffOp(space, {((1, 0), (0, 1)): one, ((0, 1), (1, 0)): -one})
    assert anti.antisym() == anti + anti
    rng = random.Random(21)
    u = random_poly(rng, space)
    v = random_poly(rng, space)
    b = BiDiffOp(space, {((2, 0), (0, 1)): random_poly(rng, space, 2)})
    assert b.antisym().apply(u, v) == b.apply(u, v) - b.apply(v, u)


def test_conjugate_identity(space):
    rng = random.Random(25)
    ident = DiffOp.identity(space)
    b = BiDiffOp(space, {((1, 0), (0, 2)): random_poly(rng, space, 2)})
    assert b.conjugate(ident, ident, ident) == b


def test_conjugate_leibniz(space):
    one = Poly.constant(space, 1)
    b = BiDiffOp.product_cochain(space)
    dq = DiffOp.partial(space, "q1")
    ident = DiffOp.identity(space)
    got = b.conjugate(dq, ident, ident)
    want = BiDiffOp(space, {((1, 0), (0, 0)): one, ((0, 0), (1, 0)): one})
    assert got == want


def test_conjugate_agrees_with_application():
    rng = random.Random(27)
    for n in (1, 2):
        space = PhaseSpace(n)
        for _ in range(4):
            b = BiDiffOp(
                space,
                {
                    (
                        tuple(rng.randint(0, 1) for _ in range(space.dim)),
                        tuple(rng.randint(0, 1) for _ in range(space.dim)),
                    ): random_poly(rng, space, 2, n_terms=2)
                },
            )
            s_out = random_diffop(rng, space, max_order=2, n_terms=2)
            s_left = random_diffop(rng, space, max_order=2, n_terms=2)
            s_right = random_diffop(rng, space, max_order=2, n_terms=2)
            conj = b.conjugate(s_out, s_left, s_right)
            pre, post = b.precompose(s_left, s_right), b.postcompose(s_out)
            for _ in range(3):
                u = random_poly(rng, space, 3, n_terms=3)
                v = random_poly(rng, space, 3, n_terms=3)
                inner = b.apply(s_left.apply(u), s_right.apply(v))
                assert pre.apply(u, v) == inner
                assert post.apply(u, v) == s_out.apply(b.apply(u, v))
                assert conj.apply(u, v) == s_out.apply(inner)


def test_conjugate_rejects_bad_transports(space):
    b = BiDiffOp.product_cochain(space)
    ident = DiffOp.identity(space)
    for args in [(b, ident, ident), (ident, ident, Poly.constant(space, 1))]:
        with pytest.raises(TypeError):
            b.conjugate(*args)
    with pytest.raises(ValueError, match="phase spaces"):
        b.conjugate(ident, DiffOp.identity(PhaseSpace(2)), ident)


def test_diffop_rendering_order(space):
    # terms sort by total order |alpha|, then by alpha itself
    q = Poly.variable(space, "q1")
    one = Poly.constant(space, 1)
    d = DiffOp(
        space,
        {(0, 2): one, (1, 0): q, (1, 1): one, (0, 0): 3 * one, (2, 0): one, (0, 1): -one},
    )
    assert str(d) == "3 + -1*dp1 + q1*dq1 + dp1^2 + dq1*dp1 + dq1^2"
    assert repr(DiffOp.mult(q + one)) == "DiffOp(q1 + 1)"
    assert str(DiffOp.zero(space)) == "0"


def test_bidiff_rendering(space):
    # a rational scales the pairing; a polynomial goes inside its left side
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    one = Poly.constant(space, 1)
    z, dq, dp = (0, 0), (1, 0), (0, 1)
    assert repr(BiDiffOp.product_cochain(space)) == "BiDiffOp((1 | 1))"
    rational = BiDiffOp(space, {(z, dp): one, (dq, z): one * Fraction(-1, 2), (dq, dp): one * 3})
    assert str(rational) == "(1 | dp1) + -1/2*(dq1 | 1) + 3*(dq1 | dp1)"
    poly = BiDiffOp(space, {(z, dp): q + p, (z, z): q, (dq, dp): -q * q * p})
    assert str(poly) == "(q1 | 1) + ((q1 + p1) | dp1) + (-q1^2*p1*dq1 | dp1)"
    assert str(BiDiffOp(space, {(dq, dp): q - p})) == "((q1 - p1)*dq1 | dp1)"
