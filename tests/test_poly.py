import operator
import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    evaluate,
    gauss_fns,
    iterated_diff,
    left_transpose,
    multi_indices,
    plane_product,
    polys,
    random_poly,
    rational_rotation,
)
from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import is_symplectic
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn, IntegralValue, gauss_pullback_linear
from startrace.poly import (
    _FIELD,
    MAX_EXPONENT,
    PhaseSpace,
    Poly,
    _pack,
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
    assert evaluate(f.translate(a), x) == evaluate(f, [xi + ai for xi, ai in zip(x, a)])


@pytest.mark.parametrize("kind", ["poly", "gauss"])
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_diff_multi_jet_matches_iterated_diff(kind, n, data):
    space = PhaseSpace(n)
    f = data.draw(polys(space) if kind == "poly" else gauss_fns(space))
    fresh = f + type(f).zero(space)
    requests = data.draw(st.lists(multi_indices(space), min_size=1, max_size=6))
    for alpha in requests:
        assert f.diff_multi(alpha) == iterated_diff(fresh, alpha)
    # the cached jet changes neither equality nor hashing
    assert f == fresh and hash(f) == hash(fresh)


def test_evaluate_exact(space):
    q, p = qp(space)
    f = q * q * p - F(1, 2) * p
    assert evaluate(f, [F(2), F(3)]) == F(2) ** 2 * 3 - F(3, 2)


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


# -- the shared normal form of GaussFn and the operators --------------


def _gauss_keys(space):
    """Exponent polynomials of degree <= 2 with no growing pure square."""
    monomials = [e for e in product(range(3), repeat=space.dim) if sum(e) <= 2]
    return st.lists(st.sampled_from(monomials), max_size=3, unique=True).flatmap(
        lambda ms: st.tuples(*[st.integers(-2, 0 if 2 in e else 2) for e in ms]).map(
            lambda cs: Poly(space, zip(ms, cs))
        )
    )


def _key_types(key):
    """The type of a key, and the types of its parts when it is a tuple."""
    return type(key), tuple(map(type, key)) if isinstance(key, tuple) else ()


# class, key strategy, loosened key, normalized key
COMBINATIONS = {
    # an exponent is loosened to an equal Poly built separately
    "gauss": (
        GaussFn,
        _gauss_keys,
        lambda k: Poly(k.space, reversed(list(k.terms.items()))),
        lambda k: k,
    ),
    "diffop": (DiffOp, multi_indices, list, tuple),
    "bidiff": (
        BiDiffOp,
        lambda space: st.tuples(multi_indices(space), multi_indices(space)),
        lambda k: [list(k[0]), list(k[1])],
        lambda k: (tuple(k[0]), tuple(k[1])),
    ),
}


@pytest.mark.parametrize("kind", sorted(COMBINATIONS))
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_poly_combination_normal_form(kind, n, data):
    cls, keys, loosen, normalize = COMBINATIONS[kind]
    space = PhaseSpace(n)
    # a small key pool, so that entries share keys and may cancel
    pool = data.draw(st.lists(keys(space), min_size=1, max_size=3))
    entry = st.tuples(st.sampled_from(pool), polys(space))
    entries = data.draw(st.lists(entry, max_size=6))
    # keys repeat in the pair stream, and may be unhashable lists
    a = cls(space, entries)
    b = cls(space, ((loosen(k), p) for k, p in reversed(entries)))
    assert a == b and hash(a) == hash(b)
    want = {}
    for k, p in entries:
        k = normalize(k)
        want[k] = want[k] + p if k in want else p
    assert a.coeffs == {k: p for k, p in want.items() if not p.is_zero()}
    # the stream, the mapping of its sums and the left fold of + agree
    items = [cls(space, {k: p}) for k, p in entries]
    assert a == cls(space, want) == sum(items, cls.zero(space))
    assert cls.sum(space, items) == a and cls.sum(space, iter([])) == cls.zero(space)
    assert all(_key_types(k) == _key_types(normalize(k)) for k in a.coeffs)
    # a key whose coefficients cancel is dropped, and only that key
    k = data.draw(keys(space))
    j = data.draw(keys(space).filter(lambda x: x != k))
    p = data.draw(polys(space).filter(lambda x: not x.is_zero()))
    one = Poly.constant(space, 1)
    assert cls(space, [(k, p), (loosen(k), -p)]).is_zero()
    kept = cls(space, [(k, p), (j, one), (loosen(k), -p)])
    assert kept.coeffs == {normalize(j): one}
    # linear structure
    assert (a + (-a)).is_zero() and a - a == cls.zero(space)
    assert 2 * a == a * 2 == a + a
    assert (0 * a).is_zero() and F(1, 2) * a + a * F(1, 2) == a


def _kind_results(kind, space, a, b, data):
    """Arithmetic results particular to one combination class."""
    if kind == "gauss":
        p = data.draw(polys(space))
        squeeze = plane_product(space, [("squeeze", 0, F(2))])
        return [a * b, a * p, gauss_pullback_linear(a, squeeze)]
    if kind == "diffop":
        return [a.compose(b), left_transpose(a)]
    ops = st.lists(st.tuples(multi_indices(space, 1), polys(space)), max_size=2)
    s, t = (DiffOp(space, data.draw(ops)) for _ in range(2))
    return [a.antisym(), a.precompose(s, t), a.postcompose(s)]


def _trusted_from_pairs(cls, space, pairs):
    """``cls._trusted`` fed normalized ``(key, poly)`` pairs: as they are
    for a GaussFn, and packed by hand for an operator, over the product of
    the denominators, so that the trusted constructor has to drop zeros
    and reduce."""
    if cls is GaussFn:
        return cls._trusted(space, pairs)
    pairs = list(pairs)
    den = 1
    for _, p in pairs:
        den *= p.den
    width = _FIELD * space.dim
    nums = {}
    for key, p in pairs:
        alphas = key if cls is BiDiffOp else (key,)
        hi = sum(_pack(space, a) << (width * (i + 1)) for i, a in enumerate(alphas))
        for k, v in p.nums.items():
            nums[hi + k] = nums.get(hi + k, 0) + v * (den // p.den)
    return cls._trusted(space, nums, den)


@pytest.mark.parametrize("kind", sorted(COMBINATIONS))
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_trusted_results_equal_public_ones(kind, n, data):
    cls, keys, _, normalize = COMBINATIONS[kind]
    space = PhaseSpace(n)
    entries = st.lists(st.tuples(keys(space), polys(space)), max_size=3)
    pairs = data.draw(entries)
    a, b = cls(space, pairs), cls(space, data.draw(entries))
    assert _trusted_from_pairs(cls, space, ((normalize(k), p) for k, p in pairs)) == a
    axis = data.draw(st.integers(0, space.dim - 1))
    results = [-a, a * F(-2, 3), a + b, cls.sum(space, [a, b, a]), a.diff(axis)]
    for got in results + _kind_results(kind, space, a, b, data):
        public = cls(space, got.coeffs.items())
        # a jet filled on one side and empty on the other takes no part
        got.diff_multi((0,) * (space.dim - 1) + (1,))
        assert got._jet and public._jet is None
        assert got == public and public == got and hash(got) == hash(public)


Q1 = Poly.variable(PhaseSpace(1), "q1")


@pytest.mark.parametrize(
    "cls, good, bad",
    [
        (DiffOp, (0, 0), (1,)),
        (DiffOp, (0, 0), (0, 0, 0)),
        (DiffOp, (0, 0), (-1, 1)),
        (BiDiffOp, ((0, 0), (0, 0)), ((1, 0), (0,))),
        (BiDiffOp, ((0, 0), (0, 0)), ((0, -1), (0, 0))),
        (GaussFn, Q1 - Q1, Q1**3),
        (GaussFn, Q1 - Q1, Q1**2),
        # derivative orders are checked like exponents: ints up to MAX_EXPONENT
        (DiffOp, (0, 0), (1.5, 0)),
        (DiffOp, (0, 0), (MAX_EXPONENT + 1, 0)),
        (BiDiffOp, ((0, 0), (0, 0)), ((1.5, 0), (0, 0))),
        (BiDiffOp, ((0, 0), (0, 0)), ((0, 0), (MAX_EXPONENT + 1, 0))),
    ],
)
def test_public_constructors_still_check_keys(cls, good, bad):
    one = Poly.constant(PhaseSpace(1), 1)
    for pairs in ({bad: one}, [(good, one), (bad, one)]):
        with pytest.raises(ValueError, match="multi-index|degree|grow"):
            cls(PhaseSpace(1), pairs)


def _scalar_cases(space):
    """Kind -> (constructor from pairs, key strategy, value strategy, the
    stored mapping, whether a merged pair is stored)."""
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    degrees = st.integers(-1, 3)  # the series below keep degrees <= 2
    return {
        "poly": (
            lambda pairs: Poly(space, pairs),
            st.tuples(*[st.integers(0, 2)] * space.dim),
            rational,
            lambda x: x.terms,
            lambda k, v: v != 0,
        ),
        "integral": (
            lambda pairs: IntegralValue(1, pairs),
            rational,
            rational,
            lambda x: x.terms,
            lambda k, v: v != 0,
        ),
        "formal-fraction": (
            lambda pairs: FormalScalar(pairs, 2),
            degrees,
            rational,
            lambda x: x.coeffs,
            lambda k, v: k <= 2 and v != 0,
        ),
        "formal-poly": (
            lambda pairs: FormalScalar(pairs, 2),
            degrees,
            polys(space),
            lambda x: x.coeffs,
            lambda k, v: k <= 2 and not v.is_zero(),
        ),
    }


@pytest.mark.parametrize("kind", ["poly", "integral", "formal-fraction", "formal-poly"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constructors_merge_pair_streams(kind, data):
    space = PhaseSpace(1)
    build, keys, values, stored, kept = _scalar_cases(space)[kind]
    pool = data.draw(st.lists(keys, min_size=1, max_size=3))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), values), max_size=6))
    # one key whose two values cancel, at drawn positions in the stream
    k, v = data.draw(keys), data.draw(values)
    for pair in [(k, v), (k, -v)]:
        pairs.insert(data.draw(st.integers(0, len(pairs))), pair)
    merged = {}
    for key, value in pairs:
        merged[key] = merged[key] + value if key in merged else value
    got = build(pairs)
    assert stored(got) == {key: s for key, s in merged.items() if kept(key, s)}
    assert got == build(iter(pairs)) == build(merged)
    fold = build({})
    for pair in pairs:
        fold = fold + build([pair])
    assert got == fold
    assert build([(k, v), (k, -v)]).is_zero()
    if kind == "poly":
        items = data.draw(st.lists(polys(space), max_size=4))
        assert Poly.sum(space, items) == sum(items, Poly.zero(space))
        assert Poly.sum(space, []) == Poly.zero(space)


def test_poly_combination_classes_do_not_mix():
    space = PhaseSpace(1)
    one = Poly.constant(space, 1)
    d = DiffOp.identity(space)
    bd = BiDiffOp.product_cochain(space)
    g = GaussFn.from_poly(one)
    with pytest.raises(TypeError):
        d + bd
    with pytest.raises(TypeError):
        g + d
    with pytest.raises(TypeError):
        g - d
    for x, y in [(d, bd), (g, d), (g, bd), (DiffOp.zero(space), BiDiffOp.zero(space))]:
        assert x != y and not x == y and y != x
    assert GaussFn.zero(space) != DiffOp.zero(space)
    with pytest.raises(ValueError):
        d + DiffOp.identity(PhaseSpace(2))
    # every class checks the space of its operands with one message
    other_one = Poly.constant(PhaseSpace(2), 1)
    other_g = GaussFn.from_poly(other_one)
    add, mul = operator.add, operator.mul
    for op, x, y in [
        (add, one, other_one),
        (mul, one, other_one),
        (add, g, other_g),
        (mul, g, other_g),
        (mul, g, other_one),
        (mul, one, other_g),
    ]:
        with pytest.raises(ValueError, match="operands live on different phase spaces"):
            op(x, y)
    with pytest.raises(ValueError, match="operands live on different phase spaces"):
        poisson_bracket(one, other_one)


@pytest.mark.parametrize("kind", ["poly", "gauss", "diffop", "bidiff"])
def test_diff_reads_an_axis_by_name_or_index(kind):
    space = PhaseSpace(2)
    p = Poly(
        space,
        {
            (1, 0, 0, 0): 1,
            (0, 2, 0, 0): 2,
            (0, 0, 3, 0): F(1, 2),
            (0, 0, 0, 1): -1,
            (1, 1, 1, 1): 3,
        },
    )
    zero = (0,) * space.dim
    f = {
        "poly": p,
        "gauss": GaussFn.term(space, p, 1, [1, 0, F(1, 2), 0]),
        "diffop": DiffOp(space, {(1, 0, 0, 2): p, zero: p * p}),
        "bidiff": BiDiffOp(space, {((1, 0, 0, 0), (0, 1, 0, 0)): p, (zero, zero): -p}),
    }[kind]
    derivatives = [f.diff(axis) for axis in range(space.dim)]
    # the derivatives along different axes differ, so a name read as the
    # wrong axis shows
    assert len(set(derivatives)) == space.dim
    assert [f.diff(name) for name in space.variables] == derivatives
    for axis in (-1, space.dim):
        with pytest.raises(IndexError):
            f.diff(axis)
    with pytest.raises(KeyError):
        f.diff("x1")


# -- the packed-monomial, integer-numerator kernel ---------------------


def _clean(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(*ds):
    out = {}
    for d in ds:
        for e, c in d.items():
            out[e] = out.get(e, 0) + c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


def _ref_substitute(f, dim, images):
    """``f`` with ``x_i`` replaced by the ``{exps: Fraction}`` ``images[i]``."""
    zero = (0,) * dim
    terms = []
    for exps, c in f.items():
        acc = {zero: c}
        for image, e in zip(images, exps):
            for _ in range(e):
                acc = _ref_mul(acc, image)
        terms.append(acc)
    return _ref_add(*terms)


def _unit(dim, i):
    return tuple(int(k == i) for k in range(dim))


def _assert_canonical(p):
    assert p.den > 0 and 0 not in p.nums.values()
    assert gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_fraction_dict_model(n, data):
    space = PhaseSpace(n)
    dim = space.dim
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    a, b = data.draw(polys(space)), data.draw(polys(space))
    ra, rb = dict(a.terms), dict(b.terms)
    c = data.draw(rational)
    shift = data.draw(st.lists(rational, min_size=dim, max_size=dim))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    row = st.lists(small, min_size=dim, max_size=dim)
    m = data.draw(st.lists(row, min_size=dim, max_size=dim))
    zero = (0,) * dim
    checks = [
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, {e: -v for e, v in rb.items()})),
        (a * b, _ref_mul(ra, rb)),
        (c * a, _clean({e: c * v for e, v in ra.items()})),
        (a * c, _clean({e: c * v for e, v in ra.items()})),
        (-a, {e: -v for e, v in ra.items()}),
        (Poly.sum(space, [a, b, a]), _ref_add(ra, rb, ra)),
        (
            a.translate(shift),
            _ref_substitute(ra, dim, [{_unit(dim, i): 1, zero: s} for i, s in enumerate(shift)]),
        ),
        (
            a.pullback_linear(m),
            _ref_substitute(
                ra, dim, [_clean({_unit(dim, j): v for j, v in enumerate(r)}) for r in m]
            ),
        ),
    ]
    for axis in range(dim):
        want = {
            e[:axis] + (e[axis] - 1,) + e[axis + 1 :]: v * e[axis]
            for e, v in ra.items()
            if e[axis]
        }
        checks.append((a.diff(axis), want))
    for got, want in checks + [(a, ra), (b, rb)]:
        _assert_canonical(got)
        assert got.terms == want
        assert all(type(v) is F for v in got.terms.values())
        assert got.constant_term() == want.get(zero, 0)
    # the same pairs in any order give one equal, equally hashed Poly
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    pairs = data.draw(st.lists(st.tuples(exps, rational), max_size=8))
    shuffled = data.draw(st.permutations(pairs))
    x, y = Poly(space, pairs), Poly(space, shuffled)
    _assert_canonical(x)
    assert x == y and hash(x) == hash(y) and x.nums == y.nums and x.den == y.den


@pytest.mark.parametrize("n", [1, 2])
def test_exponent_limit_is_guarded(n):
    space = PhaseSpace(n)
    dim = space.dim
    q, p = Poly.variable(space, "q1"), Poly.variable(space, f"p{n}")
    one = Poly.constant(space, 1)
    top = q**MAX_EXPONENT
    assert top.terms == {(MAX_EXPONENT,) + (0,) * (dim - 1): 1}
    with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
        top * q
    with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
        (q + one) * top * (p + one)
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Poly(space, {(MAX_EXPONENT + 1,) + (0,) * (dim - 1): 1})
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Poly.monomial(space, (0,) * (dim - 1) + (MAX_EXPONENT + 1,))
    # the next axis's field is left alone: no carry out of a full field
    assert (top * p).terms == {(MAX_EXPONENT,) + (0,) * (dim - 2) + (1,): 1}
    both = top * p**MAX_EXPONENT
    assert both.terms == {(MAX_EXPONENT,) + (0,) * (dim - 2) + (MAX_EXPONENT,): 1}
    assert both.diff(0).terms == {
        (MAX_EXPONENT - 1,) + (0,) * (dim - 2) + (MAX_EXPONENT,): MAX_EXPONENT
    }
    assert all(top.diff(axis).is_zero() for axis in range(1, dim))
