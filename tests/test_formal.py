from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startrace.formal import FormalScalar
from startrace.poly import PhaseSpace, Poly


def series(coeffs, trunc):
    return FormalScalar(coeffs, trunc)


def test_product_of_conjugates():
    a = series({0: 1, 1: 1}, 2)
    b = series({0: 1, 1: -1}, 2)
    assert a * b == series({0: 1, 2: -1}, 2)


def test_negative_degree_cancels():
    assert series({-1: 1}, 3) * series({1: 1}, 3) == series({0: 1}, 2)


def test_truncation_drops_high_orders():
    a = series({0: 1, 1: 1, 2: 1}, 2)
    sq = a * a
    assert sq == series({0: 1, 1: 2, 2: 3}, 2)


def test_invert_geometric():
    a = series({0: 1, 1: 1}, 2)
    assert a.invert() == series({0: 1, 1: -1, 2: 1}, 2)


def test_invert_pure_monomial():
    a = series({1: 2}, 6)
    inv = a.invert()
    assert inv == series({-1: F(1, 2)}, 4)
    assert a * inv == series({0: 1}, 5)


def test_divide_recovers_ratio():
    num = series({-1: 2, 0: 3}, 4)
    den = series({-1: 1, 1: 1}, 4)
    ratio = num.divide(den)
    t = min(ratio.trunc_order, (ratio * den).trunc_order)
    assert (ratio * den).truncate(t) == num.truncate(t)


def test_nu_scale_derivative_values():
    a = series({-1: F(2), 0: F(5), 3: F(1)}, 4)
    assert a.nu_scale_derivative() == series({-1: F(-2), 3: F(3)}, 4)


def test_ring_mismatch_rejected():
    from startrace.poly import PhaseSpace, Poly

    space = PhaseSpace(1)
    p = Poly.variable(space, "q1")
    a = series({0: F(1)}, 3)
    b = series({0: p}, 3)
    with pytest.raises(ValueError):
        a + b


coeffs_st = st.dictionaries(
    st.integers(min_value=-2, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=5,
)


def _mk(coeffs, trunc):
    return FormalScalar({k: c for k, c in coeffs.items() if k <= trunc}, trunc)


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st, coeffs_st, st.integers(min_value=0, max_value=6))
def test_ring_axioms(ca, cb, cc, trunc):
    a, b, c = _mk(ca, trunc), _mk(cb, trunc), _mk(cc, trunc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    lhs = a * (b + c)
    rhs = a * b + a * c
    t = min(lhs.trunc_order, rhs.trunc_order)
    assert lhs.truncate(t) == rhs.truncate(t)


@settings(max_examples=50, deadline=None)
@given(coeffs_st, st.integers(min_value=0, max_value=6))
def test_invert_round_trip(ca, trunc):
    a = _mk(ca, trunc)
    if a.is_zero():
        return
    prod = a * a.invert()
    assert prod == FormalScalar.constant(F(1), prod.trunc_order)


@settings(max_examples=50, deadline=None)
@given(coeffs_st, coeffs_st, st.integers(min_value=0, max_value=6))
def test_nu_scale_derivative_is_derivation(ca, cb, trunc):
    a, b = _mk(ca, trunc), _mk(cb, trunc)
    lhs = (a * b).nu_scale_derivative()
    rhs = a.nu_scale_derivative() * b + a * b.nu_scale_derivative()
    assert lhs == rhs


small_series = st.builds(
    _mk,
    st.dictionaries(st.integers(0, 2), st.sampled_from([F(0), F(1)]), max_size=3),
    st.integers(0, 3),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_series, min_size=2, max_size=4))
def test_equal_series_hash_alike(items):
    # a - a is the zero of a's truncation order, and every zero is equal
    items += [a - a for a in items]
    for a in items:
        for b in items:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_rendering():
    a = series({-1: F(1, 2), 0: F(-3), 2: F(1)}, 5)
    assert str(a) == "1/2*nu^-1 - 3 + nu^2"
    assert str(FormalScalar.zero(2)) == "0"


def test_rendering_over_polynomials():
    # a ring coefficient is one unit term: ``1`` keeps its ``*nu``, a sum
    # is parenthesized even at degree 0, and a minus stays inside the term
    space = PhaseSpace(1)
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    a = series({0: q + p, 1: Poly.constant(space, 1), 2: -q}, 3)
    assert str(a) == "(q1 + p1) + 1*nu + -q1*nu^2"
    assert repr(a) == "FormalScalar((q1 + p1) + 1*nu + -q1*nu^2, K=3)"
