"""Truncated Laurent series in the formal deformation parameter ``nu``.

A :class:`FormalScalar` stores finitely many coefficients ``c_k`` for
``nu^k`` with ``min_degree <= k <= trunc_order``.  Coefficients live in a
pluggable exact ring: ``fractions.Fraction``, :class:`~startrace.gaussfn.IntegralValue`,
:class:`~startrace.poly.Poly` or :class:`~startrace.gaussfn.GaussFn` all work,
because the series layer only needs ``+``, ``*``, ``==`` and an exact zero
test.  Every arithmetic result is truncated; the truncation window of a
product is chosen so that every stored coefficient is exact.

The constructor is where sums merge: it takes a mapping or a stream of
``(degree, coefficient)`` pairs whose degrees may repeat, and sums each
degree's coefficients once, through the ring's n-ary ``sum`` where it has
one (``Poly.sum``, ``GaussFn.sum``).  Sums and products are such streams.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from startrace.poly import _pairs, _signed_sum


def _is_zero(c):
    probe = getattr(c, "is_zero", None)
    if callable(probe):
        return probe()
    return c == 0


def _coeff_sum(group):
    """Sum of a nonempty list of ring elements, in one n-ary ``sum`` where
    the ring has one and by ``+`` otherwise."""
    first = group[0]
    if len(group) > 1 and hasattr(first, "sum"):
        return first.sum(first.space, group)
    return sum(group[1:], first)


def _coeff_div(a, b):
    probe = getattr(a, "divide_by", None)
    if callable(probe):
        return probe(b)
    return a / b


class FormalScalar:
    """Laurent polynomial in ``nu``, exact up to ``trunc_order``.

    The constructor adds the coefficients of repeated degrees and drops
    degrees above ``trunc_order``.  The coefficient mapping never stores
    zeros, so ``min_degree`` is the lowest genuinely nonzero power (``None``
    for the zero series).
    """

    __slots__ = ("coeffs", "trunc_order")

    def __init__(self, coeffs, trunc_order):
        groups = {}
        for k, c in _pairs(coeffs):
            if k <= trunc_order:
                groups.setdefault(k, []).append(Fraction(c) if isinstance(c, int) else c)
        clean = {}
        for k, group in groups.items():
            c = _coeff_sum(group)
            if not _is_zero(c):
                clean[k] = c
        self.coeffs = clean
        self.trunc_order = trunc_order

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc_order):
        return cls({}, trunc_order)

    @classmethod
    def constant(cls, c, trunc_order):
        return cls({0: c}, trunc_order)

    # -- inspection ---------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def min_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def get(self, degree):
        """Stored coefficient at ``degree`` or ``None``."""
        return self.coeffs.get(degree)

    def items(self):
        return sorted(self.coeffs.items())

    def _ring_witness(self):
        for c in self.coeffs.values():
            return c
        return None

    def _check_ring(self, other):
        a, b = self._ring_witness(), other._ring_witness()
        if a is not None and b is not None and type(a) is not type(b):
            raise ValueError(
                f"mismatched coefficient rings: {type(a).__name__} vs {type(b).__name__}"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormalScalar):
            return NotImplemented
        self._check_ring(other)
        trunc = min(self.trunc_order, other.trunc_order)
        return FormalScalar(chain(self.coeffs.items(), other.coeffs.items()), trunc)

    def __neg__(self):
        return FormalScalar({k: -c for k, c in self.coeffs.items()}, self.trunc_order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FormalScalar):
            return NotImplemented
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return FormalScalar.zero(min(self.trunc_order, other.trunc_order))
        # Degrees above K1+min2 (resp. K2+min1) would need coefficients the
        # operands no longer store, so the product window shrinks to match.
        trunc = min(
            self.trunc_order + other.min_degree,
            other.trunc_order + self.min_degree,
        )
        return FormalScalar(
            (
                (i + j, a * b)
                for i, a in self.coeffs.items()
                for j, b in other.coeffs.items()
                if i + j <= trunc
            ),
            trunc,
        )

    def scale(self, c):
        """Multiply every coefficient by a ring element or rational ``c``."""
        if isinstance(c, int):
            c = Fraction(c)
        return FormalScalar({k: v * c for k, v in self.coeffs.items()}, self.trunc_order)

    def shift(self, m):
        """Multiply by ``nu^m``; the truncation window shifts along."""
        return FormalScalar(
            {k + m: c for k, c in self.coeffs.items()}, self.trunc_order + m
        )

    def truncate(self, trunc_order):
        return FormalScalar(
            {k: c for k, c in self.coeffs.items() if k <= trunc_order}, trunc_order
        )

    # -- division -----------------------------------------------------

    def invert(self):
        """Multiplicative inverse of a series over ``Fraction``: ``1 / self``
        by :meth:`divide`.

        The result window is ``[-m, K - 2m]`` for input window ``[m, K]``:
        beyond that the product against the input would involve dropped
        coefficients.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        one = FormalScalar.constant(Fraction(1), self.trunc_order - self.min_degree)
        return one.divide(self)

    def divide(self, other):
        """Solve ``c * other == self`` for ``c`` order by order.

        Long division only ever divides ring elements by the leading
        coefficient of ``other``, so it works in rings where general
        inversion is unavailable (values carrying a fixed pi power, say).
        """
        if not isinstance(other, FormalScalar):
            raise TypeError("divide expects a FormalScalar divisor")
        self._check_ring(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero series")
        mb = other.min_degree
        if self.is_zero():
            return FormalScalar.zero(self.trunc_order - mb)
        ma = self.min_degree
        span = min(self.trunc_order - ma, other.trunc_order - mb)
        lead = other.coeffs[mb]
        rel = {}
        for j in range(span + 1):
            acc = self.coeffs.get(ma + j)
            for i in range(1, j + 1):
                b = other.coeffs.get(mb + i)
                prev = rel.get(j - i)
                if b is None or prev is None:
                    continue
                term = b * prev
                acc = -term if acc is None else acc - term
            if acc is None or _is_zero(acc):
                continue
            rel[j] = _coeff_div(acc, lead)
        return FormalScalar(
            {ma - mb + j: c for j, c in rel.items()}, ma - mb + span
        )

    # -- derivations --------------------------------------------------

    def nu_scale_derivative(self):
        """Apply ``nu * d/d nu``: the coefficient at degree k picks up a factor k."""
        return FormalScalar(
            {k: c * k for k, c in self.coeffs.items()}, self.trunc_order
        )

    # -- comparison / rendering ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FormalScalar):
            return NotImplemented
        if not self.coeffs and not other.coeffs:
            return True
        return self.trunc_order == other.trunc_order and self.coeffs == other.coeffs

    def __hash__(self):
        # every zero series is equal, whatever its truncation order
        order = self.trunc_order if self.coeffs else None
        return hash((order, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def __str__(self):
        """``c_k*nu^k`` terms by rising degree; a non-rational coefficient
        prints as one unit term, parenthesized when it is a sum."""
        parts = []
        for k, c in self.items():
            power = "" if k == 0 else "nu" if k == 1 else f"nu^{k}"
            if not isinstance(c, Fraction):
                text = str(c)
                body = f"({text})" if " " in text or "+" in text else text
                c, power = 1, f"{body}*{power}" if power else body
            parts.append((c, power))
        return _signed_sum(parts)

    def __repr__(self):
        return f"FormalScalar({self}, K={self.trunc_order})"
