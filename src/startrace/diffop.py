"""Differential and bidifferential operators with polynomial coefficients.

Operators are kept in normal form with every derivative to the right of
its coefficient, as :class:`~startrace.poly.PolyCombination` sums keyed by
derivative multi-indices.  Composition and adjoints are single Leibniz
passes; all arithmetic is exact.

Operators reach derivatives of their arguments only through
``diff_multi``, which memoizes a derivative jet on each Poly or GaussFn:
every partial derivative of an operand is taken once, however many terms,
cochains or products ask for it.  :meth:`BiDiffOp.apply` also groups its
terms by left multi-index, so it multiplies by each ``d^alpha u`` once.
"""

from __future__ import annotations

from itertools import chain
from math import comb

from startrace.poly import Poly, PolyCombination, _monomial_text, _scaled


def _zero_alpha(space):
    return (0,) * space.dim


def _check_alpha(space, alpha):
    if len(alpha) != space.dim or any(a < 0 for a in alpha):
        raise ValueError(f"bad derivative multi-index {alpha!r}")
    return tuple(alpha)


def _sub(alpha, gamma):
    return tuple(a - g for a, g in zip(alpha, gamma))


def _add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def _binom(alpha, gamma):
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out


def _sub_indices(alpha):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    out = [()]
    for a in alpha:
        out = [g + (i,) for g in out for i in range(a + 1)]
    return out


class DiffOp(PolyCombination):
    """``sum_alpha a_alpha(x) d^alpha`` acting on Poly or GaussFn inputs."""

    __slots__ = ()

    _key = staticmethod(_check_alpha)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, space):
        return cls(space, {_zero_alpha(space): Poly.constant(space, 1)})

    @classmethod
    def partial(cls, space, axis, k=1):
        if isinstance(axis, str):
            axis = space.axis(axis)
        alpha = [0] * space.dim
        alpha[axis] = k
        return cls(space, {tuple(alpha): Poly.constant(space, 1)})

    @classmethod
    def mult(cls, poly):
        """Multiplication operator ``f -> poly * f``."""
        return cls(poly.space, {_zero_alpha(poly.space): poly})

    # -- action -------------------------------------------------------

    def apply(self, f):
        return type(f).sum(
            self.space, (poly * f.diff_multi(alpha) for alpha, poly in self.coeffs.items())
        )

    def compose(self, other):
        """Normal form of ``self o other`` via the generalized Leibniz rule.

        ``d^alpha o b = sum_{gamma <= alpha} binom(alpha, gamma)
        (d^{alpha-gamma} b) d^gamma``.
        """
        if not isinstance(other, DiffOp):
            raise TypeError("compose expects a DiffOp")
        self._check_space(other)
        return DiffOp(
            self.space,
            (
                (_add(gamma, beta), a * db * _binom(alpha, gamma))
                for alpha, a in self.coeffs.items()
                for beta, b in other.coeffs.items()
                for gamma in _sub_indices(alpha)
                if not (db := b.diff_multi(_sub(alpha, gamma))).is_zero()
            ),
        )

    def adjoint(self):
        """Formal adjoint: ``(a d^alpha)* = (-1)^{|alpha|} d^alpha o a``."""
        return DiffOp.sum(
            self.space,
            (
                DiffOp(self.space, {alpha: Poly.constant(self.space, (-1) ** sum(alpha))})
                .compose(DiffOp.mult(a))
                for alpha, a in self.coeffs.items()
            ),
        )

    # -- rendering ----------------------------------------------------

    def _symbol(self, alpha):
        return _monomial_text(self.space, alpha, "d")

    @staticmethod
    def _order(alpha):
        return (sum(alpha), alpha)


def _three_way_splits(delta):
    """Yield ``(d1, d2, d3, multinomial)`` with ``d1+d2+d3 = delta``."""
    splits = [((), (), (), 1)]
    for k in delta:
        nxt = []
        for d1, d2, d3, m in splits:
            for i in range(k + 1):
                for j in range(k - i + 1):
                    nxt.append(
                        (
                            d1 + (i,),
                            d2 + (j,),
                            d3 + (k - i - j,),
                            m * comb(k, i) * comb(k - i, j),
                        )
                    )
        splits = nxt
    return splits


class BiDiffOp(PolyCombination):
    """``sum a_{alpha,beta}(x) (d^alpha tensor d^beta)`` on pairs of inputs."""

    __slots__ = ()

    @staticmethod
    def _key(space, key):
        alpha, beta = key
        return (_check_alpha(space, alpha), _check_alpha(space, beta))

    @classmethod
    def product_cochain(cls, space):
        """C_0: the pointwise product ``(u, v) -> u v``."""
        z = _zero_alpha(space)
        return cls(space, {(z, z): Poly.constant(space, 1)})

    def apply(self, u, v):
        """``B(u, v) = sum_alpha d^alpha u * (sum_beta a_{alpha,beta} d^beta v)``.

        Terms are grouped by their left multi-index, so each distinct
        ``alpha`` costs one product with ``d^alpha u``; the derivatives of
        both operands come from their jets (:meth:`Poly.diff_multi`).
        """
        rows = {}
        for (alpha, beta), poly in self.coeffs.items():
            rows.setdefault(alpha, []).append(v.diff_multi(beta) * poly)
        terms = [u.diff_multi(alpha) * type(v).sum(self.space, r) for alpha, r in rows.items()]
        return type(terms[0] if terms else u).sum(self.space, terms)

    def antisym(self):
        """``B^-(u,v) = B(u,v) - B(v,u)`` as a slot swap in normal form."""
        swapped = (((beta, alpha), -poly) for (alpha, beta), poly in self.coeffs.items())
        return BiDiffOp(self.space, chain(self.coeffs.items(), swapped))

    def conjugate(self, s_out, s_left, s_right):
        """Normal form of ``(u,v) -> S_out(B(S_left u, S_right v))``."""
        for s in (s_out, s_left, s_right):
            if not isinstance(s, DiffOp):
                raise TypeError("conjugate expects DiffOp transports")
            self._check_space(s)
        pairs = []
        for (alpha, beta), c in self.coeffs.items():
            left = DiffOp(self.space, {alpha: Poly.constant(self.space, 1)}).compose(
                s_left
            )
            right = DiffOp(self.space, {beta: Poly.constant(self.space, 1)}).compose(
                s_right
            )
            pairs += (
                ((gamma, eps), c * dl * dr)
                for gamma, dl in left.coeffs.items()
                for eps, dr in right.coeffs.items()
            )
        inner = BiDiffOp(self.space, pairs)
        return BiDiffOp(
            self.space,
            (
                ((_add(gamma, d2), _add(eps, d3)), s * dc * mult)
                for delta, s in s_out.coeffs.items()
                for (gamma, eps), c in inner.coeffs.items()
                for d1, d2, d3, mult in _three_way_splits(delta)
                if not (dc := c.diff_multi(d1)).is_zero()
            ),
        )

    @staticmethod
    def _order(key):
        return (sum(key[0]) + sum(key[1]), key)

    def _term(self, key, poly):
        """``c*(lhs | rhs)`` for a rational ``c``.  A polynomial coefficient
        goes inside the left side, ``(poly*lhs | rhs)``, because the parser
        scales a pairing only by rationals."""
        lhs, rhs = (_monomial_text(self.space, alpha, "d") for alpha in key)
        text = str(poly)
        if set(poly.terms) == {_zero_alpha(self.space)}:
            return _scaled(text, f"({lhs or '1'} | {rhs or '1'})")
        left = _scaled(text, lhs) if lhs else f"({text})" if " " in text else text
        return f"({left} | {rhs or '1'})"
