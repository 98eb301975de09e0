"""Differential and bidifferential operators with polynomial coefficients.

Operators are kept in normal form with every derivative to the right of
its coefficient, as :class:`~startrace.poly.PolyCombination` sums keyed by
derivative multi-indices.  All arithmetic is exact.

Every object here has a derivative jet, as Polys and GaussFns do:
``diff_multi(alpha)`` is ``d^alpha o A`` for a :class:`DiffOp` and
``d^alpha o B`` for a :class:`BiDiffOp`, built one axis at a time by the
Leibniz rule for one derivative, merging like terms after each step, and
memoized on the operator (:func:`startrace.poly._diff_multi`).
Compositions read these jets instead of enumerating multinomial splits:
``A o C = sum_alpha a_alpha (d^alpha o C)``, and ``S o B`` and
``B o (S_left (x) S_right)`` likewise, so an operator composed with many
others builds each of its derivatives once.

Operators reach derivatives of their arguments through the same jets:
every partial derivative of an operand is taken once, however many terms,
cochains or products ask for it.  :meth:`BiDiffOp.apply` also groups its
terms by left multi-index, so it multiplies by each ``d^alpha u`` once.
"""

from __future__ import annotations

from itertools import chain

from startrace.poly import Poly, PolyCombination, _monomial_text, _scaled


def _zero_alpha(space):
    return (0,) * space.dim


def _check_alpha(space, alpha):
    if len(alpha) != space.dim or any(a < 0 for a in alpha):
        raise ValueError(f"bad derivative multi-index {alpha!r}")
    return tuple(alpha)


def _add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def _bump(alpha, axis):
    """``alpha + e_axis``."""
    return alpha[:axis] + (alpha[axis] + 1,) + alpha[axis + 1 :]


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

    def diff(self, axis):
        """``d_i o self``: each term ``a d^alpha`` gives
        ``(d_i a) d^alpha + a d^(alpha + e_i)``."""
        if isinstance(axis, str):
            axis = self.space.axis(axis)
        return DiffOp._trusted(
            self.space,
            chain.from_iterable(
                ((alpha, a.diff(axis)), (_bump(alpha, axis), a))
                for alpha, a in self.coeffs.items()
            ),
        )

    def compose(self, other):
        """Normal form of ``self o other``: ``sum_alpha a_alpha (d^alpha o other)``,
        with ``d^alpha o other`` read from ``other``'s jet."""
        if not isinstance(other, DiffOp):
            raise TypeError("compose expects a DiffOp")
        self._check_space(other)
        return DiffOp._trusted(
            self.space,
            (
                (beta, a * b)
                for alpha, a in self.coeffs.items()
                for beta, b in other.diff_multi(alpha).coeffs.items()
            ),
        )

    def adjoint(self):
        """Formal adjoint: ``(a d^alpha)* = (-1)^{|alpha|} d^alpha o a``."""
        return DiffOp.sum(
            self.space,
            (
                DiffOp.mult(a).diff_multi(alpha) * (-1) ** sum(alpha)
                for alpha, a in self.coeffs.items()
            ),
        )

    # -- rendering ----------------------------------------------------

    def _symbol(self, alpha):
        return _monomial_text(self.space, alpha, "d")

    @staticmethod
    def _order(alpha):
        return (sum(alpha), alpha)


def _check_transport(b, s):
    """Raise unless ``s`` is a DiffOp on the phase space of ``b``."""
    if not isinstance(s, DiffOp):
        raise TypeError("transports must be DiffOps")
    b._check_space(s)


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
        return BiDiffOp._trusted(self.space, chain(self.coeffs.items(), swapped))

    def diff(self, axis):
        """``d_i o self`` by the Leibniz rule: each term ``c d^alpha (x) d^beta``
        gives ``(d_i c) d^alpha (x) d^beta + c d^(alpha + e_i) (x) d^beta
        + c d^alpha (x) d^(beta + e_i)``."""
        if isinstance(axis, str):
            axis = self.space.axis(axis)
        return BiDiffOp._trusted(
            self.space,
            chain.from_iterable(
                (
                    ((alpha, beta), c.diff(axis)),
                    ((_bump(alpha, axis), beta), c),
                    ((alpha, _bump(beta, axis)), c),
                )
                for (alpha, beta), c in self.coeffs.items()
            ),
        )

    def precompose(self, s_left, s_right):
        """Normal form of ``(u,v) -> B(S_left u, S_right v)``: each term
        ``c d^alpha (x) d^beta`` becomes ``c (d^alpha o S_left) (x)
        (d^beta o S_right)``, read from the transports' jets."""
        for s in (s_left, s_right):
            _check_transport(self, s)
        pairs = []
        for (alpha, beta), c in self.coeffs.items():
            right = s_right.diff_multi(beta).coeffs.items()
            for gamma, left in s_left.diff_multi(alpha).coeffs.items():
                cl = c * left
                pairs += (((gamma, eps), cl * r) for eps, r in right)
        return BiDiffOp._trusted(self.space, pairs)

    def postcompose(self, s_out):
        """Normal form of ``(u,v) -> S_out(B(u, v))``:
        ``sum_delta s_delta (d^delta o B)``, read from this operator's jet."""
        _check_transport(self, s_out)
        return BiDiffOp._trusted(
            self.space,
            (
                (key, s * c)
                for delta, s in s_out.coeffs.items()
                for key, c in self.diff_multi(delta).coeffs.items()
            ),
        )

    def conjugate(self, s_out, s_left, s_right):
        """Normal form of ``(u,v) -> S_out(B(S_left u, S_right v))``; every
        transport is checked before any work."""
        _check_transport(self, s_out)
        return self.precompose(s_left, s_right).postcompose(s_out)

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
