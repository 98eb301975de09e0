"""Equivalence operators ``T = Id + sum_k nu^k T_k`` and what they carry.

Transport of star products, trace densities ``rho = T'(1)``, transported
nu-Euler derivations, and linear symplectic automorphism checks all live
here.  Every operator series ``sum_{i+j=k} A_i o B_j`` (inverse,
composition, both stages of the transport, the transported Euler
derivation) is one sum, :func:`_settled_series`: each order gathers the
product-kernel operands of its terms, read from the operators' jets
(``DiffOp._through``, ``BiDiffOp._before``), and is settled once, before
the next order is built, so every transported identity holds exactly
through the truncation order.  ``rho`` integrates by parts
(:func:`~startrace.gaussfn.adjoint_weights`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from startrace.diffop import BiDiffOp, DiffOp
from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    adjoint_weights,
    gauss_integrate_exact,
    gauss_pullback_linear,
)
from startrace.poly import _FIELD, Poly, _square_matrix
from startrace.star import EulerDerivation, StarProduct, _orders
from startrace.trace import TraceFunctional


class Equivalence:
    """Formal series ``Id + sum_{k>=1} nu^k T_k`` of differential operators."""

    __slots__ = ("space", "trunc_order", "ops")

    def __init__(self, space, trunc_order, ops):
        if trunc_order < 1:
            raise ValueError("truncation order must be at least 1")
        self.space = space
        self.trunc_order = trunc_order
        self.ops = _orders(space, ops, "operator", trunc_order)

    @classmethod
    def identity(cls, space, trunc_order):
        return cls(space, trunc_order, {})

    def series(self):
        out = {0: DiffOp.identity(self.space)}
        out.update(self.ops)
        return out

    def is_unital(self):
        """True iff every ``T_k`` kills constants, so ``T(1) = 1``: a packed
        key below the derivative fields is a multiplication term."""
        top = 1 << (_FIELD * self.space.dim)
        return all(min(op.nums) >= top for op in self.ops.values())

    def compose(self, other):
        """``self o other`` as an equivalence, truncated at the common order."""
        if self.space != other.space:
            raise ValueError("equivalences live on different phase spaces")
        trunc = min(self.trunc_order, other.trunc_order)
        terms = _cauchy((self.series(), other.series()))
        ops = _settled_series(DiffOp, self.space, range(1, trunc + 1), terms)
        return Equivalence(self.space, trunc, dict(ops))

    def __eq__(self, other):
        if not isinstance(other, Equivalence):
            return NotImplemented
        return (
            self.space == other.space
            and self.trunc_order == other.trunc_order
            and self.ops == other.ops
        )

    def __repr__(self):
        return f"Equivalence(K={self.trunc_order}, orders={sorted(self.ops)})"


def _settled_series(cls, space, orders, terms):
    """Yield ``(k, op)`` for each ``k`` of ``orders`` in turn, ``op`` the
    operator of class ``cls`` whose :func:`~startrace.poly._combine` operand
    lists ``terms(k)`` yields, settled once
    (:meth:`~startrace.diffop._Operator._settled`); zero orders are
    skipped.  Each order is settled, and its operands dropped, before the
    next one is built."""
    for k in orders:
        op = cls._settled(space, [x for operands in terms(k) for x in operands])
        if not op.is_zero():
            yield k, op


def _cauchy(*products):
    """The ``terms`` of :func:`_settled_series` for ``sum_{i+j=k} A_i o
    B_j`` summed over the pairs of series ``({i: A_i}, {j: B_j})`` in
    ``products``, each term read from the jet of ``B_j``
    (``DiffOp._through``)."""
    return lambda k: (
        a._through(right[k - i])
        for left, right in products
        for i, a in left.items()
        if k - i in right
    )


def equiv_invert(t):
    """Neumann-series inverse: ``S_k = -sum_{j=1}^{k} T_j o S_{k-j}``, one
    order at a time, from the jets of the lower ``S``."""
    space = t.space
    s = {0: DiffOp.identity(space)}
    for k, op in _settled_series(DiffOp, space, range(1, t.trunc_order + 1), _cauchy((t.ops, s))):
        s[k] = -op
    return Equivalence(space, t.trunc_order, {k: op for k, op in s.items() if k})


def _transport(space, trunc, base, fwd, inv):
    """``{m: C'_m}`` for ``m = 1..trunc``, the transport of the cochain
    series ``base`` by ``T`` (``fwd``) and ``T^{-1}`` (``inv``); order 0,
    where ``C_0`` transports to itself, is no cochain order and is left out.

    ``P_j = sum_{r+b+c=j} C_r o (T_b (x) T_c)``, then ``C'_m = sum_{a+j=m}
    S_a o P_j``, each order one :func:`_settled_series` sum over all of its
    terms: every ``S_a`` reads the one jet of each ``P_j``.
    """

    def stage(j):
        return (
            c_r._before(t_b, fwd[j - r - b])
            for r, c_r in base.items()
            for b, t_b in fwd.items()
            if j - r - b in fwd
        )

    orders = range(trunc + 1)
    inner = dict(_settled_series(BiDiffOp, space, orders, stage))
    return dict(_settled_series(BiDiffOp, space, orders[1:], _cauchy((inv, inner))))


def transport_star(t, s):
    """The star product ``u *' v = T^{-1}(Tu * Tv)``.

    Antisymmetrizing commutes with the transport, so the commutator
    cochains ``C'^-_m`` are the transport of ``s.minus`` alone: ``C_0^-`` is
    zero, and Moyal's ``C_r^-`` vanish at even ``r``.  The product is built
    from them, and its full cochains ``C'_m``, the transport of ``C_0`` and
    ``s.cochains`` by the same routine, are built when first read.

    Requires a unital ``T`` (every ``T_k(1) = 0``); otherwise the unit of
    the transported product would be ``T^{-1}(1)`` rather than 1, which
    the cochain representation cannot express.
    """
    if not isinstance(s, StarProduct):
        raise TypeError("transport_star expects a StarProduct")
    if t.space != s.space:
        raise ValueError("equivalence and star product live on different spaces")
    if t.trunc_order != s.trunc_order:
        raise ValueError("equivalence and star product must share a truncation order")
    if not t.is_unital():
        raise ValueError("transport requires T_k(1) = 0 for every k")
    space, trunc = s.space, s.trunc_order
    inv = equiv_invert(t).series()
    fwd = t.series()
    return StarProduct._from_minus(
        space,
        trunc,
        _transport(space, trunc, s.minus, fwd, inv),
        lambda: _transport(space, trunc, {0: s.cochain(0), **s.cochains}, fwd, inv),
    )


def density_from_equivalence(t):
    """Standard trace with density ``rho = T'(1) = 1 + sum nu^k T_k*(1)``,
    read from :func:`~startrace.gaussfn.adjoint_weights`."""
    one = Poly.constant(t.space, 1)
    shapes = adjoint_weights(t.space, t.ops, {0: one}, t.trunc_order)
    return TraceFunctional(t.space, FormalScalar({0: one, **shapes}, t.trunc_order))


def transport_euler(t, d):
    """``T^{-1} o D o T`` decomposed back into nu-Euler form.

    ``nu d/dnu`` differentiates T's own coefficients, contributing
    ``T^{-1} o (sum_k k nu^k T_k)`` on top of the conjugated
    ``X + sum nu^r D'_r`` part; the order-0 piece stays ``X``.
    """
    if t.space != d.space:
        raise ValueError("equivalence and derivation live on different spaces")
    space, orders = t.space, range(t.trunc_order + 1)
    inv, fwd = equiv_invert(t).series(), t.series()
    terms = _cauchy((inv, {0: d.x, **d.corrections}))
    conj = dict(_settled_series(DiffOp, space, orders, terms))
    tdot = {k: k * op for k, op in t.ops.items()}
    total = dict(_settled_series(DiffOp, space, orders, _cauchy((conj, fwd), (inv, tdot))))
    x_new = total.pop(0, DiffOp.zero(space))
    return EulerDerivation(space, x_new, total)


def random_equivalence(space, trunc_order, seed):
    """Reproducible unital equivalence with small random ``T_k``.

    Each ``T_k`` has derivative order 1..2 and polynomial coefficients of
    degree <= 2; no multiplication part, so
    ``T(1) = 1`` and transported products keep the unit.
    """
    rng = random.Random(seed)
    ops = {}
    for k in range(1, trunc_order + 1):
        pairs = []
        for _ in range(rng.randint(1, 2)):
            alpha = [0] * space.dim
            for _ in range(rng.randint(1, 2)):
                alpha[rng.randrange(space.dim)] += 1
            exps = [0] * space.dim
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(space.dim)] += 1
            c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
            pairs.append((tuple(alpha), Poly.monomial(space, exps, c)))
        op = DiffOp(space, pairs)
        if not op.is_zero():
            ops[k] = op
    return Equivalence(space, trunc_order, ops)


def symplectic_form_matrix(space):
    """Matrix of Omega in the (q_1..q_n, p_1..p_n) ordering."""
    n = space.n
    j = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for i in range(n):
        j[i][n + i] = Fraction(1)
        j[n + i][i] = Fraction(-1)
    return j


def is_symplectic(space, m):
    """True iff ``m^T J m = J`` for ``J = symplectic_form_matrix(space)``.

    The denominators clear once: with ``L`` their lcm and ``a = L m`` in
    ints, ``J`` having one nonzero per row gives ``L^2 (m^T J m)_xy =
    sum_i a_{i,x} a_{n+i,y} - a_{n+i,x} a_{i,y}``.  ``m^T J m`` is
    antisymmetric, so the entries above the diagonal decide.  Raises
    ``ValueError`` unless ``m`` is ``dim x dim``.
    """
    rows = _square_matrix(space, m)
    scale = lcm(*(v.denominator for row in rows for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    n, unit = space.n, scale * scale
    top, bottom = a[:n], a[n:]
    return all(
        sum(t[x] * u[y] - u[x] * t[y] for t, u in zip(top, bottom))
        == (unit if y == x + n else 0)
        for x in range(space.dim)
        for y in range(x + 1, space.dim)
    )


def symplectic_automorphism_check(m, u):
    """Residual ``tau_M(u o m) - tau_M(u)`` at the leading trace order.

    The residual is the exact integral of ``u o m - u``, an
    :class:`~startrace.gaussfn.IntegralValue`, so invariance shows as the
    literal zero value.  Test it with ``.is_zero()`` or against
    ``IntegralValue.zero()``, since an IntegralValue never equals an int
    (``== 0`` is False even for an invariant map) and ``<`` raises
    ``TypeError``.  Raises on non-symplectic input.
    """
    if not isinstance(u, GaussFn):
        raise TypeError("symplectic_automorphism_check expects a GaussFn")
    if not is_symplectic(u.space, m):
        raise ValueError("matrix is not symplectic for the fixed form")
    return gauss_integrate_exact(gauss_pullback_linear(u, m) - u)
