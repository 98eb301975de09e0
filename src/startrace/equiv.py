"""Equivalence operators ``T = Id + sum_k nu^k T_k`` and what they carry.

Transport of star products, formal adjoints, trace densities
``rho = T'(1)``, transported nu-Euler derivations, and linear symplectic
automorphism checks all live here.  Operator series are composed order by
order, so every transported identity holds exactly through the truncation
order.  Compositions and the transport read the operators' one jet helper
(:meth:`~startrace.diffop.DiffOp._through`); :func:`equiv_adjoint`
transposes (:meth:`~startrace.diffop.BiDiffOp.transpose`), and ``rho``
integrates by parts (:func:`~startrace.gaussfn.adjoint_weights`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm

from startrace.diffop import BiDiffOp, DiffOp
from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    adjoint_weights,
    gauss_integrate_exact,
    gauss_pullback_linear,
)
from startrace.poly import Poly, _square_matrix
from startrace.star import EulerDerivation, StarProduct, _apply_series, _coerce_formal, _orders
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
        """True iff every ``T_k`` kills constants, so ``T(1) = 1``."""
        zero_alpha = (0,) * self.space.dim
        return all(zero_alpha not in op.coeffs for op in self.ops.values())

    def apply(self, w):
        """Apply to a formal function (or a plain Poly/GaussFn, coerced)."""
        w = _coerce_formal(w, self.trunc_order)
        return w + _apply_series(self.ops, w)

    def compose(self, other):
        """``self o other`` as an equivalence, truncated at the common order."""
        if self.space != other.space:
            raise ValueError("equivalences live on different phase spaces")
        trunc = min(self.trunc_order, other.trunc_order)
        combined = _series_compose(self.series(), other.series(), trunc)
        combined.pop(0, None)
        return Equivalence(self.space, trunc, combined)

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


def _compose_pairs(a, b, trunc_order):
    """``(i + j, a_i o b_j)`` for operator series ``{k: DiffOp}``, through
    ``trunc_order``."""
    return (
        (i + j, ai.compose(bj))
        for i, ai in a.items()
        for j, bj in b.items()
        if i + j <= trunc_order
    )


def _series_compose(a, b, trunc_order):
    """``{k: sum_{i+j=k} a_i o b_j}`` with zero orders dropped; the series
    constructor merges each order once."""
    return FormalScalar(_compose_pairs(a, b, trunc_order), trunc_order).coeffs


def equiv_invert(t):
    """Neumann-series inverse: ``S_k = -sum_{j=1}^{k} T_j o S_{k-j}``."""
    space = t.space
    s = {0: DiffOp.identity(space)}
    for k in range(1, t.trunc_order + 1):
        acc = DiffOp.sum(space, (tj.compose(s[k - j]) for j, tj in t.ops.items() if k - j in s))
        if not acc.is_zero():
            s[k] = -acc
    return Equivalence(space, t.trunc_order, {k: op for k, op in s.items() if k})


def equiv_adjoint(t):
    """Termwise formal adjoint ``T' = Id + sum nu^k T_k*``."""
    return Equivalence(
        t.space, t.trunc_order, {k: op.adjoint() for k, op in t.ops.items()}
    )


def _transport(space, trunc, base, fwd, inv):
    """``{m: C'_m}`` for ``m = 1..trunc``, the transport of the cochain
    series ``base`` by ``T`` (``fwd``) and ``T^{-1}`` (``inv``).

    ``P_j = sum_{r+b+c=j} C_r o (T_b (x) T_c)``, from the lowest order of
    ``base`` up (below it ``P_j`` is zero), then ``C'_m = sum_{a+j=m} S_a o
    P_j``, each as one sum over all of its terms, settled once: every
    ``S_a`` reads the one jet of each ``P_j``.
    """
    inner = {
        j: BiDiffOp._settled(
            space,
            [
                term
                for r, c_r in base.items()
                for b, t_b in fwd.items()
                if j - r - b in fwd
                for term in c_r._before(t_b, fwd[j - r - b])
            ],
        )
        for j in range(min(base), trunc + 1)
    }
    return {
        m: BiDiffOp._settled(
            space,
            [op for a, s_a in inv.items() if m - a in inner for op in s_a._through(inner[m - a])],
        )
        for m in range(1, trunc + 1)
    }


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
    trunc = t.trunc_order
    inv = equiv_invert(t).series()
    conj = _series_compose(inv, {0: d.x, **d.corrections}, trunc)
    tdot = {k: k * op for k, op in t.ops.items()}
    pairs = chain(_compose_pairs(conj, t.series(), trunc), _compose_pairs(inv, tdot, trunc))
    total = FormalScalar(pairs, trunc).coeffs
    x_new = total.pop(0, DiffOp.zero(t.space))
    return EulerDerivation(t.space, x_new, total)


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
