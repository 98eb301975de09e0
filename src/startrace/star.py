"""Star products as truncated cochain sequences, plus nu-Euler derivations.

A :class:`StarProduct` stores bidifferential cochains ``C_1..C_K`` for

    u * v = u v + sum_{r>=1} nu^r C_r(u, v),

with ``C_0`` the pointwise product.  The Moyal product is built from the
bidifferential Poisson symbol ``P = sum_i (dp_i (x) dq_i - dq_i (x) dp_i)``
as ``C_k = P^k / (2^k k!)``, so ``C_1 = (1/2){.,.}`` and the antisymmetric
part ``C_1^-(u,v) = C_1(u,v) - C_1(v,u)`` is exactly the Poisson bracket.

An :class:`EulerDerivation` is ``D = nu d/dnu + X + sum_r nu^r D'_r`` with
``X`` a conformal vector field (``L_X Omega = Omega``); the conformality
check is exact on the 2-form level.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf

from startrace.diffop import BiDiffOp, DiffOp
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn, IntegralValue, gauss_pair_integrals
from startrace.poly import Poly, _combine
from startrace.trace import moyal_trace, operator_trace_residual


def _orders(space, ops, what, top=inf):
    """The nonzero operators of an ``{order: op}`` series: raises
    ``ValueError`` unless every order lies in ``1..top`` and every operator
    lives on ``space``.  ``what`` names the operators in the messages."""
    clean = {}
    for k, op in ops.items():
        if not 1 <= k <= top:
            raise ValueError(f"{what} order {k} outside 1..{top}")
        if op.space != space:
            raise ValueError(f"{what} lives on the wrong phase space")
        if not op.is_zero():
            clean[k] = op
    return clean


def poisson_cochain(space):
    """The Poisson bracket as a bidifferential operator."""
    one = Poly.constant(space, 1)
    coeffs = {}
    n = space.n
    for i in range(n):
        e_q = tuple(1 if a == i else 0 for a in range(space.dim))
        e_p = tuple(1 if a == n + i else 0 for a in range(space.dim))
        coeffs[(e_p, e_q)] = one
        coeffs[(e_q, e_p)] = -one
    return BiDiffOp(space, coeffs)


class StarProduct:
    """Truncated star product on a phase space.

    ``cochains`` maps orders ``1..trunc_order`` to :class:`BiDiffOp`;
    missing orders mean a zero cochain.  ``minus`` holds the nonzero
    antisymmetric parts ``C_r^-`` under the same keys, so commutators,
    trace conditions and closedness integrals build each of them once, and
    ``residuals`` maps each density met so far to its operators
    :func:`~startrace.trace.operator_trace_residual`.  Construction verifies
    that ``C_1^-`` is the Poisson cochain, so every instance is a
    deformation of the Poisson bracket in the fixed sign convention.

    The public constructor takes the cochains and antisymmetrizes them.  A
    product from :func:`~startrace.equiv.transport_star` is built from its
    ``minus`` alone, with a routine that builds its cochains, which runs
    the first time ``cochains`` (or ``cochain(r)``, ``==``) is read.
    """

    __slots__ = ("space", "trunc_order", "minus", "residuals", "_cochains", "_build")

    def __init__(self, space, trunc_order, cochains):
        if trunc_order < 1:
            raise ValueError("truncation order must be at least 1")
        clean = _orders(space, cochains, "cochain", trunc_order)
        minus = {r: op.antisym() for r, op in clean.items()}
        self._start(space, trunc_order, minus, clean, None)

    @classmethod
    def _from_minus(cls, space, trunc_order, minus, build):
        """The product whose antisymmetric parts are ``minus`` and whose
        cochains ``build()`` returns, as the public constructor takes them,
        when they are first read."""
        product = cls.__new__(cls)
        product._start(space, trunc_order, minus, None, build)
        return product

    def _start(self, space, trunc_order, minus, cochains, build):
        """Drop the zero ``C_r^-``, check ``C_1^-`` and fill the slots."""
        minus = {r: op for r, op in minus.items() if not op.is_zero()}
        if minus.get(1) != poisson_cochain(space):
            raise ValueError("first cochain does not antisymmetrize to the Poisson bracket")
        self.space = space
        self.trunc_order = trunc_order
        self.minus = minus
        self.residuals = {}
        self._cochains = cochains
        self._build = build

    @property
    def cochains(self):
        if self._cochains is None:
            self._cochains = _orders(self.space, self._build(), "cochain", self.trunc_order)
            self._build = None
        return self._cochains

    def cochain(self, r):
        if r == 0:
            return BiDiffOp.product_cochain(self.space)
        if not 1 <= r <= self.trunc_order:
            raise ValueError(f"cochain order {r} outside 0..{self.trunc_order}")
        return self.cochains.get(r, BiDiffOp.zero(self.space))

    def __eq__(self, other):
        if not isinstance(other, StarProduct):
            return NotImplemented
        return (
            self.space == other.space
            and self.trunc_order == other.trunc_order
            and self.minus == other.minus
            and self.cochains == other.cochains
        )

    def __repr__(self):
        n, k = self.space.n, self.trunc_order
        return f"StarProduct(n={n}, K={k}, minus orders={sorted(self.minus)})"


def moyal_construct(space, trunc_order):
    """Moyal star product truncated at ``trunc_order``."""
    if trunc_order < 1:
        raise ValueError("truncation order must be at least 1")
    symbol = [(None, poisson_cochain(space).nums, 1)]  # coefficients +-1
    cochains = {}
    power = {0: 1}
    for k in range(1, trunc_order + 1):
        # P^k: the symbols of constant-coefficient operators multiply, so
        # their keys add
        power = _combine([({None: power}, 1, symbol)])[0][None]
        cochains[k] = BiDiffOp._checked(space, power, 2**k * factorial(k))
    return StarProduct(space, trunc_order, cochains)


def star_multiply(s, u, v):
    """``u * v`` under ``s``, Cauchy-combined and truncated.

    A Poly or GaussFn operand is the constant series at ``s``'s order.  The
    window of the result accounts both for the operands' truncations and
    for cochains being known only up to ``s.trunc_order``.
    """
    for w in (u, v):
        if not isinstance(w, (FormalScalar, Poly, GaussFn)):
            raise TypeError(f"cannot interpret {type(w).__name__} as a formal function")
    u, v = (
        w if isinstance(w, FormalScalar) else FormalScalar.constant(w, s.trunc_order)
        for w in (u, v)
    )
    if u.is_zero() or v.is_zero():
        return FormalScalar.zero(min(u.trunc_order, v.trunc_order))
    mu, mv = u.min_degree, v.min_degree
    trunc = min(
        u.trunc_order + mv,
        v.trunc_order + mu,
        s.trunc_order + mu + mv,
    )
    return FormalScalar(
        (
            (r + i + j, cochain.apply(ci, cj))
            for r, cochain in {0: s.cochain(0), **s.cochains}.items()
            for i, ci in u.coeffs.items()
            for j, cj in v.coeffs.items()
            if r + i + j <= trunc
        ),
        trunc,
    )


def closedness_integral(s, r, u, v):
    """``integral of C_r^-(u, v)`` over R^{2n} with the Liouville volume.

    ``Omega^n/n!`` is the Lebesgue measure of the chart, so this is an
    exact Gaussian integral.  Vanishes for all r iff ``s`` is strongly
    closed on the tested pairs.  ``C_r^-`` comes from the cache
    ``s.minus``; orders outside ``0..trunc_order`` raise ``ValueError``,
    and ``C_0^-`` is zero.  For a nonzero ``C_r^-`` it is ``integral of u
    L_r(v)`` (:func:`~startrace.gaussfn.gauss_pair_integrals`) for the
    transpose ``L_r = (C_r^-)^t_1``, with no ``C_r^-(u, v)`` built, for every
    pair of GaussFns, zero ones included: ``L_r`` is order ``r`` of
    :func:`~startrace.trace.operator_trace_residual` for density 1, which
    ``s`` builds once for every pair and order, and which the Moyal trace
    at ``s``'s order shares.
    """
    if not isinstance(u, GaussFn) or not isinstance(v, GaussFn):
        raise TypeError("closedness_integral expects GaussFn operands")
    if not 0 <= r <= s.trunc_order:
        raise ValueError(f"cochain order {r} outside 0..{s.trunc_order}")
    if r not in s.minus:
        return IntegralValue.zero()
    ops = operator_trace_residual(moyal_trace(s.space, s.trunc_order), s)
    vals = gauss_pair_integrals(u, v, {r: ops[r]} if r in ops else {})
    return vals.get(r, IntegralValue.zero())


class EulerDerivation:
    """``D = nu d/dnu + X + sum_{r>=1} nu^r D'_r`` with conformal ``X``.

    ``X`` must be a pure vector field (first order, no multiplication
    part) satisfying ``L_X Omega = Omega`` exactly; this pins the
    normalization that makes nu-homogeneity arguments work.
    """

    __slots__ = ("space", "x", "corrections")

    def __init__(self, space, x, corrections=None):
        if x.space != space:
            raise ValueError("vector field lives on the wrong phase space")
        defect = conformality_defect(x)
        if any(not p.is_zero() for p in defect.values()):
            raise ValueError("X does not satisfy L_X Omega = Omega")
        self.space = space
        self.x = x
        self.corrections = _orders(space, corrections or {}, "correction")

    def __eq__(self, other):
        if not isinstance(other, EulerDerivation):
            return NotImplemented
        return (
            self.space == other.space
            and self.x == other.x
            and self.corrections == other.corrections
        )

    def __repr__(self):
        return (
            f"EulerDerivation(X={self.x}, corrections at {sorted(self.corrections)})"
        )


def vector_field_components(x):
    """Split a first-order DiffOp with no multiplication part into components."""
    space = x.space
    comps = [Poly.zero(space) for _ in range(space.dim)]
    for alpha, poly in x.coeffs.items():
        if sum(alpha) != 1:
            raise ValueError("X must be a vector field (pure first order)")
        comps[alpha.index(1)] = poly
    return comps


def conformality_defect(x):
    """Coefficients of ``L_X Omega - Omega`` as a 2-form, keyed (a, b), a < b.

    ``L_X Omega = d(i_X Omega)`` since ``Omega`` is closed; everything is
    polynomial so the defect is computed exactly.  With
    ``i_X Omega = sum_a theta_a dx_a`` the ``(a, b)`` coefficient is
    ``d_a theta_b - d_b theta_a`` minus that of ``Omega = sum_i dq_i dp_i``.
    """
    space = x.space
    n = space.n
    comps = vector_field_components(x)
    theta = [-comps[n + i] for i in range(n)] + comps[:n]
    defect = {}
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            form = theta[b].diff(a) - theta[a].diff(b)
            if b == a + n:
                form = form - Poly.constant(space, 1)
            if not form.is_zero():
                defect[(a, b)] = form
    return defect


def canonical_euler(space):
    """The minimal nu-Euler derivation with ``X = (1/2) sum (q dq + p dp)``."""
    units = [tuple(int(i == a) for i in range(space.dim)) for a in range(space.dim)]
    x = DiffOp(space, ((e, Poly.monomial(space, e, Fraction(1, 2))) for e in units))
    return EulerDerivation(space, x)
