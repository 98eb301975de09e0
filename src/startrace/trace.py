"""Trace functionals for star products, given by densities.

A :class:`TraceFunctional` represents

    tau(u) = nu^-n * integral of u(x) rho(x; nu) dV,   dV = Omega^n / n!,

where ``rho`` is a formal series with polynomial coefficients.  The
prefactor is always ``nu^-n``: a factor ``nu^m`` of the functional lives in
the density, whose series may start at any order.  On the flat chart
``Omega^n/n!`` is exactly the Lebesgue measure, so every evaluation is an
exact Gaussian integral.  The order-k functionals ``tau_k(u) = integral of
u rho_k dV`` drive the order-by-order trace conditions.

Gaussians leave no boundary terms, so every functional integrates by
parts on the moment tables of :mod:`startrace.gaussfn` and builds no
product of its operands: :func:`trace_eval` and
:func:`normalization_residual` integrate each term of ``u`` against the
weights ``sum_{r+j=m} D'_r^*(rho_j)`` of
:func:`~startrace.gaussfn.adjoint_weights`, with no product ``u rho`` and
no ``D'_r u``, and :func:`trace_residual` (and with it
:func:`trk_residual`) integrates ``u L_m(v)`` for the operators ``L_m`` of
:func:`operator_trace_residual`, which transpose the commutator cochains
against the density (:meth:`~startrace.diffop.BiDiffOp.transpose`) once
per product, memoized for all pairs, with no commutator ``C_r^-(u, v)``,
and read ``L_m(v)`` through :meth:`~startrace.diffop.DiffOp._through`.
Every input takes that one path; an operand that is not a GaussFn raises
``TypeError``, and a term with no exact integral raises as
:func:`~startrace.gaussfn.gauss_integrate_exact` does.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    IntegralValue,
    adjoint_weights,
    gauss_pair_integrals,
    gauss_weight_integrals,
)
from startrace.poly import Poly


class InconsistentTracesError(ValueError):
    """Two functionals fail to be proportional on the probe battery."""


class TraceFunctional:
    """Density-defined linear functional ``nu^-n * integral(u rho dV)``."""

    __slots__ = ("space", "density")

    def __init__(self, space, density):
        if not isinstance(density, FormalScalar):
            raise TypeError("density must be a FormalScalar over Poly coefficients")
        for c in density.coeffs.values():
            if not isinstance(c, Poly):
                raise TypeError("density coefficients must be polynomials")
            if c.space != space:
                raise ValueError("density lives on the wrong phase space")
        self.space = space
        self.density = density

    def is_standard(self):
        return self.density.get(0) == Poly.constant(self.space, 1) and (
            self.density.min_degree in (0, None)
        )

    def scale_by_series(self, c):
        """The functional ``u -> c(nu) * tau(u)`` for rational-coefficient c."""
        as_poly = FormalScalar(
            {k: Poly.constant(self.space, v) for k, v in c.coeffs.items()},
            c.trunc_order,
        )
        return TraceFunctional(self.space, self.density * as_poly)

    def __eq__(self, other):
        if not isinstance(other, TraceFunctional):
            return NotImplemented
        return self.space == other.space and self.density == other.density

    def __repr__(self):
        return f"TraceFunctional(nu^{-self.space.n} * int(u * ({self.density})))"


def moyal_trace(space, trunc_order):
    """The standard trace, with density 1."""
    rho = FormalScalar.constant(Poly.constant(space, 1), trunc_order)
    return TraceFunctional(space, rho)


def _low(f):
    """The lowest degree of the series ``f``, and 0 for the zero series."""
    return min(f.coeffs, default=0)


def trace_eval(t, u):
    """Evaluate the trace coefficientwise; exact at every order.

    ``u`` is a GaussFn or a series of them.  Returns a FormalScalar over
    :class:`IntegralValue` in the window of the product ``u * rho`` of
    FormalScalars, with a GaussFn read as the constant series at the
    density's order and a zero series read as starting at ``nu^0``: up to
    ``min(K_u + m_rho, K_rho + m_u)``, shifted by ``-n``.
    Each coefficient of ``u`` is integrated against every ``rho_j`` on its
    moment rows (:func:`~startrace.gaussfn.gauss_weight_integrals`), with
    no product built; raises ``NonIntegrableError`` if a term fails to
    decay.
    """
    rho = t.density
    if isinstance(u, FormalScalar):
        terms, top = u.coeffs.items(), min(u.trunc_order + _low(rho), rho.trunc_order + _low(u))
    else:
        terms, top = [(0, u)], rho.trunc_order + min(_low(rho), 0)
    return FormalScalar(
        (
            (i + m, val)
            for i, c in terms
            for m, val in gauss_weight_integrals(
                c, {j: w for j, w in rho.coeffs.items() if j <= top - i}
            ).items()
        ),
        top,
    ).shift(-t.space.n)


def _pair_window(t, s):
    """``min(K + m_rho, K_rho + 1)``: the last order ``m`` at which every
    ``(C_r^-)^t_{rho_j}`` with ``r + j = m`` is known, because ``C_0^-`` is
    zero and ``C_r^-`` is known for ``r <= K``."""
    return min(s.trunc_order + _low(t.density), t.density.trunc_order + 1)


def operator_trace_residual(t, s):
    """``{m: L_m}`` up to the window ``min(K + m_rho, K_rho + 1)`` of the
    product's order ``K`` and the density's lowest and last orders, with the
    operator ``L_m = sum_{r+j=m} (C_r^-)^t_{rho_j}`` kept where it is nonzero.

    Integration by parts (:meth:`~startrace.diffop.BiDiffOp.transpose`)
    gives ``integral of rho_j C_r^-(u, v) = integral of u
    (C_r^-)^t_{rho_j}(v)`` for every pair that leaves no boundary terms, so
    order ``m - n`` of ``tau(u*v) - tau(v*u)`` is ``integral of u L_m(v)``
    and ``rho`` is a trace density through that window exactly when the
    result is empty.  Each cached ``C_r^-`` is transposed once per ``rho_j``:
    the read-only mapping is memoized in ``s.residuals`` under the density,
    so every later call with an equal density, from any pair, returns it.
    """
    ops = s.residuals.get(t.density)
    if ops is None:
        top = _pair_window(t, s)
        pairs = [
            (r + j, minus.transpose(w))
            for r, minus in s.minus.items()
            for j, w in t.density.coeffs.items()
            if r + j <= top
        ]
        ops = s.residuals[t.density] = MappingProxyType(FormalScalar(pairs, top).coeffs)
    return ops


def trace_residual(t, s, u, v):
    """``tau(u*v) - tau(v*u)``; identically zero iff tau is a trace on the pair.

    The order-m coefficient is ``sum_{r+j=m} integral of rho_j C_r^-(u, v)``,
    which is ``integral of u L_m(v)`` for the operators ``L_m`` of
    :func:`operator_trace_residual`, built once per product and density,
    integrated on moment rows
    (:func:`~startrace.gaussfn.gauss_pair_integrals`) with no commutator
    built.  The window is that of :func:`operator_trace_residual`, ``min(K
    + m_rho, K_rho + 1)``, shifted by ``-n``, for every pair, zero operands
    included.
    """
    vals = gauss_pair_integrals(u, v, operator_trace_residual(t, s))
    return FormalScalar(vals, _pair_window(t, s)).shift(-t.space.n)


def trk_residual(t, s, u, v):
    """Order-k trace conditions ``sum_{r=1}^{k+1} tau_{k+1-r}(C_r^-(u, v))``
    for ``k = 0..K-1``, as a list indexed by k.

    These are the ``nu^{k+1-n}`` coefficients of :func:`trace_residual`,
    because the commutator expands into the ``C_r^-``; one evaluation,
    against the operators ``L_m`` of :func:`operator_trace_residual`, which
    each product builds once per density, gives every order.
    """
    res = trace_residual(t, s, u, v)
    n = t.space.n
    return [res.get(k + 1 - n) or IntegralValue.zero() for k in range(res.trunc_order + n)]


def standardize(t):
    """Standard representative: density ``1 + O(nu)``.

    Divides out the leading scalar ``a`` and shifts the monomial
    ``nu^{m}``; idempotent.  The discarded factor is ``a nu^m``.
    """
    rho = t.density
    if rho.is_zero():
        raise ValueError("cannot standardize the zero functional")
    m = rho.min_degree
    lead = rho.get(m)
    a = lead.constant_term()
    if lead != Poly.constant(t.space, a) or not a:
        raise ValueError("leading density coefficient is not a nonzero scalar")
    density = rho.shift(-m).scale(Fraction(1) / a)
    return TraceFunctional(t.space, density)


def default_probe_battery(space):
    """Eight deterministic integrable probes spanning widths, moments,
    shifts and mixed-width sums."""
    one = Poly.constant(space, 1)
    q1 = Poly.variable(space, "q1")
    p1 = Poly.variable(space, "p1")
    r_sq = Poly.sum(space, (Poly.variable(space, name) ** 2 for name in space.variables))
    shift_b = [Fraction(0)] * space.dim
    shift_b[0] = Fraction(1)
    return [
        GaussFn.gaussian(space, 1),
        GaussFn.gaussian(space, 2),
        GaussFn.gaussian(space, Fraction(1, 2)),
        (q1 * q1) * GaussFn.gaussian(space, 1),
        (q1 * p1) * GaussFn.gaussian(space, 1),
        r_sq * GaussFn.gaussian(space, 2),
        GaussFn.gaussian(space, 1, b=shift_b, c=Fraction(-1, 2)),
        GaussFn.gaussian(space, 1) + GaussFn.gaussian(space, 3) * Fraction(1, 2),
    ]


def _try_rational_series(c):
    """Convert an IntegralValue-coefficient series to Fractions when possible."""
    out = {}
    for k, v in c.coeffs.items():
        if v.pi_power != 0 or set(v.terms) != {Fraction(0)}:
            return c
        out[k] = v.terms[Fraction(0)]
    return FormalScalar(out, c.trunc_order)


def proportionality_factor(t1, t2, probe):
    """Solve ``trace_eval(t2, .) = c(nu) * trace_eval(t1, .)`` for ``c``.

    ``c`` is computed order by order from ``probe`` (whose leading value
    must be a single exponential term, hence invertible) and then verified
    against every probe of :func:`default_probe_battery`; disagreement raises
    :class:`InconsistentTracesError`.  Returns rational coefficients when
    the ratio is rational.
    """
    s1 = trace_eval(t1, probe)
    s2 = trace_eval(t2, probe)
    if s1.is_zero():
        raise ValueError("probe evaluates to zero under the reference functional")
    factor = s2.divide(s1)
    for idx, fn in enumerate(default_probe_battery(t1.space)):
        lhs = trace_eval(t2, fn)
        rhs = factor * trace_eval(t1, fn)
        trunc = min(lhs.trunc_order, rhs.trunc_order)
        if lhs.truncate(trunc) != rhs.truncate(trunc):
            raise InconsistentTracesError(
                f"probe {idx} breaks proportionality: {lhs} != {rhs}"
            )
    return _try_rational_series(factor)


def normalization_residual(t, d, u):
    """``tau(D u) - nu d/dnu tau(u)``; zero iff tau is normalized for D on u.

    ``u`` is a GaussFn.  The order-m coefficient ``sum_{r+j=m} integral of
    rho_j D'_r u - (m-n) integral of rho_m u`` (``D'_0 = X``) is ``integral
    of W_m u`` for the one weight ``W_m = sum_{r+j=m} D'_r^*(rho_j) - (m-n)
    rho_m`` (:func:`~startrace.gaussfn.adjoint_weights`), so each term of
    ``u`` is integrated once, on its moment rows, with no derivative of
    ``u`` taken, in the window of :func:`trace_eval`.
    """
    rho = t.density
    trunc = rho.trunc_order + min(_low(rho), 0)
    n = t.space.n
    weights = adjoint_weights(t.space, {0: d.x, **d.corrections}, rho.coeffs, trunc)
    for m, w in rho.coeffs.items():
        if m <= trunc:
            weights[m] = weights.get(m, Poly.zero(t.space)) - w * (m - n)
    return FormalScalar(
        ((m - n, val) for m, val in gauss_weight_integrals(u, weights).items()), trunc - n
    )
