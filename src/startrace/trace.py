"""Trace functionals for star products, given by densities.

A :class:`TraceFunctional` represents

    tau(u) = nu^e * integral of u(x) rho(x; nu) dV,   dV = Omega^n / n!,

where ``rho`` is a formal series with polynomial coefficients and ``e`` is
the prefactor exponent (``-n`` in standard form).  On the flat chart
``Omega^n/n!`` is exactly the Lebesgue measure, so every evaluation is an
exact Gaussian integral.  The order-k functionals ``tau_k(u) = integral of
u rho_k dV`` drive the order-by-order trace conditions.

Gaussians leave no boundary terms, so :func:`trace_eval` and
:func:`normalization_residual` integrate by parts on moment rows (see
:mod:`startrace.gaussfn`) and build no product ``u rho`` and no ``D'_r
u``; :func:`trace_residual` (and with it :func:`trk_residual`) integrates
``u L_m(v)`` for the operators ``L_m`` of :func:`operator_trace_residual`,
which transpose the commutator cochains against the density once for
all pairs, and builds no commutator ``C_r^-(u, v)``.  They give the
same exact values as building each integrand first, which
``_trace_eval_by_products``, ``_trace_residual_by_commutator`` and
``_normalization_residual_by_derivatives`` still do: for operands with a
cross term in the exponent, pairs of several terms, an irrational
``sqrt(prod_i w_i)``, and densities that do not start at ``nu^0`` (or,
for pairs, stop below the product's order).  The tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from startrace.diffop import DiffOp
from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    IntegralValue,
    gauss_integrate_exact,
    gauss_operator_integrals,
    gauss_pair_integrals,
)
from startrace.poly import Poly
from startrace.star import star_commutator


class InconsistentTracesError(ValueError):
    """Two functionals fail to be proportional on the probe battery."""


class TraceFunctional:
    """Density-defined linear functional ``nu^e * integral(u rho dV)``."""

    __slots__ = ("space", "density", "prefactor_exponent")

    def __init__(self, space, density, prefactor_exponent):
        if not isinstance(density, FormalScalar):
            raise TypeError("density must be a FormalScalar over Poly coefficients")
        for c in density.coeffs.values():
            if not isinstance(c, Poly):
                raise TypeError("density coefficients must be polynomials")
            if c.space != space:
                raise ValueError("density lives on the wrong phase space")
        self.space = space
        self.density = density
        self.prefactor_exponent = prefactor_exponent

    def is_standard(self):
        return (
            self.prefactor_exponent == -self.space.n
            and self.density.get(0) == Poly.constant(self.space, 1)
            and (self.density.min_degree in (0, None))
        )

    def scale_by_series(self, c):
        """The functional ``u -> c(nu) * tau(u)`` for rational-coefficient c."""
        as_poly = FormalScalar(
            {k: Poly.constant(self.space, v) for k, v in c.coeffs.items()},
            c.trunc_order,
        )
        return TraceFunctional(self.space, self.density * as_poly, self.prefactor_exponent)

    def __eq__(self, other):
        if not isinstance(other, TraceFunctional):
            return NotImplemented
        return (
            self.space == other.space
            and self.density == other.density
            and self.prefactor_exponent == other.prefactor_exponent
        )

    def __repr__(self):
        return (
            f"TraceFunctional(nu^{self.prefactor_exponent} * int(u * ({self.density})))"
        )


def moyal_trace(space, trunc_order):
    """The standard trace with density 1 and prefactor ``nu^-n``."""
    rho = FormalScalar.constant(Poly.constant(space, 1), trunc_order)
    return TraceFunctional(space, rho, -space.n)


def _coerce_gauss_formal(space, u, trunc_order):
    if isinstance(u, FormalScalar):
        return u
    if isinstance(u, GaussFn):
        return FormalScalar.constant(u, trunc_order)
    if isinstance(u, Poly):
        return FormalScalar.constant(GaussFn.from_poly(u), trunc_order)
    raise TypeError(f"cannot interpret {type(u).__name__} as an integrand series")


def trace_eval(t, u):
    """Evaluate the trace coefficientwise; exact at every order.

    Returns a FormalScalar over :class:`IntegralValue`.  Raises
    ``NonIntegrableError`` if any order of ``u * rho`` fails to decay.

    A GaussFn whose exponents have no cross term, under a density that
    starts at ``nu^0``, is integrated against each ``rho_j`` on its moment
    rows (:func:`~startrace.gaussfn.gauss_operator_integrals`), with no
    product built; any other input takes :func:`_trace_eval_by_products`.
    """
    rho = t.density
    if rho.min_degree == 0:
        one = {0: DiffOp.identity(t.space)}
        vals = gauss_operator_integrals(u, one, rho.coeffs, rho.trunc_order)
        if vals is not None:
            return FormalScalar(vals, rho.trunc_order).shift(t.prefactor_exponent)
    return _trace_eval_by_products(t, u)


def _trace_eval_by_products(t, u):
    """:func:`trace_eval` by building ``u * rho`` and integrating each order:
    the path of every input the moment rows do not take, and their oracle."""
    u = _coerce_gauss_formal(t.space, u, t.density.trunc_order)
    rho = FormalScalar(
        {k: GaussFn.from_poly(c) for k, c in t.density.coeffs.items()},
        t.density.trunc_order,
    )
    prod = u * rho
    vals = {}
    for m, g in prod.coeffs.items():
        val = gauss_integrate_exact(g)
        if not val.is_zero():
            vals[m] = val
    return FormalScalar(vals, prod.trunc_order).shift(t.prefactor_exponent)


def operator_trace_residual(t, s):
    """``{m: L_m}`` for ``m <= K``, the product's order, with the operator
    ``L_m = sum_{r+j=m} (C_r^-)^t_{rho_j}`` kept where it is nonzero.

    Integration by parts (:meth:`~startrace.diffop.BiDiffOp.transpose`)
    gives ``integral of rho_j C_r^-(u, v) = integral of u
    (C_r^-)^t_{rho_j}(v)`` for every pair that leaves no boundary terms, so
    order ``m + e`` of ``tau(u*v) - tau(v*u)`` is ``integral of u L_m(v)``
    and ``rho`` is a trace density through order K exactly when the result
    is empty.  Each cached ``C_r^-`` is transposed once per ``rho_j``.
    """
    by_order = {}
    for r, minus in s.minus.items():
        for j, w in t.density.coeffs.items():
            if r + j <= s.trunc_order:
                by_order.setdefault(r + j, []).append(minus.transpose(w))
    ops = {m: DiffOp.sum(t.space, terms) for m, terms in by_order.items()}
    return {m: op for m, op in ops.items() if not op.is_zero()}


def trace_residual(t, s, u, v, ops=None):
    """``tau(u*v) - tau(v*u)``; identically zero iff tau is a trace on the pair.

    The order-m coefficient is ``sum_{r+j=m} integral of rho_j C_r^-(u, v)``.
    For single-term GaussFns with no cross term, and a density with
    coefficients at orders ``0..K`` of the product, it is ``integral of u
    L_m(v)`` with ``ops = {m: L_m}`` from :func:`operator_trace_residual`
    (built here unless the caller passes it for many pairs), integrated on
    moment rows (:func:`~startrace.gaussfn.gauss_pair_integrals`) with no
    commutator built.  Any other input takes
    :func:`_trace_residual_by_commutator`.
    """
    rho = t.density
    if rho.min_degree == 0 and rho.trunc_order == s.trunc_order:
        if ops is None:
            ops = operator_trace_residual(t, s)
        vals = gauss_pair_integrals(u, v, ops)
        if vals is not None:
            return FormalScalar(vals, s.trunc_order).shift(t.prefactor_exponent)
    return _trace_residual_by_commutator(t, s, u, v)


def _trace_residual_by_commutator(t, s, u, v):
    """:func:`trace_residual` by integrating the star commutator, which applies
    each cached ``C_r^-`` once: the fallback path and its oracle."""
    return _trace_eval_by_products(t, star_commutator(s, u, v))


def trk_residual(t, s, u, v):
    """Order-k trace conditions ``sum_{r=1}^{k+1} tau_{k+1-r}(C_r^-(u, v))``
    for ``k = 0..K-1``, as a list indexed by k.

    These are the ``nu^{k+1+e}`` coefficients of :func:`trace_residual`
    (``e`` the prefactor exponent), because the commutator expands into
    the ``C_r^-``; one evaluation, against one build of the operators
    ``L_m`` of :func:`operator_trace_residual`, gives every order.
    """
    if not isinstance(u, GaussFn) or not isinstance(v, GaussFn):
        raise TypeError("trk_residual expects GaussFn operands")
    res = trace_residual(t, s, u, v)
    e = t.prefactor_exponent
    return [res.get(k + 1 + e) or IntegralValue.zero() for k in range(res.trunc_order - e)]


def standardize(t):
    """Standard representative: prefactor ``nu^-n``, density ``1 + O(nu)``.

    Divides out the leading scalar ``a`` and shifts the monomial
    ``nu^{m}``; idempotent.  The discarded factor is ``a nu^{m+e+n}``.
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
    return TraceFunctional(t.space, density, -t.space.n)


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

    For a GaussFn with no cross term, under a density that starts at
    ``nu^0``, the order-m coefficient ``sum_{r+j=m} integral of rho_j D'_r
    u - (m+e) integral of rho_m u`` (``D'_0 = X``, ``e`` the prefactor
    exponent) is integrated by parts on moment rows, with no derivative of
    ``u`` taken; any other input takes
    :func:`_normalization_residual_by_derivatives`.
    """
    rho = t.density
    if rho.min_degree == 0:
        trunc = rho.trunc_order
        lhs = gauss_operator_integrals(u, {0: d.x, **d.corrections}, rho.coeffs, trunc)
        one = {0: DiffOp.identity(t.space)}
        rhs = None if lhs is None else gauss_operator_integrals(u, one, rho.coeffs, trunc)
        if rhs is not None:
            e = t.prefactor_exponent
            return FormalScalar(
                chain(
                    ((m + e, val) for m, val in lhs.items()),
                    ((j + e, val * -(j + e)) for j, val in rhs.items()),
                ),
                trunc + e,
            )
    return _normalization_residual_by_derivatives(t, d, u)


def _normalization_residual_by_derivatives(t, d, u):
    """:func:`normalization_residual` by applying ``D`` to ``u`` and
    integrating: the fallback path and its oracle."""
    u = _coerce_gauss_formal(t.space, u, t.density.trunc_order)
    lhs = _trace_eval_by_products(t, d.apply(u))
    rhs = _trace_eval_by_products(t, u).nu_scale_derivative()
    return lhs - rhs
