"""Gaussian-polynomial integrands with exact integration over R^{2n}.

Functions here stand in for compactly supported test functions: they
are closed under products, derivatives and linear pullbacks,
they integrate to exactly representable values, and integration by parts
never produces boundary terms.  A :class:`GaussFn` is a finite sum of
terms ``P(x) * exp(-t|x|^2/2 + b.x + c)`` with rational data, kept in
the shared :class:`~startrace.poly.PolyCombination` normal form keyed by
the exponent ``(t, b, c)``.  Linear pullbacks that break the isotropy of
the quadratic part yield a :class:`GeneralGaussFn`.  Both integrate
exactly in :func:`gauss_integrate_exact`, by one formula: each term is
brought to one width ``w_i`` per axis, where ``x_i^e`` has the Gaussian
moment ``(e-1)!!/w_i^(e/2)``.

Exact integrals land in :class:`IntegralValue`, the ring of values
``pi^k * sum_j r_j e^{s_j}`` with rational ``r_j, s_j``.  Its zero test
relies on ``{e^s : s rational}`` being linearly independent over the
rationals, so distinct exponentials never falsely cancel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import mpmath

from startrace.poly import (
    Poly,
    PolyCombination,
    _as_fraction,
    _diff_multi,
    _pairs,
    _signed_sum,
    mat_det,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
)


class NonIntegrableError(ValueError):
    """Raised when an integrand has no convergent Gaussian integral."""


class IntegralValue:
    """Exact value ``pi^pi_power * sum_j r_j * e^{s_j}``.

    ``terms`` maps rational exponents ``s`` to nonzero rational
    coefficients ``r``.  The constructor takes a mapping or a stream of
    ``(s, r)`` pairs; it adds the coefficients of repeated exponents and
    drops zero sums.  The zero value stores an empty map and pi power 0.
    """

    __slots__ = ("pi_power", "terms")

    def __init__(self, pi_power, terms):
        merged = {}
        for s, r in _pairs(terms):
            s, r = _as_fraction(s), _as_fraction(r)
            merged[s] = merged[s] + r if s in merged else r
        clean = {s: r for s, r in merged.items() if r}
        if pi_power < 0:
            raise ValueError("pi_power must be nonnegative")
        self.pi_power = pi_power if clean else 0
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls(0, {})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, IntegralValue):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add values with pi powers {self.pi_power} and {other.pi_power}"
            )
        return IntegralValue(self.pi_power, chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return IntegralValue(self.pi_power, {s: -r for s, r in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return IntegralValue(self.pi_power, {s: r * c for s, r in self.terms.items()})
        if not isinstance(other, IntegralValue):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntegralValue.zero()
        return IntegralValue(
            self.pi_power + other.pi_power,
            (
                (s1 + s2, r1 * r2)
                for s1, r1 in self.terms.items()
                for s2, r2 in other.terms.items()
            ),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _single(self):
        if len(self.terms) != 1:
            raise ValueError("value is not a single exponential term")
        return next(iter(self.terms.items()))

    def divide_by(self, other):
        """Exact ratio; the divisor must be a single term with no larger pi power."""
        if not isinstance(other, IntegralValue):
            raise TypeError("divide_by expects an IntegralValue")
        s, r = other._single()
        if self.is_zero():
            return IntegralValue.zero()
        if self.pi_power < other.pi_power:
            raise ValueError("ratio would carry a negative pi power")
        return IntegralValue(
            self.pi_power - other.pi_power,
            {s1 - s: r1 / r for s1, r1 in self.terms.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, IntegralValue):
            return NotImplemented
        return self.pi_power == other.pi_power and self.terms == other.terms

    def __hash__(self):
        return hash((self.pi_power, tuple(sorted(self.terms.items()))))

    def as_mpf(self, precision=50):
        """Evaluate to an mpmath float carrying ``precision`` decimal digits."""
        with mpmath.workdps(precision + 10):
            total = mpmath.mpf(0)
            for s, r in self.terms.items():
                rs = mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator)
                es = mpmath.mpf(s.numerator) / mpmath.mpf(s.denominator)
                total += rs * mpmath.e**es
            val = total * mpmath.pi**self.pi_power
            return +val

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for s, r in sorted(self.terms.items()):
            parts.append(str(r) if s == 0 else f"{r}*exp({s})")
        body = " + ".join(parts)
        if not self.pi_power:
            return body
        pi = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        if len(parts) == 1 and "+" not in body:
            return f"{body}*{pi}"
        return f"({body})*{pi}"

    def __repr__(self):
        return f"IntegralValue({self})"


def _as_vector(space, b):
    if b is None:
        return (Fraction(0),) * space.dim
    vec = tuple(_as_fraction(v) for v in b)
    if len(vec) != space.dim:
        raise ValueError("linear-part vector has wrong length")
    return vec


class GaussFn(PolyCombination):
    """Finite sum of terms ``P(x) * exp(-t|x|^2/2 + b.x + c)``.

    ``coeffs`` maps each exponent ``(t, b, c)`` to its polynomial ``P``;
    terms sharing an exponent are merged, and a term has a
    convergent integral iff ``t > 0``.  Purely polynomial terms
    (``t = 0``) are allowed so the class absorbs products with
    coefficient functions.  Like :class:`~startrace.poly.Poly`, an instance
    is immutable once built and caches its derivatives in ``_jet``, which
    takes no part in ``==`` or ``hash``.
    """

    __slots__ = ("_jet",)

    def __init__(self, space, coeffs):
        super().__init__(space, coeffs)
        self._jet = None

    @staticmethod
    def _key(space, key):
        t, b, c = key
        t = _as_fraction(t)
        if t < 0:
            raise ValueError("quadratic decay rate t must be nonnegative")
        return (t, _as_vector(space, b), _as_fraction(c))

    # -- constructors -------------------------------------------------

    @classmethod
    def term(cls, space, poly, t, b=None, c=0):
        return cls(space, {(t, _as_vector(space, b), c): poly})

    @classmethod
    def gaussian(cls, space, t, b=None, c=0):
        """``exp(-t|x|^2/2 + b.x + c)`` with polynomial part 1."""
        return cls.term(space, Poly.constant(space, 1), t, b, c)

    @classmethod
    def from_poly(cls, poly):
        return cls.term(poly.space, poly, 0)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Poly):
            return GaussFn(self.space, {k: p * other for k, p in self.coeffs.items()})
        if not isinstance(other, GaussFn):
            return super().__mul__(other)
        self._check_space(other)
        return GaussFn(
            self.space,
            (
                ((t1 + t2, tuple(x + y for x, y in zip(b1, b2)), c1 + c2), p1 * p2)
                for (t1, b1, c1), p1 in self.coeffs.items()
                for (t2, b2, c2), p2 in other.coeffs.items()
            ),
        )

    # -- calculus -----------------------------------------------------

    def diff(self, axis):
        """Partial derivative; the exponent contributes ``(b_a - t x_a)``."""
        if isinstance(axis, str):
            axis = self.space.axis(axis)
        x = Poly.variable(self.space, self.space.variables[axis])
        pairs = []
        for key, poly in self.coeffs.items():
            t, b, _ = key
            pairs.append((key, poly.diff(axis)))
            if t:
                pairs.append((key, poly * x * -t))
            if b[axis]:
                pairs.append((key, poly * b[axis]))
        return GaussFn(self.space, pairs)

    def diff_multi(self, alpha):
        """``d^alpha self`` through the shared derivative jet
        (:func:`startrace.poly._diff_multi`)."""
        return _diff_multi(self, alpha)

    def translate(self, shifts):
        """Pull back along ``x -> x + a``; the exponent re-completes exactly."""
        a = _as_vector(self.space, shifts)
        pairs = []
        for (t, b, c), poly in self.coeffs.items():
            b2 = tuple(bi - t * ai for bi, ai in zip(b, a))
            c2 = c + sum(bi * ai for bi, ai in zip(b, a)) - t * sum(ai * ai for ai in a) / 2
            pairs.append(((t, b2, c2), poly.translate(a)))
        return GaussFn(self.space, pairs)

    def evaluate_float(self, point):
        """Pointwise value as a float (grid sampling helper)."""
        total = 0.0
        pt = [float(x) for x in point]
        for (t, b, c), poly in self.coeffs.items():
            expo = (
                float(c)
                + sum(float(bi) * xi for bi, xi in zip(b, pt))
                - float(t) * sum(xi * xi for xi in pt) / 2
            )
            total += float(poly.evaluate(pt)) * math.exp(expo)
        return total

    # -- rendering ----------------------------------------------------

    def _symbol(self, key):
        """``exp(-t/2*|x|^2 + b.x + c)``, or nothing for the zero exponent."""
        t, b, c = key
        parts = [(-t / 2, "|x|^2")] if t else []
        parts += [(bi, name) for name, bi in zip(self.space.variables, b) if bi]
        if c:
            parts.append((c, ""))
        return f"exp({_signed_sum(parts)})" if parts else ""

    _order = None  # exponents ``(t, b, c)`` sort as they are


class GeneralGaussFn:
    """Sum of terms ``P(x) * exp(x^T A x / 2 + b.x + c)`` with full symmetric A.

    Produced by linear pullbacks that break isotropy.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        packed = []
        for poly, a, b, c in terms:
            mat = tuple(tuple(_as_fraction(v) for v in row) for row in a)
            if len(mat) != space.dim or any(len(r) != space.dim for r in mat):
                raise ValueError("quadratic form has wrong shape")
            if mat != tuple(zip(*mat)):
                raise ValueError("quadratic form must be symmetric")
            if not poly.is_zero():
                packed.append((poly, mat, _as_vector(space, b), _as_fraction(c)))
        self.terms = tuple(packed)

    @classmethod
    def from_gauss(cls, fn):
        """``fn`` itself, or a GaussFn with each exponent written as ``A = -t I``."""
        if isinstance(fn, cls):
            return fn
        d = fn.space.dim
        return cls(
            fn.space,
            [
                (poly, [[-t if i == j else 0 for j in range(d)] for i in range(d)], b, c)
                for (t, b, c), poly in fn.coeffs.items()
            ],
        )

    def __sub__(self, other):
        neg = [(-poly, a, b, c) for poly, a, b, c in GeneralGaussFn.from_gauss(other).terms]
        return GeneralGaussFn(self.space, list(self.terms) + neg)

    def __repr__(self):
        return f"GeneralGaussFn({len(self.terms)} terms, n={self.space.n})"


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gauss_integrate_exact(a):
    """Exact integral of a GaussFn or GeneralGaussFn over R^{2n} as an
    :class:`IntegralValue`.  Each term is brought to diagonal widths,
    ``w_i = t`` when isotropic and the pivots of :func:`_diagonalize`
    otherwise, and integrated by :func:`_diagonal_integral`.
    """
    if not isinstance(a, (GaussFn, GeneralGaussFn)):
        raise TypeError("gauss_integrate_exact expects a GaussFn or GeneralGaussFn")
    n = a.space.n
    if isinstance(a, GaussFn):
        terms = ((poly, (t,) * a.space.dim, b, c) for (t, b, c), poly in a.coeffs.items())
    else:
        terms = (_diagonalize(*term) for term in a.terms)
    return IntegralValue(n, (_diagonal_integral(n, *term) for term in terms))


def _diagonalize(poly, a, b, c):
    """``(poly(L^-T y), D, L^-1 b, c)`` for ``-a = L D L^T`` with L unit lower.

    Elimination without pivoting takes ``-a`` to ``D L^T``, and the identity
    and ``b`` to ``L^-1`` and ``L^-1 b``.  The substitution ``x = L^-T y``
    has Jacobian 1.  Pivot k is the ratio of the k-th and (k-1)-th leading
    minors, so a pivot ``<= 0`` is Sylvester's test failing.
    """
    d = len(a)
    rows = [[-v for v in row] + [bi] + unit for row, bi, unit in zip(a, b, mat_identity(d))]
    for k, pivot_row in enumerate(rows):
        if pivot_row[k] <= 0:
            raise NonIntegrableError("quadratic form is not negative definite")
        for row in rows[k + 1 :]:
            f = row[k] / pivot_row[k]
            if f:
                row[:] = [x - f * y for x, y in zip(row, pivot_row)]
    inv_t = mat_transpose([row[d + 1 :] for row in rows])
    widths = tuple(row[k] for k, row in enumerate(rows))
    return poly.pullback_linear(inv_t), widths, tuple(row[d] for row in rows), c


def _diagonal_integral(n, poly, widths, b, c):
    """``(s, r)`` with ``integral of poly * exp(-sum_i w_i x_i^2/2 + b.x + c)
    = r e^s pi^n``: the shift ``mu_i = b_i/w_i`` leaves ``s = c + sum_i
    b_i^2/(2 w_i)``, ``x_i^e`` has centered moment ``(e-1)!!/w_i^(e/2)``
    for even ``e``, and the Gaussian gives ``(2 pi)^n / sqrt(prod_i w_i)``.
    """
    if any(w <= 0 for w in widths):
        raise NonIntegrableError("term with a width <= 0 has no convergent integral")
    mu = tuple(bi / w for bi, w in zip(b, widths))
    s = c + sum(bi * m for bi, m in zip(b, mu)) / 2
    acc = Fraction(0)
    for exps, r in poly.translate(mu).terms.items():
        if any(e % 2 for e in exps):
            continue
        for w, e in zip(widths, exps):
            if e:
                r = r * _double_factorial(e - 1) / w ** (e // 2)
        acc += r
    vol = math.prod(widths)
    num, den = math.isqrt(vol.numerator), math.isqrt(vol.denominator)
    if num * num != vol.numerator or den * den != vol.denominator:
        raise ArithmeticError(
            f"sqrt(det(-A)) = sqrt({vol}) is irrational, so the integral is not exact"
        )
    return s, acc * 2**n * den / num


def gauss_integrate_bigfloat(a, precision=50):
    """:func:`gauss_integrate_exact` evaluated to ``precision`` decimal digits."""
    return gauss_integrate_exact(a).as_mpf(precision)


def gauss_pullback_linear(a, m):
    """Pull back along ``x -> m x``.

    Returns a plain :class:`GaussFn` when ``m^T m`` is a positive multiple
    of the identity (every isotropic exponent stays isotropic); otherwise
    a :class:`GeneralGaussFn`.
    """
    rows = [[_as_fraction(v) for v in row] for row in m]
    if mat_det(rows) == 0:
        raise ValueError("pullback matrix is singular")
    mt = mat_transpose(rows)
    gram = mat_mul(mt, rows)
    d = a.space.dim
    lam = gram[0][0]
    isotropic = all(
        gram[i][j] == (lam if i == j else 0) for i in range(d) for j in range(d)
    )
    if isotropic:
        return GaussFn(
            a.space,
            (
                ((t * lam, tuple(mat_vec(mt, list(b))), c), poly.pullback_linear(rows))
                for (t, b, c), poly in a.coeffs.items()
            ),
        )
    terms = []
    for (t, b, c), poly in a.coeffs.items():
        mat = [[-t * v for v in row] for row in gram]
        terms.append((poly.pullback_linear(rows), mat, mat_vec(mt, list(b)), c))
    return GeneralGaussFn(a.space, terms)
