"""Gaussian-polynomial integrands with exact integration over R^{2n}.

Functions here stand in for compactly supported test functions: they
are closed under products, derivatives and linear pullbacks,
they integrate to exactly representable values, and integration by parts
never produces boundary terms.  A :class:`GaussFn` is a finite sum of
terms ``P(x) * exp(Q(x))`` with rational data, stored as a dict from
the exponent ``Q``, a :class:`~startrace.poly.Poly` of degree at most 2,
to the Poly ``P``.  It shares ``+``, ``-``, the space check and the
printer with Polys and the operators, through their common root
``_Combination`` in :mod:`startrace.poly`.  Products add exponents,
derivatives give ``(dP + P*dQ) * exp(Q)``, and translations and linear
pullbacks pull ``P`` and ``Q`` back alike.

The arithmetic runs on the packed integers of the Polys (see
:mod:`startrace.poly`), with no ``Fraction`` and no intermediate Poly per
monomial.  A product goes through the product kernel that Polys and
operators share (:func:`startrace.poly._combine`): exponents add once
per pair of terms, keys add and numerators multiply.  A derivative
builds one numerator dict per term, ``dP + P*dQ`` over
``P.den * dQ.den``, with ``dQ`` from the exponent's own jet.  The
exponent's widths, cross terms and linear part are read from its packed
keys.

Every exact integral takes one path, :func:`_term_integrals`: a term
``P e^Q`` is brought to one width ``w_i = a_i/d_i`` per axis by a
substitution of Jacobian 1, and the integral factorizes per axis into
moments of ``x_i^e`` under the Gaussian centered at ``mu_i = b_i/w_i``.
:func:`_moment_row` gives them as one row of ints per axis over one scale,
so the polynomial is integrated as it stands, with no shift: each monomial
adds its numerator times one row entry per axis to one int.  The rows of a
term are built once and read for every polynomial weight it meets.
:func:`gauss_integrate_exact` integrates against the weight 1.

The trace functionals integrate by parts on the same rows, because
Gaussians leave no boundary terms, and build no product of their
operands: :func:`gauss_weight_integrals` gives ``integral of W_m u`` for
polynomial weights ``W_m``, which the by-parts kernel for polynomials,
:func:`adjoint_weights`, builds as ``sum_{r+j=m} A_r^*(w_j)``, and
:func:`gauss_pair_integrals` gives ``integral of u A_m(v)`` for the
transposes ``A_m`` of the cochains (the kernel for operators,
:meth:`~startrace.diffop.BiDiffOp.transpose`), with ``A_m(v)`` read
through :meth:`~startrace.diffop.DiffOp._through`.  They
take every GaussFn, with any number of terms and cross terms in the
exponents, and raise where an integral is not exact: ``TypeError`` for an
operand that is not a GaussFn, ``ValueError`` for a phase-space mismatch
or a moment row past ``MAX_EXPONENT``, and :class:`NonIntegrableError` or
``ArithmeticError`` for a term, or pair of terms, with no convergent or no
rational integral, even where its weight is zero.

Exact integrals land in :class:`IntegralValue`, the ring of values
``pi^k * sum_j r_j e^{s_j}`` with rational ``r_j, s_j``.  Its zero test
relies on ``{e^s : s rational}`` being linearly independent over the
rationals, so distinct exponentials never falsely cancel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from startrace.poly import (
    _FIELD,
    _MASK,
    MAX_EXPONENT,
    Poly,
    _as_fraction,
    _axis,
    _check_guard,
    _Combination,
    _combine,
    _diff_multi,
    _function,
    _key_bits,
    _lcm_sum,
    _pairs,
    _parts,
    _signed_sum,
    _square_matrix,
    _unpack,
    mat_det,
    mat_identity,
    mat_transpose,
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
        """Evaluate to an mpmath float carrying ``precision`` decimal digits;
        the one method here that loads mpmath."""
        import mpmath

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


def _exponent(space, t, b, c):
    """``-t/2*|x|^2 + b.x + c`` as a Poly on ``space``."""
    d = space.dim
    b = (0,) * d if b is None else tuple(b)
    if len(b) != d:
        raise ValueError("linear-part vector has wrong length")
    half = -_as_fraction(t) / 2
    pairs = [((0,) * d, c)]
    for k, bk in enumerate(b):
        pairs += [((0,) * k + (e,) + (0,) * (d - k - 1), v) for e, v in ((1, bk), (2, half))]
    return Poly(space, pairs)


def _quadratic_parts(q):
    """``(w, cross, b, c)`` for an exponent ``q = x^T A x/2 + b.x + c``:
    ``w`` is the diagonal of ``-A`` and ``cross`` lists its off-diagonal
    entries ``(i, j, -A_ij)`` with ``i < j``.

    Read from the packed keys: a nonzero key of degree at most 2 has a
    top axis ``j`` holding 1 or 2, and whatever lies below that field is
    the ``x_i`` of a cross term ``x_i x_j``."""
    d, den = q.space.dim, q.den
    widths = [Fraction(0)] * d
    b = [Fraction(0)] * d
    c = Fraction(0)
    cross = []
    for k, v in q.nums.items():
        if not k:
            c = Fraction(v, den)
            continue
        j = (k.bit_length() - 1) // _FIELD
        low = k & ((1 << (_FIELD * j)) - 1)
        if low:
            cross.append(((low.bit_length() - 1) // _FIELD, j, Fraction(-v, den)))
        elif k >> (_FIELD * j) == 2:
            widths[j] = Fraction(-2 * v, den)
        else:
            b[j] = Fraction(v, den)
    return widths, cross, b, c


def isotropic_exponent(q):
    """``(t, b, c)`` when the exponent ``q`` is ``-t/2*|x|^2 + b.x + c``, else None."""
    widths, cross, b, c = _quadratic_parts(q)
    if cross or len(set(widths)) > 1:
        return None
    return widths[0], tuple(b), c


class GaussFn(_Combination):
    """Finite sum of terms ``P(x) * exp(Q(x))``.

    ``coeffs`` maps each exponent ``Q``, a :class:`~startrace.poly.Poly` of
    degree at most 2 with no positive pure-square coefficient, to its
    nonzero polynomial ``P``.  The isotropic exponents
    ``-t/2*|x|^2 + b.x + c`` of :meth:`term` print as such; linear
    pullbacks may make any other.  Purely polynomial terms (``Q`` of
    degree below 2) are allowed so the class absorbs products with
    coefficient functions.

    The public constructor takes a mapping or a stream of ``(Q, P)``
    pairs and checks every exponent and polynomial; the polynomials of equal exponents
    merge over their least common denominator and zero sums drop, so
    equality is a dictionary comparison.  Products, derivatives and
    translations keep exponents valid, so they build through the trusted
    constructor :meth:`_trusted`, which checks nothing; only the public
    constructor and linear pullbacks check exponents.  Like a Poly, an
    instance is immutable once built and caches its derivatives in the
    ``_jet`` slot (see :func:`startrace.poly._diff_multi`), which takes no
    part in ``==`` or ``hash``.
    """

    __slots__ = ("space", "coeffs", "_jet")

    def __init__(self, space, coeffs):
        pairs = list(_pairs(coeffs))
        for q, p in pairs:
            if not isinstance(q, Poly):
                raise TypeError(f"exponent must be a Poly, got {type(q).__name__}")
            if q.space != space:
                raise ValueError("exponent lives on a different phase space")
            for exps, coeff in q.terms.items():
                if sum(exps) > 2:
                    raise ValueError("exponent must have degree at most 2")
                if 2 in exps and coeff > 0:
                    raise ValueError("exponent must not grow along a coordinate axis")
            if not isinstance(p, Poly):
                raise TypeError(f"GaussFn coefficients must be Polys, got {type(p).__name__}")
            p._check_space(space)
        self._settle(space, pairs)

    def _settle(self, space, pairs):
        """Store ``pairs`` merged by exponent, with zero sums dropped: the
        numerators of a repeated exponent add over the lcm of their
        denominators."""
        groups = {}
        for q, poly in pairs:
            groups.setdefault(q, []).append(poly)
        clean = {}
        for q, polys in groups.items():
            if len(polys) == 1:
                poly = polys[0]
            else:
                poly = Poly._trusted(space, *_lcm_sum((p.nums, p.den) for p in polys))
            if poly.nums:
                clean[q] = poly
        self.space = space
        self.coeffs = clean
        self._jet = None

    @classmethod
    def _trusted(cls, space, pairs):
        """The sum of ``(Q, P)`` pairs on ``space``, with no exponent checked.

        The exponents must be valid and every Poly must live on ``space``;
        repeated exponents merge and zero sums drop as in the public
        constructor.  This is the one constructor of every arithmetic
        result."""
        out = cls.__new__(cls)
        out._settle(space, _pairs(pairs))
        return out

    @classmethod
    def sum(cls, space, items):
        """``sum(items, cls.zero(space))``, merged in one dict."""
        return cls._trusted(
            space, (qp for x in cls._operands(space, items) for qp in x.coeffs.items())
        )

    def is_zero(self):
        return not self.coeffs

    def __neg__(self):
        return self._trusted(self.space, {q: -p for q, p in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.space, frozenset(self.coeffs.items())))

    # -- constructors -------------------------------------------------

    @classmethod
    def term(cls, space, poly, t, b=None, c=0):
        """``poly * exp(-t|x|^2/2 + b.x + c)``."""
        return cls(space, {_exponent(space, t, b, c): poly})

    @classmethod
    def gaussian(cls, space, t, b=None, c=0):
        """``exp(-t|x|^2/2 + b.x + c)`` with polynomial part 1."""
        return cls.term(space, Poly.constant(space, 1), t, b, c)

    @classmethod
    def from_poly(cls, poly):
        return cls(poly.space, {Poly.zero(poly.space): poly})

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        """The product with a rational, or with a GaussFn or a Poly through
        the packed product kernel (:func:`startrace.poly._combine`):
        exponents add once per pair of terms, keys add and numerators
        multiply, and the polynomials of each output exponent accumulate in
        one dict."""
        if isinstance(other, (int, Fraction)):
            return self._trusted(self.space, {q: p * other for q, p in self.coeffs.items()})
        if not isinstance(other, (Poly, GaussFn)):
            return NotImplemented
        self._check_space(other.space)
        parts = _parts(other)
        out, den = _combine([({q: p.nums}, p.den, parts) for q, p in self.coeffs.items()])
        return _function(self.space, out, den, GaussFn)

    # -- calculus -----------------------------------------------------

    def diff(self, axis):
        """Partial derivative ``(dP + P*dQ) * exp(Q)`` of each term, built
        as one numerator dict over ``P.den * dQ.den`` per term: ``dP``
        lowers a field of ``P``'s keys, and ``P*dQ`` adds the keys of
        ``dQ``, which comes from the exponent's own jet, so each exponent
        is differentiated once per axis however many jets share it."""
        space = self.space
        axis = _axis(space, axis)
        shift = _FIELD * axis
        unit = 1 << shift
        alpha = (0,) * axis + (1,) + (0,) * (space.dim - axis - 1)
        terms = {}
        for q, p in self.coeffs.items():
            dq = q.diff_multi(alpha)
            qden, dq = dq.den, dq.nums.items()
            out = {}
            for k, v in p.nums.items():
                e = (k >> shift) & _MASK
                if e:
                    out[k - unit] = v * e * qden
            for ka, va in p.nums.items():
                for kb, vb in dq:
                    k = ka + kb
                    out[k] = out[k] + va * vb if k in out else va * vb
            _check_guard(out, space.dim, "a derivative")
            terms[q] = Poly._trusted(space, out, p.den * qden)
        return GaussFn._trusted(space, terms)

    def diff_multi(self, alpha):
        """``d^alpha self`` through the shared derivative jet
        (:func:`startrace.poly._diff_multi`).  The class defines its own,
        as Polys and operators share theirs, so that Gaussian derivatives
        can be wrapped and counted apart from the others."""
        return _diff_multi(self, alpha)

    def translate(self, shifts):
        """Pull back along ``x -> x + a``: ``P(x + a) * exp(Q(x + a))``."""
        return GaussFn._trusted(
            self.space,
            ((q.translate(shifts), p.translate(shifts)) for q, p in self.coeffs.items()),
        )

    def evaluate_float(self, point):
        """Pointwise value as a float (grid sampling helper)."""
        pt = [float(x) for x in point]
        return sum(
            float(p.evaluate(pt)) * math.exp(q.evaluate(pt)) for q, p in self.coeffs.items()
        )

    # -- rendering ----------------------------------------------------

    def _symbol(self, q):
        """``exp(-t/2*|x|^2 + b.x + c)`` for an isotropic exponent,
        ``exp(<Q>)`` for any other, and nothing for the zero exponent."""
        iso = isotropic_exponent(q)
        if iso is None:
            return f"exp({q})"
        t, b, c = iso
        parts = [(-t / 2, "|x|^2")] if t else []
        parts += [(bi, name) for name, bi in zip(self.space.variables, b) if bi]
        if c:
            parts.append((c, ""))
        return f"exp({_signed_sum(parts)})" if parts else ""

    @staticmethod
    def _order(q):
        """Isotropic exponents first, sorted as ``(t, b, c)``."""
        iso = isotropic_exponent(q)
        return (0, iso) if iso is not None else (1, sorted(q.terms.items()))


def _moment_row(w, mu, top):
    """``(row, scale)``: ``row[e] / scale`` is the moment of ``x^e``, for
    ``e = 0..top``, under the unit-mass Gaussian ``sqrt(w/2pi) exp(-w (x -
    mu)^2/2)``.

    The moment is ``sum_{k even <= e} C(e,k) mu^(e-k) (k-1)!! w^(-k/2)``.
    With ``w = a/d`` and ``mu = p/q``, each of its terms over ``scale =
    q^top a^(top//2)`` is the int ``C(e,k) p^(e-k) q^(top-e+k) (k-1)!!
    d^(k/2) a^(top//2-k/2)``, so one row of ints serves every exponent up
    to ``top`` and no polynomial is shifted.
    """
    a, d = w.numerator, w.denominator
    p, q = mu.numerator, mu.denominator
    half = top // 2
    ppow, qpow = [1], [1]
    for _ in range(top):
        ppow.append(ppow[-1] * p)
        qpow.append(qpow[-1] * q)
    even = []  # (2h-1)!! d^h a^(half-h), the centered part of x^(2h)
    odd = 1
    for h in range(half + 1):
        even.append(odd * d**h * a ** (half - h))
        odd *= 2 * h + 1
    row = [
        sum(
            math.comb(e, 2 * h) * ppow[e - 2 * h] * qpow[top - e + 2 * h] * even[h]
            for h in range(e // 2 + 1)
        )
        for e in range(top + 1)
    ]
    return row, qpow[top] * a**half


def _moments(p, g, rows, keys, dim):
    """``{lambda: g * sum_e P[e] prod_i row_i[lambda_i + e_i]}`` for the
    packed ``keys``: the integrals of ``x^lambda P e^Q`` over the common
    denominator of the moment ``rows`` of ``e^Q``."""
    pterms = [(_unpack(k, dim), v * g) for k, v in p.nums.items()]
    out = {}
    for k in keys:
        ks = _unpack(k, dim)
        acc = 0
        for es, v in pterms:
            for row, e, x in zip(rows, es, ks):
                v *= row[e + x]
            acc += v
        out[k] = acc
    return out


def _moment_rows(widths, mu, tops):
    """``(rows, scale)``: the moment row of each axis up to its top, and the
    product of their scales."""
    rows, scale = [], 1
    for w, m, t in zip(widths, mu, tops):
        row, s = _moment_row(w, m, t)
        rows.append(row)
        scale *= s
    return rows, scale


def _gaussian(widths, b, c):
    """``(s, g, den, mu)`` for ``exp(-sum_i w_i x_i^2/2 + b.x + c)``: its
    integral over R^{2n} is ``(g/den) e^s pi^n``, and ``mu`` is its center.

    The center ``mu_i = b_i/w_i`` leaves ``s = c + sum_i b_i mu_i/2``, and
    the Gaussian gives ``(2 pi)^n / sqrt(prod_i w_i)``.  Raises
    :class:`NonIntegrableError` for a width ``<= 0`` and ``ArithmeticError``
    when the square root is irrational."""
    if any(w <= 0 for w in widths):
        raise NonIntegrableError("term with a width <= 0 has no convergent integral")
    mu = [bi / w if bi else 0 for bi, w in zip(b, widths)]
    s = c + sum((bi * m for bi, m in zip(b, mu) if bi), Fraction(0)) / 2
    vol = Fraction(
        math.prod(w.numerator for w in widths), math.prod(w.denominator for w in widths)
    )
    num, root = math.isqrt(vol.numerator), math.isqrt(vol.denominator)
    if num * num != vol.numerator or root * root != vol.denominator:
        raise ArithmeticError(
            f"sqrt(det(-A)) = sqrt({vol}) is irrational, so the integral is not exact"
        )
    return s, 2 ** (len(widths) // 2) * root, num, mu


def gauss_integrate_exact(a):
    """Exact integral of a GaussFn over R^{2n} as an :class:`IntegralValue`:
    :func:`gauss_weight_integrals` against the weight 1."""
    one = Poly.constant(_space([a]), 1)
    return gauss_weight_integrals(a, {0: one}).get(0, IntegralValue.zero())


def _space(fns, *maps):
    """The phase space of the GaussFns ``fns``: raises ``TypeError`` for an
    operand that is not a GaussFn and ``ValueError`` unless every operand,
    and every operator or Poly in the dicts ``maps``, lives on one space."""
    for f in fns:
        if not isinstance(f, GaussFn):
            raise TypeError(f"expected a GaussFn operand, got {type(f).__name__}")
    space = fns[0].space
    for x in chain(fns, *(m.values() for m in maps)):
        x._check_space(space)
    return space


def _tops(p, keys, dim):
    """The top exponent of each axis of the moment rows that integrate
    ``P`` against weights with the packed ``keys``; raises ``ValueError``
    when one passes ``MAX_EXPONENT``.

    The OR of the keys bounds each of their fields from above, so the rows
    read it, and the fields are compared one by one only when that bound
    passes ``MAX_EXPONENT``."""
    tops = [x + y for x, y in zip(_unpack(_key_bits(keys), dim), _unpack(_key_bits(p.nums), dim))]
    if max(tops) > MAX_EXPONENT:
        for shift in range(0, _FIELD * dim, _FIELD):
            top = max(((k >> shift) & _MASK for k in keys), default=0)
            if top + max((k >> shift) & _MASK for k in p.nums) > MAX_EXPONENT:
                raise ValueError(
                    f"a moment row exceeds MAX_EXPONENT = {MAX_EXPONENT} along an axis"
                )
    return tops


def _diagonalize(q):
    """``(inv_t, widths, L^-1 b, c)`` for ``q = x^T A x/2 + b.x + c`` and
    ``-A = L D L^T`` with L unit lower and the widths on the diagonal of D:
    the substitution ``x = inv_t y`` with ``inv_t = L^-T`` takes ``q`` to
    ``-sum_i w_i y_i^2/2 + (L^-1 b).y + c`` with Jacobian 1, and ``inv_t``
    is None when A is diagonal.

    Elimination without pivoting takes ``-A`` to ``D L^T``, and the identity
    and ``b`` to ``L^-1`` and ``L^-1 b``.  Pivot k is the ratio of the k-th
    and (k-1)-th leading minors, so a pivot ``<= 0`` is Sylvester's test
    failing.
    """
    widths, cross, b, c = _quadratic_parts(q)
    if not cross:
        return None, widths, b, c
    d = q.space.dim
    minus_a = [[w if i == j else Fraction(0) for j in range(d)] for i, w in enumerate(widths)]
    for i, j, v in cross:
        minus_a[i][j] = minus_a[j][i] = v
    rows = [row + [bi] + unit for row, bi, unit in zip(minus_a, b, mat_identity(d))]
    for k, pivot_row in enumerate(rows):
        if pivot_row[k] <= 0:
            raise NonIntegrableError("quadratic form is not negative definite")
        for row in rows[k + 1 :]:
            f = row[k] / pivot_row[k]
            if f:
                row[:] = [x - f * y for x, y in zip(row, pivot_row)]
    inv_t = mat_transpose([row[d + 1 :] for row in rows])
    widths = tuple(row[k] for k, row in enumerate(rows))
    return inv_t, widths, tuple(row[d] for row in rows), c


def _term_integrals(p, q, weights):
    """``{m: (s, r)}`` with ``integral of W_m P e^Q = r e^s pi^n`` for the
    polynomial weights ``{m: W_m}``: the one integration of every exact
    integral and trace functional.

    ``Q`` is brought to diagonal widths by :func:`_diagonalize`, and ``P``
    and every ``W_m`` are pulled back along its substitution.  The integral
    then factorizes per axis into moments about the Gaussian's center, so
    the moment rows of :func:`_moment_row` are built once, up to the top
    exponent of ``P`` plus that of the weights on each axis, and
    ``integral of x^lambda P e^Q`` (:func:`_moments`) is read for every key
    ``lambda`` of the weights.  The Gaussian is checked first, so a term
    with no convergent or no exact integral raises even when ``weights`` is
    empty, and a row past ``MAX_EXPONENT`` raises ``ValueError``.
    """
    inv_t, widths, b, c = _diagonalize(q)
    s, g, gden, mu = _gaussian(widths, b, c)
    if not weights:
        return {}
    if inv_t is not None:
        p = p.pullback_linear(inv_t)
        weights = {m: w.pullback_linear(inv_t) for m, w in weights.items()}
    dim = len(widths)
    keys = {k for w in weights.values() for k in w.nums}
    rows, scale = _moment_rows(widths, mu, _tops(p, keys, dim))
    moments = _moments(p, g, rows, keys, dim)
    den = p.den * gden * scale
    return {
        m: (s, Fraction(sum(v * moments[k] for k, v in w.nums.items()), w.den * den))
        for m, w in weights.items()
    }


def _integrals(n, parts):
    """``{m: IntegralValue}`` from a stream of :func:`_term_integrals` results."""
    values = {}
    for part in parts:
        for m, sr in part.items():
            values.setdefault(m, []).append(sr)
    return {m: IntegralValue(n, items) for m, items in values.items()}


# -- trace functionals by parts ---------------------------------------


def adjoint_weights(space, ops, weights, top):
    """``{m: W_m = sum_{r+j=m} A_r^*(w_j)}`` for ``m <= top``, with ``ops =
    {r: A_r}`` DiffOps and ``weights = {j: w_j}`` Polys on ``space``, so
    that ``integral of W_m u = integral of sum_{r+j=m} w_j * A_r(u)`` for
    every GaussFn ``u`` (:func:`gauss_weight_integrals`).

    Integration by parts, ``integral of x^kappa d^alpha u = (-1)^|alpha|
    (kappa)_alpha integral of x^(kappa - alpha) u`` with the falling
    factorial ``(kappa)_alpha``, builds each ``W_m`` monomial by monomial.
    Raises ``ValueError`` for an operator or weight on another space.
    """
    for x in chain(ops.values(), weights.values()):
        x._check_space(space)
    dim = space.dim
    adjoint = {}  # {m: {den: {lambda: num}}}
    for r, op in ops.items():
        for alpha, monos in op._groups().items():
            axes = [(_FIELD * i, a) for i, a in enumerate(_unpack(alpha, dim)) if a]
            sign = -1 if sum(a for _, a in axes) % 2 else 1
            for j, w in weights.items():
                if r + j > top:
                    continue
                acc = adjoint.setdefault(r + j, {}).setdefault(op.den * w.den, {})
                for k1, c1 in monos.items():
                    for k2, c2 in w.nums.items():
                        k = k1 + k2
                        f = sign * c1 * c2
                        for shift, a in axes:
                            f *= math.perm((k >> shift) & _MASK, a)
                        if f:
                            k -= alpha
                            acc[k] = acc[k] + f if k in acc else f
    polys = {}
    for m, by_den in adjoint.items():
        nums, den = _lcm_sum((acc, d) for d, acc in by_den.items())
        _check_guard(nums, dim, "an adjoint weight")
        polys[m] = Poly._trusted(space, nums, den)
    return polys


def gauss_weight_integrals(u, weights):
    """``{m: integral of W_m u}`` for Polys ``weights = {m: W_m}``.

    No product is built: every term of ``u`` is integrated against all the
    weights on one moment table (:func:`_term_integrals`).  Raises as that
    does, and ``TypeError`` or ``ValueError`` for an operand that is not a
    GaussFn or does not live on the space of ``weights``.
    """
    space = _space([u], weights)
    return _integrals(space.n, (_term_integrals(p, q, weights) for q, p in u.coeffs.items()))


def gauss_pair_integrals(u, v, ops):
    """``{m: integral of u A_m(v)}`` for DiffOps ``ops = {m: A_m}``.

    No product with ``u`` is built: each exponent ``Q`` of ``v`` gives
    ``A_m(v) = sum_Q R_{m,Q}(x) e^Q``, with ``R_{m,Q} = sum_beta a_beta
    d^beta v`` read from ``v``'s jet, and every (term ``P_u e^{Q_u}`` of
    ``u``, exponent ``Q`` of ``v``) pair integrates ``R_{m,Q} P_u`` on the
    moment rows of ``e^{Q_u + Q}`` (:func:`_term_integrals`).  The trace
    identities reach this form by transposing their cochains
    (:meth:`~startrace.diffop.BiDiffOp.transpose`), so a zero operator
    costs only the integrability check of each pair.  Raises as
    :func:`_term_integrals` does, and ``TypeError`` or ``ValueError`` for
    an operand that is not a GaussFn or a space mismatch.
    """
    space = _space([u, v], ops)
    images = {}  # {Q: {m: R_{m,Q}}}
    for m, op in ops.items():
        out, den = _combine(op._through(v))
        for q, nums in out.items():
            _check_guard(nums, space.dim, "an operator image")
            images.setdefault(q, {})[m] = Poly._trusted(space, nums, den)
    return _integrals(
        space.n,
        (
            _term_integrals(pu, qu + qv, images.get(qv, {}))
            for qu, pu in u.coeffs.items()
            for qv in v.coeffs
        ),
    )


def gauss_integrate_bigfloat(a, precision=50):
    """:func:`gauss_integrate_exact` evaluated to ``precision`` decimal digits."""
    return gauss_integrate_exact(a).as_mpf(precision)


def gauss_pullback_linear(a, m):
    """Pull back along ``x -> m x``: ``P(m x) * exp(Q(m x))`` term by term."""
    rows = _square_matrix(a.space, m)
    if mat_det(rows) == 0:
        raise ValueError("pullback matrix is singular")
    return GaussFn(
        a.space,
        ((q.pullback_linear(rows), p.pullback_linear(rows)) for q, p in a.coeffs.items()),
    )
