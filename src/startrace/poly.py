"""Exact polynomial coefficient functions on flat phase space.

Coordinates on R^{2n} are ordered ``q1..qn, p1..pn`` and coefficients are
rational, so every operation here is exact.  The Poisson bracket follows
the convention

    {f, g} = sum_i  df/dp_i dg/dq_i - df/dq_i dg/dp_i

which makes ``{v, q_i} = dv/dp_i`` hold literally and gives ``{q, p} = -1``.

A :class:`Poly` is stored as integers: each monomial is one packed int
key, with ``_FIELD`` bits per axis, axis ``i`` at bit ``_FIELD*i``, and
each coefficient is an int numerator over one shared positive
denominator, kept gcd-reduced.  A product adds keys and multiplies ints;
a derivative shifts a key and scales by the exponent field.  Every
arithmetic result is built by the trusted constructor ``Poly._trusted``,
which only drops zeros and reduces by the gcd; only the public
constructor checks exponent tuples.  ``MAX_EXPONENT`` bounds the exponent
of one coordinate: the public constructor rejects more, and a product
that passes it raises ``ValueError`` from its guard bits.  ``Poly.terms``
decodes the same polynomial to exponent tuples and ``Fraction``s for the
printer, the parser and evaluation.

The operators of :mod:`startrace.diffop` are stored the same way, with
their derivative fields packed above the monomial ones.  One base class,
``_Packed``, holds that storage for both: the canonical form, the trusted
constructor, negation, scalar products, ``==``, the cached hash and
``diff``, which is one Leibniz rule for a Poly (no derivative fields)
and for the operators.  :func:`_lcm_sum` (a sum over the least common
denominator) and :func:`_check_guard` (the guard-bit check) serve both
layouts too.

The product kernel lives here as well, so that Polys, ``GaussFn`` and
the operators share it with no import cycle: :func:`_combine` multiplies
packed sums, adding keys and multiplying numerators, and adding the
exponents of Gaussian terms once per pair; :func:`_parts` reads a
function into its operands and :func:`_function` builds the result,
checking its guard bits.  ``Poly.__mul__``, ``GaussFn.__mul__``, operator
application and composition all go through it.

``_Combination`` is the root of every exact sum class, ``Poly``, the
operators and ``GaussFn`` (which stores Polys keyed by exponents): it
holds the space check, the operand check of the n-ary ``sum``, ``+``,
``-``, the right scalar product and the printer.  :func:`_axis` reads
the axis of every ``diff``.

This module is also the one printer of rational combinations:
``_monomial_text``, ``_signed_sum`` (``2*x - y + 1/2``, for Poly,
exponents and series) and ``_Combination.__str__``, which ``GaussFn`` and
the operators steer through the hooks ``_symbol`` (or ``_term``) and
``_order`` from their decoded ``coeffs``.

Constructors are where sums merge.  ``Poly``, ``GaussFn`` and the
operators take a mapping or any iterable of ``(key, value)`` pairs whose
keys may repeat; they add the values of repeated keys and drop zero
sums, so every sum in the package is a stream of pairs handed to one
constructor, and the n-ary ``sum`` classmethods build a sum of many
objects in one dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import MappingProxyType

MAX_EXPONENT = 255
"""The largest exponent of one coordinate in a :class:`Poly` monomial."""

# A packed key gives each axis a field of _FIELD bits: the low bits hold
# an exponent up to MAX_EXPONENT (2^8 - 1) and the top bit is the guard.
# The sum of two fields stays below 2 * 2^8, inside its own field, so a
# product of two valid keys never carries into the next axis, and its
# guard bit is set exactly when that exponent passes MAX_EXPONENT.
_FIELD = MAX_EXPONENT.bit_length() + 1
_MASK = (1 << _FIELD) - 1


class PhaseSpace:
    """Flat symplectic R^{2n} with named canonical coordinates."""

    __slots__ = ("n", "dim", "variables")

    def __init__(self, n):
        if n < 1:
            raise ValueError("need at least one canonical pair")
        self.n = n
        self.dim = 2 * n
        self.variables = tuple(f"q{i+1}" for i in range(n)) + tuple(
            f"p{i+1}" for i in range(n)
        )

    def axis(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, PhaseSpace) and other.n == self.n

    def __hash__(self):
        return hash(("PhaseSpace", self.n))

    def __repr__(self):
        return f"PhaseSpace(n={self.n})"


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients must be rational, got {type(c).__name__}")


def _pairs(source):
    """The ``(key, value)`` pairs of a mapping, or ``source`` itself."""
    items = getattr(source, "items", None)
    return source if items is None else items()


def _pack(space, exps, what="exponent tuple"):
    """The packed key of an exponent tuple: ``sum_i exps[i] << (_FIELD*i)``.

    Raises ``ValueError("bad <what> ...")`` unless ``exps`` has one int in
    ``0..MAX_EXPONENT`` per coordinate."""
    if len(exps) != space.dim or not all(
        isinstance(e, int) and 0 <= e <= MAX_EXPONENT for e in exps
    ):
        raise ValueError(f"bad {what} {exps!r}")
    key = 0
    for i, e in enumerate(exps):
        key |= e << (_FIELD * i)
    return key


def _unpack(key, dim):
    """The exponent tuple of a packed key on ``dim`` axes."""
    return tuple((key >> (_FIELD * i)) & _MASK for i in range(dim))


@cache
def _guard_bits(dim):
    """The guard bit of every axis field of a packed key on ``dim`` axes."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(dim))


def _key_bits(keys):
    """The OR of packed keys: each field bounds that field's top."""
    bits = 0
    for k in keys:
        bits |= k
    return bits


def _check_guard(keys, fields, what):
    """Raise ``ValueError`` if a key sets the guard bit of one of its
    ``fields`` lowest fields, that is if ``keys`` came from sums of valid
    keys and one sum passed ``MAX_EXPONENT``."""
    if _key_bits(keys) & _guard_bits(fields):
        raise ValueError(f"{what} exceeds MAX_EXPONENT = {MAX_EXPONENT} along an axis")


def _lcm_sum(parts):
    """``(nums, den)`` of the sum of ``(nums_i, den_i)`` fractions over the
    least common denominator, merged in one dict and not reduced."""
    parts = list(parts)
    den = lcm(*(d for _, d in parts))
    out = {}
    for nums, d in parts:
        scale = den // d
        for k, v in nums.items():
            out[k] = out[k] + v * scale if k in out else v * scale
    return out, den


def _monomial_text(space, exps, prefix=""):
    """``q1^2*p1`` for exponents ``(2, 1)``; ``dq1^2*dp1`` with ``prefix="d"``."""
    return "*".join(
        f"{prefix}{name}^{e}" if e > 1 else f"{prefix}{name}"
        for name, e in zip(space.variables, exps)
        if e
    )


def _signed_sum(parts):
    """Join ``(rational, symbol)`` pairs as ``2*x - y + 1/2``.

    A unit coefficient drops out, an empty symbol leaves the number, and
    the empty sum prints ``0``.
    """
    chunks = []
    for c, symbol in parts:
        mag = abs(c)
        body = f"{mag}*{symbol}" if symbol and mag != 1 else symbol or str(mag)
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            sign = "-" if c < 0 else "+"
            chunks.append(f" {sign} {body}")
    return "".join(chunks) or "0"


def _scaled(text, symbol):
    """``text*symbol`` for a printed polynomial ``text``: one with several
    terms is parenthesized, ``1`` drops out, and an empty symbol leaves
    the polynomial alone."""
    if not symbol:
        return text
    if text == "1":
        return symbol
    return f"({text})*{symbol}" if " " in text else f"{text}*{symbol}"


class _Combination:
    """The root of every exact sum class: ``Poly``, ``GaussFn`` and the
    operators.  It holds what they share however they store their terms:
    the space check, the operand check of ``sum``, ``+``, ``-``, the
    right scalar product and the printer.

    Subclasses provide ``space``, the classmethod ``sum``, ``__neg__``
    and ``__mul__``.  The printer reads ``coeffs`` (a mapping from keys
    to nonzero Polys), the hooks ``_order`` and ``_symbol`` (or ``_term``)
    and, for zero, ``_zero_text``; ``Poly`` prints itself.
    """

    __slots__ = ()
    _zero_text = "0"

    def _check_space(self, space):
        """Raise ``ValueError`` unless this value lives on ``space``."""
        if self.space is not space and self.space != space:
            raise ValueError("operands live on different phase spaces")

    @classmethod
    def _operands(cls, space, items):
        """``items``, each checked to be a ``cls`` on ``space``."""
        for x in items:
            if type(x) is not cls:
                raise TypeError(f"cannot add {type(x).__name__} to {cls.__name__}")
            x._check_space(space)
            yield x

    @classmethod
    def zero(cls, space):
        return cls.sum(space, ())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self).sum(self.space, (self, other))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __str__(self):
        coeffs = self.coeffs
        keys = sorted(coeffs, key=self._order)
        return " + ".join(self._term(key, coeffs[key]) for key in keys) or self._zero_text

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def _term(self, key, poly):
        """One summand: the polynomial times the subclass's ``_symbol(key)``."""
        return _scaled(str(poly), self._symbol(key))


def _axis(space, axis):
    """The index of an axis given by index or coordinate name: ``KeyError``
    for an unknown name, ``IndexError`` for an index outside ``0..dim-1``."""
    if isinstance(axis, str):
        return space.axis(axis)
    if not 0 <= axis < space.dim:
        raise IndexError(f"axis {axis} out of range")
    return axis


class _Packed(_Combination):
    """Packed int keys to int numerators over one shared denominator.

    ``nums`` maps packed keys to nonzero ints and ``den`` is a positive
    int, kept in canonical form, ``gcd(den, *nums.values()) == 1`` and
    ``den == 1`` for zero, so equal values have equal ``nums`` and ``den``
    and ``==`` is a dict comparison.  This is the storage of :class:`Poly`
    and of the operators of :mod:`startrace.diffop`, which differ in what
    their keys hold: the monomial fields, then ``_slots`` multi-index
    fields above them (none for a Poly).  Instances are immutable once
    built, so the decoded view cached in ``_view``, the jet and the hash
    take no part in equality.  Values of different classes never compare
    equal.
    """

    __slots__ = ("space", "nums", "den", "_view", "_jet", "_hash")

    def _settle(self, space, nums, den):
        """Store ``nums / den`` in canonical form: zeros dropped, gcd 1."""
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        if den != 1:
            if not nums:
                den = 1
            else:
                g = gcd(den, *nums.values())
                if g != 1:
                    den //= g
                    nums = {k: v // g for k, v in nums.items()}
        self.space = space
        self.nums = nums
        self.den = den
        self._view = self._jet = self._hash = None

    @classmethod
    def _trusted(cls, space, nums, den):
        """The value ``nums / den`` on ``space``, with no key checked.

        ``nums`` maps packed keys whose fields are all at most
        ``MAX_EXPONENT`` to ints (zeros allowed), and ``den > 0``.  This is
        the one constructor of every arithmetic result."""
        out = cls.__new__(cls)
        out._settle(space, nums, den)
        return out

    @classmethod
    def _checked(cls, space, nums, den):
        """``_trusted`` for keys that are sums of two valid keys: raises
        ``ValueError`` naming ``MAX_EXPONENT`` if one passed it."""
        _check_guard(nums, (cls._slots + 1) * space.dim, "an operator product")
        return cls._trusted(space, nums, den)

    @classmethod
    def sum(cls, space, items):
        """``sum(items, cls.zero(space))``, merged in one dict over the
        least common denominator."""
        return cls._trusted(
            space, *_lcm_sum((x.nums, x.den) for x in cls._operands(space, items))
        )

    def is_zero(self):
        return not self.nums

    def diff(self, axis):
        """``d_i`` along an axis index or coordinate name, by the Leibniz
        rule: of the function for a Poly, ``d_i o self`` for an operator.
        Each term ``c`` (or ``c d^alpha``, or ``c d^alpha (x) d^beta``)
        gives ``d_i c`` in its monomial fields plus ``c`` times the term
        with one multi-index raised by ``e_i``, once per slot."""
        space = self.space
        shift = _FIELD * _axis(space, axis)
        unit = 1 << shift
        bumps = [unit << (_FIELD * space.dim * s) for s in range(1, self._slots + 1)]
        out = {}
        for k, v in self.nums.items():
            e = (k >> shift) & _MASK
            if e:
                j = k - unit
                out[j] = out[j] + v * e if j in out else v * e
            for b in bumps:
                j = k + b
                out[j] = out[j] + v if j in out else v
        return self._checked(space, out, self.den)

    def diff_multi(self, alpha):
        """``d^alpha`` through the derivative jet (:func:`_diff_multi`): of
        the function for a Poly, ``d^alpha o self`` for an operator."""
        return _diff_multi(self, alpha)

    def __neg__(self):
        return self._trusted(self.space, {k: -v for k, v in self.nums.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        m = other.numerator
        return self._trusted(
            self.space, {k: v * m for k, v in self.nums.items()}, self.den * other.denominator
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.den == other.den
            and self.nums == other.nums
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space, self.den, frozenset(self.nums.items())))
        return self._hash


class Poly(_Packed):
    """Polynomial in the phase-space coordinates with rational coefficients.

    A Poly stores integer numerators over one shared denominator in the
    canonical form of :class:`_Packed`: ``nums`` maps packed monomial keys
    (see :func:`_pack`) to nonzero ints, so the coefficient of a monomial
    is ``nums[key] / den``.  ``terms`` is the same polynomial decoded, a read-only
    mapping from exponent tuples (length ``2n``, axis order
    ``q1..qn p1..pn``) to nonzero Fractions, built on first use.

    The public constructor takes a mapping or a stream of ``(exps, c)``
    pairs; it adds the coefficients of repeated exponents, drops zero sums
    and rejects an exponent tuple of the wrong length or with an entry
    outside ``0..MAX_EXPONENT``.  Every arithmetic result is built by
    :meth:`_trusted` instead, which only drops zeros and reduces by the
    gcd: its keys are valid by construction, and products check the guard
    bits of their keys once per result.

    Instances are immutable once built: nothing writes to ``nums`` or
    ``den`` after construction, so the decoded ``terms``, derivatives
    cached in the ``_jet`` slot (see :func:`_diff_multi`) and the hash
    cached in ``_hash`` stay valid for the object's life.  A Poly keys each
    ``GaussFn`` term by its exponent, and the same exponent meets many dict
    lookups.
    """

    __slots__ = ()

    _slots = 0

    def __init__(self, space, terms):
        merged = {}
        for exps, c in _pairs(terms):
            c = _as_fraction(c)
            merged[exps] = merged[exps] + c if exps in merged else c
        merged = {exps: c for exps, c in merged.items() if c}
        den = lcm(*(c.denominator for c in merged.values()))
        nums = {
            _pack(space, exps): c.numerator * (den // c.denominator)
            for exps, c in merged.items()
        }
        self._settle(space, nums, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, space, c):
        c = _as_fraction(c)
        return cls._trusted(space, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, space, name):
        return cls._trusted(space, {1 << (_FIELD * space.axis(name)): 1}, 1)

    @classmethod
    def monomial(cls, space, exps, c=Fraction(1)):
        return cls(space, {tuple(exps): _as_fraction(c)})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self):
        """Read-only ``{exponent tuple: Fraction}``, decoded once."""
        terms = self._view
        if terms is None:
            dim, den = self.space.dim, self.den
            terms = self._view = MappingProxyType(
                {_unpack(k, dim): Fraction(v, den) for k, v in self.nums.items()}
            )
        return terms

    def constant_term(self):
        return Fraction(self.nums.get(0, 0), self.den)

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return super().__mul__(other)
        self._check_space(other.space)
        return Poly._trusted(
            self.space, _times(self.nums, other.nums, self.space.dim), self.den * other.den
        )

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.space, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation and pullbacks -------------------------------------

    def evaluate(self, point):
        """Evaluate at a point; exact for rational input, duck-typed otherwise."""
        total = None
        for exps, c in self.terms.items():
            val = c
            for x, e in zip(point, exps):
                if e:
                    val = val * x**e
            total = val if total is None else total + val
        return Fraction(0) if total is None else total

    def pullback_linear(self, matrix):
        """Pull back along ``x -> M x``: returns ``f(M x)``.

        The denominators of ``M`` clear once: with ``L`` their lcm, ``x_i``
        becomes the int linear form ``sum_j (L M_ij) x_j`` over ``L``.  A
        monomial of degree ``g`` expands into a product of powers of these
        forms, each power built once, scaled by ``L^(D-g)`` for the top
        degree ``D``, so the result has the one denominator ``den * L^D``.
        """
        space = self.space
        dim = space.dim
        rows = _square_matrix(space, matrix)
        scale = lcm(*(v.denominator for row in rows for v in row))
        forms = [
            {1 << (_FIELD * j): v.numerator * scale // v.denominator for j, v in enumerate(r) if v}
            for r in rows
        ]
        powers = {}

        def power(axis, e):
            got = powers.get((axis, e))
            if got is None:
                got = forms[axis] if e == 1 else _times(power(axis, e - 1), forms[axis], dim)
                powers[(axis, e)] = got
            return got

        exps = {k: _unpack(k, dim) for k in self.nums}
        top = max(map(sum, exps.values()), default=0)
        out = {}
        for k, v in self.nums.items():
            term = {0: v * scale ** (top - sum(exps[k]))}
            for axis, e in enumerate(exps[k]):
                if e:
                    term = _times(term, power(axis, e), dim)
            for j, w in term.items():
                out[j] = out[j] + w if j in out else w
        return Poly._trusted(space, out, self.den * scale**top)

    def translate(self, shifts):
        """Pull back along ``x -> x + a``: returns ``f(x + a)``, by Taylor's
        formula ``f <- sum_k a_i^k / k! d_i^k f`` along one shifted axis at a
        time.  ``shifts`` must have one entry per coordinate."""
        a = [_as_fraction(v) for v in shifts]
        if len(a) != self.space.dim:
            raise ValueError("shift vector has wrong length")
        out = self
        for axis, ai in enumerate(a):
            if ai:
                terms, d, c = [], out, Fraction(1)
                while d.nums:
                    terms.append(d * c)
                    d, c = d.diff(axis), c * ai / len(terms)
                out = Poly.sum(self.space, terms)
        return out

    # -- rendering ----------------------------------------------------

    def __str__(self):
        terms = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return _signed_sum((c, _monomial_text(self.space, exps)) for exps, c in terms)


def _diff_multi(f, alpha):
    """``d^alpha f`` for a :class:`Poly`, a ``GaussFn`` or an operator,
    memoized in ``f``'s jet.

    ``f.diff(axis)`` gives one derivative: of a function for ``Poly`` and
    ``GaussFn``, and ``d_axis o f`` for an operator.  The jet (the ``_jet``
    slot) maps each nonzero multi-index reached so far to its derivative.
    ``d^alpha`` is taken axis by axis in coordinate order, one ``.diff``
    per step, and every prefix on that path is kept, so a later request
    sharing a prefix pays only for the steps past it.  The operands of one
    star product meet every cochain through this one jet, so each partial
    derivative of an operand is taken once; an operator composed with many
    others builds each ``d^alpha o A`` once.  ``d^0 f`` is ``f`` itself and
    is not stored, so no object refers to itself.
    """
    key = tuple(alpha)
    jet = f._jet
    if jet is None:
        jet = f._jet = {}
    out = jet.get(key)
    if out is not None:
        return out
    out = f
    prefix = [0] * len(key)
    for axis, k in enumerate(key):
        for _ in range(k):
            prefix[axis] += 1
            step = tuple(prefix)
            nxt = jet.get(step)
            if nxt is None:
                nxt = jet[step] = out.diff(axis)
            out = nxt
    return out


def _parts(f):
    """``[(exponent, nums, den)]`` of a value: one per GaussFn term, or
    ``[(None, nums, den)]`` for a Poly or an operator."""
    if isinstance(f, _Packed):
        return [(None, f.nums, f.den)]
    return [(q, p.nums, p.den) for q, p in f.coeffs.items()]


def _combine(pairs):
    """``sum_i L_i * F_i`` for pairs ``(L_i, lden_i, F_i)`` of packed sums.

    ``L_i`` is ``{exponent: nums}`` over ``lden_i`` and ``F_i`` a list of
    ``(exponent, nums, den)`` parts; exponents are Polys or ``None`` for
    zero, and add, while keys add and numerators multiply.  Returns the
    sum as ``({exponent: nums}, den)`` over the lcm of the products of
    denominators, not reduced.  The caller checks the guard bits of the
    result's keys, which are sums of two keys.
    """
    den = lcm(*(lden * d for _, lden, parts in pairs for _, _, d in parts))
    out = {}
    exps = {}
    for left, lden, parts in pairs:
        for q, nums, d in parts:
            scale = den // (lden * d)
            items = nums.items()
            for ql, lnums in left.items():
                if ql is None or q is None:
                    s = q if ql is None else ql
                else:
                    s = exps.get((ql, q))
                    if s is None:
                        s = exps[(ql, q)] = ql + q
                acc = out.get(s)
                if acc is None:
                    acc = out[s] = {}
                for m, c in lnums.items():
                    c *= scale
                    for k, v in items:
                        k += m
                        acc[k] = acc[k] + c * v if k in acc else c * v
    return out, den


def _times(a, b, dim):
    """The product of two ``{packed key: int}`` dicts on ``dim`` axes, with
    its guard bits checked."""
    nums = _combine([({None: a}, 1, [(None, b, 1)])])[0][None]
    _check_guard(nums, dim, "a product")
    return nums


def _function(space, out, den, gauss):
    """The function ``sum_q (out[q] / den) exp(q)``: a Poly when ``gauss``
    is None, else an instance of the Gaussian class ``gauss``."""
    for nums in out.values():
        _check_guard(nums, space.dim, "a product")
    polys = {q: Poly._trusted(space, nums, den) for q, nums in out.items()}
    if gauss is None:
        return polys.get(None) or Poly.zero(space)
    return gauss._trusted(space, polys)


def poisson_bracket(f, g):
    """{f, g} with the sign convention fixed in the module docstring."""
    if not isinstance(f, Poly) or not isinstance(g, Poly):
        raise TypeError("poisson_bracket expects two Poly operands")
    f._check_space(g.space)
    n = f.space.n
    return Poly.sum(
        f.space, (f.diff(n + i) * g.diff(i) - f.diff(i) * g.diff(n + i) for i in range(n))
    )


# -- exact dense matrices over Fraction --------------------------------

def _square_matrix(space, m):
    """The rows of ``m`` as Fractions; ``ValueError`` unless ``m`` is
    ``dim x dim`` on ``space``."""
    rows = [[_as_fraction(v) for v in row] for row in m]
    if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
        raise ValueError(
            f"matrix shape must match the phase-space dimension: need {space.dim}x{space.dim}"
        )
    return rows


def mat_identity(d):
    return [
        [Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)
    ]


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = mat_transpose(b)
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
        for row in a
    ]


def mat_det(m):
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [[_as_fraction(v) for v in row] for row in m]
    d = len(a)
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, d):
            if a[r][col]:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def mat_inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    d = len(m)
    a = [[_as_fraction(v) for v in row] + ident for row, ident in zip(m, mat_identity(d))]
    for col in range(d):
        pivot = next((r for r in range(col, d) if a[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(d):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[d:] for row in a]
