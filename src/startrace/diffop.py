"""Differential and bidifferential operators with polynomial coefficients.

Operators are kept in normal form with every derivative to the right of
its coefficient, and stored flat, in the layout of
:class:`~startrace.poly.Poly`: one dict from packed int keys to int
numerators over one shared, gcd-reduced denominator.  A key holds the
coefficient monomial in its lowest ``dim`` fields, so ``key & mono_mask``
is exactly the Poly key of that monomial; above them comes the
derivative multi-index ``alpha``, and for a :class:`BiDiffOp` the right
multi-index ``beta`` above ``alpha``.  Every field is ``_FIELD`` bits
wide with a guard bit, so the sum of two valid keys never carries into
the next field, and one OR-reduce over a result's keys checks every
exponent and derivative order against ``MAX_EXPONENT``.  Equality is a
dict comparison and the hash is cached.

Every operation is int arithmetic on keys: multiplying by a coefficient
monomial adds its key, ``d_i`` lowers a monomial field (scaled by the
exponent) or raises a derivative field, and swapping the two slots of a
BiDiffOp swaps its two multi-index fields.  Like terms merge in the one
dict.  ``coeffs`` is the public view, ``{alpha: Poly}`` for a DiffOp and
``{(alpha, beta): Poly}`` for a BiDiffOp, decoded once and cached for the
printer, the parser and callers that read single terms.

Every operator has a derivative jet, as Polys and GaussFns do:
``diff_multi(alpha)`` is ``d^alpha o A`` for a :class:`DiffOp` and
``d^alpha o B`` for a :class:`BiDiffOp`, built one axis at a time and
memoized on the operator (:func:`startrace.poly._diff_multi`).  One
helper reads the jets for every operator job: :meth:`DiffOp._through`
gives the operands of ``sum_alpha a_alpha d^alpha x``, for ``x`` a Poly,
a GaussFn or an operator, for the product kernel ``_combine`` of
:mod:`startrace.poly`.  ``A(f)``, ``A o C``, ``S o B``, ``B o (S_left (x)
S_right)``, the transport and the pair integrals sum its operands, with no
multinomial split, and each derivative of an argument is built once.
Integration by parts has one kernel per kind of argument:
:meth:`BiDiffOp.transpose` for operators and
:func:`startrace.gaussfn.adjoint_weights` for polynomials.
"""

from __future__ import annotations

from types import MappingProxyType

from startrace.poly import (
    _FIELD,
    _MASK,
    Poly,
    _axis,
    _check_guard,
    _combine,
    _function,
    _Packed,
    _lcm_sum,
    _monomial_text,
    _pack,
    _pairs,
    _parts,
    _scaled,
    _unpack,
)


def _check_alpha(space, alpha):
    """The packed fields of a derivative multi-index, at bit 0.

    Raises ``ValueError("bad derivative multi-index ...")`` unless ``alpha``
    has one int in ``0..MAX_EXPONENT`` per coordinate."""
    return _pack(space, tuple(alpha), "derivative multi-index")


class _Operator(_Packed):
    """What DiffOp and BiDiffOp share beyond the packed storage, linear
    structure and ``d_i o`` (``diff``) of ``Poly``: the public
    constructor and the decoded view.

    Keys are laid out as in the module docstring.  ``_slots`` is the
    number of multi-index fields above the monomial, and the hooks
    ``_encode`` and ``_decode`` turn a public key into those fields and
    back.

    The public constructor takes a mapping or a stream of ``(key, poly)``
    pairs; it checks every key, adds the Polys of repeated keys and drops
    zero sums.  Every arithmetic result is built by ``_trusted``, or by
    ``_checked`` where a key may pass ``MAX_EXPONENT``.
    """

    __slots__ = ()

    def __init__(self, space, coeffs):
        shift = _FIELD * space.dim
        parts = []
        for key, poly in _pairs(coeffs):
            hi = self._encode(space, key) << shift
            if not isinstance(poly, Poly):
                raise TypeError(f"operator coefficients must be Polys, got {type(poly).__name__}")
            poly._check_space(space)
            parts.append(({hi + k: v for k, v in poly.nums.items()}, poly.den))
        self._settle(space, *_lcm_sum(parts))

    # -- inspection ---------------------------------------------------

    def _groups(self):
        """``{fields: {monomial key: num}}``: the terms grouped by their
        multi-index fields, shifted down to bit 0."""
        shift = _FIELD * self.space.dim
        mask = (1 << shift) - 1
        groups = {}
        for k, v in self.nums.items():
            hi = k >> shift
            group = groups.get(hi)
            if group is None:
                groups[hi] = {k & mask: v}
            else:
                group[k & mask] = v
        return groups

    @property
    def coeffs(self):
        """Read-only ``{key: Poly}``, decoded once."""
        coeffs = self._view
        if coeffs is None:
            space, den = self.space, self.den
            coeffs = self._view = MappingProxyType(
                {
                    self._decode(hi, space.dim): Poly._trusted(space, monos, den)
                    for hi, monos in self._groups().items()
                }
            )
        return coeffs

    @classmethod
    def _settled(cls, space, operands):
        """The operator ``sum_i L_i * F_i`` of ``_combine`` operands over
        operator keys, settled once: one gcd and one guard check."""
        out, den = _combine(operands)
        return cls._checked(space, out.get(None, {}), den)


class DiffOp(_Operator):
    """``sum_alpha a_alpha(x) d^alpha`` acting on Poly or GaussFn inputs."""

    __slots__ = ()

    _slots = 1
    _encode = staticmethod(_check_alpha)
    _decode = staticmethod(_unpack)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, space):
        return cls._trusted(space, {0: 1}, 1)

    @classmethod
    def partial(cls, space, axis, k=1):
        alpha = [0] * space.dim
        alpha[_axis(space, axis)] = k
        return cls(space, {tuple(alpha): Poly.constant(space, 1)})

    @classmethod
    def mult(cls, poly):
        """Multiplication operator ``f -> poly * f``: its keys are the Poly's."""
        return cls._trusted(poly.space, poly.nums, poly.den)

    # -- action -------------------------------------------------------

    def _through(self, x):
        """The ``_combine`` operands of ``sum_alpha a_alpha d^alpha x``, read
        from the jet of ``x``, each over ``self.den`` so that several
        operators' operands may share one sum."""
        dim = self.space.dim
        return [
            ({None: monos}, self.den, _parts(x.diff_multi(_unpack(hi, dim))))
            for hi, monos in self._groups().items()
        ]

    def apply(self, f):
        """``sum_alpha a_alpha d^alpha f`` through :meth:`_through`,
        accumulated in one numerator dict per exponent of ``f``."""
        out, den = _combine(self._through(f))
        return _function(self.space, out, den, None if isinstance(f, Poly) else type(f))

    def compose(self, other):
        """Normal form of ``self o other``: ``sum_alpha a_alpha (d^alpha o other)``,
        with ``d^alpha o other`` read from ``other``'s jet."""
        if not isinstance(other, DiffOp):
            raise TypeError("compose expects a DiffOp")
        self._check_space(other.space)
        return DiffOp._settled(self.space, self._through(other))

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
    s._check_space(b.space)


class BiDiffOp(_Operator):
    """``sum a_{alpha,beta}(x) (d^alpha tensor d^beta)`` on pairs of inputs."""

    __slots__ = ()

    _slots = 2
    _zero_text = "(0 | 1)"  # a bare 0 would parse back as a rational

    @staticmethod
    def _encode(space, key):
        alpha, beta = key
        return _check_alpha(space, alpha) | _check_alpha(space, beta) << (_FIELD * space.dim)

    @staticmethod
    def _decode(hi, dim):
        shift = _FIELD * dim
        return (_unpack(hi & ((1 << shift) - 1), dim), _unpack(hi >> shift, dim))

    @classmethod
    def product_cochain(cls, space):
        """C_0: the pointwise product ``(u, v) -> u v``."""
        return cls._trusted(space, {0: 1}, 1)

    def apply(self, u, v):
        """``B(u, v) = sum_alpha d^alpha u * D_alpha(v)`` over the :meth:`_rows`
        ``D_alpha = sum_beta a_{alpha,beta} d^beta``, summed once in the class
        of the products: a GaussFn when either operand is one."""
        space = self.space
        if not self.nums:
            return type(u).zero(space)
        products = [
            u.diff_multi(_unpack(a, space.dim)) * DiffOp._trusted(space, row, self.den).apply(v)
            for a, row in self._rows(self.nums).items()
        ]
        return type(products[0]).sum(space, products)

    def _rows(self, nums):
        """``{alpha key: numerators of sum_beta a_{alpha,beta} d^beta}`` for
        BiDiffOp numerators ``nums``: each ``beta`` moves to the DiffOp slot."""
        shift = _FIELD * self.space.dim
        mask = (1 << shift) - 1
        rows = {}
        for k, c in nums.items():
            rows.setdefault(k >> shift & mask, {})[k & mask | k >> (2 * shift) << shift] = c
        return rows

    def transpose(self, w):
        """The DiffOp ``B^t_w = sum (-1)^{|alpha|} d^alpha o (a_{alpha,beta} w)
        o d^beta``, so that ``integral of w B(u, v) = integral of u B^t_w(v)``
        for operands that leave no boundary terms, as Gaussians do.

        The terms times the Poly ``w`` split into the :meth:`_rows`
        ``D_alpha = sum_beta a_{alpha,beta} w d^beta``.  Horner's rule then
        takes one axis at a time, the last first: the ``D`` whose ``alpha``
        differ only in ``alpha_i = k`` merge into ``D_0 - d_i o (D_1 - ...)``,
        so every ``d_i`` acts on a merged sum, all over one denominator."""
        if not isinstance(w, Poly):
            raise TypeError("transpose expects a Poly weight")
        space = self.space
        w._check_space(space)
        out, den = _combine([({None: self.nums}, 1, [(None, w.nums, w.den)])])
        nums = out.get(None, {})
        _check_guard(nums, space.dim, "an operator product")
        ops = self._rows(nums)
        for i in reversed(range(space.dim)):
            field = _MASK << (_FIELD * i)
            chains = {}
            for a, d in ops.items():
                chains.setdefault(a & ~field, {})[(a & field) >> (_FIELD * i)] = d
            ops = {}
            for rest, chain in chains.items():
                top = max(chain)
                acc = DiffOp._trusted(space, chain[top], 1)
                for k in range(top - 1, -1, -1):
                    acc = DiffOp._trusted(space, chain.get(k, {}), 1) - acc.diff(i)
                ops[rest] = acc.nums
        return DiffOp._trusted(space, ops.get(0, {}), self.den * den)

    def antisym(self):
        """``B^-(u,v) = B(u,v) - B(v,u)`` as a swap of the two multi-index
        fields of every key."""
        shift = _FIELD * self.space.dim
        mask = (1 << shift) - 1
        out = dict(self.nums)
        for k, v in self.nums.items():
            j = (k & mask) | (k >> shift & mask) << (2 * shift) | (k >> (2 * shift)) << shift
            out[j] = out[j] - v if j in out else -v
        return BiDiffOp._trusted(self.space, out, self.den)

    def precompose(self, s_left, s_right):
        """Normal form of ``(u,v) -> B(S_left u, S_right v)``: each term
        ``c d^alpha (x) d^beta`` becomes ``c (d^alpha o S_left) (x)
        (d^beta o S_right)``, read from the transports' jets."""
        for s in (s_left, s_right):
            _check_transport(self, s)
        return BiDiffOp._settled(self.space, self._before(s_left, s_right))

    def _before(self, s_left, s_right):
        """The :func:`startrace.poly._combine` operands of :meth:`precompose`,
        with ``self.den`` in each, so that several precompositions may share
        one :meth:`_settled` sum.

        The terms sharing ``beta`` merge ``c (d^alpha o S_left)`` in one dict
        through :meth:`DiffOp._through`; the right factor's keys then move
        their multi-index up to the right slot and add on."""
        dim = self.space.dim
        shift = _FIELD * dim
        mask = (1 << shift) - 1
        lefts = {}
        for k, c in self.nums.items():
            lefts.setdefault(k >> (2 * shift), {})[k & (mask | mask << shift)] = c
        operands = []
        for b, left in lefts.items():
            sums, den = _combine(DiffOp._trusted(self.space, left, 1)._through(s_left))
            half = sums.get(None, {})
            _check_guard(half, 2 * dim, "an operator product")
            right = s_right.diff_multi(_unpack(b, dim))
            moved = {(k & mask) | (k >> shift) << (2 * shift): v for k, v in right.nums.items()}
            operands.append(({None: half}, self.den * den, [(None, moved, right.den)]))
        return operands

    def postcompose(self, s_out):
        """Normal form of ``(u,v) -> S_out(B(u, v))``:
        ``sum_delta s_delta (d^delta o B)``, read from this operator's jet."""
        _check_transport(self, s_out)
        return BiDiffOp._settled(self.space, s_out._through(self))

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
        if set(poly.nums) == {0}:
            return _scaled(text, f"({lhs or '1'} | {rhs or '1'})")
        left = _scaled(text, lhs) if lhs else f"({text})" if " " in text else text
        return f"({left} | {rhs or '1'})"
