from fractions import Fraction
from math import exp, factorial, prod

from hypothesis import Phase, settings
from hypothesis import strategies as st

from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import Equivalence
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn
from startrace.poly import Poly, mat_identity, mat_mul
from startrace.star import star_multiply

# Hypothesis's explain phase re-runs a shrunk failing example hundreds of
# times to mark which draws it could vary; with exact arithmetic that took
# about a minute per failure, so failures are reported without it.
settings.register_profile("startrace", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("startrace")


def random_poly(rng, space, max_degree=3, n_terms=4, allow_constant=True):
    """Small random polynomial with coefficients in {-3..3}\\{0}."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * space.dim
        for _ in range(rng.randint(0 if allow_constant else 1, max_degree)):
            exps[rng.randrange(space.dim)] += 1
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + c
    return Poly(space, terms)


def rationals(bound, max_denominator):
    """Hypothesis strategy: the ``p/q`` with ``q <= max_denominator`` and
    ``|p/q| <= bound``, the finite set that ``st.fractions`` draws from with
    these bounds, but without its slow generation; 0 and small denominators
    come first, so failures shrink towards them."""
    values = {
        Fraction(p, q)
        for q in range(1, max_denominator + 1)
        for p in range(-bound * q, bound * q + 1)
    }
    return st.sampled_from(sorted(values, key=lambda v: (v.denominator, abs(v), v < 0)))


def polys(space):
    """Hypothesis strategy: polynomials of at most four terms."""
    exps = st.tuples(*[st.integers(0, 3)] * space.dim)
    return st.dictionaries(exps, rationals(3, 4), max_size=4).map(lambda t: Poly(space, t))


def gauss_fns(space):
    """Hypothesis strategy: sums of at most two ``P(x) exp(-t|x|^2/2 + b.x)``."""
    small = rationals(2, 2)
    term = st.builds(
        lambda poly, t, b: GaussFn.term(space, poly, t, b),
        polys(space),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        st.lists(small, min_size=space.dim, max_size=space.dim),
    )
    return st.lists(term, max_size=2).map(lambda ts: sum(ts, GaussFn.zero(space)))


def multi_indices(space, top=2):
    """Hypothesis strategy: derivative multi-indices with entries 0..top."""
    return st.tuples(*[st.integers(0, top)] * space.dim)


def iterated_diff(f, alpha):
    """Reference ``d^alpha f`` by repeated ``.diff``, bypassing any jet."""
    for axis, k in enumerate(alpha):
        for _ in range(k):
            f = f.diff(axis)
    return f


def plane_product(space, steps):
    """Product of elementary maps ``(kind, plane, s)`` on canonical planes.

    Shears and squeezes are symplectic on their own; ``scale-q`` multiplies
    one ``q`` axis by ``s`` and has determinant ``s``.
    """
    m = mat_identity(space.dim)
    for kind, plane, s in steps:
        e = mat_identity(space.dim)
        qi, pi = plane, space.n + plane
        if kind == "shear-q":
            e[qi][pi] = s
        elif kind == "shear-p":
            e[pi][qi] = s
        elif kind == "scale-q":
            e[qi][qi] = s
        else:
            e[qi][qi], e[pi][pi] = s, 1 / s
        m = mat_mul(m, e)
    return m


def rational_rotation(space, i=0):
    """Orthogonal symplectic matrix rotating the i-th canonical plane by
    the Pythagorean angle with cos = 3/5, sin = 4/5."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    m = mat_identity(space.dim)
    qi, pi = i, space.n + i
    m[qi][qi], m[qi][pi] = c, s
    m[pi][qi], m[pi][pi] = -s, c
    return m


def tapered_bump(points, dimension, support, half_width=3.0, margin_cells=14):
    """Gentle unit-integral bump on a standard [-3, 3] box."""
    from startrace.gsdecomp import tapered_generate

    return tapered_generate(
        dimension, half_width, points, support, margin_cells=margin_cells
    )


def hamiltonian_flow(h, trunc_order):
    """``A = exp(nu {h, .})`` as an equivalence truncated at ``trunc_order``.

    ``{h, .} = sum_i dh/dp_i d/dq_i - dh/dq_i d/dp_i`` is a vector field, so
    every ``A_k = {h, .}^k / k!`` kills constants and ``A`` is unital.  For
    quadratic ``h`` the bracket is a derivation of the Moyal product, and
    ``A`` is an automorphism of it.
    """
    space, n = h.space, h.space.n
    unit = [tuple(int(i == a) for i in range(space.dim)) for a in range(space.dim)]
    pairs = [(unit[i], h.diff(n + i)) for i in range(n)]
    pairs += [(unit[n + i], -h.diff(i)) for i in range(n)]
    bracket = DiffOp(space, pairs)
    ops, power = {}, DiffOp.identity(space)
    for k in range(1, trunc_order + 1):
        power = power.compose(bracket)
        ops[k] = power * Fraction(1, factorial(k))
    return Equivalence(space, trunc_order, ops)


def record_transposes(monkeypatch):
    """Wrap ``BiDiffOp.transpose``; the returned list grows by ``(cochain,
    weight)`` per call."""
    calls = []
    original = BiDiffOp.transpose

    def recording(self, w):
        calls.append((self, w))
        return original(self, w)

    monkeypatch.setattr(BiDiffOp, "transpose", recording)
    return calls


def transposes_of(tau, s):
    """The ``(C_r^-, rho_j)`` with ``r + j <= K`` that one build of the
    operator trace residual of ``tau`` and ``s`` transposes, once each."""
    return [
        (minus, w)
        for r, minus in s.minus.items()
        for j, w in tau.density.coeffs.items()
        if r + j <= s.trunc_order
    ]


# -- oracles built from public pieces ----------------------------------
#
# The package checks every identity by parts; these helpers build the
# functions that the identities integrate, from applications of operators
# to functions (``DiffOp.apply``, ``BiDiffOp.apply``, ``star_multiply``),
# so that they stay independent of the by-parts kernels that they check.


def formal(w, trunc_order):
    """``w`` as a formal function: a FormalScalar as it is, a Poly or a
    GaussFn as the constant series at ``trunc_order``."""
    return w if isinstance(w, FormalScalar) else FormalScalar.constant(w, trunc_order)


def commutator(s, u, v):
    """``u * v - v * u`` under ``s``: the Cauchy sum of ``s.minus[r].apply(u_i,
    v_j)`` in the window of :func:`~startrace.star.star_multiply`."""
    u, v = formal(u, s.trunc_order), formal(v, s.trunc_order)
    if u.is_zero() or v.is_zero():
        return FormalScalar.zero(min(u.trunc_order, v.trunc_order))
    mu, mv = u.min_degree, v.min_degree
    trunc = min(u.trunc_order + mv, v.trunc_order + mu, s.trunc_order + mu + mv)
    return FormalScalar(
        (
            (r + i + j, minus.apply(ci, cj))
            for r, minus in s.minus.items()
            for i, ci in u.coeffs.items()
            for j, cj in v.coeffs.items()
            if r + i + j <= trunc
        ),
        trunc,
    )


def associativity_residual(s, u, v, w):
    """``(u*v)*w - u*(v*w)`` under ``s``; zero for a genuine star product."""
    left = star_multiply(s, star_multiply(s, u, v), w)
    return left - star_multiply(s, u, star_multiply(s, v, w))


def apply_series(ops, w):
    """``sum_k nu^k ops[k](w)`` for operators ``{k: DiffOp}``, in ``w``'s window."""
    return FormalScalar(
        (
            (k + i, op.apply(c))
            for k, op in ops.items()
            for i, c in w.coeffs.items()
            if k + i <= w.trunc_order
        ),
        w.trunc_order,
    )


def apply_equivalence(t, w):
    """``T(w) = w + sum_k nu^k T_k(w)`` for a formal function, Poly or GaussFn ``w``."""
    w = formal(w, t.trunc_order)
    return w + apply_series(t.ops, w)


def apply_euler(d, w):
    """``D(w) = nu dw/dnu + X(w) + sum_r nu^r D'_r(w)`` for a FormalScalar ``w``."""
    return w.nu_scale_derivative() + apply_series({0: d.x, **d.corrections}, w)


def derivation_residual(s, d, u, v):
    """``D(u*v) - D(u)*v - u*D(v)`` under ``s``; zero iff ``D`` is a
    derivation of ``s`` on the pair."""
    u, v = formal(u, s.trunc_order), formal(v, s.trunc_order)
    lhs = apply_euler(d, star_multiply(s, u, v))
    return lhs - star_multiply(s, apply_euler(d, u), v) - star_multiply(s, u, apply_euler(d, v))


def termwise_adjoint(a):
    """``sum_alpha (-1)^|alpha| d^alpha o a_alpha``, one multiplication
    operator and one jet read per term: the formal adjoint of ``a``."""
    return DiffOp.sum(
        a.space,
        (DiffOp.mult(c).diff_multi(alpha) * (-1) ** sum(alpha) for alpha, c in a.coeffs.items()),
    )


def left_transpose(a):
    """The transpose of ``a (x) 1`` against the weight 1, which by parts is
    the formal adjoint of ``a``."""
    space = a.space
    rest = (0,) * space.dim
    left = BiDiffOp(space, {(alpha, rest): c for alpha, c in a.coeffs.items()})
    return left.transpose(Poly.constant(space, 1))


def evaluate(poly, point):
    """``poly`` at ``point``: exact for rational input, duck-typed otherwise."""
    return sum(
        (c * prod(x**e for x, e in zip(point, exps)) for exps, c in poly.terms.items()),
        Fraction(0),
    )


def evaluate_float(fn, point):
    """The value of the GaussFn ``fn`` at ``point``, as a float."""
    pt = [float(x) for x in point]
    return sum(float(evaluate(p, pt)) * exp(evaluate(q, pt)) for q, p in fn.coeffs.items())


def translate(fn, shifts):
    """The GaussFn ``fn(x + a)``: each ``P`` and ``Q`` translated."""
    pairs = [(q.translate(shifts), p.translate(shifts)) for q, p in fn.coeffs.items()]
    return GaussFn(fn.space, pairs)
