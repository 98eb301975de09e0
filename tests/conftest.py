from fractions import Fraction
from math import factorial

from hypothesis import Phase, settings
from hypothesis import strategies as st

from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import Equivalence
from startrace.gaussfn import GaussFn
from startrace.poly import Poly, mat_identity, mat_mul

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


def polys(space):
    """Hypothesis strategy: polynomials of at most four terms."""
    exps = st.tuples(*[st.integers(0, 3)] * space.dim)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda t: Poly(space, t))


def gauss_fns(space):
    """Hypothesis strategy: sums of at most two ``P(x) exp(-t|x|^2/2 + b.x)``."""
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
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
