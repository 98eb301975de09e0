from fractions import Fraction

from hypothesis import strategies as st

from startrace.poly import PhaseSpace, Poly, mat_identity, mat_mul


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
