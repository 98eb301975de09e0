"""Command line: parse phase-space expressions, run scenario batteries.

``startrace run <scenario>`` exercises one named identity battery and
prints a deterministic report (JSON or text); ``startrace parse``
round-trips a single expression; ``startrace list-scenarios`` shows what
can run.  The process exit status is 0 exactly when every case passes.
``-h``/``--help`` prints :data:`USAGE` and exits 0.  Options take
``--n 2`` or ``--n=2`` and any unique prefix (``--ord 4``), before or
after the positional; ``--`` ends the options, so an expression with a
leading minus goes after it (``startrace parse -- -q1``).  Every usage
error, bad input file or unparsable expression exits 2 with one
``error:`` (or ``parse error:``) line on stderr; a failed case exits 1.

Expression grammar, loosest to tightest binding: sums ``a + b - c``,
bidifferential pairing ``left | right``, products ``a*b`` (composition
for operators), powers ``a^k`` with ``k <= MAX_EXPONENT``.  Atoms are
rationals ``3/4``, variables ``q1 p2``, partials ``dq1 dp2``, the
squared radius ``|x|^2``, ``exp`` of a polynomial whose quadratic part
is a multiple of ``|x|^2``, and parenthesized subexpressions, nested at
most ``MAX_NESTING`` deep.  A leading minus is allowed on any term.
"""

from __future__ import annotations

import contextlib
import getopt
import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np

from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import (
    Equivalence,
    density_from_equivalence,
    random_equivalence,
    symplectic_automorphism_check,
    transport_euler,
    transport_star,
)
from startrace.formal import FormalScalar
from startrace.gaussfn import GaussFn, IntegralValue, isotropic_exponent
from startrace.gsdecomp import (
    GridFn,
    MarginError,
    NonzeroIntegralError,
    bracket_decompose,
    bracket_residual,
    brw_residual,
    bump_generate,
    decomposition_residual,
    grid_diff,
    grid_integrate,
    grid_translate,
    gs_decompose,
    plateau_generate,
    tapered_generate,
)
from startrace.poly import MAX_EXPONENT, PhaseSpace, Poly, mat_identity, mat_mul
from startrace.star import canonical_euler, closedness_integral, moyal_construct
from startrace.trace import (
    InconsistentTracesError,
    TraceFunctional,
    default_probe_battery,
    moyal_trace,
    normalization_residual,
    proportionality_factor,
    trace_eval,
    trace_residual,
    trk_residual,
)


# -- expression parsing -----------------------------------------------


class ParseError(ValueError):
    """Bad expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<axnorm>\|x\|\^2)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<exp>exp\b)"
    r"|(?P<deriv>d[qp]\d+)"
    r"|(?P<var>[qp]\d+)"
    r"|(?P<op>[-+*^()|])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


POWER_TERM_BUDGET = 1 << 16
"""The most terms a parsed power ``a^k`` may be bound to build."""

POWER_BIT_BUDGET = 1 << 16
"""The most bits the coefficients of a parsed power may be bound to reach."""

MAX_NESTING = 64
"""The most parentheses and ``exp(`` a parsed expression may nest.  Each
level is five parser frames, so the bound keeps the descent well inside
the interpreter's recursion limit (about 190 levels fail without it)."""

MAX_DIGITS = 1000
"""The most digits a parsed numerator, denominator or axis index may have,
well inside the interpreter's limit on ``int()`` of a string (an exponent
past ``MAX_EXPONENT`` is refused whatever its length)."""


def _power_bounds(value, k):
    """``(terms, bits)`` bounds on ``value^k`` for a rational, polynomial,
    Gaussian or operator, read before the power is computed.

    A rational's power has ``k`` times its bits.  A sum of ``t`` monomials
    raised to ``k`` has at most ``C(t-1+k, k)`` terms, one per multiset of
    factors, whose coefficients gain at most ``k*log2(t)`` bits from the
    multinomials.  An operator's power counts ``C(t+k, k)``, since normal
    ordering fills in every lower order too.  A polynomial or operator
    power also has at most ``prod_i (k*e_i + 1)`` terms, with ``e_i`` the
    top exponent (of a coordinate or a partial) along axis ``i``, which
    is the smaller bound when monomial products collide.
    """
    if isinstance(value, Fraction):
        return 1, k * max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, Poly):
        polys, monomials = [value], list(value.terms)
    elif isinstance(value, DiffOp):
        polys = list(value.coeffs.values())
        monomials = [e + alpha for alpha, p in value.coeffs.items() for e in p.terms]
    else:
        polys, monomials = list(value.coeffs.values()), []
    nums = [v for p in polys for v in p.nums.values()]
    t = max(1, len(nums))
    sizes = [abs(v).bit_length() for v in nums] + [p.den.bit_length() for p in polys]
    bits = max(sizes, default=0)
    terms = math.comb(t + k, k) if isinstance(value, DiffOp) else math.comb(t - 1 + k, k)
    if monomials:
        terms = min(terms, math.prod(k * max(axis) + 1 for axis in zip(*monomials)))
    return terms, k * (bits + (t - 1).bit_length())


class _Parser:
    """Recursive descent over the token list; ``|`` binds between ``+``
    and ``*`` so a pairing's sides are products, not sums."""

    def __init__(self, text, space):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.index = 0
        self.last_pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------

    def _peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.index += 1
        self.last_pos = tok[2]
        return tok

    def _accept_op(self, *symbols):
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in symbols:
            self._take()
            return tok[1]
        return None

    def _expect_op(self, symbol):
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != symbol:
            pos = tok[2] if tok is not None else len(self.text)
            raise ParseError(f"expected {symbol!r}", pos)
        self._take()

    def parse(self):
        value = self._sum()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    # -- grammar ------------------------------------------------------

    def _sum(self):
        value = self._bidterm()
        while True:
            op = self._accept_op("+", "-")
            if op is None:
                return value
            rhs = self._bidterm()
            if op == "-":
                rhs = rhs * Fraction(-1)
            value = self._add(value, rhs)

    def _bidterm(self):
        left = self._term()
        if self._accept_op("|") is None:
            return left
        return self._pair(left, self._term())

    def _term(self):
        negate = False
        while self._accept_op("-"):
            negate = not negate
        value = self._factor()
        while self._accept_op("*"):
            value = self._mul(value, self._factor())
        return value * Fraction(-1) if negate else value

    def _factor(self):
        value = self._atom()
        if self._accept_op("^"):
            tok = self._take()
            if tok[0] != "number" or "/" in tok[1]:
                raise ParseError("exponent must be a natural number", tok[2])
            # the length test keeps int() off digit strings of any size
            digits = tok[1].lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent must be at most {MAX_EXPONENT}", tok[2])
            value = self._power(value, int(digits))
        return value

    def _atom(self):
        kind, text, pos = self._take()
        if kind == "number":
            num, _, den = text.partition("/")
            try:
                return Fraction(self._int(num, pos), self._int(den or "1", pos))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {text!r}", pos) from None
        if kind == "var":
            self._check_index(text, pos)
            return Poly.variable(self.space, text)
        if kind == "deriv":
            self._check_index(text[1:], pos)
            return DiffOp.partial(self.space, text[1:])
        if kind == "axnorm":
            names = self.space.variables
            return Poly.sum(self.space, (Poly.variable(self.space, x) ** 2 for x in names))
        if kind == "exp":
            self._expect_op("(")
            return self._gauss(self._nested(pos), pos)
        if kind == "op" and text == "(":
            return self._nested(pos)
        raise ParseError(f"unexpected {text!r}", pos)

    def _nested(self, pos):
        """The sum inside an open parenthesis, up to its ``)``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
        self.depth += 1
        inner = self._sum()
        self._expect_op(")")
        self.depth -= 1
        return inner

    def _int(self, digits, pos):
        """``int(digits)`` for a token's digit string, refused past
        ``MAX_DIGITS`` digits."""
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"too many digits (more than {MAX_DIGITS})", pos)
        return int(digits)

    def _check_index(self, name, pos):
        if not 1 <= self._int(name[1:], pos) <= self.space.n:
            raise ParseError(f"unknown axis {name!r} for n={self.space.n}", pos)

    # -- combination rules -------------------------------------------
    #
    # Values are Fraction, Poly, GaussFn, DiffOp, or BiDiffOp.  Scalars
    # lift to polynomials, polynomials lift to functions or to
    # multiplication operators, whichever side demands it.

    def _lift_poly(self, value):
        if isinstance(value, Fraction):
            return Poly.constant(self.space, value)
        return value

    def _as_op(self, value):
        if isinstance(value, DiffOp):
            return value
        value = self._lift_poly(value)
        if isinstance(value, Poly):
            return DiffOp.mult(value)
        raise ParseError("cannot mix operators with functions", self.last_pos)

    def _as_gauss(self, value):
        if isinstance(value, GaussFn):
            return value
        value = self._lift_poly(value)
        if isinstance(value, Poly):
            return GaussFn.from_poly(value)
        raise ParseError("cannot mix operators with functions", self.last_pos)

    def _add(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        if isinstance(a, BiDiffOp) or isinstance(b, BiDiffOp):
            if isinstance(a, BiDiffOp) and isinstance(b, BiDiffOp):
                return a + b
            raise ParseError(
                "cannot add a bidifferential pairing to anything else", self.last_pos
            )
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            return self._as_op(a) + self._as_op(b)
        if isinstance(a, GaussFn) or isinstance(b, GaussFn):
            return self._as_gauss(a) + self._as_gauss(b)
        return self._lift_poly(a) + self._lift_poly(b)

    def _mul(self, a, b):
        if isinstance(a, Fraction) and not isinstance(b, Fraction):
            return b * a
        if isinstance(b, Fraction):
            return a * b
        if isinstance(a, BiDiffOp) or isinstance(b, BiDiffOp):
            raise ParseError(
                "bidifferential pairings only scale by rationals", self.last_pos
            )
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            return self._as_op(a).compose(self._as_op(b))
        if isinstance(a, GaussFn) or isinstance(b, GaussFn):
            return self._as_gauss(a) * self._as_gauss(b)
        return a * b

    def _power(self, value, k):
        if isinstance(value, BiDiffOp):
            raise ParseError("cannot raise a pairing to a power", self.last_pos)
        terms, bits = _power_bounds(value, k)
        if terms > POWER_TERM_BUDGET:
            raise ParseError(
                f"power may build {terms} terms, over the budget of {POWER_TERM_BUDGET}",
                self.last_pos,
            )
        if bits > POWER_BIT_BUDGET:
            raise ParseError(
                f"power may build {bits}-bit coefficients, over the budget of {POWER_BIT_BUDGET}",
                self.last_pos,
            )
        if isinstance(value, (Fraction, Poly)):
            return value**k
        if isinstance(value, GaussFn):
            out = GaussFn.from_poly(Poly.constant(self.space, 1))
            for _ in range(k):
                out = out * value
            return out
        out = DiffOp.identity(self.space)
        for _ in range(k):
            out = out.compose(value)
        return out

    def _pair(self, left, right):
        left, right = self._as_op(left), self._as_op(right)
        return BiDiffOp(
            self.space,
            (
                ((alpha, beta), pa * pb)
                for alpha, pa in left.coeffs.items()
                for beta, pb in right.coeffs.items()
            ),
        )

    def _gauss(self, inner, pos):
        inner = self._lift_poly(inner)
        if not isinstance(inner, Poly):
            raise ParseError("exp expects a polynomial argument", pos)
        if any(sum(exps) > 2 for exps in inner.terms):
            raise ParseError("exp argument must be at most quadratic", pos)
        iso = isotropic_exponent(inner)
        if iso is None:
            raise ParseError("exp quadratic part must be a multiple of |x|^2", pos)
        if iso[0] < 0:
            raise ParseError("exp argument must not grow at infinity", pos)
        return GaussFn(self.space, {inner: Poly.constant(self.space, 1)})


def parse_expression(text, n=1):
    """Parse expression text over ``n`` canonical pairs.

    Returns a Fraction, Poly, GaussFn, DiffOp, or BiDiffOp; raises
    :class:`ParseError` with a position on malformed input.
    """
    return _Parser(text, PhaseSpace(n)).parse()


def _kind_name(value):
    if isinstance(value, Fraction):
        return "rational"
    if isinstance(value, Poly):
        return "polynomial"
    if isinstance(value, GaussFn):
        return "gaussian"
    if isinstance(value, DiffOp):
        return "operator"
    return "bidifferential"


# -- input files ------------------------------------------------------


def _json_int(text):
    """A JSON integer as an int, or, past ``MAX_DIGITS`` digits, as its
    text, which every loader's type check then refuses by field name."""
    return text if len(text.lstrip("-")) > MAX_DIGITS else int(text)


def _load_json(path):
    """The JSON value in ``path``; nesting past the decoder's recursion
    limit is a ``ValueError`` like any other malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_equivalence(path, space, trunc_order):
    """Equivalence from JSON: a list of ``{"order": k, "expression": s}``
    entries, or an object with such a list under ``"operators"``."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("operators", [])
    if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
        raise ValueError("equivalence file must hold a list of operator entries")
    groups = {}
    for entry in data:
        for field in ("order", "expression"):
            if field not in entry:
                raise ValueError(f"equivalence entry lacks field {field!r}")
        k, text = entry["order"], entry["expression"]
        if isinstance(k, bool) or not isinstance(k, int) or not isinstance(text, str):
            raise ValueError("operator entries need an integer order and a string expression")
        value = parse_expression(text, space.n)
        if isinstance(value, Fraction):
            value = Poly.constant(space, value)
        if isinstance(value, Poly):
            value = DiffOp.mult(value)
        if not isinstance(value, DiffOp):
            raise ValueError(f"order-{k} entry is not an operator expression")
        groups.setdefault(k, []).append(value)
    ops = {k: DiffOp.sum(space, values) for k, values in groups.items()}
    return Equivalence(space, trunc_order, ops)


def load_grid(path):
    """GridFn from its JSON dictionary form."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("grid file must hold a JSON object")
    return GridFn.from_dict(data)


# -- reports ----------------------------------------------------------


class Case:
    """One checked identity: a residual map and a verdict."""

    __slots__ = ("case_id", "residuals", "passed", "note")

    def __init__(self, case_id, residuals, passed, note=""):
        self.case_id = case_id
        self.residuals = dict(residuals)
        self.passed = bool(passed)
        self.note = note

    def to_dict(self):
        out = {
            "id": self.case_id,
            "residuals_by_order": dict(self.residuals),
            "pass": self.passed,
        }
        if self.note:
            out["note"] = self.note
        return out


class Report:
    __slots__ = ("scenario", "params", "cases")

    def __init__(self, scenario, params, cases):
        self.scenario = scenario
        self.params = dict(params)
        self.cases = list(cases)

    def all_pass(self):
        return all(c.passed for c in self.cases)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "cases": [c.to_dict() for c in self.cases],
            "summary": {
                "total": len(self.cases),
                "passed": sum(1 for c in self.cases if c.passed),
                "pass": self.all_pass(),
            },
        }


def emit_report(report, fmt="json"):
    """Render a report as bytes; identical runs give identical bytes."""
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        return (text + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"scenario: {report.scenario}"]
    for key, val in report.params.items():
        lines.append(f"  {key} = {val}")
    for case in report.cases:
        status = "pass" if case.passed else "FAIL"
        lines.append(f"[{status}] {case.case_id}")
        for key in sorted(case.residuals):
            lines.append(f"    {key}: {case.residuals[key]}")
        if case.note:
            lines.append(f"    note: {case.note}")
    passed = sum(1 for c in report.cases if c.passed)
    lines.append(f"summary: {passed}/{len(report.cases)} passed")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _series_case(case_id, series, note=""):
    """Case for an exact series identity, rendered order by order; it
    passes iff the series vanishes, which renders as ``{"all": "0"}``."""
    if series.is_zero():
        return Case(case_id, {"all": "0"}, True, note)
    return Case(case_id, {str(k): str(v) for k, v in sorted(series.items())}, False, note)


_LOG2_10 = math.log(10, 2)
_BITPREC = int(11 * _LOG2_10) + 10


def _num_str(x):
    """A float to 8 significant digits, ``"0"`` for zero, in the bytes of
    mpmath's ``nstr(mpf(x), 8)``.

    As mpmath does, ``|x| = m 2^e`` is taken to a binary fixed-point int
    of about ``_BITPREC`` bits, then to a decimal one of ``fixdps`` digits,
    each step rounding down; the 11 digits that gives are rounded half up
    on the ninth.  The leading digit's position ``k`` picks fixed-point
    notation for ``-5 < k < 8`` and ``e+k``/``ek`` otherwise, and trailing
    zeros go, keeping ``.0``.
    """
    x = float(x)
    if x == 0:
        return "0"
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    m, e = math.frexp(abs(x))
    man = int(m * 2**53)
    fixprec = max(_BITPREC - e, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e - 53 + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    k = len(digits) - fixdps - 1
    if len(digits) > 8 and digits[8] >= "5":
        digits = str(int(digits[:8]) + 1)
        k += len(digits) > 8
    digits = digits[:8]
    if -5 < k < 8:
        digits, split, k = "0" * -k + digits, max(k, 0) + 1, 0
    else:
        split = 1
    body = (digits[:split] + "." + digits[split:]).rstrip("0")
    sign = "-" if x < 0 else ""
    suffix = f"e{k:+d}" if k else ""
    return sign + body + ("0" if body.endswith(".") else "") + suffix


# -- scenarios --------------------------------------------------------


SCENARIOS = {}


def _scenario(name, summary, reads=None):
    """Register a scenario; ``reads`` names the one input file it takes,
    ``"equiv"`` or ``"grid"``."""

    def register(fn):
        SCENARIOS[name] = (fn, summary, reads)
        return fn

    return register


class Scenario:
    """Knobs for one named run: sizes, seed, optional input files."""

    __slots__ = ("name", "n", "trunc_order", "seed", "equiv_path", "grid_path")

    def __init__(self, name, n=1, trunc_order=4, seed=0, equiv_path=None, grid_path=None):
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {_quote(name)}")
        if n < 1:
            raise ValueError("need at least one canonical pair")
        if trunc_order < 1:
            raise ValueError("truncation order must be at least 1")
        reads = SCENARIOS[name][2]
        for option, path in (("equiv", equiv_path), ("grid", grid_path)):
            if path is not None and option != reads:
                raise ValueError(f"scenario {name!r} reads no --{option} file")
        self.name = name
        self.n = n
        self.trunc_order = trunc_order
        self.seed = seed
        self.equiv_path = equiv_path
        self.grid_path = grid_path


def run_scenario(sc):
    return SCENARIOS[sc.name][0](sc)


def _base_params(sc):
    params = {"n": sc.n, "order": sc.trunc_order, "seed": sc.seed}
    if sc.equiv_path is not None:
        params["equivalence"] = sc.equiv_path
    if sc.grid_path is not None:
        params["grid"] = sc.grid_path
    return params


def _random_gauss(rng, space):
    """Seeded integrable probe: small polynomial times a centered width."""
    t = Fraction(rng.choice([1, 1, 2]))
    b = tuple(Fraction(rng.randint(-1, 1)) for _ in range(space.dim))
    poly = Poly.constant(space, Fraction(rng.choice([1, 2]), rng.choice([1, 2])))
    for _ in range(2):
        exps = [0] * space.dim
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(space.dim)] += 1
        poly = poly + Poly.monomial(
            space, tuple(exps), Fraction(rng.choice([-2, -1, 1, 2]))
        )
    return GaussFn.term(space, poly, t, b, 0)


def _gauss_pairs(space, seed):
    """Seeded probe pairs ``(u, v)``, drawn one pair at a time from one ``rng``."""
    rng = random.Random(seed)
    while True:
        yield _random_gauss(rng, space), _random_gauss(rng, space)


def _gaussian_pair_cases(space, tau, product, seed):
    """``tau`` against star commutators of three seeded Gaussian pairs, all
    read through the one :func:`~startrace.trace.operator_trace_residual`
    that ``product`` memoizes for ``tau``'s density."""
    return [
        _series_case(f"gaussian-pair-{i}", trace_residual(tau, product, u, v))
        for i, (u, v) in zip(range(3), _gauss_pairs(space, seed))
    ]


def _probe_cases(space, tau, d):
    """Normalization of ``tau`` against the Euler derivation ``d`` per probe."""
    return [
        _series_case(f"probe-{i}", normalization_residual(tau, d, probe))
        for i, probe in enumerate(default_probe_battery(space))
    ]


def _scenario_equivalence(sc, space):
    if sc.equiv_path is not None:
        return load_equivalence(sc.equiv_path, space, sc.trunc_order)
    return random_equivalence(space, sc.trunc_order, sc.seed)


def _plane_matrix(space, a, b, c, d):
    """Identity outside the first plane; ``[[a, b], [c, d]]`` on its (q, p) pair."""
    m = mat_identity(space.dim)
    qi, pi = 0, space.n
    m[qi][qi], m[qi][pi] = Fraction(a), Fraction(b)
    m[pi][qi], m[pi][pi] = Fraction(c), Fraction(d)
    return m


def _rational_rotation(space):
    return _plane_matrix(
        space, Fraction(3, 5), Fraction(4, 5), Fraction(-4, 5), Fraction(3, 5)
    )


@_scenario("moyal-trace", "standard trace kills star commutators order by order")
def _run_moyal_trace(sc):
    space = PhaseSpace(sc.n)
    product = moyal_construct(space, sc.trunc_order)
    tau = moyal_trace(space, sc.trunc_order)
    cases = _gaussian_pair_cases(space, tau, product, sc.seed)
    return Report(sc.name, _base_params(sc), cases)


@_scenario("homogeneity", "trace normalization against the canonical nu-Euler derivation")
def _run_homogeneity(sc):
    space = PhaseSpace(sc.n)
    tau = moyal_trace(space, sc.trunc_order)
    cases = _probe_cases(space, tau, canonical_euler(space))
    # worked value: the width-one Gaussian integrates to (2 pi)^n / nu^n
    val = trace_eval(tau, GaussFn.gaussian(space, 1))
    expected = FormalScalar(
        {-space.n: IntegralValue(space.n, {Fraction(0): Fraction(2) ** space.n})},
        val.trunc_order,
    )
    cases.append(_series_case("worked-width-one", val - expected, f"trace value {val}"))
    deriv = val.nu_scale_derivative()
    expected_d = expected.scale(Fraction(-space.n))
    cases.append(
        _series_case("worked-width-one-nu-scaling", deriv - expected_d, f"nu-scaling {deriv}")
    )
    return Report(sc.name, _base_params(sc), cases)


@_scenario(
    "transport-trace",
    "transported product against its transported trace density",
    reads="equiv",
)
def _run_transport_trace(sc):
    space = PhaseSpace(sc.n)
    t = _scenario_equivalence(sc, space)
    product = transport_star(t, moyal_construct(space, sc.trunc_order))
    tau = density_from_equivalence(t)
    cases = _gaussian_pair_cases(space, tau, product, sc.seed)
    params = _base_params(sc)
    params["density"] = str(tau.density)
    return Report(sc.name, params, cases)


@_scenario(
    "normalized-uniqueness",
    "transported Euler normalization and the rotated-density factor",
    reads="equiv",
)
def _run_normalized_uniqueness(sc):
    space = PhaseSpace(sc.n)
    t = _scenario_equivalence(sc, space)
    tau = density_from_equivalence(t)
    cases = _probe_cases(space, tau, transport_euler(t, canonical_euler(space)))
    # tau against itself: the recovered factor must be exactly 1.  This
    # self-consistency check of the solver cannot fail until a density
    # solved from the transported Euler derivation takes the second place
    factor = proportionality_factor(tau, tau, GaussFn.gaussian(space, 1))
    diff = factor - FormalScalar.constant(Fraction(1), sc.trunc_order)
    cases.append(_series_case("rotated-density-factor", diff, f"factor {factor}"))
    return Report(sc.name, _base_params(sc), cases)


@_scenario("proportionality", "recover a trace ratio series and flag inconsistent pairs")
def _run_proportionality(sc):
    space = PhaseSpace(sc.n)
    trunc = max(sc.trunc_order, 4)
    tau1 = moyal_trace(space, trunc)
    target = FormalScalar(
        {0: Fraction(1), 1: Fraction(3), 3: Fraction(-1, 2)}, trunc
    )
    tau2 = tau1.scale_by_series(target)
    probe = GaussFn.gaussian(space, 1)
    got = proportionality_factor(tau1, tau2, probe)
    cases = [_series_case("constructed-factor", got - target, f"recovered {got}")]
    # a density with a genuinely different shape is not proportional
    rho = FormalScalar(
        {0: Poly.constant(space, 1), 1: Poly.variable(space, "q1") ** 2}, trunc
    )
    tau3 = TraceFunctional(space, rho)
    try:
        proportionality_factor(tau1, tau3, probe)
        fired = False
    except InconsistentTracesError:
        fired = True
    cases.append(
        Case(
            "inconsistent-pair-detected",
            {"detector": "fired" if fired else "silent"},
            fired,
        )
    )
    params = _base_params(sc)
    params["order"] = trunc
    return Report(sc.name, params, cases)


@_scenario("strongly-closed", "commutator cochains integrate to zero at every order")
def _run_strongly_closed(sc):
    space = PhaseSpace(sc.n)
    product = moyal_construct(space, sc.trunc_order)
    cases = []
    for i, (u, v) in zip(range(3), _gauss_pairs(space, sc.seed)):
        residuals = {}
        ok = True
        for r in range(1, sc.trunc_order + 1):
            val = closedness_integral(product, r, u, v)
            residuals[str(r)] = str(val)
            ok = ok and val.is_zero()
        cases.append(Case(f"gaussian-pair-{i}", residuals, ok))
    return Report(sc.name, _base_params(sc), cases)


@_scenario("trk-conditions", "partial traces satisfy the order-k closedness conditions")
def _run_trk_conditions(sc):
    space = PhaseSpace(sc.n)
    # the order-k condition consumes cochains up to order k + 1 <= K
    trunc = sc.trunc_order
    base = moyal_construct(space, trunc)
    t = random_equivalence(space, trunc, sc.seed)
    setups = [
        ("moyal", moyal_trace(space, trunc), base),
        ("transported", density_from_equivalence(t), transport_star(t, base)),
    ]
    u, v = next(_gauss_pairs(space, sc.seed + 1))
    cases = []
    for label, tau, product in setups:
        values = trk_residual(tau, product, u, v)
        residuals = {str(k): str(val) for k, val in enumerate(values)}
        cases.append(Case(label, residuals, all(val.is_zero() for val in values)))
    return Report(sc.name, _base_params(sc), cases)


def _gs_case(case_id, u, tol):
    try:
        parts = gs_decompose(u)
    except (MarginError, NonzeroIntegralError) as err:
        return Case(case_id, {"error": str(err)}, False)
    r = decomposition_residual(u, parts)
    return Case(case_id, {"sup": _num_str(r)}, r <= tol)


@_scenario("gs-decompose", "divergence-form decomposition of zero-integral grid data", reads="grid")
def _run_gs_decompose(sc):
    params = _base_params(sc)
    if sc.grid_path is not None:
        return Report(sc.name, params, [_gs_case("input-grid", load_grid(sc.grid_path), 1e-5)])
    cases = [
        _gs_case("gentle-1d-512", grid_diff(tapered_generate(1, 3.0, 512, 2.2, 14), 0), 1e-6)
    ]
    b = bump_generate(1, 3.0, 512, 2.5, margin_cells=10)
    (g,) = gs_decompose(grid_diff(b, 0))
    known = (g - b).sup_norm()
    cases.append(Case("known-answer-1d-512", {"sup": _num_str(known)}, known <= 1e-6))
    b2 = tapered_generate(2, 3.0, 256, 2.2, 14)
    u2 = grid_diff(grid_translate(b2, (3, -2)), 0) + grid_diff(
        grid_translate(b2, (-4, 5)), 1
    )
    cases.append(_gs_case("two-dimensional-256", u2, 1e-5))
    residuals = {}
    values = []
    for points in (128, 256, 512):
        w = grid_diff(tapered_generate(1, 3.0, points, 2.2, 14), 0)
        values.append(decomposition_residual(w, gs_decompose(w)))
        residuals[str(points)] = _num_str(values[-1])
    orders = [math.log2(values[i] / values[i + 1]) for i in range(2)]
    residuals["order-128-256"] = f"{orders[0]:.2f}"
    residuals["order-256-512"] = f"{orders[1]:.2f}"
    ok = values[1] <= 1e-5 and all(o >= 3.0 for o in orders)
    cases.append(Case("convergence-battery", residuals, ok))
    return Report(sc.name, params, cases)


@_scenario("brw-bracket", "bracket-pair decomposition and the averaging functional", reads="grid")
def _run_brw_bracket(sc):
    params = _base_params(sc)
    cases = []
    phi = tapered_generate(2, 3.0, 256, 1.8, 14)
    if sc.grid_path is not None:
        u0 = load_grid(sc.grid_path)
        if u0.dimension != 2:
            raise ValueError("brw-bracket needs a 2D (q, p) grid")
    else:
        rng = random.Random(sc.seed)
        u0 = GridFn(phi.half_widths, phi.points, np.zeros_like(phi.values), 10)
        for _ in range(3):
            shift = (rng.randint(-5, 5), rng.randint(-5, 5))
            u0 = u0 + rng.choice([-2, -1, 1, 2]) * grid_translate(phi, shift)
        u0 = u0 - (grid_integrate(u0) / grid_integrate(phi)) * phi
    try:
        pairs = bracket_decompose(u0)
        r = bracket_residual(u0, pairs)
        cases.append(
            Case(
                "bracket-reconstruction",
                {"sup": _num_str(r), "pairs": str(len(pairs))},
                r <= 1e-5,
            )
        )
    except ValueError as err:
        cases.append(Case("bracket-reconstruction", {"error": str(err)}, False))
    u = 2 * grid_translate(phi, (4, -3)) + 0.5 * grid_translate(phi, (-5, 2))
    flat = plateau_generate(2, 3.0, 256, 2.3, margin_cells=8)
    res_flat = brw_residual(u, phi, flat)
    cases.append(
        Case("constant-density", {"residual": _num_str(res_flat)}, res_flat <= 1e-8)
    )
    coords = flat.axis_coordinates(0)
    weighted = GridFn(
        flat.half_widths, flat.points, flat.values * (coords**2)[:, np.newaxis], 8
    )
    res_w = brw_residual(u, phi, weighted)
    cases.append(
        Case(
            "nonconstant-density-detected",
            {"residual": _num_str(res_w)},
            res_w >= 1e-3,
        )
    )
    return Report(sc.name, params, cases)


@_scenario("automorphism-invariance", "Gaussian integrals survive symplectic pullback")
def _run_automorphism_invariance(sc):
    space = PhaseSpace(sc.n)
    q1 = Poly.variable(space, "q1")
    poly = Poly.constant(space, 1) + q1 * q1
    b = tuple([Fraction(1)] + [Fraction(0)] * (space.dim - 1))
    u = GaussFn.term(space, poly, 1, b, 0)
    cases = []
    for case_id, m in [
        ("orthogonal-identity", mat_identity(space.dim)),
        ("orthogonal-quarter-turn", _plane_matrix(space, 0, 1, -1, 0)),
        ("orthogonal-rational-rotation", _rational_rotation(space)),
        ("symplectic-squeeze-2", _plane_matrix(space, 2, 0, 0, Fraction(1, 2))),
        ("symplectic-shear-q", _plane_matrix(space, 1, 1, 0, 1)),
        ("symplectic-shear-p", _plane_matrix(space, 1, 0, 1, 1)),
        ("symplectic-squeeze-3", _plane_matrix(space, 3, 0, 0, Fraction(1, 3))),
        (
            "symplectic-rotate-squeeze",
            mat_mul(_rational_rotation(space), _plane_matrix(space, 2, 0, 0, Fraction(1, 2))),
        ),
    ]:
        res = symplectic_automorphism_check(m, u)
        cases.append(Case(case_id, {"residual": str(res)}, res.is_zero()))
    return Report(sc.name, _base_params(sc), cases)


# -- entry point ------------------------------------------------------


USAGE = """\
startrace list-scenarios
startrace run <scenario> [--n N] [--order K] [--seed S]
                         [--equiv FILE] [--grid FILE]
                         [--format json|text] [--out FILE]
startrace parse <expr> [--n N]
"""
"""What ``-h``/``--help`` prints: the README's usage block."""

_COMMANDS = {
    "run": ["n=", "order=", "seed=", "equiv=", "grid=", "format=", "out=", "help"],
    "parse": ["n=", "help"],
    "list-scenarios": ["help"],
}


def _quote(value):
    """``repr`` of a bad command-line value, cut after 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}..."


def _parse_args(argv):
    """``(command, positional, options)`` for a command line, with the
    options keyed by long name and ``n``, ``order``, ``seed`` as ints, or
    None when it asks for help.  A usage error raises ``ValueError``."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"expected one of the commands {', '.join(_COMMANDS)}")
    command = argv[0]
    try:
        pairs, positional = getopt.gnu_getopt(argv[1:], "h", _COMMANDS[command])
    except getopt.GetoptError as err:
        if len(err.opt) > 40:
            raise ValueError(f"option {_quote('--' + err.opt)} not recognized") from None
        raise ValueError(str(err)) from None
    options = {name.lstrip("-"): value for name, value in pairs}
    if "h" in options or "help" in options:
        return None
    want = 0 if command == "list-scenarios" else 1
    if len(positional) != want:
        raise ValueError(f"{command} takes {want} positional argument(s), got {len(positional)}")
    for name in ("n", "order", "seed"):
        if name in options:
            value = options[name]
            # the length test keeps int() off digit strings of any size
            if len(value.strip().lstrip("+-")) > MAX_DIGITS:
                raise ValueError(f"--{name} takes at most {MAX_DIGITS} digits, not {_quote(value)}")
            try:
                options[name] = int(value)
            except ValueError:
                raise ValueError(f"--{name} needs an integer, not {_quote(value)}") from None
    if options.get("format", "json") not in ("json", "text"):
        raise ValueError(f"--format must be json or text, not {_quote(options['format'])}")
    return command, positional, options


def main(argv=None):
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if parsed is None:
        sys.stdout.write(USAGE)
        return 0
    command, positional, options = parsed
    if command == "list-scenarios":
        for name, (_, summary, _) in SCENARIOS.items():
            print(f"{name}: {summary}")
        return 0
    if command == "parse":
        try:
            value = parse_expression(positional[0], options.get("n", 1))
            # str() of a rational past the int string limit raises ValueError
            text = f"{_kind_name(value)}: {value}"
        except (ParseError, ValueError) as err:
            print(f"parse error: {err}", file=sys.stderr)
            return 2
        print(text)
        return 0
    out = options.get("out")
    try:
        sc = Scenario(
            positional[0],
            n=options.get("n", 1),
            trunc_order=options.get("order", 4),
            seed=options.get("seed", 0),
            equiv_path=options.get("equiv"),
            grid_path=options.get("grid"),
        )
        # --out opens before the run, so a bad path fails before any work
        with contextlib.nullcontext() if out is None else open(out, "wb") as fh:
            report = run_scenario(sc)
            payload = emit_report(report, options.get("format", "json"))
            if fh is not None:
                fh.write(payload)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
