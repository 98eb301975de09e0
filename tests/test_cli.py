"""Expression grammar, scenario reports, and the console entry point."""

import hashlib
import importlib.util
import json
import math
import os
import pathlib
import random
import struct
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_fns, multi_indices, polys, random_poly, tapered_bump

from startrace import cli
from startrace.cli import (
    MAX_DIGITS,
    MAX_NESTING,
    POWER_BIT_BUDGET,
    POWER_TERM_BUDGET,
    SCENARIOS,
    ParseError,
    _power_bounds,
    Scenario,
    emit_report,
    load_equivalence,
    load_grid,
    main,
    parse_expression,
    run_scenario,
)
from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import random_equivalence, transport_star
from startrace.gaussfn import GaussFn
from startrace.gsdecomp import grid_diff, tapered_generate
from startrace.poly import MAX_EXPONENT, PhaseSpace, Poly
from startrace.star import moyal_construct

SPACE1 = PhaseSpace(1)
SPACE2 = PhaseSpace(2)


# -- parsing ----------------------------------------------------------


def test_parse_polynomial_example():
    got = parse_expression("q1^2*p1 + 1/2")
    want = Poly.monomial(SPACE1, (2, 1)) + Poly.constant(SPACE1, Fraction(1, 2))
    assert got == want


def test_parse_operator_example():
    got = parse_expression("q1*dq1")
    want = DiffOp.mult(Poly.variable(SPACE1, "q1")).compose(
        DiffOp.partial(SPACE1, "q1")
    )
    assert got == want


def test_parse_bidifferential_example():
    got = parse_expression("dq1 | dp1")
    want = BiDiffOp(SPACE1, {((1, 0), (0, 1)): Poly.constant(SPACE1, 1)})
    assert got == want


def test_parse_gaussian_example():
    got = parse_expression("exp(-|x|^2 + q1 - 1/2*p1 + 1/3)")
    want = GaussFn.gaussian(SPACE1, 2, (1, Fraction(-1, 2)), Fraction(1, 3))
    assert got == want


def test_parse_bare_rational():
    assert parse_expression("-3") == Fraction(-3)
    assert parse_expression("4/6") == Fraction(2, 3)


def test_parse_operator_with_identity_part():
    got = parse_expression("1 + 1/2*dp1^2")
    want = DiffOp.identity(SPACE1) + DiffOp.partial(SPACE1, "p1", 2) * Fraction(1, 2)
    assert got == want


def test_pairing_binds_tighter_than_sum():
    got = parse_expression("(dp1 | dq1) + -1*(dq1 | dp1)")
    one = Poly.constant(SPACE1, 1)
    want = BiDiffOp(SPACE1, {((0, 1), (1, 0)): one, ((1, 0), (0, 1)): -one})
    assert got == want


def test_pairing_sides_are_products():
    got = parse_expression("2*q1*dq1 | dp1^2")
    q2 = Poly.variable(SPACE1, "q1") * 2
    assert got == BiDiffOp(SPACE1, {((1, 0), (0, 2)): q2})


def test_unary_minus():
    q = Poly.variable(SPACE1, "q1")
    assert parse_expression("-q1^2") == -(q * q)
    assert parse_expression("3 - -2") == Fraction(5)


def test_round_trip_of_printed_forms():
    # every printed canonical form must parse back to an equal value
    rng = random.Random(5)
    battery = [moyal_construct(SPACE1, 4).cochains[r] for r in (1, 2, 3, 4)]
    battery += [moyal_construct(SPACE2, 2).cochains[r] for r in (1, 2)]
    battery += [random_poly(rng, SPACE1) for _ in range(4)]
    battery += [random_poly(rng, SPACE2) for _ in range(4)]
    battery += [
        GaussFn.gaussian(SPACE1, 1),
        GaussFn.gaussian(SPACE2, 2, (1, 0, Fraction(-1, 2), 3), Fraction(7, 2)),
        GaussFn.term(SPACE1, random_poly(rng, SPACE1), 1, (0, 1), 0),
        DiffOp.partial(SPACE2, "p2", 3),
        DiffOp.mult(random_poly(rng, SPACE1)).compose(DiffOp.partial(SPACE1, "q1")),
        BiDiffOp.product_cochain(SPACE1),
        # the zero pairing printed as 0, which parsed back as a rational
        BiDiffOp.zero(SPACE1),
        BiDiffOp.zero(SPACE2),
    ]
    # transported cochains carry polynomial coefficients
    for space, seed in ((SPACE1, 2), (SPACE2, 0)):
        s = transport_star(random_equivalence(space, 2, seed), moyal_construct(space, 2))
        battery += [s.cochains[r] for r in (1, 2)]
    for value in battery:
        n = value.space.n
        again = parse_expression(str(value), n)
        assert again == value, str(value)


def _lifted(parsed, like):
    """``parsed`` in the class of ``like``: a constant prints as a rational,
    and a form with no derivative or exponent part as a polynomial."""
    if isinstance(parsed, Fraction):
        parsed = Poly.constant(like.space, parsed)
    if isinstance(parsed, Poly) and isinstance(like, DiffOp):
        return DiffOp.mult(parsed)
    if isinstance(parsed, Poly) and isinstance(like, GaussFn):
        return GaussFn.from_poly(parsed)
    return parsed


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_printed_forms_parse_back(n, data):
    space = PhaseSpace(n)
    index = multi_indices(space)
    nonzero = polys(space).filter(lambda p: not p.is_zero())
    values = [
        data.draw(polys(space)),
        data.draw(gauss_fns(space)),
        DiffOp(space, data.draw(st.dictionaries(index, polys(space), max_size=3))),
        # polynomial coefficients: the pairing prints them inside its left side
        BiDiffOp(
            space, data.draw(st.dictionaries(st.tuples(index, index), nonzero, min_size=1, max_size=3))
        ),
    ]
    for value in values:
        assert _lifted(parse_expression(str(value), n), value) == value, str(value)


def test_round_trip_equivalence_operators():
    for seed in (1, 5, 9):
        t = random_equivalence(SPACE2, 3, seed)
        for op in t.ops.values():
            assert parse_expression(str(op), 2) == op


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("q1 + $")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_expression("q1 + ")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_expression("q1 p1")
    assert err.value.position == 3
    # a zero denominator ended in a ZeroDivisionError traceback
    for text, position in [("1/0", 0), ("q1 + 3/00*p1", 5)]:
        with pytest.raises(ParseError, match="zero denominator") as err:
            parse_expression(text)
        assert err.value.position == position, text
    # the first parenthesis past MAX_NESTING is the one reported
    deep = MAX_NESTING * "(" + "q1" + MAX_NESTING * ")"
    assert parse_expression(deep) == parse_expression("q1")
    for text, position in [
        ("(" + deep + ")", MAX_NESTING),
        ((MAX_NESTING + 1) * "exp(" + "-|x|^2", 4 * MAX_NESTING),
        ("-q1*" + MAX_NESTING * "exp(" + "(q1", 4 + 4 * MAX_NESTING),
    ]:
        with pytest.raises(ParseError, match=f"nest deeper than {MAX_NESTING}") as err:
            parse_expression(text)
        assert err.value.position == position, text
    # a number or axis index past MAX_DIGITS digits reached int() and the
    # interpreter's limit on integer strings, which gave no position
    zeros = "0" * 5000
    for text, position in [
        ("1" + zeros, 0),
        ("q1 + 1/" + zeros, 5),
        ("q" + zeros, 0),
        ("p1*dq1" + zeros, 3),
    ]:
        with pytest.raises(ParseError, match=f"too many digits \\(more than {MAX_DIGITS}\\)") as err:
            parse_expression(text)
        assert err.value.position == position, text
    assert parse_expression("1" + "0" * (MAX_DIGITS - 1)) == 10 ** (MAX_DIGITS - 1)
    assert parse_expression("q1^" + zeros + "2") == parse_expression("q1^2")


def test_parse_unknown_axis():
    with pytest.raises(ParseError, match="unknown axis"):
        parse_expression("p2")
    with pytest.raises(ParseError, match="unknown axis"):
        parse_expression("dq3", 2)
    with pytest.raises(ParseError, match="unknown axis"):
        parse_expression("q0")
    assert parse_expression("dp2", 2) == DiffOp.partial(SPACE2, "p2")


def test_parse_exponent_must_be_natural():
    with pytest.raises(ParseError, match="natural"):
        parse_expression("q1^1/2")
    with pytest.raises(ParseError, match="natural"):
        parse_expression("q1^q1")


def test_parse_exp_argument_constraints():
    with pytest.raises(ParseError, match="at most quadratic"):
        parse_expression("exp(q1^3)")
    with pytest.raises(ParseError, match="multiple of"):
        parse_expression("exp(-q1^2)")  # anisotropic
    with pytest.raises(ParseError, match="multiple of"):
        parse_expression("exp(-q1*p1)")
    with pytest.raises(ParseError, match="grow"):
        parse_expression("exp(|x|^2)")
    with pytest.raises(ParseError, match="polynomial"):
        parse_expression("exp(dq1)")


def test_parse_exp_degree_fault_wins_in_any_term_order():
    # a cubic term is reported even when a mixed quadratic term is present
    for text in ("exp(q1*p1 + q1^3)", "exp(q1^3 + q1*p1)"):
        with pytest.raises(ParseError, match="exp argument must be at most quadratic"):
            parse_expression(text)


def test_parse_power_budget():
    # a rational's bits times k: 3^255 has 405 bits, and 405 * 161 fits
    assert 405 * 161 <= POWER_BIT_BUDGET < 405 * 162
    assert parse_expression("(3^255)^161") == Fraction(3) ** (255 * 161)
    for text in ("(3^255)^162", "(q1 - q1 + 3^255)^162"):
        with pytest.raises(ParseError, match="bit coefficients, over the budget"):
            parse_expression(text)
    # t = 4 monomials: C(t-1+k, k) terms fit at k = 71, not at k = 72
    four = parse_expression("q1 + p1 + q2 + p2", 2)
    assert _power_bounds(four, 71)[0] == math.comb(74, 71) <= POWER_TERM_BUDGET
    with pytest.raises(ParseError, match=f"{math.comb(75, 72)} terms, over the budget"):
        parse_expression("(q1 + p1 + q2 + p2)^72", 2)
    # colliding products: at most 5*50 + 1 terms along the one axis, not C(55, 50)
    assert len(parse_expression("(1 + q1 + q1^2 + q1^3 + q1^4 + q1^5)^50").nums) == 251
    # operators count every lower order; zeros and small powers still parse
    assert _power_bounds(parse_expression("dq1 + q1"), 3)[0] == math.comb(5, 3)
    with pytest.raises(ParseError, match="terms, over the budget"):
        parse_expression("(dq1 + q1 + dp1 + p1)^60")
    assert parse_expression("(q1 - q1)^3") == Poly.zero(SPACE1)
    assert parse_expression("(dq1 - dq1)^0") == DiffOp.identity(SPACE1)
    assert parse_expression("(q1 + 1)^2") == parse_expression("q1^2 + 2*q1 + 1")


def test_parse_type_mixing_rejected():
    with pytest.raises(ParseError):
        parse_expression("dq1 + exp(-|x|^2)")
    with pytest.raises(ParseError):
        parse_expression("(dq1 | dp1) | dq1")
    with pytest.raises(ParseError):
        parse_expression("(dq1 | dp1)^2")
    with pytest.raises(ParseError):
        parse_expression("q1*(dq1 | dp1)")


# -- input files ------------------------------------------------------


def test_load_equivalence_file(tmp_path):
    path = tmp_path / "equiv.json"
    path.write_text(
        json.dumps(
            {
                "operators": [
                    {"order": 1, "expression": "q1*dq1"},
                    {"order": 1, "expression": "1/2*dp1^2"},
                    {"order": 2, "expression": "dq1*dp1"},
                ]
            }
        )
    )
    t = load_equivalence(str(path), SPACE1, 3)
    want1 = DiffOp.mult(Poly.variable(SPACE1, "q1")).compose(
        DiffOp.partial(SPACE1, "q1")
    ) + DiffOp.partial(SPACE1, "p1", 2) * Fraction(1, 2)
    assert t.ops[1] == want1
    assert t.ops[2] == DiffOp.partial(SPACE1, "q1").compose(DiffOp.partial(SPACE1, "p1"))
    assert t.trunc_order == 3


def test_load_equivalence_bare_list_and_lifting(tmp_path):
    path = tmp_path / "equiv.json"
    path.write_text(json.dumps([{"order": 1, "expression": "q1^2"}]))
    t = load_equivalence(str(path), SPACE1, 2)
    assert t.ops[1] == DiffOp.mult(Poly.variable(SPACE1, "q1") ** 2)


def test_load_equivalence_rejects_non_operator(tmp_path):
    path = tmp_path / "equiv.json"
    path.write_text(json.dumps([{"order": 1, "expression": "dq1 | dp1"}]))
    with pytest.raises(ValueError, match="not an operator"):
        load_equivalence(str(path), SPACE1, 2)


def test_load_grid_round_trip(tmp_path):
    u = grid_diff(tapered_bump(128, 1, 2.0, margin_cells=10), 0)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(u.to_dict()))
    assert load_grid(str(path)) == u


@pytest.mark.parametrize("widths", [[1e308], [math.ldexp(1.0, -1074)]])
def test_main_grid_widths_must_give_a_finite_spacing(tmp_path, capsys, widths):
    # 2 * 1e308 overflows: the run printed seven numpy RuntimeWarnings and
    # failed its case with "values reach nan on the declared margin", exit 1;
    # the smallest subnormal width spaces the samples 0.0 apart
    grid = dict(tapered_generate(1, 3.0, 128, 2.0, 10).to_dict(), half_widths=widths)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "gs-decompose", "--grid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: half widths must give a finite box with a positive spacing\n"


@pytest.mark.parametrize(
    "field", ["dimension", "half_widths", "points_per_axis", "margin_cells", "values"]
)
def test_main_grid_file_names_a_missing_field(tmp_path, capsys, field):
    # the bare KeyError printed as "error: 'points_per_axis'"
    grid = tapered_generate(1, 3.0, 128, 2.0, 10).to_dict()
    del grid[field]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    for scenario in ("gs-decompose", "brw-bracket"):
        assert main(["run", scenario, "--grid", str(path)]) == 2
        assert capsys.readouterr().err == f"error: grid file lacks field {field!r}\n"


@pytest.mark.parametrize(
    "change, message",
    [
        # numpy's reshape and inhomogeneous-shape texts were the messages,
        # and a nested list was flattened although values is flat
        ({"dimension": 0, "half_widths": []}, "dimension must be at least 1"),
        ({"dimension": -1}, "dimension must be at least 1"),
        ({"values": [0.0] * 127}, "values must list points_per_axis**dimension numbers, not 127"),
        ({"values": [0.0] * 129}, "values must list points_per_axis**dimension numbers, not 129"),
        ({"values": []}, "values must list points_per_axis**dimension numbers, not 0"),
        ({"values": [[0.0, 0.0], [0.0]]}, "values must be a flat list of numbers"),
        ({"values": [[[0.0]]] * 128}, "values must be a flat list of numbers"),
        ({"half_widths": [[3.0]]}, "half_widths must be a flat list of numbers"),
        ({"points_per_axis": -128}, "values must list points_per_axis**dimension numbers, not 128"),
        # a bool among the samples loaded as 1.0
        ({"values": [0.0] * 64 + [True] + [0.0] * 63}, "values must be a flat list of numbers"),
        ({"half_widths": [10**400]}, "half_widths must be finite numbers"),
    ],
)
def test_main_grid_file_dimension_and_values_errors_name_their_field(
    tmp_path, capsys, change, message
):
    grid = dict(tapered_generate(1, 3.0, 128, 2.0, 10).to_dict(), **change)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["run", "gs-decompose", "--grid", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_grid_file_reads_an_int_past_int64_as_its_float(tmp_path, capsys):
    # numpy read 10**30 into an object array, so the file exited 2 with
    # "values must be a flat list of numbers" while 1e30 loaded
    grid = tapered_generate(1, 3.0, 128, 2.0, 10).to_dict()
    outputs = []
    for big in (10**30, 1e30):
        values = grid["values"][:64] + [big] + grid["values"][65:]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(grid, values=values)))
        code = main(["run", "gs-decompose", "--grid", str(path)])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][0] != 2


@pytest.mark.parametrize("field", ["order", "expression"])
def test_main_equivalence_file_names_a_missing_field(tmp_path, capsys, field):
    # the bare KeyError printed as "error: 'order'"
    entry = {"order": 1, "expression": "dq1"}
    del entry[field]
    path = tmp_path / "equiv.json"
    path.write_text(json.dumps([entry]))
    assert main(["run", "transport-trace", "--equiv", str(path)]) == 2
    assert capsys.readouterr().err == f"error: equivalence entry lacks field {field!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "transport-trace", "--seed", "1" + "0" * 5000],
        ["run", "moyal-trace", "--n", "2" * (MAX_DIGITS + 1)],
        ["run", "moyal-trace", "--order", "-" + "3" * 20000],
        ["run", "moyal-trace", "--order", "x" * 5000],
        ["parse", "--n", "1" * 5000, "q1"],
        ["run", "moyal-trace", "--format", "y" * 5000],
        ["run", "z" * 5000],
        ["run", "moyal-trace", "--" + "q" * 5000],
    ],
)
def test_main_bad_values_give_short_errors(capsys, argv):
    # a 5000-digit --seed printed a 5040-character error line
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("error: ") and got.err.count("\n") == 1
    assert len(got.err) <= 100, got.err


# -- scenarios and reports --------------------------------------------

_QUICK = {
    "transport-trace": {"trunc_order": 3},
    "trk-conditions": {"trunc_order": 3},
    "normalized-uniqueness": {"trunc_order": 3},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_and_reports(name):
    rep = run_scenario(Scenario(name, **_QUICK.get(name, {})))
    assert rep.all_pass()
    data = json.loads(emit_report(rep, "json"))
    assert data["scenario"] == name
    assert data["summary"]["pass"] is True
    assert data["summary"]["passed"] == data["summary"]["total"] == len(data["cases"])
    for case in data["cases"]:
        assert set(case) >= {"id", "residuals_by_order", "pass"}
        assert case["pass"] is True


def test_report_bytes_are_deterministic():
    a = emit_report(run_scenario(Scenario("homogeneity")), "json")
    b = emit_report(run_scenario(Scenario("homogeneity")), "json")
    assert a == b
    assert a.endswith(b"\n")
    ta = emit_report(run_scenario(Scenario("moyal-trace")), "text")
    tb = emit_report(run_scenario(Scenario("moyal-trace")), "text")
    assert ta == tb
    assert b"[pass]" in ta and b"summary: 3/3 passed" in ta


def test_emit_rejects_unknown_format():
    rep = run_scenario(Scenario("homogeneity"))
    with pytest.raises(ValueError, match="format"):
        emit_report(rep, "yaml")


def _grid_residuals(monkeypatch):
    """The floats that ``gs-decompose`` and ``brw-bracket`` print at seeds
    0, 5 and 11."""
    seen = []
    original = cli._num_str

    def recording(x):
        seen.append(x)
        return original(x)

    with monkeypatch.context() as m:
        m.setattr(cli, "_num_str", recording)
        for name in ("gs-decompose", "brw-bracket"):
            for seed in (0, 5, 11):
                run_scenario(Scenario(name, seed=seed))
    return seen


def test_num_str_prints_the_bytes_of_nstr(monkeypatch):
    # the stdlib formatter against mpmath's own, which no run loads
    rng = random.Random(24)
    corpus = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.min]
    corpus += [sys.float_info.max, -sys.float_info.max, 9.99999995e-07, 99999999.5]
    corpus += [10.0**k for k in range(-30, 31)] + [-(10.0**k) for k in range(-30, 31)]
    corpus += [np.float64(x) for x in (1 / 3, -2.5e-7, 123456785.0, 4.01)]
    corpus += _grid_residuals(monkeypatch)
    bits = (rng.getrandbits(64).to_bytes(8, "little") for _ in range(50_000))
    corpus += [struct.unpack("<d", b)[0] for b in bits]
    corpus += [rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12) for _ in range(50_000)]

    def nstr(x):
        return "0" if x == 0 else mpmath.nstr(mpmath.mpf(float(x)), 8)

    wrong = [(x, cli._num_str(x), nstr(x)) for x in corpus if cli._num_str(x) != nstr(x)]
    assert wrong == []


def test_exact_scenarios_report_literal_zero():
    for sc, zero in [
        (Scenario("moyal-trace"), {"all": "0"}),
        (Scenario("automorphism-invariance", n=2), {"residual": "0"}),
    ]:
        for case in run_scenario(sc).cases:
            assert case.residuals == zero, (sc.name, case.case_id)


def test_proportionality_recovers_series():
    rep = run_scenario(Scenario("proportionality"))
    by_id = {c.case_id: c for c in rep.cases}
    assert "1 + 3*nu - 1/2*nu^3" in by_id["constructed-factor"].note
    assert by_id["inconsistent-pair-detected"].residuals["detector"] == "fired"


def test_scenario_rejects_bad_knobs():
    with pytest.raises(ValueError, match="unknown scenario"):
        Scenario("does-not-exist")
    with pytest.raises(ValueError):
        Scenario("moyal-trace", n=0)
    with pytest.raises(ValueError):
        Scenario("moyal-trace", trunc_order=0)


def test_transport_scenario_accepts_equivalence_file(tmp_path):
    path = tmp_path / "equiv.json"
    path.write_text(json.dumps([{"order": 1, "expression": "dq1*dp1"}]))
    rep = run_scenario(
        Scenario("transport-trace", trunc_order=2, equiv_path=str(path))
    )
    assert rep.all_pass()
    assert rep.params["equivalence"] == str(path)


def test_gs_scenario_accepts_grid_file(tmp_path):
    u = grid_diff(tapered_generate(1, 3.0, 256, 2.0, 12), 0)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(u.to_dict()))
    rep = run_scenario(Scenario("gs-decompose", grid_path=str(path)))
    assert rep.all_pass()
    assert [c.case_id for c in rep.cases] == ["input-grid"]


def test_gs_scenario_fails_on_bad_grid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(tapered_generate(1, 3.0, 128, 2.0, 10).to_dict()))
    rep = run_scenario(Scenario("gs-decompose", grid_path=str(path)))
    assert not rep.all_pass()
    assert "error" in rep.cases[0].residuals


# -- entry point ------------------------------------------------------


def test_main_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_main_parse(capsys):
    assert main(["parse", "q1*dq1"]) == 0
    assert capsys.readouterr().out == "operator: q1*dq1\n"
    assert main(["parse", "--n", "2", "q2^3"]) == 0
    assert capsys.readouterr().out == "polynomial: q2^3\n"


def test_main_parse_error(capsys):
    assert main(["parse", "q7"]) == 2
    assert "parse error" in capsys.readouterr().err
    # nesting that overflowed the interpreter's stack ended in a traceback
    for text in [200 * "(" + "q1" + 200 * ")", 200 * "exp(" + "-|x|^2" + 200 * ")"]:
        assert main(["parse", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1, err
        assert f"nest deeper than {MAX_NESTING}" in err


@pytest.mark.parametrize(
    "argv, canonical",
    [
        (["run", "moyal-trace", "--n=2", "--order", "2"], ["run", "moyal-trace", "--n", "2", "--order", "2"]),
        (["run", "moyal-trace", "--ord", "4"], ["run", "moyal-trace", "--order", "4"]),
        (
            ["run", "--n", "2", "--format=text", "--order", "2", "homogeneity"],
            ["run", "homogeneity", "--n", "2", "--order", "2", "--format", "text"],
        ),
        (["parse", "--", "-q1"], ["parse", "0 - q1"]),
        (["parse", "--n=2", "--", "-dp2*q1"], ["parse", "--n", "2", "0 - q1*dp2"]),
        # help: the usage text on stdout
        (["-h"], None),
        (["--help"], None),
        (["run", "moyal-trace", "-h"], None),
        (["parse", "--he"], None),
        (["list-scenarios", "--help"], None),
    ],
)
def test_main_accepts_every_spelling(argv, canonical, capsys):
    assert main(argv) == 0
    got = capsys.readouterr()
    if canonical is None:
        want = cli.USAGE
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"```sh\n{want}```" in readme
    else:
        assert main(canonical) == 0
        want = capsys.readouterr().out
    assert got.out == want and got.err == ""


def test_main_run_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "homogeneity", "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert data["summary"]["pass"] is True
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["homogeneity", "proportionality", "normalized-uniqueness"])
def test_main_runs_nine_canonical_pairs(name, tmp_path):
    # the trace's nu^-9 prefactor is a valid degree, not a runaway series
    out = tmp_path / "report.json"
    assert main(["run", name, "--n", "9", "--order", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["summary"]["pass"] is True


def test_main_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def refuse(sc):
        raise AssertionError("the scenario ran before --out was checked")

    monkeypatch.setattr("startrace.cli.run_scenario", refuse)
    for out in ["/nonexistent/dir/r.json", str(tmp_path), ""]:
        assert main(["run", "homogeneity", "--out", out]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (out, err)


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_reports_match_their_recorded_digests(tmp_path, monkeypatch):
    # the benchmark's exact invocations at its default seed, run in process
    # with their inputs at the same relative paths: a report that moves by
    # one byte fails here, not only as a failed benchmark run
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digests = json.loads((BENCH / "digests.json").read_text())
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    checked = []
    for name in workloads.WORKLOADS:
        battery = workloads.battery(name, workloads.DEFAULT_SEED, os.path.join(".bench_out", "inputs"))
        workloads.write_inputs(battery)
        for inv in battery:
            if inv.kind == "cli" and inv.exact:
                assert main(inv.argv + ["--out", str(out)]) == 0, inv.key
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[inv.key], inv.key
                checked.append(inv.key)
    assert sorted(checked) == sorted(digests)


def test_main_run_prints_to_stdout(capsys):
    assert main(["run", "strongly-closed", "--format", "text", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario: strongly-closed")
    assert "summary: 3/3 passed" in out


def test_main_failing_case_gives_exit_one(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(tapered_generate(1, 3.0, 128, 2.0, 10).to_dict()))
    assert main(["run", "gs-decompose", "--grid", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "expression, message",
    [
        # each of these ran unbounded or ended in a traceback before
        ("2^3000000", f"exponent must be at most {MAX_EXPONENT}"),
        ("q1^99999999999999999999", f"exponent must be at most {MAX_EXPONENT}"),
        ("dq1^40000", f"exponent must be at most {MAX_EXPONENT}"),
        (f"exp(-|x|^2)^{MAX_EXPONENT + 1}", f"exponent must be at most {MAX_EXPONENT}"),
        ("q1^" + "9" * 5000, f"exponent must be at most {MAX_EXPONENT}"),
        # a product that passes the limit along one axis
        (f"(q1^{MAX_EXPONENT} + 1)*q1", f"MAX_EXPONENT = {MAX_EXPONENT}"),
        # a rational too long to print
        (f"(2^{MAX_EXPONENT})^{MAX_EXPONENT}", "integer string conversion"),
    ],
)
def test_main_parse_oversized_exponent_gives_exit_two(expression, message, capsys):
    assert main(["parse", expression]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err
    assert message in err
    assert main(["parse", f"q1^{MAX_EXPONENT}*p1^000{MAX_EXPONENT}"]) == 0
    assert capsys.readouterr().out == f"polynomial: q1^{MAX_EXPONENT}*p1^{MAX_EXPONENT}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["parse", "--n", "3", "(q1+q2+q3+p1+p2+p3+1)^255"], "terms, over the budget"),
        (["parse", "((2^255)^255)^255"], "bit coefficients, over the budget"),
    ],
)
def test_main_parse_over_budget_power_gives_exit_two(argv, message, capsys):
    # refused before the power is computed
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err
    assert message in err


def test_main_oversized_derivative_order_gives_exit_two(tmp_path, capsys):
    # T^-1 holds d^400, past MAX_EXPONENT: the operator product raises at
    # once, where the run used to take about 20 s and pass because the
    # order cancels out of the report
    path = tmp_path / "equiv.json"
    path.write_text(json.dumps([{"order": 1, "expression": "dq1^200"}]))
    start = time.perf_counter()
    argv = ["run", "transport-trace", "--n", "1", "--order", "2", "--equiv", str(path)]
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"MAX_EXPONENT = {MAX_EXPONENT}" in err


def test_main_bad_inputs_give_exit_two(tmp_path, monkeypatch, capsys):
    assert main(["run", "transport-trace", "--equiv", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err
    # usage errors: refused before any work, and no SystemExit escapes main
    out = tmp_path / "never.json"
    usage_errors = [
        [],
        ["not-a-command"],
        ["--n", "2", "run", "moyal-trace"],
        ["run", "not-a-scenario"],
        ["run"],
        ["run", "moyal-trace", "homogeneity"],
        ["parse"],
        ["parse", "q1", "p1"],
        ["list-scenarios", "moyal-trace"],
        ["run", "moyal-trace", "--bogus"],
        ["run", "moyal-trace", "-x"],
        ["run", "moyal-trace", "--o", "2"],  # --order or --out
        ["parse", "--order", "2", "q1"],
        ["list-scenarios", "--n", "2"],
        ["run", "moyal-trace", "--n"],
        ["run", "moyal-trace", "--n", "two"],
        ["run", "moyal-trace", "--order=1.5"],
        ["run", "moyal-trace", "--seed", ""],
        ["parse", "--n", "x", "q1"],
        ["run", "moyal-trace", "--format", "yaml", "--out", str(out)],
        ["run", "moyal-trace", "--format=JSON"],
    ]

    def refuse(*args):
        raise AssertionError("work began on a usage error")

    with monkeypatch.context() as m:
        m.setattr("startrace.cli.run_scenario", refuse)
        m.setattr("startrace.cli.parse_expression", refuse)
        for argv in usage_errors:
            assert main(argv) == 2, argv
            got = capsys.readouterr()
            assert got.out == "", argv
            assert got.err.startswith("error: ") and got.err.count("\n") == 1, (argv, got.err)
    assert not out.exists()
    grid = tapered_generate(1, 3.0, 128, 2.0, 10).to_dict()
    bad_runs = [
        ["moyal-trace", "--order", "0"],
        ["moyal-trace", "--n", "0"],
        # an input file for a scenario that reads none, or reads the other kind
        ["moyal-trace", "--equiv", "/nonexistent.json"],
        ["homogeneity", "--grid", "/nonexistent.json"],
        ["trk-conditions", "--equiv", "/nonexistent.json"],
        ["transport-trace", "--grid", "/nonexistent.json"],
        ["brw-bracket", "--equiv", "/nonexistent.json"],
        # an empty path is a path, not a request for the seeded default
        ["transport-trace", "--equiv", ""],
        ["gs-decompose", "--grid", ""],
        # a report that cannot be written
        ["homogeneity", "--n", "1", "--order", "1", "--out", "/nonexistent/dir/r.json"],
        ["homogeneity", "--n", "1", "--order", "1", "--out", str(tmp_path)],
        ["homogeneity", "--n", "1", "--order", "1", "--out", ""],
    ]
    for args, data in [
        (["transport-trace", "--equiv"], [1, 2]),
        (["transport-trace", "--equiv"], {"operators": 5}),
        (["gs-decompose", "--grid"], [1]),
        (["transport-trace", "--equiv"], [{"order": [1], "expression": "dq1"}]),
        (["transport-trace", "--equiv"], [{"order": 1, "expression": 5}]),
        (["transport-trace", "--equiv"], [{"order": 1, "expression": "1/0*dq1"}]),
        (["transport-trace", "--equiv"], [{"order": 1.5, "expression": "p1*dq1"}]),
        (["transport-trace", "--equiv"], [{"order": True, "expression": "p1*dq1"}]),
        # an exponent past MAX_EXPONENT, which would otherwise run for minutes
        (["transport-trace", "--equiv"], [{"order": 1, "expression": "dq1^40000"}]),
        # nesting past MAX_NESTING ended in a RecursionError traceback, exit 1
        (["transport-trace", "--equiv"], [{"order": 1, "expression": 300 * "(" + "dq1" + 300 * ")"}]),
        (["gs-decompose", "--grid"], dict(grid, points_per_axis="x")),
        (["gs-decompose", "--grid"], dict(grid, dimension="1")),
        (["gs-decompose", "--grid"], dict(grid, half_widths=[[3.0]])),
        (["gs-decompose", "--grid"], dict(grid, values=[None] * 128)),
        # bracket decomposition is defined on 2D (q, p) grids only
        (["brw-bracket", "--grid"], grid),
    ]:
        path = tmp_path / f"input-{len(bad_runs)}.json"
        path.write_text(json.dumps(data))
        bad_runs.append(args + [str(path)])
    # so did JSON nested past the decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text(10_000 * "[" + 10_000 * "]")
    for args in (["transport-trace", "--equiv", str(path)], ["gs-decompose", "--grid", str(path)]):
        assert main(["run", *args]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"
    # an integer past the interpreter's 4300-digit limit gave its advice
    # about sys.set_int_max_str_digits in place of the field's name
    big = "1" + "0" * 5000
    grid_text = json.dumps(grid).replace('"values": [', f'"values": [{big}, ', 1)
    for args, text, message in [
        (["transport-trace", "--equiv"], f'[{{"order": {big}, "expression": "dq1"}}]', "integer order"),
        (["gs-decompose", "--grid"], grid_text, "values must be"),
    ]:
        path.write_text(text)
        assert main(["run", *args, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    # json reads NaN and Infinity: a non-finite sample is bad input for
    # either grid scenario.  Inside the support, NaN gave "sup: nan" and
    # Infinity an infinite total integral; NaN on the margin was snapped to 0.
    plane = grid_diff(tapered_generate(2, 3.0, 40, 1.2, 10), 1).to_dict()
    center = 20 * 40 + 21
    for index, value in [(center, math.nan), (center, math.inf), (0, math.nan)]:
        values = list(plane["values"])
        values[index] = value
        path = tmp_path / f"input-{len(bad_runs)}.json"
        path.write_text(json.dumps(dict(plane, values=values)))
        bad_runs += [[name, "--grid", str(path)] for name in ("gs-decompose", "brw-bracket")]
    for args in bad_runs:
        assert main(["run", *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
