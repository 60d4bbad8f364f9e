"""Unit tests for the exact rational inequality engine: coefficients,
normalization, elimination, pruning, LP evaluation, and serialization."""

from fractions import Fraction

import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nncpdf import symbolic
from nncpdf.errors import (
    CoefficientOverflow,
    EliminationTooLarge,
    LPFailed,
    NncpdfError,
    NotAffineInB,
    UnassignedAtom,
)
from nncpdf.symbolic import (
    AffB,
    SymbolicInequality,
    SymbolicRegion,
    eliminate_variable,
    evaluate_region,
    format_region,
    parse_inequality,
    parse_region,
    project_to_R,
)


def test_affb_arithmetic_and_eval():
    a = AffB(Fraction(1), Fraction(2))
    b = AffB(Fraction(3))
    assert (a + b).at(5) == 1 + 2 * 5 + 3
    assert (a - b).c0 == -2
    assert (-a).c1 == -2
    assert a.scale(Fraction(1, 2)).at(4) == Fraction(9, 2)
    assert b.is_const and b.const() == 3
    with pytest.raises(NotAffineInB):
        a.const()


def test_inequality_drops_zero_coefficients():
    ineq = SymbolicInequality({"R": AffB(Fraction(1)), "r": AffB()}, {}, "<")
    assert set(ineq.rates) == {"R"}
    with pytest.raises(ValueError):
        SymbolicInequality({}, {}, "<")


def test_normalized_flips_sense():
    ineq = SymbolicInequality({"r": AffB(Fraction(1))}, {"I(A;B)": AffB(Fraction(2))}, ">")
    norm = ineq.normalized()
    assert norm.sense == "<"
    assert norm.rates["r"].c0 == -1
    assert norm.atoms["I(A;B)"].c0 == -2


def test_eliminate_variable_combines_bounds():
    region = parse_region("r > R\nr < I(A;B)")
    out = eliminate_variable(region, "r")
    assert len(out.inequalities) == 1
    only = out.inequalities[0].normalized()
    assert only.rates["R"].c0 == 1
    assert only.atoms["I(A;B)"].c0 == 1


def test_project_to_R_point_to_point():
    region = parse_region("r > R\nr < I(A;B)")
    out = project_to_R(region)
    assert [str(i) for i in out.inequalities] == ["R < I(A;B)"]


def test_prune_drops_dominated_rows():
    region = parse_region("R < I(A;B)\nR < I(A;B) + I(C;D)\nR < I(A;B)")
    out = project_to_R(region)
    assert [str(i) for i in out.inequalities] == ["R < I(A;B)"]


def test_prune_keeps_the_strict_row_of_a_twin():
    out = project_to_R(parse_region("R < I(A;B)\nR <= I(A;B)"))
    assert [str(i) for i in out.inequalities] == ["R < I(A;B)"]
    assert evaluate_region(out, {"I(A;B)": 1.0}) == pytest.approx(1.0, abs=1e-12)


def test_prune_keeps_the_strict_row_of_a_twin_listed_second():
    out = project_to_R(parse_region("R <= I(A;B)\nR < I(A;B)"))
    assert [str(i) for i in out.inequalities] == ["R < I(A;B)"]


UNBOUNDED = "r2 < 0\nr1 + r2 > 0\nr1 < R + I(C;D)\nr1 > R + r2"


def test_evaluate_region_unbounded_when_presolve_says_infeasible():
    # R = t, r1 = t + 1/2, r2 = -1 is feasible for every t > 1/2
    region = parse_region(UNBOUNDED)
    assert evaluate_region(region, {"I(C;D)": 1.0}) == float("inf")
    assert evaluate_region(project_to_R(region), {"I(C;D)": 1.0}) == float("inf")


def test_evaluate_region_lp():
    region = parse_region("r > R\nr < I(A;B)\nR < 2*I(C;D)")
    val = evaluate_region(region, {"I(A;B)": 0.7, "I(C;D)": 0.25})
    assert val == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(UnassignedAtom):
        evaluate_region(region, {"I(A;B)": 0.7})


def test_evaluate_region_infeasible_and_unbounded():
    bad = parse_region("R < I(A;B)\nR > I(A;B) + 1*I(C;D)")
    assert evaluate_region(bad, {"I(A;B)": 0.0, "I(C;D)": 1.0}) == float("-inf")
    free = SymbolicRegion(("R",), (), {})
    assert evaluate_region(free, {}) == float("inf")


def test_serialization_round_trip():
    text = "(0-1*B)*R + r0 > 0\nr0 + 2*r1 < 3/2*I(A;B|C)"
    region = parse_region(text)
    again = parse_region(format_region(region))
    assert {i.key() for i in again.inequalities} == {
        i.normalized().key() for i in region.inequalities
    }


def test_parse_inequality_senses():
    le = parse_inequality("R <= I(A;B)")
    assert le.sense == "<" and not le.strict
    gt = parse_inequality("r0 > 2*R")
    assert gt.sense == ">" and gt.strict
    assert gt.rates["R"].c0 == -2 or gt.rates["R"].c0 == 2


def test_fme_requires_b_free_pivots():
    region = parse_region("(0+1*B)*r + R < I(A;B)\nr > 0")
    with pytest.raises(NotAffineInB):
        eliminate_variable(region, "r")


def test_undeclared_rate_variable_rejected():
    ineq = parse_inequality("R < I(A;B)")
    with pytest.raises(ValueError):
        SymbolicRegion(("x",), (ineq,), {})


def test_elimination_cap_is_typed(monkeypatch):
    region = parse_region("r + R < I(A;B)\nr + 2*R < I(C;D)\nr > 0\nr > R - I(A;B)")
    monkeypatch.setattr(symbolic, "MAX_INEQUALITIES", 2)
    with pytest.raises(EliminationTooLarge, match=r"eliminating 'r' from 4 rows") as info:
        eliminate_variable(region, "r")
    assert isinstance(info.value, NncpdfError)


def test_elimination_cap_is_checked_before_combining(monkeypatch):
    region = parse_region(
        "r + R < I(A;B)\nr + 2*R < I(C;D)\nr < 3*R\nr > 0\nr > R - I(A;B)\nR < I(C;D)"
    )
    monkeypatch.setattr(symbolic, "MAX_INEQUALITIES", 6)
    combined = []
    monkeypatch.setattr(symbolic, "_combine", lambda *a: combined.append(a))
    with pytest.raises(EliminationTooLarge) as info:
        eliminate_variable(region, "r")
    assert combined == []
    assert str(info.value) == (
        "eliminating 'r' from 6 rows (3 upper x 2 lower bounds): "
        "7 predicted rows passed 6 inequalities"
    )


def test_coefficient_overflow_is_typed():
    big = 2 ** 40
    region = parse_region(f"{big}*r < {big + 1}*I(A;B)\n{big + 1}*r > {big}*I(C;D)")
    with pytest.raises(CoefficientOverflow, match=r"eliminating 'r': ") as info:
        eliminate_variable(region, "r")
    assert isinstance(info.value, NncpdfError)


RATES = ("R", "r1", "r2", "r3")
ATOMS = ("I(A;B)", "I(C;D)")


def _side(coeffs, names):
    return " + ".join(f"{c}*{n}" for c, n in zip(coeffs, names) if c) or "0"


@st.composite
def systems(draw):
    """Text of 1-6 rows over RATES and ATOMS with coefficients in [-2, 2]."""
    coeffs = st.lists(st.integers(-2, 2), min_size=6, max_size=6).filter(any)
    rows = []
    for c in draw(st.lists(coeffs, min_size=1, max_size=6)):
        op = draw(st.sampled_from(("<", "<=", ">", ">=")))
        rows.append(f"{_side(c[:4], RATES)} {op} {_side(c[4:], ATOMS)}")
    return "\n".join(rows)


# Atom values are multiples of 1/8, so every slack between rows is 0 or far
# above the LP tolerance: an LP decides feasibility only to its tolerance.
eighths = st.integers(0, 16).map(lambda k: k / 8)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(systems(), st.tuples(eighths, eighths))
@example("R < I(A;B)\nR <= I(A;B)", (1.0, 0.0))
@example(UNBOUNDED, (0.0, 1.0))
@example("R < r1\nr1 < I(A;B)\nr1 < 0", (1e-7, 0.0))  # HiGHS default tolerance
# the second elimination skips its only pair, made of all four rows (Kohler)
@example(
    "R + r1 + -1*r3 <= 0\nR + r1 + r3 < 0\n-1*r1 + -1*r3 < I(A;B)\n"
    "R + -1*r1 + r3 <= -1*I(A;B)",
    (0.5, 0.0),
)
# R < I(A;B), from two rows, drops R < I(A;B) + I(C;D) and takes its history
@example("R < I(A;B) + I(C;D)\nR < r1\nr1 < I(A;B)", (0.5, 0.25))
def test_projection_keeps_the_lp_value(text, values):
    region = SymbolicRegion(RATES, parse_region(text).inequalities)
    atoms = dict(zip(ATOMS, values))
    want = evaluate_region(region, atoms)  # approx(±inf) equals only itself
    assert evaluate_region(project_to_R(region), atoms) == pytest.approx(want, abs=1e-9)


class _FailedLP:
    status, success, message = 4, False, "numerical difficulties"


def test_lp_failure_is_typed(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: _FailedLP())
    region = parse_region("R < I(A;B)")
    with pytest.raises(LPFailed, match="numerical difficulties") as info:
        evaluate_region(region, {"I(A;B)": 0.5})
    assert isinstance(info.value, NncpdfError)
