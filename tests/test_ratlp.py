import json
import random
from fractions import Fraction

import pytest

from antictx import ratlp
from antictx.ensembles import generate_scenario
from antictx.errors import DimensionMismatchError
from antictx.ratlp import (
    LinearProgram,
    build_state_polytope,
    format_rational,
    parse_rational,
    solve,
    state_optimize,
    state_uniqueness,
)
from antictx.scenario import make_scenario

from helpers import fm_feasible, random_scenario


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(2) == 2
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(0.1) == Fraction(1, 10)
    with pytest.raises(ValueError):
        parse_rational(True)


def test_parse_rational_zero_denominator_is_value_error():
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_rational():
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(4, 2)) == "2"


def test_trivial_box_lp():
    lp = LinearProgram.build(["x"], [1], [((1,), "<=", 1)])
    res = solve(lp)
    assert res.status == "optimal"
    assert res.value == 1
    assert res.point == (Fraction(1),)


def test_infeasible_pair_of_equalities():
    lp = LinearProgram.build(
        ["x", "y"], [0, 0], [((1, 1), "=", 1), ((1, 1), "=", 2)]
    )
    assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram.build(["x"], [1], [])
    assert solve(lp).status == "unbounded"


def test_degenerate_and_negative_rhs():
    lp = LinearProgram.build(
        ["x", "y"],
        [1, 1],
        [((-1, 0), "<=", -2), ((1, 1), "<=", 5), ((1, -1), ">=", 0)],
    )
    res = solve(lp)
    assert res.status == "optimal"
    assert res.value == 5
    assert res.point[0] >= 2


def test_lower_and_upper_bounds():
    lp = LinearProgram.build(["x", "y"], [1, -1], lower=[1, "1/2"], upper=[3, None])
    res = solve(lp)
    assert res.status == "optimal"
    assert res.point == (Fraction(3), Fraction(1, 2))
    assert res.value == Fraction(5, 2)


def test_contradictory_bounds_are_infeasible():
    lp = LinearProgram.build(["x"], [1], lower=[2], upper=[1])
    assert solve(lp).status == "infeasible"


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        LinearProgram.build(["x"], [1, 2])
    with pytest.raises(DimensionMismatchError):
        LinearProgram.build(["x"], [1], [((1, 2), "<=", 1)])
    lp = LinearProgram.build(["x", "y"], [1, 1], [((1, 1), "<=", 3)], upper=[None, None])
    with pytest.raises(DimensionMismatchError):
        lp.with_objective([1])
    # made directly, a program is checked as strictly as one from build:
    # unchecked, "<" was solved as ">=" and a short `lower` truncated the point
    for field, value in [
        ("rows", (((1, 1), "<", 3),)),
        ("rows", (((1,), "<=", 3),)),
        ("objective", (1,)),
        ("lower", (0,)),
        ("upper", (None,)),
    ]:
        with pytest.raises(DimensionMismatchError):
            LinearProgram(**{**vars(lp), field: value})


def test_klyachko_state_optimum_is_five_halves():
    s = generate_scenario("klyachko")
    res = state_optimize(s, {a: 1 for a in s.outcomes})
    assert res.status == "optimal"
    assert res.value == Fraction(5, 2)
    assert all(v == Fraction(1, 2) for v in res.point)


def test_specker_state_polytope():
    s = generate_scenario("specker")
    lp = build_state_polytope(s)
    assert len(lp.variables) == 3
    assert sum(1 for _, rel, _ in lp.rows if rel == "=") == 3
    res = state_optimize(s, {"a": 1})
    assert res.value == Fraction(1, 2)


def test_partial_classical_polytope_has_one_le_row():
    s = generate_scenario("partial_classical", 5)
    lp = build_state_polytope(s)
    assert sum(1 for _, rel, _ in lp.rows if rel == "<=") == 1
    assert not any(rel == "=" for _, rel, _ in lp.rows)
    # sub-normalized distributions: the all-ones optimum is 1
    assert state_optimize(s, {a: 1 for a in s.outcomes}).value == 1


def test_box_only_polytope():
    from antictx.scenario import make_scenario

    s = make_scenario(["u", "v"])  # no contexts, no partial contexts
    lp = build_state_polytope(s)
    assert lp.rows == ()
    assert state_optimize(s, {"u": 1, "v": 1}).value == 2


def test_polytope_rejects_sets_with_unknown_outcomes():
    from antictx.errors import UnknownLabelError
    from antictx.scenario import make_scenario

    with pytest.raises(UnknownLabelError):
        build_state_polytope(make_scenario(["a"], [["a", "ghost"]]))


def test_no_state_scenario_is_infeasible():
    s = generate_scenario("no_state_example")
    assert state_optimize(s, {a: 1 for a in s.outcomes}).status == "infeasible"


def test_state_uniqueness_cases():
    specker = state_uniqueness(generate_scenario("specker"))
    assert specker.status == "unique"
    assert dict(specker.point) == {k: Fraction(1, 2) for k in "abc"}
    assert state_uniqueness(generate_scenario("no_state_example")).status == "no-state"
    assert state_uniqueness(generate_scenario("classical", 2)).status == "non-unique"
    assert state_uniqueness(make_scenario([])) == ratlp.StateUniquenessResult("unique", ())


def test_state_polytope_bounds_only_outcomes_in_no_set():
    box = build_state_polytope(make_scenario(["u", "v"]))
    assert box.upper == (1, 1)
    klyachko = build_state_polytope(generate_scenario("klyachko"))
    assert klyachko.upper == (None,) * len(klyachko.variables)
    beside = build_state_polytope(make_scenario(["a", "b", "free"], [["a", "b"]]))
    assert beside.variables == ("a", "b", "free")
    assert beside.upper == (None, None, 1)


def _full_box(s):
    """The state polytope with x <= 1 on every outcome, built by hand."""
    lp = build_state_polytope(s)
    return LinearProgram.build(lp.variables, None, lp.rows, None, upper=[1] * len(lp.variables))


def _full_box_uniqueness(s):
    """A feasibility LP, then the maximum and minimum of each coordinate."""
    lp = _full_box(s)
    if solve(lp).status != "optimal":
        return ratlp.StateUniquenessResult("no-state")
    point = []
    n = len(lp.variables)
    for j, label in enumerate(lp.variables):
        hi, lo = (solve(lp.with_objective([sign if k == j else 0 for k in range(n)])) for sign in (1, -1))
        if hi.value != -lo.value:
            return ratlp.StateUniquenessResult("non-unique")
        point.append((label, hi.value))
    return ratlp.StateUniquenessResult("unique", tuple(point))


def test_state_lps_agree_with_the_full_box_polytope():
    rng = random.Random(48)
    statuses = set()
    for k in range(2000):
        s = random_scenario(rng)
        coeffs = {a: rng.randint(-3, 3) for a in s.outcomes}
        got = state_optimize(s, coeffs)
        want = solve(_full_box(s).with_objective([coeffs[a] for a in s.outcomes]))
        assert (got.status, got.value) == (want.status, want.value), f"draw {k}"
        if got.point is not None:
            lp = build_state_polytope(s)
            assert all(0 <= x <= 1 for x in got.point)
            for row, rel, rhs in lp.rows:
                lhs = sum(c * x for c, x in zip(row, got.point))
                assert lhs == rhs if rel == "=" else lhs <= rhs
        unique = state_uniqueness(s)
        assert unique == _full_box_uniqueness(s), f"draw {k}"
        statuses.add(unique.status)
    assert statuses == {"no-state", "unique", "non-unique"}


def test_negated_objective_duality_sanity():
    rng = random.Random(11)
    for _ in range(30):
        lp = _random_lp(rng)
        res = solve(lp)
        if res.status != "optimal":
            continue
        neg = solve(lp.with_objective([-c for c in lp.objective]))
        assert neg.status == "optimal"
        assert neg.value >= -res.value


def _random_lp(rng: random.Random) -> LinearProgram:
    nvars = rng.randint(1, 6)
    nrows = rng.randint(1, 8)
    rows = []
    for _ in range(nrows):
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(nvars))
        rel = rng.choice(["<=", "=", ">="])
        rows.append((coeffs, rel, Fraction(rng.randint(-6, 8))))
    objective = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
    return LinearProgram.build([f"x{i}" for i in range(nvars)], objective, rows)


def test_status_agrees_with_fourier_motzkin_on_1000_random_lps():
    rng = random.Random(2024)
    for trial in range(1000):
        lp = _random_lp(rng)
        res = solve(lp)
        feasible = fm_feasible(len(lp.variables), lp.rows)
        assert (res.status != "infeasible") == feasible, f"trial {trial}"


def test_infeasible_verdicts_pass_the_farkas_check(monkeypatch):
    """Every "infeasible" among the LPs of the Fourier-Motzkin test has its
    phase-1 multipliers checked against the normalized rows."""
    checked = []
    real = ratlp._certify_infeasible

    def spy(*args):
        real(*args)
        checked.append(args)

    monkeypatch.setattr(ratlp, "_certify_infeasible", spy)
    rng = random.Random(2024)
    statuses = [solve(_random_lp(rng)).status for _ in range(1000)]
    assert len(checked) == statuses.count("infeasible") > 100


def test_corrupted_pivot_cannot_pass_as_infeasible(monkeypatch):
    # a pivot that leaves the last row's right-hand side off makes the
    # phase-1 optimum nonzero on feasible LPs; no Farkas certificate exists
    # for those, so the check must refuse every such verdict
    rng = random.Random(2024)
    feasible = [lp for lp in (_random_lp(rng) for _ in range(300)) if solve(lp).status != "infeasible"]
    real = ratlp._pivot

    def off_by_one(tab, r, c, d):
        d = real(tab, r, c, d)
        tab[-1][-1] += d
        return d

    monkeypatch.setattr(ratlp, "_pivot", off_by_one)
    refused = 0
    for lp in feasible:
        try:
            assert solve(lp).status != "infeasible"
        except RuntimeError:
            refused += 1
    assert refused > 10


def test_shifted_cost_row_cannot_pass_as_optimal(monkeypatch):
    # <= rows with nonnegative right-hand sides and finite upper bounds need
    # no phase 1 and always have an optimum; a phase-2 cost row whose
    # right-hand side is off by D misstates that optimum, and the objective
    # check must refuse every such result
    rng = random.Random(2025)
    real = ratlp._run_simplex

    def shifted(tab, basis, d):
        d, bounded = real(tab, basis, d)
        tab[-1][-1] += d
        return d, bounded

    monkeypatch.setattr(ratlp, "_run_simplex", shifted)
    for _ in range(50):
        nvars = rng.randint(1, 5)
        rows = [
            ([_rational(rng, -4, 4) for _ in range(nvars)], "<=", _rational(rng, 0, 8))
            for _ in range(rng.randint(1, 6))
        ]
        objective = [_rational(rng, -3, 3) for _ in range(nvars)]
        upper = [_rational(rng, 1, 5) for _ in range(nvars)]
        lp = LinearProgram.build([f"x{i}" for i in range(nvars)], objective, rows, upper=upper)
        with pytest.raises(RuntimeError, match="objective mismatch"):
            solve(lp)


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3, 5, 7)))


def _draw_bounded_lp(rng: random.Random) -> LinearProgram:
    """A random LP with rational data, finite and infinite bounds, rows of
    every relation (most of them holding at one point inside the box, so
    that most draws are feasible), and redundant equality rows."""
    nvars = rng.randint(1, 6)
    lower = [Fraction(0) if rng.random() < 0.5 else _rational(rng, -2, 2) for _ in range(nvars)]
    upper = [None if rng.random() < 0.5 else lo + _rational(rng, 0, 4) for lo in lower]
    x0 = [
        lo + (_rational(rng, 0, 4) if up is None else (up - lo) * Fraction(rng.randint(0, 4), 4))
        for lo, up in zip(lower, upper)
    ]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [_rational(rng, -4, 4) if rng.random() < 0.8 else Fraction(0) for _ in range(nvars)]
        rel = rng.choice(["<=", "=", ">="])
        if rng.random() < 0.85:
            at = sum(c * x for c, x in zip(coeffs, x0))
            slack = _rational(rng, 0, 3) if rng.random() < 0.6 else Fraction(0)
            rhs = at + slack if rel == "<=" else at - slack if rel == ">=" else at
        else:
            rhs = _rational(rng, -6, 8)
        rows.append((coeffs, rel, rhs))
    # combinations of the equality rows already drawn leave artificials
    # basic at zero after phase 1, and their rows get purged
    equalities = [row for row in rows if row[1] == "="]
    for _ in range(rng.randint(0, 2) if equalities else 0):
        picks = rng.sample(equalities, min(len(equalities), rng.randint(1, 2)))
        mults = [_rational(rng, -3, 3) or Fraction(-1) for _ in picks]
        coeffs = [sum(m * row[0][j] for m, row in zip(mults, picks)) for j in range(nvars)]
        rhs = sum(m * row[2] for m, row in zip(mults, picks))
        rows.insert(rng.randint(0, len(rows)), (coeffs, "=", rhs))
    objective = [_rational(rng, -3, 3) for _ in range(nvars)]
    return LinearProgram.build([f"x{i}" for i in range(nvars)], objective, rows, lower, upper)


def _result_doc(res) -> dict:
    return {
        "status": res.status,
        "value": None if res.value is None else format_rational(res.value),
        "point": None if res.point is None else [format_rational(v) for v in res.point],
    }


def test_results_match_the_recorded_fixture(fixtures_dir):
    """Status, value and point of 300 seeded LPs, recorded with the earlier
    solver that kept a Fraction tableau: both apply Bland's rule to the same
    canonical tableau, so every result must be identical."""
    recorded = json.loads((fixtures_dir / "lp_results.json").read_text())
    rng = random.Random(recorded["seed"])
    assert len(recorded["results"]) == 300
    for k, want in enumerate(recorded["results"]):
        assert _result_doc(solve(_draw_bounded_lp(rng))) == want, f"lp {k}"


def test_solution_points_satisfy_constraints_exactly():
    rng = random.Random(5)
    for _ in range(200):
        lp = _random_lp(rng)
        res = solve(lp)
        if res.status != "optimal":
            continue
        for coeffs, rel, rhs in lp.rows:
            lhs = sum(c * x for c, x in zip(coeffs, res.point))
            assert (
                lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
            )
        assert all(x >= 0 for x in res.point)
