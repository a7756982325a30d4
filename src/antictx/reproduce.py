"""The `antictx reproduce` table: the paper's headline numbers, recomputed.

Each row comes from one builder taking (tol, budget).  A row passes only
when every number it reports is the expected one.  A builder that raises
gives a failing row, except on a resource limit, which ends the table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import antidist, antiset, ensembles, quantum, ratlp, valuefns
from .ensembles import FamilySpec
from .errors import ResourceLimitError
from .quantum import DensityOperator
from .ratlp import format_rational


def _row(expected: str, ok: bool, detail: str, bound=None, quantum_value=None, violated=None):
    return {
        "classical_bound": None if bound is None else format_rational(bound),
        "quantum_value": quantum_value,
        "violated": violated,
        "expected": expected,
        "pass": ok,
        "detail": detail,
    }


def _inequality_row(ineq, states, rho, tol, *, bound, value, violated, expected, detail,
                    extra=True):
    """A row that passes when `ineq` has `bound`, its value on `rho` is `value` (within
    10*tol) with verdict `violated`, its side constraints hold, and so does `extra`."""
    report = antiset.evaluate_inequality(ineq, states, rho, tol)
    ok = (
        extra
        and ineq.bound == bound
        and abs(report.lhs - value) <= 10 * tol
        and report.violated == violated
        and report.side_constraints_satisfied
    )
    return _row(expected, ok, detail, ineq.bound, report.lhs, report.violated)


def _specker(tol, budget):
    s = ensembles.generate_scenario("specker")
    count = valuefns.count_value_functions(s, node_budget=budget)
    unique = ratlp.state_uniqueness(s)
    point_ok = unique.status == "unique" and all(v == Fraction(1, 2) for _, v in unique.point)
    return _row(
        "no value functions; unique state (1/2, 1/2, 1/2)",
        count == 0 and point_ok,
        f"value functions: {count}; state space: {unique.status}",
    )


def _no_state(tol, budget):
    s = ensembles.generate_scenario("no_state_example")
    status = ratlp.state_optimize(s, {a: 1 for a in s.outcomes}).status
    return _row("state polytope is empty", status == "infeasible", f"LP status: {status}")


def _klyachko(tol, budget):
    s = ensembles.generate_scenario("klyachko")
    ones = {a: 1 for a in s.outcomes}
    cb = valuefns.classical_bound(s, ones, node_budget=budget)
    sb = ratlp.state_optimize(s, ones)
    half = {a: Fraction(1, 2) for a in s.outcomes}
    member = valuefns.is_noncontextual_state(s, half, node_budget=budget)
    ok = cb.bound == 2 and cb.value_function_count == 11 and sb.value == Fraction(5, 2)
    return _row(
        "bound 2, 11 value functions, state optimum 5/2, omega=1/2 contextual",
        ok and member.status == "not-member",
        f"count={cb.value_function_count}, state_bound={format_rational(sb.value)}, "
        f"omega_half={member.status}",
        cb.bound,
    )


def _example3(tol, budget):
    states = ensembles.generate_states(FamilySpec("caves_example"))
    generated = quantum.scenario_from_states(states, tol, node_budget=budget)
    target = ensembles.generate_scenario("antidist_example")
    targets = ["a1", "a2", "a3"]
    empty = not valuefns.definite_intersection(target, targets, node_budget=budget)
    verdict = antidist.scenario_antidistinguishable(target, targets, node_budget=budget)
    perp = ("a1_perp", "a2_perp", "a3_perp")
    witness_ok = verdict.antidistinguishable and verdict.context == perp
    return _row(
        "generated scenario matches; definite intersection empty; set antidistinguishable",
        generated == target and empty and witness_ok,
        f"scenario_match={generated == target}, definite_intersection_empty={empty}, "
        f"witness={verdict.context}",
    )


def _yu_oh(tol, budget):
    rays = ensembles.generate_states(FamilySpec("yu_oh_rays"))
    basis = ensembles.generate_states(FamilySpec("yu_oh_principal"))
    combined = rays.union(basis)
    aset = antiset.verify_strong_antiset(combined, rays.labels, basis.labels, tol)
    _, lam = quantum.frame_operator(rays, tol)
    boundary_ok = aset.boundary_triples == len(aset.triple_log) == 18
    frame_ok = lam is not None and abs(lam - 4 / 3) <= 10 * tol
    return _inequality_row(
        antiset.inequality_from_antiset(aset), combined, DensityOperator.maximally_mixed(3), tol,
        bound=1, value=4 / 3, violated=True, extra=boundary_ok and frame_ok,
        expected="bound 1, quantum value 4/3, violated",
        detail=f"triples={len(aset.triple_log)}, frame_lambda={lam}",
    )


def _hadamard(d, tol, budget):
    basis = ensembles.generate_states(FamilySpec("standard_basis", d))
    halves = [ensembles.generate_states(FamilySpec("hadamard", d, h)) for h in ("B0", "B1")]
    ineqs = []
    for half in halves:
        aset = antiset.verify_strong_antiset(half.union(basis), half.labels, basis.labels, tol)
        ineqs.append(antiset.inequality_from_antiset(aset))
    return _inequality_row(
        antiset.add_inequality(*ineqs), halves[0].union(halves[1]),
        DensityOperator.maximally_mixed(d), tol, bound=2, value=2**d / d, violated=d >= 3,
        expected=f"bound 2, quantum value {2**d}/{d}, violated iff d >= 3",
        detail=f"members=2x{2 ** (d - 1)}",
    )


def _mub(tol, budget):
    states = ensembles.generate_states(FamilySpec("mub", 5))
    principal = [f"a1_{k}" for k in range(1, 6)]
    members = [a for a in states.labels if not a.startswith("a1_")]
    aset = antiset.verify_strong_antiset(states, members, principal, tol)
    ineq = antiset.add_context_normalization(antiset.inequality_from_antiset(aset), principal)
    return _inequality_row(
        ineq, states, DensityOperator.maximally_mixed(5), tol, bound=2, value=6.0, violated=True,
        expected="bound 2, quantum value 6, violated",
        detail=f"members={len(members)}, triples={len(aset.triple_log)}",
    )


def _maroney(d, tol, budget):
    states = ensembles.generate_states(FamilySpec("maroney", d))
    aset = antiset.verify_weak_antiset(states, [f"a{j}" for j in range(1, d)], "c", tol)
    ineq = antiset.inequality_from_antiset(aset)
    return _inequality_row(
        ineq, states, DensityOperator.from_pure(states.vector("c")), tol,
        bound=1, value=(d - 1) / 3, violated=d >= 5, extra=ineq.kind == "state-dependent",
        expected=f"bound 1 given omega(c)=1, quantum value {d - 1}/3, violated iff d >= 5",
        detail=f"kind={ineq.kind}",
    )


def _sic(tol, budget):
    states = ensembles.generate_states(FamilySpec("sic", 3))
    aset = antiset.verify_weak_antiset(states, [f"a{j}" for j in range(2, 10)], "a1", tol)
    ineq = antiset.add_constrained_outcome(antiset.inequality_from_antiset(aset), "a1")
    return _inequality_row(
        ineq, states, DensityOperator.from_pure(states.vector("a1")), tol, bound=2, value=3.0,
        violated=True, expected="bound 2 given omega(a1)=1, quantum value 3, violated",
        detail=f"boundary_triples={aset.boundary_triples}",
    )


_TABLE = [
    ("specker", _specker),
    ("no-state", _no_state),
    ("klyachko", _klyachko),
    ("example3-bridge", _example3),
    ("yu-oh", _yu_oh),
    *((f"hadamard-d{d}", partial(_hadamard, d)) for d in range(3, 7)),
    ("mub-d5", _mub),
    *((f"maroney-d{d}", partial(_maroney, d)) for d in range(4, 8)),
    ("sic-d3", _sic),
]


def table(tol: float, budget: int | None) -> list[dict]:
    rows = []
    for name, build in _TABLE:
        try:
            row = build(tol, budget)
        except ResourceLimitError:
            raise
        except Exception as exc:  # noqa: BLE001 - a broken row must not kill the table
            row = _row("", False, f"error: {exc}")
        rows.append({"example": name, **row})
    return rows


def render(rows: list[dict]) -> str:
    header = f"{'example':<16} {'bound':>6} {'quantum':>10} {'violated':>8}  result"
    lines = [header, "-" * len(header)]
    for row in rows:
        bound = "-" if row["classical_bound"] is None else row["classical_bound"]
        value = "-" if row["quantum_value"] is None else f"{row['quantum_value']:.6f}"
        violated = {True: "yes", False: "no", None: "-"}[row["violated"]]
        status = "PASS" if row["pass"] else "FAIL"
        lines.append(f"{row['example']:<16} {bound:>6} {value:>10} {violated:>8}  {status}")
        if not row["pass"]:
            lines.append(f"    {row['detail']}")
    failed = [row["example"] for row in rows if not row["pass"]]
    summary = f"FAILED: {failed[0]} (total {len(failed)} failing)" if failed else "all rows pass"
    return "\n".join([*lines, summary])
