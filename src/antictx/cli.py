"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (not antidistinguishable, not a
member, inequality not violated, validation failed, ...), 2 usage or input
errors, 3 resource limits.  Global flags (--tolerance, --format,
--node-budget) may be given before or after the subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import antidist, antiset, ensembles, quantum, ratlp, scenario, valuefns
from .ensembles import FamilySpec
from .errors import (
    AntictxError,
    EmptyPolytopeError,
    FailedTripleError,
    ResourceLimitError,
    ScenarioValidationError,
)
from .quantum import DensityOperator
from .ratlp import format_rational, parse_rational

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_RESOURCE = 0, 1, 2, 3


@dataclass
class CommandResult:
    exit_code: int
    payload: object = None
    text: str = ""
    fmt: str = "text"


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _kv_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_kv_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(
            _kv_text(item, indent) if isinstance(item, (dict, list)) else f"{pad}- {item}"
            for item in payload
        )
    return f"{pad}{payload}"


def _result(exit_code: int, payload, text: str | None = None) -> CommandResult:
    return CommandResult(exit_code, payload, _kv_text(payload) if text is None else text)


def _parse_coeffs(arg: str, labels) -> dict[str, Fraction]:
    if arg == "ones":
        return {a: Fraction(1) for a in labels}
    doc = scenario.read_document(_read(arg))
    if set(doc) != {"coeffs"} or not isinstance(doc["coeffs"], dict):
        raise scenario.ScenarioParseError('coefficients document must be {"coeffs": {label: value}}')
    return {a: parse_rational(v) for a, v in doc["coeffs"].items()}


def _parse_rho(spec: str | None, states: quantum.PureStateSet, tol: float) -> DensityOperator:
    if spec is None or spec == "mixed":
        return DensityOperator.maximally_mixed(states.dimension)
    if spec.startswith("label:"):
        return DensityOperator.from_pure(states.vector(spec[len("label:"):]))
    return quantum.load_density(_read(spec), tol)


def _document(blob: bytes) -> CommandResult:
    """Print one serialized document; as text it is the document itself."""
    text = blob.decode("utf-8").rstrip("\n")
    return _result(EXIT_OK, json.loads(text), text)


# ---------------------------------------------------------------- handlers


def _cmd_validate(args, ctx) -> CommandResult:
    candidate = scenario.parse_scenario(_read(args.scenario))
    report = scenario.validate_scenario(candidate)
    payload = {
        "valid": report.valid,
        "violations": [{"rule": f.rule, "subjects": list(f.subjects)} for f in report.violations],
        "warnings": [{"rule": f.rule, "subjects": list(f.subjects)} for f in report.warnings],
    }
    return _result(EXIT_OK if report.valid else EXIT_NEGATIVE, payload)


def _cmd_value_functions(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    budget = ctx["node_budget"]
    if args.count_only:
        return _result(EXIT_OK, {"count": valuefns.count_value_functions(s, node_budget=budget)})
    vfs = valuefns.enumerate_value_functions(s, node_budget=budget)
    payload = {"count": len(vfs), "value_functions": [vf.assignment for vf in vfs]}
    return _result(EXIT_OK, payload)


def _cmd_classical_bound(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    coeffs = _parse_coeffs(args.coeffs, s.outcomes)
    try:
        result = valuefns.classical_bound(s, coeffs, node_budget=ctx["node_budget"])
    except EmptyPolytopeError as exc:
        return _result(EXIT_NEGATIVE, {"error": "empty-polytope", "message": str(exc)})
    payload = {
        "bound": format_rational(result.bound),
        "maximizer": result.maximizer.assignment,
        "value_function_count": result.value_function_count,
    }
    return _result(EXIT_OK, payload)


def _cmd_state_bound(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    coeffs = _parse_coeffs(args.coeffs, s.outcomes)
    result = ratlp.state_optimize(s, coeffs)
    payload = {"status": result.status}
    if result.status == "optimal":
        payload["value"] = format_rational(result.value)
        payload["point"] = {a: format_rational(v) for a, v in zip(s.outcomes, result.point)}
        return _result(EXIT_OK, payload)
    return _result(EXIT_NEGATIVE, payload)


def _cmd_membership(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    state = valuefns.parse_state_json(scenario.read_document(_read(args.state)))
    verdict = valuefns.is_noncontextual_state(s, state, node_budget=ctx["node_budget"])
    if verdict.is_member:
        weights = [
            {"support": list(vf.support()), "weight": format_rational(p)}
            for vf, p in verdict.decomposition.weights
        ]
        return _result(EXIT_OK, {"member": True, "weights": weights})
    return _result(EXIT_NEGATIVE, {"member": False, "reason": verdict.status})


def _cmd_quantum_scenario(args, ctx) -> CommandResult:
    states = quantum.load_states(_read(args.vectors), ctx["tolerance"])
    return _document(scenario.save_scenario(quantum.scenario_from_states(states, ctx["tolerance"])))


def _verdict_payload(verdict: antidist.AntidistVerdict, extra: dict | None = None) -> dict:
    payload = {
        "antidistinguishable": verdict.antidistinguishable,
        "via": verdict.via,
        "margin_strict": verdict.margin_strict,
        "margin_quadratic": verdict.margin_quadratic,
        "boundary": verdict.boundary,
    }
    if extra:
        payload.update(extra)
    return payload


def _cmd_check_anti(args, ctx) -> CommandResult:
    tol = ctx["tolerance"]
    modes = [bool(args.overlaps), bool(args.vectors), bool(args.certificate)]
    if sum(modes) != 1:
        raise scenario.ScenarioParseError(
            "choose exactly one of --overlaps, --vectors/--triple, --certificate"
        )
    if args.overlaps:
        parts = args.overlaps.split(",")
        if len(parts) != 3:
            raise scenario.ScenarioParseError("--overlaps needs three comma-separated values")
        x = antidist.TripleOverlaps(*(float(parse_rational(p)) for p in parts), tol)
        verdict = antidist.triple_antidistinguishable(x, tol)
        payload = _verdict_payload(verdict, {"sufficient_condition": antidist.corollary_check(x, tol)})
        return _result(EXIT_OK if verdict.antidistinguishable else EXIT_NEGATIVE, payload)
    if args.vectors:
        if not args.triple:
            raise scenario.ScenarioParseError("--vectors requires --triple a,b,c")
        labels = args.triple.split(",")
        if len(labels) != 3:
            raise scenario.ScenarioParseError("--triple needs three comma-separated labels")
        states = quantum.load_states(_read(args.vectors), tol)
        x = antidist.TripleOverlaps.from_states(states, *labels, tol=tol)
        verdict = antidist.triple_antidistinguishable(x, tol)
        payload = _verdict_payload(
            verdict,
            {"overlaps": [x.x1, x.x2, x.x3], "sufficient_condition": antidist.corollary_check(x, tol)},
        )
        return _result(EXIT_OK if verdict.antidistinguishable else EXIT_NEGATIVE, payload)
    targets, cert = antidist.load_certificate(_read(args.certificate), tol)
    report = antidist.verify_certificate(targets, cert, tol)
    payload = {
        "valid": report.valid,
        "residual_orthonormality": report.residual_orthonormality,
        "residual_matched": report.residual_matched,
        "residual_extra": report.residual_extra,
    }
    return _result(EXIT_OK if report.valid else EXIT_NEGATIVE, payload)


def _antiset_payload(aset: antiset.PairwiseAntiset) -> dict:
    return {
        "kind": aset.kind,
        "members": list(aset.members),
        "principal": list(aset.principal) if aset.kind == "strong" else aset.principal,
        "triple_count": len(aset.triple_log),
        "boundary_triples": sum(1 for *_, v in aset.triple_log if v.boundary),
    }


def _require(args, names: list[str]) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise scenario.ScenarioParseError(f"missing required options: {', '.join(missing)}")


def _verify_antiset(args, ctx) -> antiset.PairwiseAntiset:
    _require(args, ["vectors", "members", "principal"])
    states = quantum.load_states(_read(args.vectors), ctx["tolerance"])
    members = args.members.split(",")
    principal = args.principal.split(",")
    if len(principal) == 1:
        return antiset.verify_weak_antiset(states, members, principal[0], ctx["tolerance"])
    return antiset.verify_strong_antiset(states, members, principal, ctx["tolerance"])


def _cmd_antiset(args, ctx) -> CommandResult:
    if args.action == "verify":
        try:
            aset = _verify_antiset(args, ctx)
        except FailedTripleError as exc:
            payload = {"verified": False, "failed_triple": list(exc.triple)}
            payload.update(_verdict_payload(exc.verdict))
            return _result(EXIT_NEGATIVE, payload)
        payload = {"verified": True}
        payload.update(_antiset_payload(aset))
        return _result(EXIT_OK, payload)
    states = quantum.load_states(_read(args.vectors), ctx["tolerance"])
    found = antiset.find_strong_antisets(
        states, args.members.split(","), args.principal.split(","), ctx["tolerance"],
        node_budget=ctx["node_budget"],
    )
    return _result(EXIT_OK, {"antisets": [_antiset_payload(a) for a in found]})


def _cmd_inequality(args, ctx) -> CommandResult:
    if args.action == "emit":
        aset = _verify_antiset(args, ctx)
        return _document(antiset.inequality_to_json(antiset.inequality_from_antiset(aset)))
    if args.action == "augment":
        _require(args, ["ineq"])
        ineq = antiset.load_inequality(_read(args.ineq))
        chosen = [
            args.add_inequality is not None,
            args.add_context is not None,
            args.add_outcome is not None,
        ]
        if sum(chosen) != 1:
            raise scenario.ScenarioParseError(
                "choose exactly one of --add-inequality, --add-context, --add-outcome"
            )
        if args.add_inequality:
            other = antiset.load_inequality(_read(args.add_inequality))
            ineq = antiset.add_inequality(ineq, other)
        elif args.add_context:
            ineq = antiset.add_context_normalization(ineq, args.add_context.split(","))
        else:
            ineq = antiset.add_constrained_outcome(ineq, args.add_outcome)
        return _document(antiset.inequality_to_json(ineq))
    # evaluate
    _require(args, ["ineq", "vectors"])
    ineq = antiset.load_inequality(_read(args.ineq))
    states = quantum.load_states(_read(args.vectors), ctx["tolerance"])
    rho = _parse_rho(args.rho, states, ctx["tolerance"])
    report = antiset.evaluate_inequality(ineq, states, rho, ctx["tolerance"])
    payload = {
        "lhs": report.lhs,
        "bound": format_rational(report.bound),
        "violated": report.violated,
        "margin": report.margin,
        "side_constraints_satisfied": report.side_constraints_satisfied,
    }
    return _result(EXIT_OK if report.violated else EXIT_NEGATIVE, payload)


def _cmd_generate(args, ctx) -> CommandResult:
    name = args.family
    if name in ensembles.SCENARIO_NAMES:
        return _document(scenario.save_scenario(ensembles.generate_scenario(name, args.n)))
    return _document(quantum.save_states(ensembles.generate_states(FamilySpec(name, args.d, args.subset))))


# ------------------------------------------------------------- reproduce


def _row_specker(tol, budget):
    s = ensembles.generate_scenario("specker")
    count = valuefns.count_value_functions(s, node_budget=budget)
    unique = ratlp.state_uniqueness(s)
    point_ok = unique.status == "unique" and all(v == Fraction(1, 2) for _, v in unique.point)
    return {
        "classical_bound": None,
        "quantum_value": None,
        "violated": None,
        "expected": "no value functions; unique state (1/2, 1/2, 1/2)",
        "pass": count == 0 and point_ok,
        "detail": f"value functions: {count}; state space: {unique.status}",
    }


def _row_no_state(tol, budget):
    s = ensembles.generate_scenario("no_state_example")
    result = ratlp.state_optimize(s, {a: 1 for a in s.outcomes})
    return {
        "classical_bound": None,
        "quantum_value": None,
        "violated": None,
        "expected": "state polytope is empty",
        "pass": result.status == "infeasible",
        "detail": f"LP status: {result.status}",
    }


def _row_klyachko(tol, budget):
    s = ensembles.generate_scenario("klyachko")
    ones = {a: 1 for a in s.outcomes}
    cb = valuefns.classical_bound(s, ones, node_budget=budget)
    sb = ratlp.state_optimize(s, ones)
    half = {a: Fraction(1, 2) for a in s.outcomes}
    member = valuefns.is_noncontextual_state(s, half, node_budget=budget)
    ok = (
        cb.bound == 2
        and cb.value_function_count == 11
        and sb.value == Fraction(5, 2)
        and member.status == "not-member"
    )
    return {
        "classical_bound": format_rational(cb.bound),
        "quantum_value": None,
        "violated": None,
        "expected": "bound 2, 11 value functions, state optimum 5/2, omega=1/2 contextual",
        "pass": ok,
        "detail": (
            f"count={cb.value_function_count}, state_bound={format_rational(sb.value)}, "
            f"omega_half={member.status}"
        ),
    }


def _row_example3(tol, budget):
    states = ensembles.generate_states(FamilySpec("caves_example"))
    generated = quantum.scenario_from_states(states, tol)
    target = ensembles.generate_scenario("antidist_example")
    targets = ["a1", "a2", "a3"]
    empty = not valuefns.definite_intersection(target, targets, node_budget=budget)
    verdict = antidist.scenario_antidistinguishable(target, targets, node_budget=budget)
    witness_ok = verdict.antidistinguishable and verdict.context == (
        "a1_perp",
        "a2_perp",
        "a3_perp",
    )
    return {
        "classical_bound": None,
        "quantum_value": None,
        "violated": None,
        "expected": "generated scenario matches; definite intersection empty; set antidistinguishable",
        "pass": generated == target and empty and witness_ok,
        "detail": f"scenario_match={generated == target}, definite_intersection_empty={empty}, witness={verdict.context}",
    }


def _row_yu_oh(tol, budget):
    rays = ensembles.generate_states(FamilySpec("yu_oh_rays"))
    basis = ensembles.generate_states(FamilySpec("yu_oh_principal"))
    combined = rays.union(basis)
    aset = antiset.verify_strong_antiset(combined, rays.labels, basis.labels, tol)
    ineq = antiset.inequality_from_antiset(aset)
    _, lam = quantum.frame_operator(rays, tol)
    report = antiset.evaluate_inequality(
        ineq, combined, DensityOperator.maximally_mixed(3), tol
    )
    expected_q = 4 / 3
    ok = (
        ineq.bound == 1
        and len(aset.triple_log) == 18
        and all(v.boundary for *_, v in aset.triple_log)
        and lam is not None
        and abs(lam - expected_q) <= 10 * tol
        and abs(report.lhs - expected_q) <= 10 * tol
        and report.violated
    )
    return {
        "classical_bound": format_rational(ineq.bound),
        "quantum_value": report.lhs,
        "violated": report.violated,
        "expected": "bound 1, quantum value 4/3, violated",
        "pass": ok,
        "detail": f"triples={len(aset.triple_log)}, frame_lambda={lam}",
    }


def _row_hadamard(d):
    def build(tol, budget):
        b0 = ensembles.generate_states(FamilySpec("hadamard", d, "B0"))
        b1 = ensembles.generate_states(FamilySpec("hadamard", d, "B1"))
        basis = ensembles.generate_states(FamilySpec("standard_basis", d))
        aset0 = antiset.verify_strong_antiset(b0.union(basis), b0.labels, basis.labels, tol)
        aset1 = antiset.verify_strong_antiset(b1.union(basis), b1.labels, basis.labels, tol)
        ineq = antiset.add_inequality(
            antiset.inequality_from_antiset(aset0), antiset.inequality_from_antiset(aset1)
        )
        full = b0.union(b1)
        report = antiset.evaluate_inequality(
            ineq, full, DensityOperator.maximally_mixed(d), tol
        )
        expected_q = 2**d / d
        ok = (
            ineq.bound == 2
            and abs(report.lhs - expected_q) <= 10 * tol
            and report.violated == (d >= 3)
        )
        return {
            "classical_bound": format_rational(ineq.bound),
            "quantum_value": report.lhs,
            "violated": report.violated,
            "expected": f"bound 2, quantum value {2**d}/{d}, violated iff d >= 3",
            "pass": ok,
            "detail": f"members=2x{2 ** (d - 1)}",
        }

    return build


def _row_mub(tol, budget):
    states = ensembles.generate_states(FamilySpec("mub", 5))
    principal = [f"a1_{k}" for k in range(1, 6)]
    members = [a for a in states.labels if not a.startswith("a1_")]
    aset = antiset.verify_strong_antiset(states, members, principal, tol)
    ineq = antiset.add_context_normalization(antiset.inequality_from_antiset(aset), principal)
    report = antiset.evaluate_inequality(
        ineq, states, DensityOperator.maximally_mixed(5), tol
    )
    ok = ineq.bound == 2 and abs(report.lhs - 6.0) <= 10 * tol and report.violated
    return {
        "classical_bound": format_rational(ineq.bound),
        "quantum_value": report.lhs,
        "violated": report.violated,
        "expected": "bound 2, quantum value 6, violated",
        "pass": ok,
        "detail": f"members={len(members)}, triples={len(aset.triple_log)}",
    }


def _row_maroney(d):
    def build(tol, budget):
        states = ensembles.generate_states(FamilySpec("maroney", d))
        members = [f"a{j}" for j in range(1, d)]
        aset = antiset.verify_weak_antiset(states, members, "c", tol)
        ineq = antiset.inequality_from_antiset(aset)
        rho = DensityOperator.from_pure(states.vector("c"))
        report = antiset.evaluate_inequality(ineq, states, rho, tol)
        expected_q = (d - 1) / 3
        ok = (
            ineq.bound == 1
            and ineq.kind == "state-dependent"
            and abs(report.lhs - expected_q) <= 10 * tol
            and report.side_constraints_satisfied
            and report.violated == (d >= 5)
        )
        return {
            "classical_bound": format_rational(ineq.bound),
            "quantum_value": report.lhs,
            "violated": report.violated,
            "expected": f"bound 1 given omega(c)=1, quantum value {d - 1}/3, violated iff d >= 5",
            "pass": ok,
            "detail": f"kind={ineq.kind}",
        }

    return build


def _row_sic(tol, budget):
    states = ensembles.generate_states(FamilySpec("sic", 3))
    members = [f"a{j}" for j in range(2, 10)]
    aset = antiset.verify_weak_antiset(states, members, "a1", tol)
    ineq = antiset.add_constrained_outcome(antiset.inequality_from_antiset(aset), "a1")
    rho = DensityOperator.from_pure(states.vector("a1"))
    report = antiset.evaluate_inequality(ineq, states, rho, tol)
    ok = (
        ineq.bound == 2
        and abs(report.lhs - 3.0) <= 10 * tol
        and report.violated
        and report.side_constraints_satisfied
    )
    return {
        "classical_bound": format_rational(ineq.bound),
        "quantum_value": report.lhs,
        "violated": report.violated,
        "expected": "bound 2 given omega(a1)=1, quantum value 3, violated",
        "pass": ok,
        "detail": f"boundary_triples={sum(1 for *_, v in aset.triple_log if v.boundary)}",
    }


def reproduce_rows(tol: float, budget: int | None) -> list[dict]:
    builders = [
        ("specker", _row_specker),
        ("no-state", _row_no_state),
        ("klyachko", _row_klyachko),
        ("example3-bridge", _row_example3),
        ("yu-oh", _row_yu_oh),
        ("hadamard-d3", _row_hadamard(3)),
        ("hadamard-d4", _row_hadamard(4)),
        ("hadamard-d5", _row_hadamard(5)),
        ("hadamard-d6", _row_hadamard(6)),
        ("mub-d5", _row_mub),
        ("maroney-d4", _row_maroney(4)),
        ("maroney-d5", _row_maroney(5)),
        ("maroney-d6", _row_maroney(6)),
        ("maroney-d7", _row_maroney(7)),
        ("sic-d3", _row_sic),
    ]
    rows = []
    for name, build in builders:
        try:
            row = build(tol, budget)
        except Exception as exc:  # noqa: BLE001 - a broken row must not kill the table
            row = {
                "classical_bound": None,
                "quantum_value": None,
                "violated": None,
                "expected": "",
                "pass": False,
                "detail": f"error: {exc}",
            }
        rows.append({"example": name, **row})
    return rows


def _reproduce_text(rows: list[dict]) -> str:
    header = f"{'example':<16} {'bound':>6} {'quantum':>10} {'violated':>8}  result"
    lines = [header, "-" * len(header)]
    for row in rows:
        bound = row["classical_bound"] if row["classical_bound"] is not None else "-"
        quantum_value = (
            f"{row['quantum_value']:.6f}" if row["quantum_value"] is not None else "-"
        )
        violated = {True: "yes", False: "no", None: "-"}[row["violated"]]
        status = "PASS" if row["pass"] else "FAIL"
        lines.append(f"{row['example']:<16} {bound:>6} {quantum_value:>10} {violated:>8}  {status}")
        if not row["pass"]:
            lines.append(f"    {row['detail']}")
    failed = [row["example"] for row in rows if not row["pass"]]
    lines.append(
        "all rows pass" if not failed else f"FAILED: {failed[0]} (total {len(failed)} failing)"
    )
    return "\n".join(lines)


def _cmd_reproduce(args, ctx) -> CommandResult:
    rows = reproduce_rows(ctx["tolerance"], ctx["node_budget"])
    exit_code = EXIT_OK if all(row["pass"] for row in rows) else EXIT_NEGATIVE
    return CommandResult(exit_code, rows, _reproduce_text(rows))


# ---------------------------------------------------------------- parser


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:  # also rejects nan, which would flip verdicts silently
        raise argparse.ArgumentTypeError(f"tolerance must lie strictly between 0 and 1, got {text}")
    return value


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--tolerance", type=_tolerance, default=argparse.SUPPRESS)
    parent.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    parent.add_argument("--node-budget", type=int, default=argparse.SUPPRESS)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parent = _common_parent()
    parser = argparse.ArgumentParser(prog="antictx", parents=[parent], description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[parent], help="validate a scenario document")
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("value-functions", parents=[parent], help="enumerate value functions")
    p.add_argument("scenario")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_value_functions)

    p = sub.add_parser("classical-bound", parents=[parent], help="maximum over value functions")
    p.add_argument("scenario")
    p.add_argument("--coeffs", required=True, help="coefficients file, '-', or 'ones'")
    p.set_defaults(handler=_cmd_classical_bound)

    p = sub.add_parser("state-bound", parents=[parent], help="maximum over all states (exact LP)")
    p.add_argument("scenario")
    p.add_argument("--coeffs", required=True, help="coefficients file, '-', or 'ones'")
    p.set_defaults(handler=_cmd_state_bound)

    p = sub.add_parser("membership", parents=[parent], help="noncontextual-polytope membership")
    p.add_argument("scenario")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("quantum-scenario", parents=[parent], help="scenario from a vector set")
    p.add_argument("vectors")
    p.set_defaults(handler=_cmd_quantum_scenario)

    p = sub.add_parser("check-anti", parents=[parent], help="antidistinguishability checks")
    p.add_argument("--overlaps", help="x1,x2,x3 squared overlaps")
    p.add_argument("--vectors", help="vector-set file")
    p.add_argument("--triple", help="a,b,c labels (with --vectors)")
    p.add_argument("--certificate", help="certificate file")
    p.set_defaults(handler=_cmd_check_anti)

    p = sub.add_parser("antiset", parents=[parent], help="verify or search pairwise antisets")
    p.add_argument("action", choices=("verify", "find"))
    p.add_argument("vectors")
    p.add_argument("--members", required=True, help="comma-separated labels")
    p.add_argument(
        "--principal",
        required=True,
        help="comma-separated basis labels (strong) or one label (weak)",
    )
    p.set_defaults(handler=_cmd_antiset)

    p = sub.add_parser("inequality", parents=[parent], help="emit, augment, evaluate inequalities")
    p.add_argument("action", choices=("emit", "augment", "evaluate"))
    p.add_argument("--vectors", help="vector-set file (emit, evaluate)")
    p.add_argument("--members", help="comma-separated labels (emit)")
    p.add_argument("--principal", help="principal context/outcome (emit)")
    p.add_argument("--ineq", help="inequality file (augment, evaluate)")
    p.add_argument("--add-inequality", help="other inequality file")
    p.add_argument("--add-context", help="comma-separated context labels")
    p.add_argument("--add-outcome", help="side-constrained outcome label")
    p.add_argument("--rho", help="'mixed', 'label:<name>', or a density-matrix file")
    p.set_defaults(handler=_cmd_inequality)

    p = sub.add_parser("generate", parents=[parent], help="emit a state family or scenario")
    p.add_argument("family", help="family or scenario name")
    p.add_argument("--d", type=int, default=None, help="dimension")
    p.add_argument("--subset", choices=("B0", "B1", "full"), default=None)
    p.add_argument("--n", type=int, default=None, help="outcome count for classical scenarios")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("reproduce", parents=[parent], help="recompute the headline numbers")
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def dispatch(argv: list[str]) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(exc.code if exc.code else EXIT_OK)
    ctx = {
        "tolerance": getattr(args, "tolerance", quantum.TOLERANCE),
        "format": getattr(args, "format", "text"),
        "node_budget": getattr(args, "node_budget", None),
    }
    try:
        result = args.handler(args, ctx)
    except ResourceLimitError as exc:
        result = CommandResult(EXIT_RESOURCE, {"error": "resource-limit", "message": str(exc)},
                               f"error: {exc}")
    except ScenarioValidationError as exc:
        payload = {
            "error": "validation",
            "violations": [
                {"rule": f.rule, "subjects": list(f.subjects)} for f in exc.report.violations
            ],
        }
        result = CommandResult(EXIT_USAGE, payload, f"error: {exc}")
    except (AntictxError, OSError, ValueError) as exc:
        result = CommandResult(EXIT_USAGE, {"error": type(exc).__name__, "message": str(exc)},
                               f"error: {exc}")
    result.fmt = ctx["format"]
    return result


def main(argv: list[str] | None = None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if result.exit_code in (EXIT_USAGE, EXIT_RESOURCE) else sys.stdout
    if result.payload is not None:
        if result.fmt == "json":
            print(json.dumps(result.payload, indent=2), file=stream)
        elif result.text:
            print(result.text, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
