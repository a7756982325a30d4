"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (not antidistinguishable, not a
member, inequality not violated, validation failed, ...), 2 usage or input
errors, 3 resource limits.  Global flags (--tolerance, --format,
--node-budget) may be given before or after the subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import antidist, antiset, ensembles, quantum, ratlp, reproduce, scenario, valuefns
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
    text: str | None = None  # None: the payload as key-value text, rendered on demand
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
    return CommandResult(EXIT_OK, json.loads(text), text)


# ---------------------------------------------------------------- handlers


def _cmd_validate(args, ctx) -> CommandResult:
    candidate = scenario.parse_scenario(_read(args.scenario))
    report = scenario.validate_scenario(candidate)
    payload = {
        "valid": report.valid,
        "violations": [{"rule": f.rule, "subjects": list(f.subjects)} for f in report.violations],
        "warnings": [{"rule": f.rule, "subjects": list(f.subjects)} for f in report.warnings],
    }
    return CommandResult(EXIT_OK if report.valid else EXIT_NEGATIVE, payload)


def _cmd_value_functions(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    budget = ctx["node_budget"]
    if args.count_only:
        count = valuefns.count_value_functions(s, node_budget=budget)
        return CommandResult(EXIT_OK, {"count": count})
    vfs = valuefns.enumerate_value_functions(s, node_budget=budget)
    payload = {"count": len(vfs), "value_functions": [vf.assignment for vf in vfs]}
    return CommandResult(EXIT_OK, payload)


def _cmd_classical_bound(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    coeffs = _parse_coeffs(args.coeffs, s.outcomes)
    try:
        result = valuefns.classical_bound(s, coeffs, node_budget=ctx["node_budget"])
    except EmptyPolytopeError as exc:
        return CommandResult(EXIT_NEGATIVE, {"error": "empty-polytope", "message": str(exc)})
    payload = {
        "bound": format_rational(result.bound),
        "maximizer": result.maximizer.assignment,
        "value_function_count": result.value_function_count,
    }
    return CommandResult(EXIT_OK, payload)


def _cmd_state_bound(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    coeffs = _parse_coeffs(args.coeffs, s.outcomes)
    result = ratlp.state_optimize(s, coeffs)
    payload = {"status": result.status}
    if result.status == "optimal":
        payload["value"] = format_rational(result.value)
        payload["point"] = {a: format_rational(v) for a, v in zip(s.outcomes, result.point)}
        return CommandResult(EXIT_OK, payload)
    return CommandResult(EXIT_NEGATIVE, payload)


def _cmd_membership(args, ctx) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    state = valuefns.parse_state_json(scenario.read_document(_read(args.state)))
    verdict = valuefns.is_noncontextual_state(s, state, node_budget=ctx["node_budget"])
    if verdict.is_member:
        weights = [
            {"support": list(vf.support()), "weight": format_rational(p)}
            for vf, p in verdict.decomposition.weights
        ]
        return CommandResult(EXIT_OK, {"member": True, "weights": weights})
    return CommandResult(EXIT_NEGATIVE, {"member": False, "reason": verdict.status})


def _cmd_quantum_scenario(args, ctx) -> CommandResult:
    states = quantum.load_states(_read(args.vectors), ctx["tolerance"])
    return _document(scenario.save_scenario(quantum.scenario_from_states(states, ctx["tolerance"])))


def _verdict_payload(verdict: antidist.AntidistVerdict, extra: dict | None = None) -> dict:
    return {
        "antidistinguishable": verdict.antidistinguishable,
        "via": verdict.via,
        "margin_strict": verdict.margin_strict,
        "margin_quadratic": verdict.margin_quadratic,
        "boundary": verdict.boundary,
        **(extra or {}),
    }


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
        return CommandResult(EXIT_OK if verdict.antidistinguishable else EXIT_NEGATIVE, payload)
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
        return CommandResult(EXIT_OK if verdict.antidistinguishable else EXIT_NEGATIVE, payload)
    targets, cert = antidist.load_certificate(_read(args.certificate), tol)
    report = antidist.verify_certificate(targets, cert, tol)
    payload = {
        "valid": report.valid,
        "residual_orthonormality": report.residual_orthonormality,
        "residual_matched": report.residual_matched,
        "residual_extra": report.residual_extra,
    }
    return CommandResult(EXIT_OK if report.valid else EXIT_NEGATIVE, payload)


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
            return CommandResult(EXIT_NEGATIVE, {"verified": False, "failed_triple": list(exc.triple),
                                                 **_verdict_payload(exc.verdict)})
        return CommandResult(EXIT_OK, {"verified": True, **_antiset_payload(aset)})
    states = quantum.load_states(_read(args.vectors), ctx["tolerance"])
    found = antiset.find_strong_antisets(
        states, args.members.split(","), args.principal.split(","), ctx["tolerance"],
        node_budget=ctx["node_budget"],
    )
    return CommandResult(EXIT_OK, {"antisets": [_antiset_payload(a) for a in found]})


def _cmd_inequality(args, ctx) -> CommandResult:
    if args.action == "emit":
        aset = _verify_antiset(args, ctx)
        return _document(antiset.inequality_to_json(antiset.inequality_from_antiset(aset)))
    if args.action == "augment":
        _require(args, ["ineq"])
        ineq = antiset.load_inequality(_read(args.ineq))
        chosen = (args.add_inequality, args.add_context, args.add_outcome)
        if sum(x is not None for x in chosen) != 1:
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
    return CommandResult(EXIT_OK if report.violated else EXIT_NEGATIVE, payload)


def _cmd_generate(args, ctx) -> CommandResult:
    name = args.family
    if name in ensembles.SCENARIO_NAMES:
        return _document(scenario.save_scenario(ensembles.generate_scenario(name, args.n)))
    return _document(quantum.save_states(ensembles.generate_states(FamilySpec(name, args.d, args.subset))))


def _cmd_reproduce(args, ctx) -> CommandResult:
    rows = reproduce.table(ctx["tolerance"], ctx["node_budget"])
    exit_code = EXIT_OK if all(row["pass"] for row in rows) else EXIT_NEGATIVE
    return CommandResult(exit_code, rows, reproduce.render(rows))


# ---------------------------------------------------------------- parser


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text}") from None
    if not 0 < value < 1:  # also rejects nan, which would flip verdicts silently
        raise argparse.ArgumentTypeError(f"tolerance must lie strictly between 0 and 1, got {text}")
    return value


def _node_budget(text: str) -> int:
    if not (text.isascii() and text.isdigit()):  # no sign, so never negative
        raise argparse.ArgumentTypeError(f"node budget must be a nonnegative integer, got {text}")
    return int(text)


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--tolerance", type=_tolerance, default=argparse.SUPPRESS)
    parent.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    parent.add_argument("--node-budget", type=_node_budget, default=argparse.SUPPRESS)
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
    if result.payload is None:
        return result.exit_code
    try:
        if result.fmt == "json":
            # in batches: json.dump writes each token (slow on a pipe), json.dumps holds all
            tokens = json.JSONEncoder(indent=2).iterencode(result.payload)
            while batch := "".join(islice(tokens, 1 << 16)):
                stream.write(batch)
            stream.write("\n")
        else:
            text = _kv_text(result.payload) if result.text is None else result.text
            if text:
                print(text, file=stream)
        stream.flush()
    except BrokenPipeError:  # the reader left; keep the flush at exit quiet too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
