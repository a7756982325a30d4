"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (not antidistinguishable, not a
member, inequality not violated, validation failed, ...), 2 usage or input
errors, 3 resource limits.  --format may be given before or after the
command; --tolerance and --node-budget come after it, and only on the
commands whose checks and searches they reach.  Each command takes exactly
the flags its handler reads, so a stray, missing or malformed flag is an
argparse usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
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
    UnsupportedParameterError,
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
            _kv_text(item, indent) if isinstance(item, dict)
            else f"{pad}-\n{_kv_text(item, indent + 1)}" if isinstance(item, list)
            else f"{pad}- {item}"
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


def _findings(findings) -> list[dict]:
    # lists, also for nested subjects: as text, _kv_text would print a tuple as its repr
    return [{"rule": f.rule, "subjects": [list(s) if isinstance(s, tuple) else s for s in f.subjects]}
            for f in findings]


def _document(blob: bytes) -> CommandResult:
    """Print one serialized document; as text it is the document itself."""
    text = blob.decode("utf-8").rstrip("\n")
    return CommandResult(EXIT_OK, json.loads(text), text)


# ---------------------------------------------------------------- handlers


def _cmd_validate(args) -> CommandResult:
    candidate = scenario.parse_scenario(_read(args.scenario))
    report = scenario.validate_scenario(candidate)
    payload = {
        "valid": report.valid,
        "violations": _findings(report.violations),
        "warnings": _findings(report.warnings),
    }
    return CommandResult(EXIT_OK if report.valid else EXIT_NEGATIVE, payload)


def _cmd_value_functions(args) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    if args.count_only:
        count = valuefns.count_value_functions(s, node_budget=args.node_budget)
        return CommandResult(EXIT_OK, {"count": count})
    vfs = valuefns.enumerate_value_functions(s, node_budget=args.node_budget)
    payload = {"count": len(vfs), "value_functions": [vf.assignment for vf in vfs]}
    return CommandResult(EXIT_OK, payload)


def _cmd_classical_bound(args) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    coeffs = _parse_coeffs(args.coeffs, s.outcomes)
    try:
        result = valuefns.classical_bound(s, coeffs, node_budget=args.node_budget)
    except EmptyPolytopeError as exc:
        return CommandResult(EXIT_NEGATIVE, {"error": "empty-polytope", "message": str(exc)})
    payload = {
        "bound": format_rational(result.bound),
        "maximizer": result.maximizer.assignment,
        "value_function_count": result.value_function_count,
    }
    return CommandResult(EXIT_OK, payload)


def _cmd_state_bound(args) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    coeffs = _parse_coeffs(args.coeffs, s.outcomes)
    result = ratlp.state_optimize(s, coeffs)
    payload = {"status": result.status}
    if result.status == "optimal":
        payload["value"] = format_rational(result.value)
        payload["point"] = {a: format_rational(v) for a, v in zip(s.outcomes, result.point)}
        return CommandResult(EXIT_OK, payload)
    return CommandResult(EXIT_NEGATIVE, payload)


def _cmd_membership(args) -> CommandResult:
    s = scenario.load_scenario(_read(args.scenario))
    state = valuefns.parse_state_json(scenario.read_document(_read(args.state)))
    verdict = valuefns.is_noncontextual_state(s, state, node_budget=args.node_budget)
    if verdict.is_member:
        weights = [
            {"support": list(vf.support()), "weight": format_rational(p)}
            for vf, p in verdict.decomposition.weights
        ]
        return CommandResult(EXIT_OK, {"member": True, "weights": weights})
    return CommandResult(EXIT_NEGATIVE, {"member": False, "reason": verdict.status})


def _cmd_quantum_scenario(args) -> CommandResult:
    states = quantum.load_states(_read(args.vectors), args.tolerance)
    return _document(scenario.save_scenario(quantum.scenario_from_states(states, args.tolerance)))


def _cmd_check_anti(args) -> CommandResult:
    tol = args.tolerance
    if (args.vectors is None) != (args.triple is None):
        raise scenario.ScenarioParseError("--vectors and --triple must be given together")
    if args.certificate is not None:
        targets, cert = antidist.load_certificate(_read(args.certificate), tol)
        report = antidist.verify_certificate(targets, cert, tol)
        return CommandResult(EXIT_OK if report.valid else EXIT_NEGATIVE, asdict(report))
    if args.overlaps is not None:
        x = antidist.TripleOverlaps(*(float(parse_rational(p)) for p in args.overlaps), tol)
        extra = {}
    else:
        states = quantum.load_states(_read(args.vectors), tol)
        x = antidist.TripleOverlaps.from_states(states, *args.triple, tol=tol)
        extra = {"overlaps": [x.x1, x.x2, x.x3]}
    verdict = antidist.triple_antidistinguishable(x, tol)
    payload = {**asdict(verdict), **extra, "sufficient_condition": antidist.corollary_check(x, tol)}
    return CommandResult(EXIT_OK if verdict.antidistinguishable else EXIT_NEGATIVE, payload)


def _antiset_payload(aset: antiset.PairwiseAntiset) -> dict:
    return {
        "kind": aset.kind,
        "members": list(aset.members),
        "principal": list(aset.principal) if aset.kind == "strong" else aset.principal,
        "triple_count": len(aset.triple_log),
        "boundary_triples": sum(1 for *_, v in aset.triple_log if v.boundary),
    }


def _verify_antiset(args) -> antiset.PairwiseAntiset:
    states = quantum.load_states(_read(args.vectors), args.tolerance)
    members = args.members.split(",")
    principal = args.principal.split(",")
    if len(principal) == 1:
        return antiset.verify_weak_antiset(states, members, principal[0], args.tolerance)
    return antiset.verify_strong_antiset(states, members, principal, args.tolerance)


def _cmd_antiset_verify(args) -> CommandResult:
    try:
        aset = _verify_antiset(args)
    except FailedTripleError as exc:
        return CommandResult(EXIT_NEGATIVE, {"verified": False, "failed_triple": list(exc.triple),
                                             **asdict(exc.verdict)})
    return CommandResult(EXIT_OK, {"verified": True, **_antiset_payload(aset)})


def _cmd_antiset_find(args) -> CommandResult:
    states = quantum.load_states(_read(args.vectors), args.tolerance)
    found = antiset.find_strong_antisets(
        states, args.members.split(","), args.principal.split(","), args.tolerance,
        node_budget=args.node_budget,
    )
    return CommandResult(EXIT_OK, {"antisets": [_antiset_payload(a) for a in found]})


def _cmd_inequality_emit(args) -> CommandResult:
    aset = _verify_antiset(args)
    return _document(antiset.inequality_to_json(antiset.inequality_from_antiset(aset)))


def _cmd_inequality_augment(args) -> CommandResult:
    ineq = antiset.load_inequality(_read(args.ineq))
    if args.add_inequality:
        other = antiset.load_inequality(_read(args.add_inequality))
        ineq = antiset.add_inequality(ineq, other)
    elif args.add_context:
        ineq = antiset.add_context_normalization(ineq, args.add_context.split(","))
    else:
        ineq = antiset.add_constrained_outcome(ineq, args.add_outcome)
    return _document(antiset.inequality_to_json(ineq))


def _cmd_inequality_evaluate(args) -> CommandResult:
    ineq = antiset.load_inequality(_read(args.ineq))
    states = quantum.load_states(_read(args.vectors), args.tolerance)
    rho = _parse_rho(args.rho, states, args.tolerance)
    report = antiset.evaluate_inequality(ineq, states, rho, args.tolerance)
    payload = {**asdict(report), "bound": format_rational(report.bound)}  # "bound" keeps its place
    return CommandResult(EXIT_OK if report.violated else EXIT_NEGATIVE, payload)


def _cmd_generate(args) -> CommandResult:
    name = args.family
    if name in ensembles.SCENARIO_NAMES:
        if args.d is not None or args.subset is not None:
            raise UnsupportedParameterError(f"scenario {name!r} takes no --d or --subset")
        return _document(scenario.save_scenario(ensembles.generate_scenario(name, args.n)))
    if args.n is not None and name in ensembles.STATE_FAMILIES:
        raise UnsupportedParameterError(f"state family {name!r} takes no --n")
    return _document(quantum.save_states(ensembles.generate_states(FamilySpec(name, args.d, args.subset))))


def _cmd_reproduce(args) -> CommandResult:
    rows = reproduce.table(args.tolerance, args.node_budget)
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


def _triple(text: str) -> list[str]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"needs three comma-separated values, got {text}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)  # after the command, SUPPRESS keeps an earlier --format
    fmt.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tolerance", type=_tolerance, default=quantum.TOLERANCE)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--node-budget", type=_node_budget, default=None)
    pair = argparse.ArgumentParser(add_help=False)  # an antiset: its members and principal
    pair.add_argument("--members", required=True, help="comma-separated labels")
    pair.add_argument(
        "--principal",
        required=True,
        help="comma-separated basis labels (strong) or one label (weak)",
    )

    parser = argparse.ArgumentParser(prog="antictx", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents, within=sub):
        p = within.add_parser(name, parents=[fmt, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("validate", _cmd_validate, "validate a scenario document")
    p.add_argument("scenario")

    p = command("value-functions", _cmd_value_functions, "enumerate value functions", budget)
    p.add_argument("scenario")
    p.add_argument("--count-only", action="store_true")

    p = command("classical-bound", _cmd_classical_bound, "maximum over value functions", budget)
    p.add_argument("scenario")
    p.add_argument("--coeffs", required=True, help="coefficients file, '-', or 'ones'")

    p = command("state-bound", _cmd_state_bound, "maximum over all states (exact LP)")
    p.add_argument("scenario")
    p.add_argument("--coeffs", required=True, help="coefficients file, '-', or 'ones'")

    p = command("membership", _cmd_membership, "noncontextual-polytope membership", budget)
    p.add_argument("scenario")
    p.add_argument("--state", required=True)

    p = command("quantum-scenario", _cmd_quantum_scenario, "scenario from a vector set", tol)
    p.add_argument("vectors")

    p = command("check-anti", _cmd_check_anti, "antidistinguishability checks", tol)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--overlaps", type=_triple, help="x1,x2,x3 squared overlaps")
    mode.add_argument("--vectors", help="vector-set file (with --triple)")
    mode.add_argument("--certificate", help="certificate file")
    p.add_argument("--triple", type=_triple, help="a,b,c labels (with --vectors)")

    p = sub.add_parser("antiset", parents=[fmt], help="verify or search pairwise antisets")
    actions = p.add_subparsers(dest="action", required=True)
    p = command("verify", _cmd_antiset_verify, "verify one antiset", tol, pair, within=actions)
    p.add_argument("vectors")
    p = command("find", _cmd_antiset_find, "maximal strong antisets", tol, budget, pair, within=actions)
    p.add_argument("vectors")

    p = sub.add_parser("inequality", parents=[fmt], help="emit, augment, evaluate inequalities")
    actions = p.add_subparsers(dest="action", required=True)
    p = command("emit", _cmd_inequality_emit, "inequality of a verified antiset", tol, pair, within=actions)
    p.add_argument("--vectors", required=True, help="vector-set file")
    p = command("augment", _cmd_inequality_augment, "extend an inequality", within=actions)
    p.add_argument("--ineq", required=True, help="inequality file")
    addition = p.add_mutually_exclusive_group(required=True)
    addition.add_argument("--add-inequality", help="other inequality file")
    addition.add_argument("--add-context", help="comma-separated context labels")
    addition.add_argument("--add-outcome", help="side-constrained outcome label")
    p = command("evaluate", _cmd_inequality_evaluate, "quantum value against the bound", tol, within=actions)
    p.add_argument("--ineq", required=True, help="inequality file")
    p.add_argument("--vectors", required=True, help="vector-set file")
    p.add_argument("--rho", help="'mixed' (default), 'label:<name>', or a density-matrix file")

    p = command("generate", _cmd_generate, "emit a state family or scenario")
    p.add_argument("family", help="family or scenario name")
    p.add_argument("--d", type=int, default=None, help="dimension")
    p.add_argument("--subset", choices=("B0", "B1", "full"), default=None)
    p.add_argument("--n", type=int, default=None, help="outcome count for classical scenarios")

    command("reproduce", _cmd_reproduce, "recompute the headline numbers", tol, budget)

    return parser


def dispatch(argv: list[str]) -> CommandResult:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return CommandResult(exc.code if exc.code else EXIT_OK)
    try:
        result = args.handler(args)
    except ResourceLimitError as exc:
        result = CommandResult(EXIT_RESOURCE, {"error": "resource-limit", "message": str(exc)},
                               f"error: {exc}")
    except ScenarioValidationError as exc:
        payload = {"error": "validation", "violations": _findings(exc.report.violations)}
        result = CommandResult(EXIT_USAGE, payload, f"error: {exc}")
    except (AntictxError, OSError, ValueError) as exc:
        result = CommandResult(EXIT_USAGE, {"error": type(exc).__name__, "message": str(exc)},
                               f"error: {exc}")
    result.fmt = args.format
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
