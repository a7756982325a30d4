"""antictx's layers as the traced run sees them.

`targets` names the public functions wrapped in spans and the counts taken
from their arguments and results; `metrics` reduces a finished trace to the
per-layer metrics of BENCHMARK.json that come from spans.  Everything is
measured from outside the package: no module of antictx is edited.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def _bytes_in(tracer: Tracer, args, kwargs, result) -> None:
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, str):
        source = source.encode("utf-8")
    if isinstance(source, bytes):
        tracer.add("scenario.bytes_in", len(source))


def _bytes_out(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("scenario.bytes_out", len(result))


def _value_functions(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("valuefns.value_functions", len(result))


def _lp_size(tracer: Tracer, args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["lp"]
    # solve() turns every finite upper bound into one more tableau row
    tracer.add("ratlp.rows", len(lp.rows) + sum(u is not None for u in lp.upper))
    tracer.add("ratlp.columns", len(lp.variables))
    tracer.counts["ratlp.max_columns"] = max(tracer.counts["ratlp.max_columns"], len(lp.variables))
    if result.status == "infeasible":
        tracer.add("ratlp.infeasible")


def _gram_pairs(tracer: Tracer, args, kwargs, result) -> None:
    n = len(result.labels)
    tracer.add("quantum.gram.pairs", n * (n - 1) // 2)


def _cliques_found(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("quantum.cliques.found", len(result))


def _triple_accepted(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("antidist.triple.accepted", bool(result.antidistinguishable))


def _triple_key(tracer: Tracer, args, kwargs, result) -> None:
    # labels name states only within one operation, and one operation may
    # reuse a label for another state, so the key carries both and the overlaps
    _, a, b, c = args
    tracer.keys["antidist.overlaps"].add((tracer.root(), a, b, c, result.x1, result.x2, result.x3))


def _antisets_found(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("antiset.found", len(result))


def targets():
    """(function, span name, observer) for every traced public function."""
    from antictx import (
        _cliques,
        antidist,
        antiset,
        cli,
        ensembles,
        quantum,
        ratlp,
        scenario,
        valuefns,
    )

    return [
        (scenario.parse_scenario, "scenario.parse", _bytes_in),
        (scenario.validate_scenario, "scenario.validate", None),
        (scenario.save_scenario, "scenario.save", _bytes_out),
        (valuefns.enumerate_value_functions, "valuefns.enumerate", _value_functions),
        (valuefns.classical_bound, "valuefns.classical_bound", None),
        (valuefns.brute_force_antiset_bound, "valuefns.antiset_bound", None),
        (valuefns.definite_intersection, "valuefns.definite", None),
        (valuefns.is_noncontextual_state, "valuefns.membership", None),
        (ratlp.solve, "ratlp.solve", _lp_size),
        (ratlp.state_optimize, "ratlp.state_optimize", None),
        (ratlp.state_uniqueness, "ratlp.state_uniqueness", None),
        (quantum.gram, "quantum.gram", _gram_pairs),
        (_cliques.maximal_cliques, "quantum.cliques", _cliques_found),
        (quantum.scenario_from_states, "quantum.scenario_from_states", None),
        (quantum.quantum_value, "quantum.value", None),
        (antidist.triple_antidistinguishable, "antidist.triple", _triple_accepted),
        (antidist.TripleOverlaps.from_gram, "antidist.overlaps", _triple_key),
        (antidist.scenario_antidistinguishable, "antidist.scenario_search", None),
        (antidist.verify_certificate, "antidist.certificate", None),
        (antiset.verify_strong_antiset, "antiset.verify", None),
        (antiset.verify_weak_antiset, "antiset.verify", None),
        (antiset.find_strong_antisets, "antiset.find", _antisets_found),
        (antiset.evaluate_inequality, "antiset.evaluate", None),
        (ensembles.generate_states, "ensembles.generate", None),
        (ensembles.generate_scenario, "ensembles.generate", None),
        (cli.dispatch, "cli.dispatch", None),
    ]


def package_modules():
    """The antictx package and every submodule imported so far."""
    return [m for name, m in sorted(sys.modules.items()) if name == "antictx" or name.startswith("antictx.")]


# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = (
    "valuefns.value_functions",
    "ratlp.rows",
    "ratlp.columns",
    "antidist.triple.calls",
    "quantum.cliques.found",
    "antiset.found",
)


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from spans and counts; run.py adds the start-up
    probes (cli.interpreter_s, cli.import_s, cli.import_numpy_s) and
    trace.overhead_ratio."""
    self_s = tracer.self_times()
    total_s = tracer.totals()
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "scenario.parse.self_s": self_s.get("scenario.parse", 0.0),
        "scenario.validate.self_s": self_s.get("scenario.validate", 0.0),
        "scenario.save.self_s": self_s.get("scenario.save", 0.0),
        "scenario.bytes_in": counts["scenario.bytes_in"],
        "scenario.bytes_out": counts["scenario.bytes_out"],
        "valuefns.enumerate.calls": calls["valuefns.enumerate"],
        "valuefns.enumerate.self_s": self_s.get("valuefns.enumerate", 0.0),
        "valuefns.value_functions": counts["valuefns.value_functions"],
        "valuefns.vf_per_s": ratio(counts["valuefns.value_functions"], total_s.get("valuefns.enumerate", 0.0)),
        "valuefns.classical_bound.self_s": self_s.get("valuefns.classical_bound", 0.0),
        "valuefns.antiset_bound.self_s": self_s.get("valuefns.antiset_bound", 0.0),
        "valuefns.definite.self_s": self_s.get("valuefns.definite", 0.0),
        "valuefns.membership.self_s": self_s.get("valuefns.membership", 0.0),
        "valuefns.budget_exceeded": counts["valuefns.enumerate.raised.ResourceLimitError"],
        "ratlp.solve.calls": calls["ratlp.solve"],
        "ratlp.solve.self_s": self_s.get("ratlp.solve", 0.0),
        "ratlp.rows": counts["ratlp.rows"],
        "ratlp.columns": counts["ratlp.columns"],
        "ratlp.max_columns": counts["ratlp.max_columns"],
        "ratlp.infeasible": counts["ratlp.infeasible"],
        "ratlp.state_uniqueness.self_s": self_s.get("ratlp.state_uniqueness", 0.0),
        "quantum.gram.calls": calls["quantum.gram"],
        "quantum.gram.self_s": self_s.get("quantum.gram", 0.0),
        "quantum.gram.pairs": counts["quantum.gram.pairs"],
        "quantum.cliques.calls": calls["quantum.cliques"],
        "quantum.cliques.self_s": self_s.get("quantum.cliques", 0.0),
        "quantum.cliques.found": counts["quantum.cliques.found"],
        "quantum.scenario_from_states.self_s": self_s.get("quantum.scenario_from_states", 0.0),
        "quantum.value.self_s": self_s.get("quantum.value", 0.0),
        "antidist.triple.calls": calls["antidist.triple"],
        "antidist.triple.self_s": self_s.get("antidist.triple", 0.0),
        "antidist.triple.accept_ratio": ratio(counts["antidist.triple.accepted"], calls["antidist.triple"]),
        "antidist.scenario_search.self_s": self_s.get("antidist.scenario_search", 0.0),
        "antidist.certificate.self_s": self_s.get("antidist.certificate", 0.0),
        "antiset.verify.calls": calls["antiset.verify"],
        "antiset.verify.self_s": self_s.get("antiset.verify", 0.0),
        "antiset.find.self_s": self_s.get("antiset.find", 0.0),
        "antiset.found": counts["antiset.found"],
        "antiset.triple_reuse_ratio": ratio(len(tracer.keys["antidist.overlaps"]), calls["antidist.overlaps"]),
        "antiset.evaluate.self_s": self_s.get("antiset.evaluate", 0.0),
        "ensembles.generate.calls": calls["ensembles.generate"],
        "ensembles.generate.self_s": self_s.get("ensembles.generate", 0.0),
        "cli.dispatch.self_s": self_s.get("cli.dispatch", 0.0),
        "cli.output_bytes": counts["cli.output_bytes"],
    }
    return {k: float(v) for k, v in out.items()}


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix), in seconds.

    Time spent in an operation outside every wrapped function is reported
    as ``unattributed``: harness code and the unwrapped helpers it calls.
    """
    out: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = "unattributed" if name == "op" else name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
