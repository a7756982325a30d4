"""Contextuality scenarios and their validation and serialization.

A scenario is a two-kind hypergraph over a finite outcome set: *contexts*
are the complete outcome sets of measurements (probabilities over a context
sum to exactly 1) and *maximal partial contexts* are incompletely specified
outcome sets (probabilities sum to at most 1).  Both families are antichains
under set inclusion and no context may also appear as a partial context.

Scenarios are immutable.  `make_scenario` stores them in canonical form
(outcomes sorted lexicographically, set families sorted by their sorted
member lists), so structural equality of canonical scenarios is plain `==`.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

from .errors import ScenarioParseError, ScenarioValidationError, UnknownLabelError

__all__ = [
    "Scenario",
    "ValidationReport",
    "Finding",
    "make_scenario",
    "check_members_known",
    "check_labels",
    "validate_scenario",
    "read_document",
    "parse_scenario",
    "load_scenario",
    "save_scenario",
    "write_document",
]


@dataclass(frozen=True)
class Scenario:
    """Outcome labels plus the context and partial-context families.

    Outcomes are represented directly by their labels (nonempty strings,
    unique within a scenario, ordered lexicographically).
    """

    outcomes: tuple[str, ...]
    contexts: tuple[frozenset[str], ...] = ()
    partial_contexts: tuple[frozenset[str], ...] = ()

    @property
    def outcome_set(self) -> frozenset[str]:
        return frozenset(self.outcomes)

    def all_sets(self) -> tuple[frozenset[str], ...]:
        """Contexts followed by partial contexts."""
        return self.contexts + self.partial_contexts


class Finding(NamedTuple):
    """One validation finding: a rule identifier plus the offending sets."""

    rule: str
    subjects: tuple


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Finding, ...]
    warnings: tuple[Finding, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _sorted_sets(sets: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    # dedup, then order by the sorted member list
    unique = {frozenset(s) for s in sets}
    return tuple(sorted(unique, key=lambda s: sorted(s)))


def make_scenario(
    outcomes: Iterable[str],
    contexts: Iterable[Iterable[str]] = (),
    partial_contexts: Iterable[Iterable[str]] = (),
) -> Scenario:
    """Build a canonical Scenario; duplicates are dropped, nothing is checked.

    Validation is a separate concern (`validate_scenario`), so candidates
    that break the structural rules can still be constructed and inspected.
    """
    seen = dict.fromkeys(outcomes)
    return Scenario(
        outcomes=tuple(sorted(seen)),
        contexts=_sorted_sets(contexts),
        partial_contexts=_sorted_sets(partial_contexts),
    )


def check_members_known(s: Scenario) -> None:
    """Raise UnknownLabelError when a (partial) context names an outcome
    missing from the outcome list."""
    stray = sorted({a for m in s.all_sets() for a in m} - s.outcome_set)
    if stray:
        raise UnknownLabelError(f"scenario sets mention unknown outcomes: {stray}")


def check_labels(known: Iterable[str], labels: Iterable[str]) -> None:
    """Raise UnknownLabelError naming every label that is not in `known`."""
    unknown = sorted(set(labels) - set(known))
    if unknown:
        raise UnknownLabelError(f"unknown outcome labels: {unknown}")


def _label_ok(label: str) -> bool:
    return bool(label) and not any(unicodedata.category(ch) == "Cc" for ch in label)


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check every structural rule and report all violations.

    Rule identifiers:

    - ``label-empty`` / ``label-control-char`` / ``label-duplicate``
    - ``empty-set``: a context or partial context with no elements
    - ``outcome-unknown``: a set member missing from the outcome list
    - ``context-antichain`` / ``partial-context-antichain``
    - ``M-not-in-N``: a context also listed as a partial context

    A partial context that is a subset of a context is redundant but legal,
    and is reported as a warning (``partial-context-inside-context``).
    """
    violations: list[Finding] = []
    warnings: list[Finding] = []

    seen: set[str] = set()
    for label in s.outcomes:
        if not label:
            violations.append(Finding("label-empty", (label,)))
        elif not _label_ok(label):
            violations.append(Finding("label-control-char", (label,)))
        if label in seen:
            violations.append(Finding("label-duplicate", (label,)))
        seen.add(label)

    known = set(s.outcomes)
    for family_name, family in (("context", s.contexts), ("partial-context", s.partial_contexts)):
        for members in family:
            if not members:
                violations.append(Finding("empty-set", (family_name,)))
            unknown = sorted(m for m in members if m not in known)
            if unknown:
                violations.append(Finding("outcome-unknown", (family_name, tuple(unknown))))

    def antichain(rule: str, family: tuple[frozenset[str], ...]) -> None:
        for i, a in enumerate(family):
            for b in family[i + 1 :]:
                if a < b or b < a:
                    small, big = (a, b) if a < b else (b, a)
                    violations.append(Finding(rule, (tuple(sorted(small)), tuple(sorted(big)))))

    antichain("context-antichain", s.contexts)
    antichain("partial-context-antichain", s.partial_contexts)

    context_set = set(s.contexts)
    for n in s.partial_contexts:
        if n in context_set:
            violations.append(Finding("M-not-in-N", (tuple(sorted(n)),)))
        elif any(n < m for m in s.contexts):
            warnings.append(Finding("partial-context-inside-context", (tuple(sorted(n)),)))

    return ValidationReport(tuple(violations), tuple(warnings))


_SCENARIO_KEYS = {"outcomes", "contexts", "partial_contexts"}


def _parse_label_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ScenarioParseError(f"{where} must be a list of strings")
    return value


def read_document(source: bytes | str | IO) -> dict:
    """The JSON object in UTF-8 bytes, a string or a readable file.

    Every document reader of the package starts here.  Raises
    ScenarioParseError when the input is not JSON or not an object.
    """
    if hasattr(source, "read"):
        source = source.read()
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level must be an object")
    return doc


def write_document(doc: dict) -> bytes:
    """A document as every writer of the package serializes it: indented
    UTF-8 JSON, non-ASCII labels kept as they are, and a final newline."""
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def parse_scenario(source: bytes | str | IO) -> Scenario:
    """Parse a scenario document without validating its structure.

    Raises ScenarioParseError on malformed input.  The result may violate
    the structural rules; run `validate_scenario` to find out.
    """
    doc = read_document(source)
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioParseError(f"unknown top-level keys: {sorted(unknown)}")
    if "outcomes" not in doc:
        raise ScenarioParseError("missing required key 'outcomes'")

    outcomes = _parse_label_list(doc["outcomes"], "outcomes")
    families = {}
    for key in ("contexts", "partial_contexts"):
        value = doc.get(key, [])
        if not isinstance(value, list):
            raise ScenarioParseError(f"{key} must be a list of lists")
        families[key] = [_parse_label_list(x, f"{key} entry") for x in value]

    s = make_scenario(outcomes, families["contexts"], families["partial_contexts"])
    if len(s.outcomes) < len(outcomes):  # keep a repeated label for validation to report
        s = Scenario(tuple(sorted(outcomes)), s.contexts, s.partial_contexts)
    return s


def load_scenario(source: bytes | str | IO) -> Scenario:
    """Parse and validate a scenario document.

    Raises ScenarioParseError on malformed input and ScenarioValidationError
    (carrying the full report) when the structure violates the rules.
    """
    s = parse_scenario(source)
    report = validate_scenario(s)
    if not report.valid:
        raise ScenarioValidationError(report)
    return s


def save_scenario(s: Scenario) -> bytes:
    """Serialize to canonical JSON (UTF-8): sorted labels, sorted sets.

    The output is a fixed point: loading and saving again reproduces the
    same bytes.
    """
    doc = {
        "outcomes": sorted(set(s.outcomes)),
        "contexts": sorted(sorted(m) for m in set(s.contexts)),
        "partial_contexts": sorted(sorted(n) for n in set(s.partial_contexts)),
    }
    return write_document(doc)
