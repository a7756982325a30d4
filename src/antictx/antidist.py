"""Antidistinguishability of triples, certificates, and outcome sets.

A set of states is antidistinguishable when some measurement can always
rule out one of them with certainty.  For three pure states the decision
reduces to their squared pairwise overlaps (x1, x2, x3):

    x1 + x2 + x3 < 1          (strictly), and
    (x1 + x2 + x3 - 1)^2 >= 4 * x1 * x2 * x3.

The quadratic condition is tested with a small negative slack because the
interesting families sit exactly on its boundary.  The strict sum rejects an
orthogonal pair whose other overlaps sum to 1, as in (1/2, 1/2, 0), though a
basis containing the pair antidistinguishes it.  Sufficient: max(x) <= 1/4.

The combinatorial counterpart replaces measurements by contexts: a set A
of outcomes is antidistinguishable when some context M supplies a distinct
"blocker" for each member of A (an outcome co-occurring with it in some
(partial) context), and every remaining outcome of M co-occurs with every
member of A.  The search here additionally requires all named outcomes to
be pairwise distinct where the informal definition is silent; without that
refinement a classical scenario would make singletons antidistinguishable
while still possessing definite value functions.  The blockers are found by
bipartite matching; the witness is the lexicographically first assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NodeBudget,
    OverlapRangeError,
    ScenarioParseError,
    UnknownLabelError,
)
from .quantum import TOLERANCE, GramData, PureStateSet, gram, states_from_doc
from .scenario import Scenario, check_labels, check_members_known, read_document

__all__ = [
    "TripleOverlaps",
    "AntidistVerdict",
    "AntidistCertificate",
    "CertificateReport",
    "ScenarioAntidistVerdict",
    "triple_antidistinguishable",
    "triple_criterion",
    "corollary_check",
    "verify_certificate",
    "scenario_antidistinguishable",
    "load_certificate",
]


def _clamped(x1, x2, x3, tol: float) -> np.ndarray:
    """The overlaps, broadcast and stacked, clamped to [0, 1] after `triple_criterion`'s range check."""
    x = np.array(np.broadcast_arrays(x1, x2, x3), dtype=float)
    bad = ~((x >= -tol) & (x <= 1.0 + tol)).reshape(3, -1).T  # one row per triple; NaN is bad too
    if bad.any():
        t, k = divmod(int(np.argmax(bad)), 3)
        raise OverlapRangeError(f"x{k + 1} = {float(x.reshape(3, -1)[k, t])!r} lies outside [0, 1]")
    return np.fmin(np.fmax(x, 0.0), 1.0)


@dataclass(frozen=True)
class TripleOverlaps:
    """Squared overlaps of a triple: x1 = |<a2|a3>|^2, x2 = |<a1|a3>|^2,
    x3 = |<a1|a2>|^2.  Entries within `tol` of [0, 1] are clamped to it and
    others raise OverlapRangeError; verdicts on the triple use `tol` too."""

    x1: float
    x2: float
    x3: float
    tol: float = field(default=TOLERANCE, compare=False, repr=False)

    def __post_init__(self):
        if 0.0 <= self.x1 <= 1.0 and 0.0 <= self.x2 <= 1.0 and 0.0 <= self.x3 <= 1.0:
            return  # nothing to check or clamp, and the common case
        for name, value in zip(("x1", "x2", "x3"), _clamped(self.x1, self.x2, self.x3, self.tol).tolist()):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_gram(g: GramData, a: str, b: str, c: str, tol: float = TOLERANCE) -> "TripleOverlaps":
        return TripleOverlaps(g.overlap(b, c), g.overlap(a, c), g.overlap(a, b), tol)

    @staticmethod
    def from_states(
        states: PureStateSet, a: str, b: str, c: str, tol: float = TOLERANCE
    ) -> "TripleOverlaps":
        return TripleOverlaps.from_gram(gram(states.subset([a, b, c])), a, b, c, tol=tol)


@dataclass(frozen=True)
class AntidistVerdict:
    antidistinguishable: bool
    via: str  # always "overlap-criterion"
    margin_strict: float  # 1 - x1 - x2 - x3
    margin_quadratic: float  # (x1 + x2 + x3 - 1)^2 - 4 x1 x2 x3
    boundary: bool  # quadratic condition holds with equality within tolerance


def _criterion(x1, x2, x3, tol):
    """(margin_strict, margin_quadratic, antidistinguishable, boundary) of
    clamped overlaps; the same arithmetic on floats and on numpy arrays."""
    total = x1 + x2 + x3
    excess = total - 1.0
    margin_strict = 1.0 - total
    margin_quadratic = excess * excess - 4.0 * x1 * x2 * x3
    return (
        margin_strict,
        margin_quadratic,
        (margin_strict > tol) & (margin_quadratic >= -tol),
        abs(margin_quadratic) <= tol,
    )


def triple_antidistinguishable(x: TripleOverlaps) -> AntidistVerdict:
    """Decide antidistinguishability of three pure states from overlaps, at x.tol.

    The sum condition is strict (margin > tol): (1/2, 1/2, 0) fails it, though
    a basis containing its orthogonal pair antidistinguishes it.  The quadratic
    condition is accepted down to -tol, so boundary families pass.
    """
    margin_strict, margin_quadratic, ok, boundary = _criterion(x.x1, x.x2, x.x3, x.tol)
    return AntidistVerdict(ok, "overlap-criterion", margin_strict, margin_quadratic, boundary)


def triple_criterion(x1, x2, x3, tol: float = TOLERANCE):
    """`TripleOverlaps` and `triple_antidistinguishable` over arrays.

    x1, x2, x3 broadcast to one shape of triples.  Raises OverlapRangeError
    for the first triple (in C order) with an entry outside [-tol, 1 + tol],
    naming its first such entry; clamps the rest to [0, 1].  Returns the
    arrays (margin_strict, margin_quadratic, antidistinguishable, boundary),
    equal entry by entry to the scalar verdicts.
    """
    x = _clamped(x1, x2, x3, tol)
    return _criterion(x[0], x[1], x[2], tol)


def corollary_check(x: TripleOverlaps) -> bool:
    """Sufficient condition only: every squared overlap at most 1/4 + x.tol."""
    return max(x.x1, x.x2, x.x3) <= 0.25 + x.tol


@dataclass(frozen=True)
class AntidistCertificate:
    """An explicit antidistinguishing basis for a list of target states.

    basis vector j (for j < n) must be orthogonal to target j; basis
    vectors beyond n must be orthogonal to every target.
    """

    targets: tuple[str, ...]
    basis: PureStateSet


@dataclass(frozen=True)
class CertificateReport:
    valid: bool
    residual_orthonormality: float
    residual_matched: float  # max |<basis_j|target_j>| over j < n
    residual_extra: float  # max |<basis_k|target_j>| over k >= n

    def max_residual(self) -> float:
        return max(self.residual_orthonormality, self.residual_matched, self.residual_extra)


def verify_certificate(
    targets: PureStateSet, cert: AntidistCertificate, tol: float = TOLERANCE
) -> CertificateReport:
    """Check an explicit certificate against its defining equations."""
    n = len(cert.targets)
    d = cert.basis.dimension
    if n == 0:
        raise ValueError("a certificate needs at least one target")
    if targets.dimension != d:
        raise DimensionMismatchError("targets and basis live in different dimensions")
    if n > d:
        raise DimensionMismatchError(f"{n} targets cannot be antidistinguished by {d} basis vectors")
    if len(cert.basis) != d:
        raise DimensionMismatchError(f"basis must have exactly {d} vectors")
    b = cert.basis.vectors
    residual_orth = float(np.abs(b @ b.conj().T - np.eye(d)).max())
    # |<basis_k|target_j>| for every k and j
    inner = np.abs(b.conj() @ targets.subset(cert.targets).vectors.T)
    residual_matched = float(np.diagonal(inner).max())
    residual_extra = float(inner[n:].max(initial=0.0))
    valid = residual_orth <= tol and residual_matched <= tol and residual_extra <= tol
    return CertificateReport(valid, residual_orth, residual_matched, residual_extra)


@dataclass(frozen=True)
class ScenarioAntidistVerdict:
    antidistinguishable: bool
    context: tuple[str, ...] | None = None  # the witnessing context M, sorted
    blockers: tuple[tuple[str, str], ...] = ()  # (a_j, a_j_perp) pairs
    pair_contexts: tuple[tuple[str, str, tuple[str, ...]], ...] = ()  # (a, b, set containing both)
    via: str = "combinatorial"


def _saturates(left, edges, right, budget: NodeBudget) -> bool:
    """Whether a matching gives each l in `left` its own partner from
    `edges[l]` in the set `right` (Kuhn's augmenting paths)."""
    partner = {}  # right -> left
    for root in left:
        came_from, stack = {}, [(root, None)]  # right -> (left that reached it, its partner)
        while stack:
            u, held = stack.pop()
            if u is None:  # `held` is free: flip the path from root to it
                while held is not None:
                    partner[held], held = came_from[held]
                break
            for v in edges[u]:
                budget.charge(1)
                if v in right and v not in came_from:
                    came_from[v] = u, held
                    stack.append((partner.get(v), v))
                    if v not in partner:
                        break
        else:
            return False
    return True


def _first_blockers(targets, context, near, budget: NodeBudget) -> list[str] | None:
    """The lexicographically first witnessing blockers in `context`, or None.

    Target a may be blocked by the members in `near[a]`; the members that
    are targets or miss some target must block.  By Mendelsohn-Dulmage
    (1958) that holds iff the targets and those members each saturate a
    matching."""
    blocks = {a: [c for c in context if c in near[a]] for a in targets}
    blocked_by = {c: [a for a in targets if c in near[a]] for c in context}

    def feasible(rest, free: set[str]) -> bool:
        must = [c for c in context if c in free and len(blocked_by[c]) < len(targets)]
        return _saturates(rest, blocks, free, budget) and _saturates(must, blocked_by, set(rest), budget)

    free = set(context)
    if not feasible(targets, free):
        return None
    chosen = []
    for i, a in enumerate(targets):
        chosen.append(next(c for c in blocks[a] if c in free and feasible(targets[i + 1:], free - {c})))
        free.discard(chosen[-1])
    return chosen


def scenario_antidistinguishable(
    s: Scenario, members: Iterable[str], *, node_budget: int | None = None
) -> ScenarioAntidistVerdict:
    """Search for a combinatorial antidistinguishability witness by matching.

    Tries contexts in canonical order.  In the first with a witness, each
    target in turn gets the first member in context order that leaves the
    rest matchable: the lexicographically first blocker assignment.  Each
    edge an augmenting path visits is one node; ResourceLimitError is raised
    past `node_budget` nodes (default 10^8)."""
    budget = NodeBudget(node_budget, "antidistinguishability search")
    targets = tuple(sorted(set(members)))
    if not targets:
        raise UnknownLabelError("the outcome set to test must be nonempty")
    check_members_known(s)
    check_labels(s.outcomes, targets)
    all_sets = sorted(tuple(sorted(t)) for t in s.all_sets())
    # the other outcomes that share a (partial) context with each target
    near = {a: set().union(*(t for t in all_sets if a in t)) - {a} for a in targets}
    for context in sorted(tuple(sorted(m)) for m in s.contexts if len(m) >= len(targets)):
        chosen = _first_blockers(targets, context, near, budget)
        if chosen is not None:
            pairs = list(zip(targets, chosen)) + [(a, c) for c in context if c not in chosen for a in targets]
            named = tuple((a, c, next(t for t in all_sets if a in t and c in t)) for a, c in pairs)
            return ScenarioAntidistVerdict(True, context, tuple(zip(targets, chosen)), named)
    return ScenarioAntidistVerdict(antidistinguishable=False)


def load_certificate(
    source: bytes | str | IO, tol: float = TOLERANCE
) -> tuple[PureStateSet, AntidistCertificate]:
    """Certificate JSON: the vector-set schema plus a "targets" label list.

    States named in "targets" (in order) are the targets; the remaining
    states, in file order, form the basis.  Returns (targets, certificate).
    """
    doc = read_document(source)
    if "targets" not in doc:
        raise ScenarioParseError("certificate document needs a 'targets' key")
    target_labels = doc.pop("targets")
    if not isinstance(target_labels, list) or not all(isinstance(x, str) for x in target_labels):
        raise ScenarioParseError("'targets' must be a list of labels")
    if not target_labels:
        raise ScenarioParseError("'targets' must name at least one state")
    states = states_from_doc(doc, tol)
    target_set = set(target_labels)
    unknown = target_set - set(states.labels)
    if unknown:
        raise ScenarioParseError(f"targets not present in states: {sorted(unknown)}")
    basis_labels = [a for a in states.labels if a not in target_set]
    targets = states.subset(target_labels)
    basis = states.subset(basis_labels)
    return targets, AntidistCertificate(tuple(target_labels), basis)
