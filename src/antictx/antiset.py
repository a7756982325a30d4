"""Pairwise antisets and the noncontextuality inequalities they generate.

A *strong* pairwise antiset is a set W of states such that every pair from
W together with every element of a fixed orthonormal basis (the principal
context) is antidistinguishable; a *weak* antiset fixes a single principal
outcome instead.  Verified antisets yield the inequality

    sum_{a in W} omega(a) <= 1

for noncontextual states: state-independent in the strong case, and
conditional on omega(principal) = 1 in the weak case.  Triples are always
checked through the overlap criterion on Gram data; no antidistinguishing
measurement is ever constructed.  One routine verifies both kinds one triple
at a time, in lexicographic order; the search for maximal antisets decides
every (pair from the pool) x (principal outcome) triple at once, by the array
form of the criterion on one Gram matrix.  Either way the log is a
`TripleLog`: verdict columns whose entries are built only when read.

Inequalities can be combined: added together, extended by a context
normalization (which raises the bound by exactly 1 for every state), or
extended by an outcome that a side constraint already pins to 1.  The kind
follows from the side constraints, which every constructor sorts by label.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from ._cliques import maximal_cliques
from .antidist import AntidistVerdict, TripleOverlaps, triple_antidistinguishable, triple_criterion
from .errors import (
    ConstraintMismatchError,
    DuplicateRayError,
    FailedTripleError,
    MissingLabelError,
    NotABasisError,
    ScenarioParseError,
)
from .quantum import TOLERANCE, DensityOperator, PureStateSet, _first_pair, gram, quantum_value
from .ratlp import format_rational, parse_rational
from .scenario import read_document, write_document

__all__ = [
    "TripleLog",
    "PairwiseAntiset",
    "NoncontextualityInequality",
    "EvaluationReport",
    "verify_strong_antiset",
    "verify_weak_antiset",
    "find_strong_antisets",
    "inequality_from_antiset",
    "add_inequality",
    "add_context_normalization",
    "add_constrained_outcome",
    "evaluate_inequality",
    "inequality_to_json",
    "load_inequality",
]

# triples per criterion block and per chunk of built log entries: temporaries stay small
_BLOCK = 4096


@dataclass(frozen=True, eq=False, slots=True)
class TripleLog(Sequence):
    """(a, b, c, AntidistVerdict) entries, kept as one column per verdict field.

    Entry k is triple k of product(combinations(members, 2), principal), both
    sorted; entries are built only when read, iteration one _BLOCK at a time."""

    members: tuple[str, ...]
    principal: tuple[str, ...]
    margin_strict: np.ndarray  # float
    margin_quadratic: np.ndarray  # float
    antidistinguishable: np.ndarray  # bool
    boundary: np.ndarray  # bool

    _columns = property(lambda log: (log.margin_strict, log.margin_quadratic, log.antidistinguishable, log.boundary))

    def __len__(self) -> int:
        return len(self.margin_strict)

    def __iter__(self) -> Iterator[tuple[str, str, str, AntidistVerdict]]:
        triples = itertools.product(itertools.combinations(self.members, 2), self.principal)
        for start in range(0, len(self), _BLOCK):
            values = zip(*(column[start : start + _BLOCK].tolist() for column in self._columns))
            for (strict, quadratic, ok, bd), ((a, b), c) in zip(values, triples):  # no triple past values
                yield a, b, c, AntidistVerdict(ok, "overlap-criterion", strict, quadratic, bd)

    def __getitem__(self, index: int) -> tuple[str, str, str, AntidistVerdict]:
        k = range(len(self))[index]  # IndexError past either end
        pair, c = divmod(k, len(self.principal))
        a, b = next(itertools.islice(itertools.combinations(self.members, 2), pair, None))
        return next(iter(TripleLog((a, b), self.principal[c : c + 1], *(x[k : k + 1] for x in self._columns))))

    def __eq__(self, other) -> bool:
        same = isinstance(other, TripleLog) and (self.members, self.principal) == (other.members, other.principal)
        return same and all(map(np.array_equal, self._columns, other._columns))

    def __hash__(self) -> int:
        return hash((self.members, self.principal, len(self)))


@dataclass(frozen=True)
class PairwiseAntiset:
    kind: str  # "strong" | "weak"
    members: tuple[str, ...]
    principal: tuple[str, ...] | str
    triple_log: TripleLog

    @property
    def boundary_triples(self) -> int:
        """How many logged triples meet the overlap criterion with equality."""
        return int(self.triple_log.boundary.sum())


@dataclass(frozen=True)
class NoncontextualityInequality:
    """Coefficients, exact classical bound, and optional side constraints."""

    coefficients: tuple[tuple[str, Fraction], ...]  # sorted by label
    bound: Fraction
    side_constraints: tuple[tuple[str, Fraction], ...]  # sorted by label
    provenance: str

    @property
    def kind(self) -> str:
        return "state-dependent" if self.side_constraints else "state-independent"

    def coefficient_map(self) -> dict[str, Fraction]:
        return dict(self.coefficients)


def _check_basis(states: PureStateSet, principal: Sequence[str], tol: float) -> None:
    if len(principal) != states.dimension:
        raise NotABasisError(
            f"principal context has {len(principal)} members, expected dimension {states.dimension}"
        )
    o = gram(states.subset(principal)).overlaps
    pair = _first_pair(o > tol)
    if pair:
        i, j = pair
        raise NotABasisError(
            f"principal members {principal[i]!r} and {principal[j]!r} are not orthogonal "
            f"(|<.|.>|^2 = {o[i, j]!r})"
        )


def _verified(
    kind: str, states: PureStateSet, members: Iterable[str], principal: tuple[str, ...], tol: float
) -> PairwiseAntiset:
    """Check every (pair from W) x (principal outcome) triple, in lexicographic order.

    A weak antiset is the one-outcome principal case, without the basis check.
    """
    strong = kind == "strong"
    w = tuple(sorted(set(members)))
    if len(w) < 2:
        raise ValueError("an antiset needs at least two members")
    if overlap := set(w) & set(principal):
        noun = "principal context" if strong else "principal"
        raise ValueError(f"members and {noun} overlap: {sorted(overlap)}")
    if strong:
        _check_basis(states, principal, tol)
    g = gram(states.subset(w + principal))  # raises UnknownLabelError on an absent label
    ordered = tuple(sorted(principal))
    margins, flags = array("d"), array("B")  # two entries per triple
    for a, b in itertools.combinations(w, 2):
        for c in ordered:
            verdict = triple_antidistinguishable(TripleOverlaps.from_gram(g, a, b, c, tol=tol))
            if not verdict.antidistinguishable:
                raise FailedTripleError((a, b, c), verdict)
            margins.extend((verdict.margin_strict, verdict.margin_quadratic))
            flags.extend((verdict.antidistinguishable, verdict.boundary))
    columns = *np.frombuffer(margins).reshape(-1, 2).T, *np.frombuffer(flags, bool).reshape(-1, 2).T
    return PairwiseAntiset(kind, w, principal if strong else principal[0], TripleLog(w, ordered, *columns))


def verify_strong_antiset(
    states: PureStateSet, members: Iterable[str], principal: Sequence[str], tol: float = TOLERANCE
) -> PairwiseAntiset:
    """Check every (pair from W) x (principal basis element) triple.

    Fails fast with FailedTripleError on the first triple (in lexicographic
    order) that is not antidistinguishable.
    """
    return _verified("strong", states, members, tuple(principal), tol)


def verify_weak_antiset(
    states: PureStateSet, members: Iterable[str], principal: str, tol: float = TOLERANCE
) -> PairwiseAntiset:
    """Check every pair from W against the single principal outcome."""
    return _verified("weak", states, members, (principal,), tol)


def _compatible_pair_logs(o: np.ndarray, n: int, cols: Sequence[int], tol: float) -> tuple[np.ndarray, list]:
    """Each pair i < j < n's row (rows[i, j] = rows[j, i]; -1 unless it passes with
    every column of `cols`) and the criterion table's verdict-field columns, a row
    per passing pair and an entry per column.  Triples (i, j, c) are decided on
    `o` (x1 = o[j, c], x2 = o[i, c], x3 = o[i, j]) in blocks of about _BLOCK."""
    oc = o[:, cols]  # each block gathers its pair rows from this (n + k) x k matrix
    pairs = np.transpose(np.triu_indices(n, 1))
    step = max(1, _BLOCK // len(cols))
    blocks = []
    for start in range(0, max(len(pairs), 1), step):  # one block even when there is no pair
        first, second = pairs[start : start + step].T
        verdicts = triple_criterion(oc[second], oc[first], o[first, second][:, None], tol)
        passed = verdicts[2].all(axis=1)
        blocks.append([passed, *(x[passed] for x in verdicts)])
    passed, *table = (np.concatenate(x) for x in zip(*blocks))
    i, j = pairs[passed].T
    rows = np.full((n, n), -1)
    rows[i, j] = rows[j, i] = np.arange(len(i))
    return rows, table


def find_strong_antisets(
    states: PureStateSet, candidate_pool: Iterable[str], principal: Sequence[str], tol: float = TOLERANCE,
    node_budget: int | None = None,
) -> list[PairwiseAntiset]:
    """Maximal strong antisets within a candidate pool.

    Builds the pairwise-compatibility graph (an edge when all basis triples
    pass) and returns its maximal cliques of size >= 2 in canonical order.
    One Gram matrix of pool and principal context serves the duplicate
    check and every triple; each clique's triple log gathers its pairs' rows
    of the criterion table, in the order `verify_strong_antiset` gives.  Raises
    DuplicateRayError when two pool states are the same ray, and
    ResourceLimitError when the clique search visits more than
    `node_budget` nodes (default 10^8).
    """
    pool = tuple(sorted(set(candidate_pool)))
    principal = tuple(principal)
    if overlap := set(pool) & set(principal):
        raise ValueError(f"pool and principal context overlap: {sorted(overlap)}")
    _check_basis(states, principal, tol)
    labels = pool + principal
    o = gram(states.subset(labels)).overlaps
    n = len(pool)
    if same := _first_pair(o[:n, :n] >= 1.0 - tol):
        i, j = same
        raise DuplicateRayError(f"pool states {pool[i]!r} and {pool[j]!r} are the same ray")
    cols = sorted(range(n, len(labels)), key=labels.__getitem__)
    rows, table = _compatible_pair_logs(o, n, cols, tol)
    adjacency = [set(np.flatnonzero(row >= 0).tolist()) for row in rows]
    cliques = [clique for clique in maximal_cliques(n, adjacency, node_budget) if len(clique) >= 2]
    gathered = rows.take([i * n + j for clique in cliques for i, j in itertools.combinations(clique, 2)])
    columns = [column[gathered].reshape(-1) for column in table]  # every log, one after another
    antisets, stop = [], 0
    for clique in cliques:
        members = tuple(pool[i] for i in clique)
        start, stop = stop, stop + len(cols) * len(clique) * (len(clique) - 1) // 2
        log = TripleLog(members, tuple(sorted(principal)), *(column[start:stop] for column in columns))
        antisets.append(PairwiseAntiset("strong", members, principal, log))
    return antisets


def _inequality(
    coefficients: dict[str, Fraction], bound: Fraction, side: tuple[tuple[str, Fraction], ...], provenance: str
) -> NoncontextualityInequality:
    return NoncontextualityInequality(tuple(sorted(coefficients.items())), bound, side, provenance)


def inequality_from_antiset(aset: PairwiseAntiset) -> NoncontextualityInequality:
    """The antiset inequality: unit coefficients on W, bound 1."""
    if aset.kind == "strong":
        side, origin = (), f"over principal context {{{','.join(aset.principal)}}}"
    else:
        side, origin = ((aset.principal, Fraction(1)),), f"with principal outcome {aset.principal}"
    return _inequality(
        dict.fromkeys(aset.members, Fraction(1)),
        Fraction(1),
        side,
        f"{aset.kind} pairwise antiset of {len(aset.members)} outcomes {origin}; "
        f"{len(aset.triple_log)} antidistinguishable triples",
    )


def _merge_side_constraints(
    left: tuple[tuple[str, Fraction], ...], right: Iterable[tuple[str, Fraction]]
) -> tuple[tuple[str, Fraction], ...]:
    merged = dict(left)
    for label, value in right:
        if value not in (0, 1):
            raise ConstraintMismatchError(f"side constraint pins {label!r} to {value}, not to 0 or 1")
        if label in merged and merged[label] != value:
            raise ConstraintMismatchError(
                f"conflicting side constraints on {label!r}: {merged[label]} vs {value}"
            )
        merged[label] = value
    return tuple(sorted(merged.items()))


def _plus(
    ineq: NoncontextualityInequality,
    terms: Iterable[tuple[str, Fraction]],
    bound: Fraction,
    side: tuple[tuple[str, Fraction], ...],
    provenance: str,
) -> NoncontextualityInequality:
    """`ineq` with `terms` added to its coefficients and `bound` to its bound."""
    coefficients = dict(ineq.coefficients)
    for label, c in terms:
        coefficients[label] = coefficients.get(label, Fraction(0)) + c
    return _inequality(coefficients, ineq.bound + bound, side, provenance)


def add_inequality(
    left: NoncontextualityInequality, right: NoncontextualityInequality
) -> NoncontextualityInequality:
    """Coefficient-wise sum; bounds add."""
    side = _merge_side_constraints(left.side_constraints, right.side_constraints)
    provenance = f"sum of [{left.provenance}] and [{right.provenance}]"
    return _plus(left, right.coefficients, right.bound, side, provenance)


def add_context_normalization(
    ineq: NoncontextualityInequality, context: Iterable[str]
) -> NoncontextualityInequality:
    """Add +1 on every outcome of a context and +1 to the bound.

    Valid for every state because context probabilities sum to exactly 1.
    """
    members = tuple(sorted(set(context)))
    if not members:
        raise ConstraintMismatchError("context normalization needs a nonempty context")
    provenance = f"{ineq.provenance}; plus normalization of context {{{','.join(members)}}}"
    return _plus(ineq, [(a, Fraction(1)) for a in members], Fraction(1), ineq.side_constraints, provenance)


def add_constrained_outcome(
    ineq: NoncontextualityInequality, label: str
) -> NoncontextualityInequality:
    """Add +1 on an outcome already pinned to 1 by a side constraint."""
    if dict(ineq.side_constraints).get(label) != 1:
        raise ConstraintMismatchError(f"outcome {label!r} has no side constraint pinning it to 1")
    provenance = f"{ineq.provenance}; plus constrained outcome {label}"
    return _plus(ineq, [(label, Fraction(1))], Fraction(1), ineq.side_constraints, provenance)


@dataclass(frozen=True)
class EvaluationReport:
    lhs: float
    bound: Fraction
    violated: bool
    margin: float  # lhs - bound
    side_constraints_satisfied: bool


def evaluate_inequality(
    ineq: NoncontextualityInequality,
    states: PureStateSet,
    rho: DensityOperator,
    tol: float = TOLERANCE,
) -> EvaluationReport:
    """Evaluate the quantum left-hand side against the classical bound.

    `violated` requires both lhs > bound + tol and every side constraint
    holding within tolerance.
    """
    missing = sorted(
        {label for label, _ in ineq.coefficients + ineq.side_constraints} - set(states.labels)
    )
    if missing:
        raise MissingLabelError(f"inequality labels missing from the state set: {missing}")
    lhs = quantum_value(states, {a: float(c) for a, c in ineq.coefficients}, rho)
    constraints_ok = True
    for label, value in ineq.side_constraints:
        actual = quantum_value(states, {label: 1.0}, rho)
        if abs(actual - float(value)) > tol:
            constraints_ok = False
    bound = ineq.bound
    return EvaluationReport(
        lhs=lhs,
        bound=bound,
        violated=lhs > float(bound) + tol and constraints_ok,
        margin=lhs - float(bound),
        side_constraints_satisfied=constraints_ok,
    )


def inequality_to_json(ineq: NoncontextualityInequality) -> bytes:
    doc = {
        "coefficients": {a: format_rational(c) for a, c in ineq.coefficients},
        "bound": format_rational(ineq.bound),
        "kind": ineq.kind,
        "side_constraints": [
            {"label": a, "value": format_rational(v)} for a, v in ineq.side_constraints
        ],
        "provenance": ineq.provenance,
    }
    return write_document(doc)


def load_inequality(source: bytes | str | IO) -> NoncontextualityInequality:
    """Read an inequality document; its kind follows from its side constraints.

    Side constraints are sorted by label, and two that pin one label to
    different values are a parse error.
    """
    doc = read_document(source)
    expected = {"coefficients", "bound", "kind", "side_constraints", "provenance"}
    if set(doc) - expected:
        raise ScenarioParseError(f"inequality document keys must be within {sorted(expected)}")
    try:
        coefficients = {a: parse_rational(c) for a, c in doc["coefficients"].items()}
        bound = parse_rational(doc["bound"])
        side = [(entry["label"], parse_rational(entry["value"])) for entry in doc.get("side_constraints", [])]
        provenance = doc.get("provenance", "")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioParseError(f"malformed inequality document: {exc}") from exc
    if not all(isinstance(x, str) for x in [*(label for label, _ in side), provenance]):
        raise ScenarioParseError("side-constraint labels and provenance must be strings")
    try:
        ineq = _inequality(coefficients, bound, _merge_side_constraints((), side), provenance)
    except ConstraintMismatchError as exc:
        raise ScenarioParseError(str(exc)) from exc
    if doc.get("kind", ineq.kind) != ineq.kind:
        raise ScenarioParseError(
            f"kind {doc['kind']!r} disagrees with the side constraints, which make it {ineq.kind!r}"
        )
    return ineq
