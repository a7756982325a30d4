"""Complex linear algebra over labeled pure states.

This is the floating-point layer of the package: squared overlaps (one
matrix product per Gram matrix, mirrored to exact symmetry), frame
operators, quantum values of coefficient functionals, and the construction
of contextuality scenarios from the orthogonality graph of a vector set.
The abstract layer (scenarios, value functions, bounds) stays exact; the
boundary between the two is the orthogonality decision, which is guarded
by a tolerance band so that a near-miss overlap raises instead of silently
misclassifying.

Every pairwise question about a state set (same ray, guard band,
orthogonality, an expected overlap) is one boolean array over the Gram
matrix; `_first_pair` names its first offending pair in row-major order,
which is the pair a loop over i < j would have reported.

Every check that compares floats takes its tolerance as an argument, with
the immutable default `TOLERANCE` = 1e-9; every construction in the source
material has overlaps that are exactly 0 or at least 1/9, so the default
separates cleanly.  Vector norms are checked where vectors enter
(`PureStateSet.from_pairs`, `load_states`), so subsets and unions of a
checked set are not checked again; the norm and density-matrix checks are
written so that NaN fails them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from ._cliques import maximal_cliques
from .errors import (
    DimensionMismatchError,
    DuplicateRayError,
    ScenarioParseError,
    ToleranceAmbiguityError,
    UnknownLabelError,
)
from .scenario import Scenario, make_scenario, read_document, write_document

__all__ = [
    "PureStateSet",
    "DensityOperator",
    "GramData",
    "TOLERANCE",
    "gram",
    "frame_operator",
    "quantum_value",
    "scenario_from_states",
    "states_from_doc",
    "load_states",
    "load_density",
    "save_states",
]

# the default of every float check: norms, orthogonality, density
# matrices, overlap ranges and the antidistinguishability criterion
TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class PureStateSet:
    """Labeled unit vectors in C^d (`from_pairs` checks the norms)."""

    dimension: int
    labels: tuple[str, ...]
    vectors: np.ndarray  # shape (n, d), complex

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")
        if self.vectors.shape != (len(self.labels), self.dimension):
            raise DimensionMismatchError(
                f"expected vectors of shape {(len(self.labels), self.dimension)}, "
                f"got {self.vectors.shape}"
            )

    @staticmethod
    def from_pairs(
        dimension: int, pairs: Iterable[tuple[str, Sequence[complex]]], tol: float = TOLERANCE
    ) -> "PureStateSet":
        """Labeled vectors, each of norm 1 within `tol`."""
        labels, rows = [], []
        for label, vec in pairs:
            labels.append(label)
            rows.append(np.asarray(vec, dtype=complex))
        vectors = np.array(rows, dtype=complex) if rows else np.zeros((0, dimension), dtype=complex)
        states = PureStateSet(dimension, tuple(labels), vectors)
        norms = np.linalg.norm(vectors, axis=1)
        bad = ~(np.abs(norms - 1.0) <= tol)
        if bad.any():
            label = labels[int(np.argmax(bad))]
            raise ValueError(f"state {label!r} is not unit-norm (|v| = {norms[bad][0]!r})")
        return states

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"unknown state label {label!r}") from None

    def vector(self, label: str) -> np.ndarray:
        return self.vectors[self.index(label)]

    def subset(self, labels: Iterable[str]) -> "PureStateSet":
        idx = [self.index(a) for a in labels]
        return PureStateSet(self.dimension, tuple(self.labels[i] for i in idx), self.vectors[idx])

    def union(self, other: "PureStateSet") -> "PureStateSet":
        if other.dimension != self.dimension:
            raise DimensionMismatchError("cannot merge state sets of different dimension")
        return PureStateSet(
            self.dimension,
            self.labels + other.labels,
            np.vstack([self.vectors, other.vectors]),
        )


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix (within tolerance)."""

    dimension: int
    matrix: np.ndarray
    tol: float = field(default=TOLERANCE, compare=False, repr=False)

    def __post_init__(self):
        m, tol = self.matrix, self.tol
        if m.shape != (self.dimension, self.dimension):
            raise DimensionMismatchError(f"density matrix must be {self.dimension}x{self.dimension}")
        if not np.abs(m - m.conj().T).max() <= tol:
            raise ValueError("density matrix is not Hermitian")
        if not (abs(np.trace(m).real - 1.0) <= tol and abs(np.trace(m).imag) <= tol):
            raise ValueError(f"density matrix has trace {np.trace(m)}, expected 1")
        if not np.linalg.eigvalsh(m).min() >= -tol:
            raise ValueError("density matrix has a negative eigenvalue")

    @staticmethod
    def maximally_mixed(dimension: int) -> "DensityOperator":
        return DensityOperator(dimension, np.eye(dimension, dtype=complex) / dimension)

    @staticmethod
    def from_pure(vector: Sequence[complex]) -> "DensityOperator":
        v = np.asarray(vector, dtype=complex)
        if not (norm := np.linalg.norm(v)):
            raise ValueError("cannot normalize a zero vector")
        v = v / norm
        return DensityOperator(len(v), np.outer(v, v.conj()))

    @staticmethod
    def random(dimension: int, rng: np.random.Generator) -> "DensityOperator":
        g = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
        m = g @ g.conj().T
        return DensityOperator(dimension, m / np.trace(m).real)


@dataclass(frozen=True, eq=False)
class GramData:
    """Symmetric matrix of squared overlaps |<a|b>|^2, unit diagonal."""

    labels: tuple[str, ...]
    overlaps: np.ndarray

    @cached_property
    def _lookup(self) -> tuple[dict[str, int], list[list[float]]]:
        # label -> index, and the matrix as nested lists: overlap() runs
        # three times per checked triple, where ndarray indexing would dominate
        return {a: i for i, a in enumerate(self.labels)}, self.overlaps.tolist()

    def overlap(self, a: str, b: str) -> float:
        index, rows = self._lookup
        return rows[index[a]][index[b]]


def _first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """The first (i, j) with i < j, in row-major order, where `mask` holds."""
    hits = np.flatnonzero(np.triu(mask, 1))
    return divmod(int(hits[0]), mask.shape[1]) if len(hits) else None


def gram(states: PureStateSet) -> GramData:
    """Squared overlaps of every pair, from one matrix product.

    The upper triangle is mirrored, so the matrix is exactly symmetric.
    """
    v = states.vectors
    overlaps = np.triu(np.abs(v.conj() @ v.T) ** 2, 1)
    overlaps += overlaps.T
    np.fill_diagonal(overlaps, 1.0)
    return GramData(states.labels, overlaps)


def frame_operator(
    states: PureStateSet, tol: float = TOLERANCE
) -> tuple[np.ndarray, float | None]:
    """Sum of projectors onto the states, plus a proportionality verdict.

    Returns (F, lam) with lam = trace(F)/d when F is lam*I within
    tolerance entry-wise, else (F, None).
    """
    # vectors are rows, so sum_a |a><a| has entries sum_a v_a[i] conj(v_a[j])
    f = states.vectors.T @ states.vectors.conj()
    lam = np.trace(f).real / states.dimension
    if np.abs(f - lam * np.eye(states.dimension)).max() <= tol:
        return f, float(lam)
    return f, None


def quantum_value(
    states: PureStateSet, coeffs: dict[str, object], rho: DensityOperator
) -> float:
    """sum_a c_a <a|rho|a> for the rank-1 projectors onto the named states."""
    if rho.dimension != states.dimension:
        raise DimensionMismatchError(
            f"density operator dimension {rho.dimension} != state dimension {states.dimension}"
        )
    total = 0.0
    for label, c in coeffs.items():
        v = states.vector(label)
        total += float(c) * float(np.real(np.vdot(v, rho.matrix @ v)))
    return total


def scenario_from_states(states: PureStateSet, tol: float = TOLERANCE) -> Scenario:
    """The contextuality scenario generated by a set of rays.

    Orthogonality (squared overlap <= tol) defines a graph; maximal cliques
    of size d become contexts and smaller maximal cliques (of at least two
    vertices) become partial contexts.  Isolated vertices contribute no
    set.  Raises DuplicateRayError when two states coincide up to phase and
    ToleranceAmbiguityError when any overlap falls in (tol, 10*tol), where
    the orthogonality cut would be unsafe, or when more than d states come
    out mutually orthogonal.  The clique search stops with
    ResourceLimitError past the default node budget of 10^8.
    """
    if states.dimension < 2:
        raise ValueError("scenario generation needs dimension >= 2")
    o = gram(states).overlaps
    n = len(states)
    pair = _first_pair((o >= 1.0 - tol) | ((tol < o) & (o < 10.0 * tol)))
    if pair:
        i, j = pair
        a, b = states.labels[i], states.labels[j]
        if o[i, j] >= 1.0 - tol:
            raise DuplicateRayError(f"states {a!r} and {b!r} are the same ray")
        raise ToleranceAmbiguityError(
            f"overlap |<{a}|{b}>|^2 = {o[i, j]!r} "
            f"falls in the guard band ({tol!r}, {10.0 * tol!r})"
        )
    orthogonal = (o <= tol) & ~np.eye(n, dtype=bool)
    adjacency = [set(np.flatnonzero(row).tolist()) for row in orthogonal]
    contexts = []
    partial_contexts = []
    for clique in maximal_cliques(n, adjacency):
        if len(clique) > states.dimension:
            raise ToleranceAmbiguityError(
                f"orthogonality graph has a clique of {len(clique)} > d mutually "
                "orthogonal states; the tolerance is too loose"
            )
        members = [states.labels[i] for i in clique]
        if len(clique) == states.dimension:
            contexts.append(members)
        elif len(clique) >= 2:
            partial_contexts.append(members)
    return make_scenario(states.labels, contexts, partial_contexts)


_STATES_KEYS = {"dimension", "states"}


def _complex_pairs(value, n: int, what: str) -> list[complex]:
    if not isinstance(value, list) or len(value) != n or not all(
        isinstance(c, list) and len(c) == 2 and all(type(x) in (int, float) for x in c)
        for c in value
    ):
        raise ScenarioParseError(f"{what} needs {n} [re, im] number pairs")
    return [complex(re, im) for re, im in value]


def states_from_doc(doc: dict, tol: float = TOLERANCE) -> PureStateSet:
    """The state set of a parsed vector-set document.

    Schema: {"dimension": d, "states": [{"label": str,
    "components": [[re, im], ...]}, ...]}.
    """
    if set(doc) - _STATES_KEYS:
        raise ScenarioParseError("vector-set document must have keys 'dimension' and 'states'")
    dimension = doc.get("dimension")
    if type(dimension) is not int or dimension < 1:
        raise ScenarioParseError("'dimension' must be a positive integer")
    entries = doc.get("states")
    if not isinstance(entries, list):
        raise ScenarioParseError("'states' must be a list")
    pairs = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"label", "components"}:
            raise ScenarioParseError("each state needs exactly 'label' and 'components'")
        label = entry["label"]
        if not isinstance(label, str):
            raise ScenarioParseError(f"state label {label!r} is not a string")
        pairs.append((label, _complex_pairs(entry["components"], dimension, f"state {label!r}")))
    return PureStateSet.from_pairs(dimension, pairs, tol)


def load_states(source: bytes | str | IO, tol: float = TOLERANCE) -> PureStateSet:
    """Parse a vector-set document (schema in `states_from_doc`)."""
    return states_from_doc(read_document(source), tol)


def load_density(source: bytes | str | IO, tol: float = TOLERANCE) -> DensityOperator:
    """Parse {"matrix": [[[re, im], ...], ...]}, a d x d density matrix."""
    doc = read_document(source)
    rows = doc.get("matrix")
    if set(doc) != {"matrix"} or not isinstance(rows, list) or not rows:
        raise ScenarioParseError('density document must be {"matrix": [[[re, im], ...], ...]}')
    d = len(rows)
    matrix = np.array([_complex_pairs(row, d, f"density matrix row {i}") for i, row in enumerate(rows)])
    return DensityOperator(d, matrix, tol)


def save_states(states: PureStateSet) -> bytes:
    doc = {
        "dimension": states.dimension,
        "states": [
            {
                "label": label,
                "components": [[float(c.real), float(c.imag)] for c in vec],
            }
            for label, vec in zip(states.labels, states.vectors)
        ],
    }
    return write_document(doc)
