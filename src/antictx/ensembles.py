"""Deterministic generators for the state families and abstract scenarios.

Every family self-validates its defining overlap property before returning,
so a construction bug fails loudly at the source instead of surfacing as a
mysterious verdict downstream.  All generators are deterministic.

State families
--------------
- ``yu_oh_rays``: four rays in C^3 with pairwise squared overlap 1/9
- ``yu_oh_principal``: the standard basis of C^3 (labels c1..c3)
- ``caves_example``: six states in C^3 whose orthogonality graph is the
  basic antidistinguishability scenario (a1..a3, a1_perp..a3_perp)
- ``hadamard``, d in [2, 12]: all sign vectors (+-1)/sqrt(d), labels are the
  binary strings; subset B0/B1 restricts to strings starting with 0/1
- ``mub``, prime d in [2, 97]: d+1 mutually unbiased bases (standard basis
  plus quadratic Gauss-sum bases for odd d, a hand-coded triple for d = 2)
- ``maroney``, d in [3, 1024]: d-1 states sqrt(1/3)|0> + sqrt(2/3)|j> plus
  the principal outcome c = |0>
- ``sic``, d in [2, 3]: symmetric informationally complete vectors
- ``standard_basis``, d in [1, 1024]: labels e1..ed
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedParameterError
from .quantum import PureStateSet, _first_pair, frame_operator, gram
from .scenario import Scenario, make_scenario

__all__ = ["FamilySpec", "generate_states", "generate_scenario", "STATE_FAMILIES", "SCENARIO_NAMES"]


@dataclass(frozen=True)
class FamilySpec:
    family: str
    dimension: int | None = None
    subset: str | None = None  # hadamard only: "B0" | "B1" | "full"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def _check_overlaps(states: PureStateSet, expected, what: str, tol: float = 1e-9) -> None:
    """Compare every squared overlap with `expected` (a matrix, or one value
    for every pair) and name the first pair that is off by more than `tol`."""
    o = gram(states).overlaps
    want = np.broadcast_to(expected, o.shape)
    pair = _first_pair(np.abs(o - want) > tol)
    if pair:
        i, j = pair
        raise RuntimeError(
            f"{what} self-check failed: |<{states.labels[i]}|{states.labels[j]}>|^2 "
            f"= {o[i, j]!r}, expected {float(want[i, j])!r}"
        )


def _yu_oh_rays() -> PureStateSet:
    s = 1 / math.sqrt(3)
    vectors = [
        ("a1", [s, s, s]),
        ("a2", [-s, s, s]),
        ("a3", [s, -s, s]),
        ("a4", [s, s, -s]),
    ]
    states = PureStateSet.from_pairs(3, vectors)
    _check_overlaps(states, 1 / 9, "yu_oh_rays")
    return states


def _standard_basis(d: int, prefix: str = "e") -> PureStateSet:
    eye = np.eye(d, dtype=complex)
    return PureStateSet.from_pairs(d, [(f"{prefix}{k + 1}", eye[k]) for k in range(d)])


def _caves_example() -> PureStateSet:
    r3, r2 = 1 / math.sqrt(3), 1 / math.sqrt(2)
    vectors = [
        ("a1", [1, 0, 0]),
        ("a2", [r3, r3, r3]),
        ("a3", [-r3, r3, r3]),
        ("a1_perp", [0, 1, 0]),
        ("a2_perp", [r2, 0, -r2]),
        ("a3_perp", [r2, 0, r2]),
    ]
    states = PureStateSet.from_pairs(3, vectors)
    # the defining property is the orthogonality pattern of the basic
    # antidistinguishability scenario: a_k with a_k_perp, and the a_perp
    # among themselves
    pattern = np.zeros((6, 6), dtype=bool)
    pattern[[0, 1, 2, 3, 3, 4], [3, 4, 5, 4, 5, 5]] = True
    pair = _first_pair((gram(states).overlaps <= 1e-12) != pattern)
    if pair:
        named = sorted(states.labels[k] for k in pair)
        raise RuntimeError(f"caves_example self-check failed on {named}")
    return states


def _hadamard(d: int, subset: str = "full") -> PureStateSet:
    if subset not in ("B0", "B1", "full"):
        raise UnsupportedParameterError(f"unknown hadamard subset {subset!r}")
    half = 2 ** (d - 1)
    start, stop = {"B0": (0, half), "B1": (half, 2 * half), "full": (0, 2 * half)}[subset]
    labels = [format(bits, f"0{d}b") for bits in range(start, stop)]
    # the label bits as signs +-1, so signs @ signs.T is exact
    signs = 1.0 - 2.0 * ((np.arange(start, stop)[:, None] >> np.arange(d - 1, -1, -1)) & 1)
    states = PureStateSet.from_pairs(d, zip(labels, signs * (1 / math.sqrt(d))))
    # |<a|b>|^2 = ((agreements - disagreements) / d)^2
    _check_overlaps(states, (signs @ signs.T / d) ** 2, "hadamard")
    return states


def _mub(d: int) -> PureStateSet:
    if not _is_prime(d):
        raise UnsupportedParameterError(f"mub needs a prime dimension, got {d}")
    pairs = []
    eye = np.eye(d, dtype=complex)
    for k in range(d):
        pairs.append((f"a1_{k + 1}", eye[k]))
    if d == 2:
        r = 1 / math.sqrt(2)
        pairs += [
            ("a2_1", [r, r]),
            ("a2_2", [r, -r]),
            ("a3_1", [r, r * 1j]),
            ("a3_2", [r, -r * 1j]),
        ]
    else:
        omega = cmath.exp(2j * cmath.pi / d)
        scale = 1 / math.sqrt(d)
        for b in range(1, d + 1):
            for k in range(d):
                vec = [scale * omega ** ((b * j * j + k * j) % d) for j in range(d)]
                pairs.append((f"a{b + 1}_{k + 1}", vec))
    states = PureStateSet.from_pairs(d, pairs)
    # d states per basis, in basis order; same basis means orthogonal
    basis = np.arange(len(states)) // d
    _check_overlaps(states, np.where(basis[:, None] == basis, 0.0, 1 / d), "mub")
    return states


def _maroney(d: int) -> PureStateSet:
    pairs = []
    for j in range(1, d):
        vec = np.zeros(d, dtype=complex)
        vec[0] = math.sqrt(1 / 3)
        vec[j] = math.sqrt(2 / 3)
        pairs.append((f"a{j}", vec))
    c = np.zeros(d, dtype=complex)
    c[0] = 1.0
    pairs.append(("c", c))
    states = PureStateSet.from_pairs(d, pairs)
    expected = np.full((d, d), 1 / 9)
    expected[-1, :] = expected[:, -1] = 1 / 3  # c is last
    _check_overlaps(states, expected, "maroney", tol=1e-12)
    return states


def _sic(d: int) -> PureStateSet:
    if d == 2:
        r = math.sqrt(1 / 3)
        t = math.sqrt(2 / 3)
        pairs = [("a1", [1, 0])]
        for k in range(3):
            phase = cmath.exp(2j * cmath.pi * k / 3)
            pairs.append((f"a{k + 2}", [r, t * phase]))
    else:
        # d = 3: the Hesse configuration: (0, 1, -w^a)/sqrt(2) and its two cyclic
        # coordinate shifts, w a primitive cube root of unity
        omega = cmath.exp(2j * cmath.pi / 3)
        r = 1 / math.sqrt(2)
        pairs = []
        idx = 0
        for shift in range(3):
            for a in range(3):
                base = [0.0, r, -r * omega**a]
                vec = [base[(j - shift) % 3] for j in range(3)]
                idx += 1
                pairs.append((f"a{idx}", vec))
    states = PureStateSet.from_pairs(d, pairs)
    _check_overlaps(states, 1 / (d + 1), "sic")
    # resolution of the identity: sum of projectors equals d * I
    f, _ = frame_operator(states)
    if np.abs(f - d * np.eye(d)).max() > 1e-9:
        raise RuntimeError("sic self-check failed: projectors do not resolve the identity")
    return states


# name -> (builder, (lowest, highest) dimension, or None for a fixed family)
_FAMILIES = {
    "yu_oh_rays": (_yu_oh_rays, None),
    "yu_oh_principal": (lambda: _standard_basis(3, prefix="c"), None),
    "caves_example": (_caves_example, None),
    "hadamard": (_hadamard, (2, 12)),  # 2^d states: d = 16 would need a 64 GiB Gram matrix
    "mub": (_mub, (2, 97)),  # and prime: checked in _mub
    "maroney": (_maroney, (3, 1024)),  # d states of dimension d, checked on a d x d Gram matrix
    "sic": (_sic, (2, 3)),
    "standard_basis": (_standard_basis, (1, 1024)),  # a dense d x d complex matrix
}

# name -> (outcomes, contexts, partial contexts) of the scenarios that take no n
_SCENARIOS = {
    "specker": (("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")), ()),
    "antidist_example": (
        ("a1", "a2", "a3", "a1_perp", "a2_perp", "a3_perp"),
        (("a1_perp", "a2_perp", "a3_perp"),),
        (("a1", "a1_perp"), ("a2", "a2_perp"), ("a3", "a3_perp")),
    ),
    "klyachko": (tuple("01234"), (), tuple((str(i), str((i + 1) % 5)) for i in range(5))),
    "no_state_example": (
        ("a1", "a2", "a3", "b1", "b2", "b3"),
        (("a1", "a2", "a3"), ("b1", "b2", "b3"), ("a1", "b1"), ("a2", "b2"), ("a3", "b3")),
        (),
    ),
}

STATE_FAMILIES = tuple(_FAMILIES)
SCENARIO_NAMES = ("classical", "partial_classical", *_SCENARIOS)


def generate_states(spec: FamilySpec) -> PureStateSet:
    """The states of one family.  The fixed families take no dimension, the
    others need one in their range, and only hadamard takes a subset;
    anything else raises UnsupportedParameterError."""
    family = spec.family
    d = spec.dimension
    if family not in _FAMILIES:
        raise UnsupportedParameterError(f"unknown state family {family!r}")
    if spec.subset is not None and family != "hadamard":
        raise UnsupportedParameterError(f"{family} takes no subset")
    builder, dimensions = _FAMILIES[family]
    if dimensions is None:
        if d is not None:
            raise UnsupportedParameterError(f"{family} takes no dimension, got {d}")
        return builder()
    if d is None:
        raise UnsupportedParameterError(f"{family} needs a dimension")
    low, high = dimensions
    if not low <= d <= high:
        raise UnsupportedParameterError(f"{family} needs a dimension in [{low}, {high}], got {d}")
    return builder(d) if spec.subset is None else builder(d, spec.subset)


def generate_scenario(name: str, n: int | None = None) -> Scenario:
    """The abstract scenarios used throughout: verbatim structures.  Only
    the two classical scenarios take (and need) an outcome count `n`."""
    if name in ("classical", "partial_classical"):
        if n is None or not 1 <= n <= 4096:
            raise UnsupportedParameterError(f"{name} scenario needs n in [1, 4096], got {n}")
        labels = [f"x{i + 1}" for i in range(n)]
        return make_scenario(labels, [labels], []) if name == "classical" else make_scenario(labels, [], [labels])
    if name not in _SCENARIOS:
        raise UnsupportedParameterError(f"unknown scenario name {name!r}")
    if n is not None:
        raise UnsupportedParameterError(f"{name} scenario takes no n, got {n}")
    return make_scenario(*_SCENARIOS[name])
