"""Value functions: enumeration, classical bounds, and polytope membership.

A value function assigns 0/1 to every outcome with exactly one 1 per
context and at most one 1 per partial context.  The convex hull of all
value functions is the noncontextual polytope; its linear maxima are the
classical bounds of noncontextuality inequalities.

Finding value functions is exact cover with secondary items (Knuth,
*Dancing Links*, arXiv:cs/0011047): contexts are covered exactly once and
partial contexts at most once.  One search answers every question here.  It
holds a partial assignment as two bitmasks, `ones` and `zeros`, with label i
of the canonical order at bit n-1-i, so masks compare like the 0/1 vectors.
A 1 zeroes every outcome sharing a (partial) context with it.

A scenario is first split into the connected components of its
(partial-)context hypergraph; the outcomes in no set form one more
component.  Components share no outcome, so each is searched on its own and
the results combine: counts multiply, maxima add up, and the
lexicographically first maximizer is the sum of the components' first
maximizers.  Within a component the search branches on the open context
with the fewest free members, trying each as its 1.  With every context
closed, it branches 0/1 on the first free outcome while more than 16 are
free, then lists every completion of the rest at once by doubling a list of
at most 2^16 masks.  Each branch, and each mask such a list builds, is one
node of the node budget, which all components of one question share.  The
search keeps its own stack, so no scenario is too deep for it.

Enumeration, definite intersections and membership build the product of the
components' sorted mask lists, charging one node per value function built,
so the budget also caps the list.  Counts and classical bounds are one pass
over the components that counts and keeps the heaviest value function under
integer weights, building no list.  A definite intersection is the search
with each definite outcome added as a one-outcome context; an antiset bound
is `classical_bound` with unit coefficients.  A `ValueFunction` is an
immutable `(labels, ones)` NamedTuple; lists of them are built with gc
paused, as they make no cycles.  Nothing here uses a tolerance.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from typing import Iterable, Mapping, NamedTuple

from . import ratlp
from .errors import (
    DEFAULT_NODE_BUDGET,
    EmptyPolytopeError,
    NodeBudget,
    NotAStateError,
    ScenarioParseError,
    UnknownLabelError,
)
from .ratlp import parse_rational
from .scenario import Scenario, check_labels, check_members_known

__all__ = [
    "ValueFunction",
    "ClassicalBoundResult",
    "NoncontextualDecomposition",
    "MembershipVerdict",
    "DEFAULT_NODE_BUDGET",
    "enumerate_value_functions",
    "count_value_functions",
    "definite_intersection",
    "classical_bound",
    "is_noncontextual_state",
    "brute_force_antiset_bound",
    "parse_state_json",
]


class ValueFunction(NamedTuple):
    """A total 0/1 assignment over the canonical outcome order.

    `ones` is the mask of the outcomes set to 1, label i at bit n-1-i, so
    masks compare like the 0/1 vectors.  As a 2-tuple it iterates as, and
    equals, its `(labels, ones)` pair; `vf[label]` takes labels only.
    """

    labels: tuple[str, ...]
    ones: int

    def __getitem__(self, label: str) -> int:
        try:
            i = self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"unknown outcome {label!r}") from None
        return self.ones >> (len(self.labels) - 1 - i) & 1

    @property
    def values(self) -> tuple[int, ...]:
        # a leading 1 keeps the leading 0s (and gives n = 0 an empty vector)
        digits = format(self.ones | 1 << len(self.labels), "b")[1:]
        return tuple(digits.encode().translate(bytes.maketrans(b"01", b"\0\1")))

    @property
    def assignment(self) -> dict[str, int]:
        return dict(zip(self.labels, self.values))

    def support(self) -> tuple[str, ...]:
        return tuple(a for a, v in zip(self.labels, self.values) if v == 1)


@dataclass(frozen=True)
class ClassicalBoundResult:
    bound: Fraction
    maximizer: ValueFunction
    value_function_count: int


@dataclass(frozen=True)
class NoncontextualDecomposition:
    """Convex weights over value functions reproducing a state exactly."""

    weights: tuple[tuple[ValueFunction, Fraction], ...]

    def induced_state(self) -> dict[str, Fraction]:
        state = dict.fromkeys(self.weights[0][0].labels if self.weights else (), Fraction(0))
        for vf, p in self.weights:
            for a in vf.support():
                state[a] += p
        return state


@dataclass(frozen=True)
class MembershipVerdict:
    status: str  # "member" | "not-member" | "empty-polytope"
    decomposition: NoncontextualDecomposition | None = None

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def _components(s: Scenario, budget: NodeBudget, gains=None):
    """Yield one leaf generator per connected component of the (partial-)
    context hypergraph of `s` (see `_search`); the outcomes in no set form
    one more component."""
    check_members_known(s)
    n = len(s.outcomes)
    bit = {a: 1 << (n - 1 - i) for i, a in enumerate(s.outcomes)}
    masks = [sum(bit[a] for a in members) for members in s.all_sets()]
    # an outcome set to 1 zeroes every other member of its (partial) contexts
    zeroed = dict.fromkeys(bit.values(), 0)
    parts: dict[int, list[int]] = {}  # outcomes of a component -> its context indices
    for i, (members, mask) in enumerate(zip(s.all_sets(), masks)):
        for a in members:
            zeroed[bit[a]] |= mask & ~bit[a]
        joined, contexts = mask, [i] if i < len(s.contexts) else []
        for part in [part for part in parts if part & mask]:
            joined |= part
            contexts += parts.pop(part)
        parts.setdefault(joined, []).extend(contexts)  # empty sets share the key 0
    free = ((1 << n) - 1) & ~sum(parts)
    if free:
        parts[free] = []
    gain = {b: (gains or {}).get(a, 0) for a, b in bit.items()}
    for outcomes, contexts in sorted(parts.items(), reverse=True):
        # contexts keep the scenario's order, so ties in branching do too
        yield _search(outcomes, [masks[i] for i in sorted(contexts)], zeroed, gain, budget)


def _search(outcomes: int, contexts: list[int], zeroed, gain, budget: NodeBudget):
    """Yield (ones, weight) for each assignment of the component `outcomes`
    that gives every context in it one 1: the mask of its 1s and the sum of
    their integer gains."""
    stack = [(0, 0, 0, contexts)]
    while stack:
        ones, zeros, weight, candidates = stack.pop()
        allowed = ~zeros
        pick, fewest, still_open = 0, len(zeroed) + 1, []
        for members in candidates:
            if members & ones:
                continue
            free = members & allowed
            k = free.bit_count()
            if k <= 1:
                # no free member ends the branch; one is forced, and the
                # child scans the rest of the contexts
                pick, fewest, still_open = free, k, candidates
                break
            still_open.append(members)
            if k < fewest:
                pick, fewest = free, k
        if not fewest:
            continue  # a context can no longer get its 1
        if not pick:  # every context has its 1: the free outcomes are the rest
            free = outcomes & allowed & ~ones
            if not free:
                yield ones, weight
                continue
            if free.bit_count() <= 16:  # a list of at most 2^16 masks
                yield from _completions(ones, weight, free, zeroed, gain, budget)
                continue
            pick = 1 << (free.bit_length() - 1)  # branch 0/1 on the first one
            stack.append((ones, zeros | pick, weight, still_open))
            fewest = 2
        budget.charge(fewest)
        while pick:
            b = pick & -pick
            pick ^= b
            stack.append((ones | b, zeros | zeroed[b], weight + gain[b], still_open))


def _completions(ones, weight, free, zeroed, gain, budget: NodeBudget) -> list[tuple[int, int]]:
    """(ones, weight) for each way of adding 1s from `free` to `ones` with no
    two sharing a (partial) context: a list doubling through `free`, lowest
    bit first, one node charged per mask built."""
    leaves = [(ones, weight)]
    while free:
        b = free & -free
        free ^= b
        clash, g = zeroed[b], gain[b]
        grown = [(m | b, w + g) for m, w in leaves if not m & clash]
        budget.charge(len(grown))
        leaves += grown
    return leaves


def _masks(s: Scenario, node_budget) -> list[int]:
    """The sorted masks of the value functions: the product of the
    components' masks, one node charged per mask built."""
    budget = NodeBudget(node_budget, "value-function search")
    factors = []
    for leaves in _components(s, budget):
        found = sorted(ones for ones, _ in leaves)
        if not found:
            return []
        factors.append(found)
    budget.charge(prod(map(len, factors)))
    product, *rest = factors or [[0]]
    for found in rest:
        product = [a | b for a in product for b in found]
    if rest:
        product.sort()  # components can interleave their bits
    return product


@contextmanager
def _gc_paused():
    """Pause the cyclic collector, restarting it on exit only if it ran on entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _value_functions(s: Scenario, node_budget) -> list[ValueFunction]:
    with _gc_paused():
        masks = _masks(s, node_budget)
        return list(map(tuple.__new__, repeat(ValueFunction), zip(repeat(s.outcomes), masks)))


def _best(s: Scenario, gains: Mapping[str, int], node_budget):
    """Count the value functions and find the lexicographically first one
    of maximum weight, without building the list: counts multiply over the
    components, and maxima and first maximizers add up, since components
    share no outcome.  With no value function at all, (0, 0, None)."""
    count, best, best_ones = 1, 0, 0
    for leaves in _components(s, NodeBudget(node_budget, "value-function search"), gains=gains):
        part_count, part_best, part_ones = 0, None, 0
        for ones, weight in leaves:
            part_count += 1
            if part_best is None or weight > part_best or (weight == part_best and ones < part_ones):
                part_best, part_ones = weight, ones
        if not part_count:
            return 0, 0, None
        count, best, best_ones = count * part_count, best + part_best, best_ones | part_ones
    return count, best, ValueFunction(s.outcomes, best_ones)


def enumerate_value_functions(
    s: Scenario, *, node_budget: int | None = None
) -> list[ValueFunction]:
    """All value functions, ordered lexicographically by their 0/1 vectors.

    Raises ResourceLimitError when the search visits more nodes than the
    budget allows (default 10^8).
    """
    return _value_functions(s, node_budget)


def count_value_functions(s: Scenario, *, node_budget: int | None = None) -> int:
    """The number of value functions, counted as `classical_bound` counts them."""
    return _best(s, {}, node_budget)[0]


def definite_intersection(
    s: Scenario, definite: Iterable[str], *, node_budget: int | None = None
) -> list[ValueFunction]:
    """Value functions assigning 1 to every label in `definite`: those of
    `s` with each such label added as a one-outcome context."""
    wanted = set(definite)
    check_labels(s.outcomes, wanted)
    singles = tuple(frozenset([a]) for a in sorted(wanted))
    return _value_functions(Scenario(s.outcomes, s.contexts + singles, s.partial_contexts), node_budget)


def classical_bound(
    s: Scenario, coeffs: Mapping[str, object], *, node_budget: int | None = None
) -> ClassicalBoundResult:
    """Exact maximum of sum(c_a * v(a)) over all value functions.

    Labels missing from `coeffs` count as coefficient 0.  Ties go to the
    lexicographically first maximizer.  Raises EmptyPolytopeError when the
    scenario has no value functions at all.
    """
    check_labels(s.outcomes, coeffs.keys())
    weights = {a: parse_rational(c) for a, c in coeffs.items()}
    # integer gains keep the search's sums exact and cheap
    scale = lcm(*(w.denominator for w in weights.values()))
    gains = {a: w.numerator * (scale // w.denominator) for a, w in weights.items()}
    count, best, maximizer = _best(s, gains, node_budget)
    if not count:
        raise EmptyPolytopeError("scenario has no value functions; bound undefined")
    return ClassicalBoundResult(Fraction(best, scale), maximizer, count)


def _check_state(s: Scenario, state: Mapping[str, Fraction]) -> dict[str, Fraction]:
    check_members_known(s)
    check_labels(s.outcomes, state.keys())
    full = {a: Fraction(0) for a in s.outcomes}
    for a, value in state.items():
        full[a] = parse_rational(value)
    for a, value in full.items():
        if not 0 <= value <= 1:
            raise NotAStateError(f"omega({a}) = {value} lies outside [0, 1]")
    for members in s.contexts:
        total = sum((full[a] for a in members), Fraction(0))
        if total != 1:
            raise NotAStateError(
                f"context {sorted(members)} sums to {total}, expected exactly 1"
            )
    for members in s.partial_contexts:
        total = sum((full[a] for a in members), Fraction(0))
        if total > 1:
            raise NotAStateError(
                f"partial context {sorted(members)} sums to {total} > 1"
            )
    return full


def is_noncontextual_state(
    s: Scenario, state: Mapping[str, object], *, node_budget: int | None = None
) -> MembershipVerdict:
    """Exact membership test for the noncontextual polytope.

    Feasibility of omega = sum_v p_v v with p a probability vector is
    decided by the rational LP solver over the full enumeration of value
    functions; a witness decomposition is returned when one exists.
    Raises NotAStateError when the input is not a state at all.
    """
    full = _check_state(s, state)
    masks = _masks(s, node_budget)
    if not masks:
        return MembershipVerdict("empty-polytope")
    # one column per value function, its 0/1 entries read off the mask
    k, n = len(masks), len(s.outcomes)
    rows = [
        (tuple(ones >> (n - 1 - i) & 1 for ones in masks), ratlp.EQ, full[a])
        for i, a in enumerate(s.outcomes)
    ]
    rows.append(((1,) * k, ratlp.EQ, 1))
    lp = ratlp.LinearProgram(
        tuple(f"p{j}" for j in range(k)), (0,) * k, tuple(rows), (0,) * k, (None,) * k
    )
    result = ratlp.solve(lp)
    if result.status != "optimal":
        return MembershipVerdict("not-member")
    weights = tuple(
        (ValueFunction(s.outcomes, ones), p) for ones, p in zip(masks, result.point) if p
    )
    decomposition = NoncontextualDecomposition(weights)
    if decomposition.induced_state() != full:
        raise RuntimeError("decomposition failed to reproduce the state")
    return MembershipVerdict("member", decomposition)


def brute_force_antiset_bound(
    s: Scenario, members: Iterable[str], *, node_budget: int | None = None
) -> Fraction:
    """Max number of `members` outcomes any single value function sets to 1:
    `classical_bound` with unit coefficients on them.  For scenarios that
    embed all the antidistinguishing contexts the result is at most 1, but
    on bare scenarios it can be larger.
    """
    return classical_bound(s, dict.fromkeys(members, 1), node_budget=node_budget).bound


def _rationals(doc, key: str, what: str) -> dict[str, Fraction]:
    """Parse {key: {label: "p/q" | number}} into exact rationals; a bad value
    raises ScenarioParseError naming its label, a bad shape names `what`."""
    if not isinstance(doc, dict) or set(doc) != {key} or not isinstance(doc[key], dict):
        raise ScenarioParseError(f'{what} document must be {{"{key}": {{label: value}}}}')
    out = {}
    for label, value in doc[key].items():
        try:
            out[label] = parse_rational(value)
        except ValueError as exc:
            raise ScenarioParseError(f"bad rational for {label!r}: {value!r}") from exc
    return out


def parse_state_json(doc) -> dict[str, Fraction]:
    """Parse {"state": {label: "p/q" | number}} into exact rationals."""
    return _rationals(doc, "state", "state")
