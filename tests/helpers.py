"""Independent oracles and random-instance generators for the test suite.

These deliberately avoid the library's own algorithms: value functions are
checked by filtering all 2^n assignments, LP feasibility by Fourier-Motzkin
elimination, and combinatorial antidistinguishability by trying every
blocker permutation.  Membership is one dense LP over that whole filtered
list, with no split into components.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

import numpy as np

from antictx.antidist import ScenarioAntidistVerdict
from antictx.errors import ResourceLimitError, UnknownLabelError
from antictx.ratlp import LinearProgram, solve
from antictx.scenario import Scenario, check_labels, make_scenario, validate_scenario
from antictx.valuefns import DEFAULT_NODE_BUDGET


def naive_value_functions(s: Scenario) -> list[tuple[int, ...]]:
    """Filter all 2^n assignments against the two defining clauses.

    Assignment k sets label i of the sorted order to bit n-1-i of k, so the
    assignments come in lexicographic order; numpy filters them all at once.
    """
    labels = sorted(s.outcomes)
    n = len(labels)
    bit = {a: 1 << (n - 1 - i) for i, a in enumerate(labels)}
    assignments = np.arange(1 << n, dtype=np.int64)
    keep = np.ones(1 << n, dtype=bool)
    for members, exact in [(m, True) for m in s.contexts] + [(m, False) for m in s.partial_contexts]:
        ones = np.bitwise_count(assignments & sum(bit[a] for a in members))
        keep &= ones == 1 if exact else ones <= 1
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return list(map(tuple, (assignments[keep, None] >> shifts & 1).tolist()))


def dense_membership(s: Scenario, state) -> tuple[str, list[tuple[tuple[int, ...], Fraction]]]:
    """Membership by one LP with a column per value function of the whole
    scenario: the status, and for a member the value functions (0/1 vectors
    in lexicographic order) with positive weight at the LP's vertex."""
    labels = sorted(s.outcomes)
    naive = naive_value_functions(s)
    if not naive:
        return "empty-polytope", []
    rows = [([bits[i] for bits in naive], "=", state.get(a, 0)) for i, a in enumerate(labels)]
    rows.append(([1] * len(naive), "=", 1))
    result = solve(LinearProgram.build([f"p{k}" for k in range(len(naive))], rows=rows))
    if result.status != "optimal":
        return "not-member", []
    return "member", [(bits, p) for bits, p in zip(naive, result.point) if p]


def _antichain(sets: list[frozenset]) -> list[frozenset]:
    kept: list[frozenset] = []
    for candidate in sets:
        if any(candidate <= other or other <= candidate for other in kept):
            continue
        kept.append(candidate)
    return kept


def random_scenario(rng: random.Random, max_outcomes: int = 10, max_sets: int = 5) -> Scenario:
    """A random valid scenario with at most `max_outcomes` outcomes and
    `max_sets` sets."""
    while True:
        n = rng.randint(2, max_outcomes)
        labels = [f"o{i:02d}" for i in range(n)]
        sets = []
        for _ in range(rng.randint(1, max_sets)):
            size = rng.randint(1, min(4, n))
            sets.append(frozenset(rng.sample(labels, size)))
        m_count = rng.randint(0, len(sets))
        contexts = _antichain(sets[:m_count])
        partials = [x for x in _antichain(sets[m_count:]) if x not in set(contexts)]
        s = make_scenario(labels, contexts, partials)
        if validate_scenario(s).valid:
            return s


def naive_antidistinguishable(
    s: Scenario, members: Iterable[str], *, node_budget: int | None = None
) -> ScenarioAntidistVerdict:
    """Exhaustive search for a combinatorial antidistinguishability witness.

    Scans contexts in canonical order and, within each, every injective
    assignment of blockers (`itertools.permutations`) in lexicographic
    order, so the first witness is deterministic.  Each assignment tried is
    one node; ResourceLimitError is raised past `node_budget` nodes
    (default 10^8).
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    nodes = 0
    targets = tuple(sorted(set(members)))
    if not targets:
        raise UnknownLabelError("the outcome set to test must be nonempty")
    check_labels(s.outcomes, targets)

    all_sets = [tuple(sorted(t)) for t in s.all_sets()]
    all_sets.sort()

    def co_context(a: str, b: str) -> tuple[str, ...] | None:
        for t in all_sets:
            if a in t and b in t:
                return t
        return None

    n = len(targets)
    for context in sorted(tuple(sorted(m)) for m in s.contexts):
        if len(context) < n:
            continue
        for blockers in itertools.permutations(context, n):
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(f"antidistinguishability search exceeded {budget} nodes")
            assignment = []
            ok = True
            for a, perp in zip(targets, blockers):
                if a == perp:
                    ok = False
                    break
                witness = co_context(a, perp)
                if witness is None:
                    ok = False
                    break
                assignment.append((a, perp, witness))
            if not ok:
                continue
            leftover = [c for c in context if c not in set(blockers)]
            pair_contexts = [(a, perp, witness) for a, perp, witness in assignment]
            for c in leftover:
                for a in targets:
                    if c == a:
                        ok = False
                        break
                    witness = co_context(c, a)
                    if witness is None:
                        ok = False
                        break
                    pair_contexts.append((a, c, witness))
                if not ok:
                    break
            if ok:
                return ScenarioAntidistVerdict(
                    antidistinguishable=True,
                    context=context,
                    blockers=tuple((a, perp) for a, perp, _ in assignment),
                    pair_contexts=tuple(pair_contexts),
                )
    return ScenarioAntidistVerdict(antidistinguishable=False)


# ------------------------------------------------------ Fourier-Motzkin

Row = tuple[tuple[int, ...], int]  # coeffs . x <= rhs, coprime integers


def _coprime(values: list[int]) -> Row:
    g = gcd(*values) or 1
    return tuple(v // g for v in values[:-1]), values[-1] // g


def _integral(coeffs, rhs) -> Row:
    """The rational row coeffs . x <= rhs scaled to coprime integers."""
    values = [Fraction(v) for v in (*coeffs, rhs)]
    scale = lcm(*(v.denominator for v in values))
    return _coprime([int(v * scale) for v in values])


def _reduce(rows) -> dict[tuple[int, ...], int] | None:
    """Dedup (keep tightest rhs), drop rows implied by x >= 0 or by another
    row, spot contradictions.  Returns None when a row is unsatisfiable."""
    out: dict[tuple[int, ...], int] = {}
    for coeffs, rhs in rows:
        if all(c <= 0 for c in coeffs) and rhs >= 0:
            continue  # lhs <= 0 <= rhs for nonnegative x
        if all(c >= 0 for c in coeffs) and rhs < 0:
            return None  # lhs >= 0 > rhs for nonnegative x
        if coeffs not in out or rhs < out[coeffs]:
            out[coeffs] = rhs
    # a row is implied by any row with componentwise-larger coefficients and
    # a smaller rhs (over nonnegative x)
    items = list(out.items())
    kept = {}
    for i, (ci, bi) in enumerate(items):
        dominated = any(
            j != i and bj <= bi and all(x <= y for x, y in zip(ci, cj))
            for j, (cj, bj) in enumerate(items)
        )
        if not dominated:
            kept[ci] = bi
    return kept


def fm_feasible(nvars: int, rows) -> bool:
    """Feasibility of {x >= 0 : rows} decided by variable elimination.

    Nonnegativity is handled implicitly: eliminating a variable combines
    its upper-bound rows with both its lower-bound rows and the implicit
    bound x >= 0.
    """
    initial = []
    for coeffs, rel, rhs in rows:
        if rel in ("<=", "="):
            initial.append(_integral(coeffs, rhs))
        if rel in (">=", "="):
            initial.append(_integral([-c for c in coeffs], -rhs))
    current = _reduce(initial)
    if current is None:
        return False

    remaining = set(range(nvars))
    while remaining:

        def cost(v: int) -> int:
            pos = sum(1 for coeffs in current if coeffs[v] > 0)
            neg = 1 + sum(1 for coeffs in current if coeffs[v] < 0)
            return pos * neg

        var = min(remaining, key=cost)
        remaining.discard(var)
        pos = [(c, b) for c, b in current.items() if c[var] > 0]
        neg = [(c, b) for c, b in current.items() if c[var] < 0]
        new = [(c, b) for c, b in current.items() if c[var] == 0]
        neg.append((tuple(-int(i == var) for i in range(nvars)), 0))
        for pc, pb in pos:
            for nc, nb in neg:
                f_pos, f_neg = -nc[var], pc[var]
                combined = [f_pos * a + f_neg * b for a, b in zip(pc, nc)]
                new.append(_coprime([*combined, f_pos * pb + f_neg * nb]))
        current = _reduce(new)
        if current is None:
            return False
    return True
