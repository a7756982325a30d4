"""Maximal clique enumeration (Bron-Kerbosch with pivoting on bitmasks).

Vertex v is bit v of an int mask; the clique, candidate and excluded sets
of a search node are three masks, kept on an explicit stack.  The pivot is
the vertex of candidates | excluded with the most neighbours among the
candidates (ties broken by index).  The output is sorted, so it does not
depend on the visiting order.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NodeBudget


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def maximal_cliques(
    n: int, adjacency: Sequence[set[int]], node_budget: int | None = None
) -> list[tuple[int, ...]]:
    """All maximal cliques of the graph on vertices 0..n-1, sorted.

    Raises ResourceLimitError when the search visits more than
    `node_budget` nodes (default 10^8; one node = one
    clique/candidates/excluded triple).
    """
    budget = NodeBudget(node_budget, "clique search")
    neighbours = [sum(1 << u for u in adjacency[v]) for v in range(n)]
    cliques: list[tuple[int, ...]] = []
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        budget.charge(1)
        if not candidates:
            if not excluded:
                cliques.append(tuple(_bits(clique)))
            continue
        pivot = max(
            _bits(candidates | excluded),
            key=lambda u: (neighbours[u] & candidates).bit_count(),
        )
        for v in _bits(candidates & ~neighbours[pivot]):
            bit = 1 << v
            stack.append((clique | bit, candidates & neighbours[v], excluded & neighbours[v]))
            candidates ^= bit
            excluded |= bit
    return sorted(cliques)
