"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling rule, exact throughout.
The tableau is integer pivoting over one common denominator (Edmonds,
Bareiss; the scheme of Avis's lrs): Python ints, every division exact, the
cost row pivoted as one more row.  `fractions.Fraction` appears only at the
boundary: rows are scaled to integers on entry, and the point is read off as
fractions.  There is no floating-point fast path: callers rely on results
like 5/2 being exact.  Before an optimal result is returned, the point is
substituted back into every constraint; before an infeasible one, the
phase-1 multipliers are checked as a Farkas certificate.

Also provides the state-polytope constructions for scenarios: one variable
per outcome, an equality row per context, a `<=` row per partial context,
and box bounds [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError
from .scenario import Scenario, check_labels, check_members_known

__all__ = [
    "Rational",
    "LinearProgram",
    "LPResult",
    "StateUniquenessResult",
    "parse_rational",
    "format_rational",
    "solve",
    "build_state_polytope",
    "state_optimize",
    "state_uniqueness",
]

# Exact rationals are carried by the stdlib Fraction type: arbitrary
# precision, always in lowest terms, positive denominator.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


def parse_rational(value) -> Fraction:
    """Accept ints, 'p/q' strings, decimal strings, and decimal floats.

    Floats are read through their shortest decimal representation, so
    0.1 means 1/10 rather than its binary expansion.  Anything else, a zero
    denominator included, raises ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to rows and per-variable bounds.

    Entries are exact rationals: Fractions, or ints where a caller builds the
    program directly."""

    variables: tuple[str, ...]
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction | None, ...]

    @staticmethod
    def build(
        variables: Sequence[str],
        objective: Sequence | None = None,
        rows: Iterable[tuple[Sequence, str, object]] = (),
        lower: Sequence | None = None,
        upper: Sequence | None = None,
    ) -> "LinearProgram":
        n = len(variables)
        obj = tuple(parse_rational(c) for c in (objective if objective is not None else [0] * n))
        if len(obj) != n:
            raise DimensionMismatchError(f"objective has {len(obj)} entries for {n} variables")
        built_rows = []
        for coeffs, rel, rhs in rows:
            if rel not in _RELATIONS:
                raise DimensionMismatchError(f"unknown relation {rel!r}")
            row = tuple(parse_rational(c) for c in coeffs)
            if len(row) != n:
                raise DimensionMismatchError(f"row has {len(row)} entries for {n} variables")
            built_rows.append((row, rel, parse_rational(rhs)))
        lo = tuple(parse_rational(v) for v in (lower if lower is not None else [0] * n))
        up = tuple(None if v is None else parse_rational(v) for v in (upper if upper is not None else [None] * n))
        if len(lo) != n or len(up) != n:
            raise DimensionMismatchError("bound vectors must match the variable count")
        return LinearProgram(tuple(variables), obj, tuple(built_rows), lo, up)

    def with_objective(self, objective: Sequence) -> "LinearProgram":
        obj = tuple(parse_rational(c) for c in objective)
        if len(obj) != len(self.variables):
            raise DimensionMismatchError("objective length mismatch")
        return replace(self, objective=obj)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x and y), _ZERO)


def solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  Optimal points and infeasible verdicts are
    certified before return."""
    n = len(lp.variables)
    for row, _, _ in lp.rows:
        if len(row) != n:
            raise DimensionMismatchError("row length mismatch")
    if len(lp.objective) != n:
        raise DimensionMismatchError("objective length mismatch")

    # Shift to y = x - lower so every variable has lower bound 0, and turn
    # upper bounds into explicit rows.
    shifted = [(j, lo) for j, lo in enumerate(lp.lower) if lo]
    rows: list[tuple[Sequence[Fraction], str, Fraction]] = []
    for coeffs, rel, rhs in lp.rows:
        rows.append((coeffs, rel, rhs - sum((coeffs[j] * lo for j, lo in shifted), _ZERO)))
    for j, ub in enumerate(lp.upper):
        if ub is not None:
            unit = [0] * n
            unit[j] = 1
            rows.append((unit, LE, ub - lp.lower[j]))

    status, y, optimum = _solve_nonneg(n, rows, lp.objective)
    if status != "optimal":
        return LPResult(status)
    point = tuple(v + lo for v, lo in zip(y, lp.lower))
    # the tableau's optimum, shifted back; _certify checks it against the point
    value = optimum + _dot(lp.objective, lp.lower)
    _certify(lp, point, value)
    return LPResult("optimal", value, point)


def _lcm_denominators(values: Iterable[Fraction]) -> int:
    return lcm(*(v.denominator for v in values))


def _solve_nonneg(
    nvars: int,
    rows: list[tuple[Sequence[Fraction], str, Fraction]],
    objective: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective . y over y >= 0 subject to `rows`; return the
    status, the point and the optimum read off the cost row.

    The tableau is kept in integers: row i of `tab` is D times the canonical
    simplex row, D > 0 being the determinant of the current basis, and the
    right-hand side carries one more factor K.  Rows are scaled once, at
    entry, to clear their denominators; after that every pivot divides
    exactly (Sylvester's identity), so no Fraction is built until the point
    is read off.  The cost row rides along as the last row of `tab`.
    """
    # normalize to nonnegative right-hand sides
    norm = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs, rel, rhs = [-c for c in coeffs], _FLIPPED[rel], -rhs
        norm.append((coeffs, rel, rhs))

    nreal = nvars + sum(1 for _, rel, _ in norm if rel != EQ)  # then the artificials
    ncols = nreal + sum(1 for _, rel, _ in norm if rel != LE)
    # row i scaled by s_i clears its denominators; the starting basis of
    # those scaled rows is diag(s_i), so D starts as the product of the s_i
    d = prod(_lcm_denominators(coeffs) for coeffs, _, _ in norm)
    k = _lcm_denominators(rhs for _, _, rhs in norm)
    tab: list[list[int]] = []
    basis: list[int] = []
    si, ai = nvars, nreal
    for coeffs, rel, rhs in norm:
        row = [c.numerator * d // c.denominator for c in coeffs]
        row += [0] * (ncols - nvars)
        row.append(rhs.numerator * d * k // rhs.denominator)
        if rel != EQ:
            row[si] = d if rel == LE else -d
            si += 1
        if rel == LE:
            basis.append(si - 1)
        else:
            row[ai] = d
            basis.append(ai)
            ai += 1
        tab.append(row)

    if ncols > nreal:
        # phase 1: maximize minus the sum of the artificials
        initial, start = [row[:] for row in tab], basis[:]
        cost = [0] * (ncols + 1)
        for row, b in zip(tab, basis):
            if b >= nreal:
                cost = [x + v for x, v in zip(cost, row)]
        for j in range(nreal, ncols):
            cost[j] -= d
        tab.append(cost)
        d, bounded = _run_simplex(tab, basis, d)
        cost = tab.pop()
        if not bounded or cost[-1]:
            _certify_infeasible(initial, start, cost, d, nreal)
            return ("infeasible", None, None)
        # Artificials never enter again: drop their columns, then pivot the
        # basic ones (at value 0) out on any real column; a row with no real
        # pivot is redundant and is dropped.
        tab = [row[:nreal] + row[-1:] for row in tab]
        for i in reversed(range(len(tab))):
            if basis[i] < nreal:
                continue
            col = next((j for j in range(nreal) if tab[i][j]), None)
            if col is None:
                del tab[i], basis[i]
            else:
                d = _pivot(tab, i, col, d)
                basis[i] = col

    # phase 2: cost row D * (c - c_B B^-1 A), times the lcm of c's denominators
    scale = _lcm_denominators(objective)
    c = [q.numerator * scale // q.denominator for q in objective] + [0] * (nreal - nvars)
    cost = [cj * d for cj in c] + [0]
    for row, b in zip(tab, basis):
        if c[b]:
            cost = [x - c[b] * v for x, v in zip(cost, row)]
    tab.append(cost)
    d, bounded = _run_simplex(tab, basis, d)
    if not bounded:
        return ("unbounded", None, None)
    point = [_ZERO] * nvars
    for b, row in zip(basis, tab):
        if b < nvars:
            point[b] = Fraction(row[-1], d * k)
    # the cost row's rhs is -D * K * scale times the objective's value
    return ("optimal", point, Fraction(-tab[-1][-1], d * k * scale))


def _pivot(tab: list[list[int]], r: int, c: int, d: int) -> int:
    """Pivot the integer tableau on (r, c); return the new denominator.

    Row r is kept (negated when the pivot is negative); every other row
    becomes (row * p - row[c] * tab[r]) / d, an exact division.
    """
    prow = tab[r]
    p = prow[c]
    if p < 0:
        prow = tab[r] = [-v for v in prow]
        p = -p
    if p == d:
        # each cross term f * v / d is itself an integer, and only the
        # nonzero columns of the pivot row move
        support = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(tab):
            f = row[c]
            if f and i != r:
                for j, v in support:
                    row[j] -= f * v // d
        return p
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            tab[i] = [(x * p - f * v) // d for x, v in zip(row, prow)]
        else:
            tab[i] = [x * p // d for x in row]
    return p


def _run_simplex(tab: list[list[int]], basis: list[int], d: int) -> tuple[int, bool]:
    """Maximize over the basic feasible integer tableau whose last row is
    the cost row, entering on any column (Bland's rule).

    Returns the final denominator and False when the objective is unbounded.
    """
    cost = tab[-1]
    ncols = len(cost) - 1
    m = len(tab) - 1
    while True:
        entering = next((j for j in range(ncols) if cost[j] > 0), -1)
        if entering < 0:
            return d, True
        leaving = -1
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                # ratio b / a against the best so far, by cross-multiplying
                b = tab[i][-1]
                if leaving < 0:
                    leaving, best_b, best_a = i, b, a
                    continue
                diff = b * best_a - best_b * a
                if diff < 0 or (diff == 0 and basis[i] < basis[leaving]):
                    leaving, best_b, best_a = i, b, a
        if leaving < 0:
            return d, False
        d = _pivot(tab, leaving, entering, d)
        basis[leaving] = entering
        cost = tab[-1]


def _certify_infeasible(
    initial: list[list[int]], start: list[int], cost: list[int], d: int, nreal: int
) -> None:
    """Check the Farkas certificate read from the final phase-1 cost row.

    Row i's multiplier, times d, is read at the column that was basic in row
    i at the start: minus the cost entry there, less d more when that column
    is an artificial (its phase-1 cost is -1).  `initial` holds the
    normalized rows over a positive common denominator, so y . a_j >= 0 for
    every real column and y . b < 0 prove that no point satisfies them.
    """
    combo = [0] * len(cost)
    for row, b in zip(initial, start):
        y = -cost[b] - (d if b >= nreal else 0)
        if y:
            combo = [s + y * v for s, v in zip(combo, row)]
    if any(v < 0 for v in combo[:nreal]) or combo[-1] >= 0:
        raise RuntimeError("solver certificate failed: infeasibility multipliers")


def _certify(lp: LinearProgram, point: Sequence[Fraction], value: Fraction) -> None:
    support = [(j, v) for j, v in enumerate(point) if v]
    for coeffs, rel, rhs in lp.rows:
        lhs = sum((coeffs[j] * v for j, v in support if coeffs[j]), _ZERO)
        ok = lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs
        if not ok:
            raise RuntimeError(f"solver certificate failed: {lhs} {rel} {rhs}")
    for v, lo, up in zip(point, lp.lower, lp.upper):
        if v < lo or (up is not None and v > up):
            raise RuntimeError("solver certificate failed: bound violated")
    if _dot(lp.objective, point) != value:
        raise RuntimeError("solver certificate failed: objective mismatch")


def build_state_polytope(s: Scenario) -> LinearProgram:
    """Constraint set of the state polytope (zero objective).

    One variable per outcome in canonical order; context sums are pinned to
    1, partial-context sums bounded by 1, and every coordinate lies in
    [0, 1].
    """
    check_members_known(s)
    labels = s.outcomes
    index = {a: j for j, a in enumerate(labels)}
    rows = []
    for family, rel in ((s.contexts, EQ), (s.partial_contexts, LE)):
        for members in family:
            coeffs = [_ZERO] * len(labels)
            for a in members:
                coeffs[index[a]] = _ONE
            rows.append((tuple(coeffs), rel, _ONE))
    return LinearProgram(
        variables=labels,
        objective=tuple([_ZERO] * len(labels)),
        rows=tuple(rows),
        lower=tuple([_ZERO] * len(labels)),
        upper=tuple([_ONE] * len(labels)),
    )


def _coeff_vector(labels: Sequence[str], coeffs: Mapping[str, object]) -> tuple[Fraction, ...]:
    check_labels(labels, coeffs)
    return tuple(parse_rational(coeffs.get(a, 0)) for a in labels)


def state_optimize(s: Scenario, coeffs: Mapping[str, object]) -> LPResult:
    """Maximize a linear functional over the state polytope of `s`."""
    lp = build_state_polytope(s)
    return solve(lp.with_objective(_coeff_vector(lp.variables, coeffs)))


@dataclass(frozen=True)
class StateUniquenessResult:
    status: str  # "no-state" | "unique" | "non-unique"
    point: tuple[tuple[str, Fraction], ...] | None = None


def state_uniqueness(s: Scenario) -> StateUniquenessResult:
    """Decide whether the state polytope is empty, a single point, or larger.

    Each coordinate is maximized and minimized; the polytope is a single
    point iff every coordinate has equal extremes.
    """
    lp = build_state_polytope(s)
    if solve(lp).status != "optimal":
        return StateUniquenessResult("no-state")
    point = []
    n = len(lp.variables)
    for j, label in enumerate(lp.variables):
        unit = [_ZERO] * n
        unit[j] = _ONE
        hi = solve(lp.with_objective(unit))
        unit[j] = -_ONE
        lo = solve(lp.with_objective(unit))
        if hi.value != -lo.value:
            return StateUniquenessResult("non-unique")
        point.append((label, hi.value))
    return StateUniquenessResult("unique", tuple(point))
