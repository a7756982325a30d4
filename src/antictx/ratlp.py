"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling rule, all arithmetic in
`fractions.Fraction`.  There is no floating-point fast path: callers rely on
results like 5/2 being exact.  Before an optimal result is returned, the
point is substituted back into every constraint as a certificate.

Also provides the state-polytope constructions for scenarios: one variable
per outcome, an equality row per context, a `<=` row per partial context,
and box bounds [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, UnknownLabelError
from .scenario import Scenario, check_members_known

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
    "format_lp",
]

# Exact rationals are carried by the stdlib Fraction type: arbitrary
# precision, always in lowest terms, positive denominator.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


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
    """Maximize objective . x subject to rows and per-variable bounds."""

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
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            tableau[i] = [v - factor * p for v, p in zip(r, prow)]
    basis[row] = col


def _run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    allowed: Sequence[int],
) -> Fraction | None:
    """Maximize cost over the current basic feasible tableau (Bland's rule).

    Returns the optimal objective value, or None when unbounded.
    """
    allowed = sorted(allowed)
    while True:
        # reduced costs relative to the current basis
        basic_cost = [cost[b] for b in basis]
        entering = -1
        for j in allowed:
            rc = cost[j] - sum(bc * row[j] for bc, row in zip(basic_cost, tableau) if row[j] != 0)
            if rc > 0:
                entering = j
                break
        if entering < 0:
            return sum(bc * row[-1] for bc, row in zip(basic_cost, tableau))
        leaving = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return None
        _pivot(tableau, basis, leaving, entering)


def solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  Optimal points are certified before return."""
    n = len(lp.variables)
    for row, _, _ in lp.rows:
        if len(row) != n:
            raise DimensionMismatchError("row length mismatch")
    if len(lp.objective) != n:
        raise DimensionMismatchError("objective length mismatch")

    # Shift to y = x - lower so every variable has lower bound 0, and turn
    # upper bounds into explicit rows.
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for coeffs, rel, rhs in lp.rows:
        rows.append((list(coeffs), rel, rhs - _dot(coeffs, lp.lower)))
    for j, ub in enumerate(lp.upper):
        if ub is not None:
            unit = [_ZERO] * n
            unit[j] = _ONE
            rows.append((unit, LE, ub - lp.lower[j]))

    status, y = _solve_nonneg(n, rows, lp.objective)
    if status != "optimal":
        return LPResult(status)
    point = tuple(v + lo for v, lo in zip(y, lp.lower))
    value = _dot(lp.objective, point)
    _certify(lp, point, value)
    return LPResult("optimal", value, point)


def _solve_nonneg(
    nvars: int,
    rows: list[tuple[list[Fraction], str, Fraction]],
    objective: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None]:
    # normalize to nonnegative right-hand sides
    norm = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        norm.append((coeffs, rel, rhs))

    nslack = sum(1 for _, rel, _ in norm if rel != EQ)
    nart = sum(1 for _, rel, _ in norm if rel != LE)
    ncols = nvars + nslack + nart
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    si, ai = nvars, nvars + nslack
    for coeffs, rel, rhs in norm:
        row = list(coeffs) + [_ZERO] * (nslack + nart) + [rhs]
        if rel == LE:
            row[si] = _ONE
            basis.append(si)
            si += 1
        elif rel == GE:
            row[si] = -_ONE
            si += 1
            row[ai] = _ONE
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        else:
            row[ai] = _ONE
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        tableau.append(row)

    real_cols = list(range(nvars + nslack))
    if art_cols:
        phase1 = [_ZERO] * ncols
        for c in art_cols:
            phase1[c] = -_ONE
        value = _run_simplex(tableau, basis, phase1, range(ncols))
        if value is None or value != 0:
            return ("infeasible", None)
        _purge_artificials(tableau, basis, set(art_cols), real_cols)

    cost = [_ZERO] * ncols
    for j in range(nvars):
        cost[j] = objective[j]
    value = _run_simplex(tableau, basis, cost, real_cols)
    if value is None:
        return ("unbounded", None)
    point = [_ZERO] * nvars
    for b, row in zip(basis, tableau):
        if b < nvars:
            point[b] = row[-1]
    return ("optimal", point)


def _purge_artificials(
    tableau: list[list[Fraction]],
    basis: list[int],
    art: set[int],
    real_cols: list[int],
) -> None:
    # Pivot basic artificials (at value 0 after phase 1) out on any real
    # column; a row with no real pivot is redundant and is dropped.
    for i in reversed(range(len(tableau))):
        if basis[i] not in art:
            continue
        pivot_col = next((j for j in real_cols if tableau[i][j] != 0), None)
        if pivot_col is None:
            del tableau[i]
            del basis[i]
        else:
            _pivot(tableau, basis, i, pivot_col)


def _certify(lp: LinearProgram, point: Sequence[Fraction], value: Fraction) -> None:
    for coeffs, rel, rhs in lp.rows:
        lhs = _dot(coeffs, point)
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
    for members in s.contexts:
        coeffs = [_ZERO] * len(labels)
        for a in members:
            coeffs[index[a]] = _ONE
        rows.append((tuple(coeffs), EQ, _ONE))
    for members in s.partial_contexts:
        coeffs = [_ZERO] * len(labels)
        for a in members:
            coeffs[index[a]] = _ONE
        rows.append((tuple(coeffs), LE, _ONE))
    return LinearProgram(
        variables=labels,
        objective=tuple([_ZERO] * len(labels)),
        rows=tuple(rows),
        lower=tuple([_ZERO] * len(labels)),
        upper=tuple([_ONE] * len(labels)),
    )


def _coeff_vector(labels: Sequence[str], coeffs: Mapping[str, object]) -> tuple[Fraction, ...]:
    known = set(labels)
    unknown = sorted(set(coeffs) - known)
    if unknown:
        raise UnknownLabelError(f"unknown labels in coefficients: {unknown}")
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


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump with p/q rationals, for debugging."""
    lines = ["maximize " + " + ".join(f"{format_rational(c)}*{v}" for c, v in zip(lp.objective, lp.variables))]
    lines.append("subject to")
    for coeffs, rel, rhs in lp.rows:
        terms = " + ".join(f"{format_rational(c)}*{v}" for c, v in zip(coeffs, lp.variables) if c != 0)
        lines.append(f"  {terms or '0'} {rel} {format_rational(rhs)}")
    for v, lo, up in zip(lp.variables, lp.lower, lp.upper):
        hi = format_rational(up) if up is not None else "inf"
        lines.append(f"  {format_rational(lo)} <= {v} <= {hi}")
    return "\n".join(lines)
