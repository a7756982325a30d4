"""The four workloads: seeded inputs, the operations of one pass, and checks.

`build(name, seed, work_dir)` imports antictx, makes every input from the
seed (the same seed gives the same inputs) and returns the operations of one
pass.  Each operation is a call into antictx's public API (or, in cli-cold,
one run of the `antictx` command) and comes with a check that the benchmark
runs on its output outside the timed region.  The checks use oracles written
here (brute-force filters, closed forms for disjoint contexts, exact
rational arithmetic), not the library's own algorithms.

Nothing here imports numpy or antictx at module level: the set-up time the
benchmark reports starts before those imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # seconds one pass takes at the seed commit on the reference machine
    # (2-core Xeon VM, Python 3.11); a run makes round(--seconds / this)
    # passes, so every run of every commit does the same work
    nominal_pass_s: float
    # the operations the traced run times; cli-cold swaps its subprocesses
    # for in-process calls, whose layers a tracer can see
    traced_ops: list[Op] | None = None


# ------------------------------------------------------------------ oracles


def brute_force_value_functions(s) -> list[tuple[int, ...]]:
    """Every 0/1 vector over the sorted outcomes that satisfies the two
    defining clauses, by filtering all 2^n assignments."""
    import numpy as np

    labels = sorted(s.outcomes)
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    keep = np.ones(2**n, dtype=bool)
    for members in s.contexts:
        keep &= bits[:, [index[a] for a in members]].sum(axis=1) == 1
    for members in s.partial_contexts:
        keep &= bits[:, [index[a] for a in members]].sum(axis=1) <= 1
    return [tuple(int(v) for v in row) for row in bits[keep]]


def check_value_function(s, assignment: dict) -> None:
    for members in s.contexts:
        expect(sum(assignment[a] for a in members) == 1, f"context {sorted(members)} not hit exactly once")
    for members in s.partial_contexts:
        expect(sum(assignment[a] for a in members) <= 1, f"partial context {sorted(members)} hit twice")


def check_sample(s, vfs, rng: random.Random, k: int = 40) -> None:
    for vf in [vfs[0], vfs[-1], *rng.sample(vfs, min(k, len(vfs)))]:
        check_value_function(s, vf.assignment)


def check_decomposition(state: dict, verdict) -> None:
    """A member verdict's weights must be a distribution reproducing `state`."""
    expect(verdict.status == "member", f"expected member, got {verdict.status}")
    weights = verdict.decomposition.weights
    expect(all(p > 0 for _, p in weights), "nonpositive weight")
    expect(sum(p for _, p in weights) == 1, "weights do not sum to 1")
    induced = {a: Fraction(0) for a in state}
    for vf, p in weights:
        for a, v in vf.assignment.items():
            induced[a] += p * v
    expect(induced == state, "decomposition does not reproduce the state")


def mixture(vectors: list[tuple[int, ...]], labels: list[str], weights: list[int]) -> dict:
    total = sum(weights)
    state = {a: Fraction(0) for a in labels}
    for vec, w in zip(vectors, weights):
        for a, v in zip(labels, vec):
            state[a] += Fraction(w * v, total)
    return state


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def triple_verdict_exact(x1: float, x2: float, x3: float) -> bool | None:
    """The overlap criterion in exact arithmetic on the floats' values;
    None within 1e-6 of either boundary, where float rounding may decide."""
    x1, x2, x3 = Fraction(x1), Fraction(x2), Fraction(x3)
    strict = 1 - x1 - x2 - x3
    quadratic = (x1 + x2 + x3 - 1) ** 2 - 4 * x1 * x2 * x3
    if abs(strict) < Fraction(1, 10**6) or abs(quadratic) < Fraction(1, 10**6):
        return None
    return strict > 0 and quadratic >= 0


# --------------------------------------------------------------- scenarios


def _basis_of(label: str) -> str:
    return label.split("_")[0]  # mub labels are a<basis>_<k>


def mub_scenario(d: int, k: int):
    """Scenario of the first k mutually unbiased bases in C^d (disjoint contexts)."""
    from antictx import ensembles, quantum

    states = ensembles.generate_states(ensembles.FamilySpec("mub", d))
    keep = [a for a in states.labels if int(_basis_of(a)[1:]) <= k]
    s = quantum.scenario_from_states(states.subset(keep))
    bases = sorted({_basis_of(a) for a in keep})
    expected = sorted(sorted(a for a in keep if _basis_of(a) == b) for b in bases)
    expect(sorted(sorted(m) for m in s.contexts) == expected and not s.partial_contexts,
           f"mub d={d} k={k}: contexts are not the bases")
    return s


def contexts_by_basis(s) -> list[list[str]]:
    groups: dict[str, list[str]] = {}
    for a in s.outcomes:
        groups.setdefault(_basis_of(a), []).append(a)
    return list(groups.values())


def hadamard_scenario(d: int):
    from antictx import ensembles, quantum

    return quantum.scenario_from_states(ensembles.generate_states(ensembles.FamilySpec("hadamard", d, "B0")))


def cycle_scenario(n: int):
    from antictx import scenario

    labels = [f"v{i:02d}" for i in range(n)]
    return scenario.make_scenario(labels, [], [[labels[i], labels[(i + 1) % n]] for i in range(n)])


def random_scenario(rng: random.Random, max_outcomes: int):
    """Same shape as the test suite's random scenarios: up to five sets of
    up to four outcomes, split into contexts and partial contexts."""
    from antictx import scenario

    while True:
        n = rng.randint(2, max_outcomes)
        labels = [f"o{i:02d}" for i in range(n)]
        sets = [frozenset(rng.sample(labels, rng.randint(1, min(4, n)))) for _ in range(rng.randint(1, 5))]
        m_count = rng.randint(0, len(sets))

        def antichain(family):
            kept = []
            for candidate in family:
                if not any(candidate <= other or other <= candidate for other in kept):
                    kept.append(candidate)
            return kept

        contexts = antichain(sets[:m_count])
        partials = [x for x in antichain(sets[m_count:]) if x not in set(contexts)]
        s = scenario.make_scenario(labels, contexts, partials)
        if scenario.validate_scenario(s).valid:
            return s


# ------------------------------------------------------------- vf-search


def _seeded_coeffs(rng: random.Random, labels) -> dict[str, int]:
    return {a: rng.randint(-4, 9) for a in labels}


def _mub_ops(tag: str, s, d: int, k: int, rng: random.Random, full: bool) -> list[Op]:
    from antictx import ratlp, valuefns

    groups = contexts_by_basis(s)
    count = d**k
    ones = {a: 1 for a in s.outcomes}
    coeffs = _seeded_coeffs(rng, s.outcomes)
    # disjoint contexts: the best value function takes each context's maximum
    best = sum(max(coeffs[a] for a in g) for g in groups)
    check_rng = random.Random(rng.random())

    def enumerate_check(vfs):
        expect(len(vfs) == count, f"{tag}: {len(vfs)} value functions, expected {count}")
        check_sample(s, vfs, check_rng)

    def bound_check(expected_bound, weights):
        def check(result):
            expect(result.bound == expected_bound, f"{tag}: classical bound {result.bound} != {expected_bound}")
            expect(result.value_function_count == count, f"{tag}: count {result.value_function_count}")
            check_value_function(s, result.maximizer.assignment)
            expect(sum(weights[a] for a in result.maximizer.support()) == result.bound, f"{tag}: maximizer value")
        return check

    def optimum_check(expected_value):
        def check(result):
            expect(result.status == "optimal" and result.value == expected_value,
                   f"{tag}: state optimum {result.status} {result.value} != {expected_value}")
        return check

    def antiset_op(members):
        hit = sum(1 for g in groups if set(g) & set(members))

        def check(result):
            expect(result == hit, f"{tag}: antiset bound {result} != {hit}")
        return Op(f"{tag}:antiset_bound", lambda: valuefns.brute_force_antiset_bound(s, members), check)

    enumerate_op = Op(f"{tag}:enumerate", lambda: valuefns.enumerate_value_functions(s), enumerate_check)
    optimize_op = Op(f"{tag}:state_optimize", lambda: ratlp.state_optimize(s, coeffs), optimum_check(best))
    if not full:
        return [enumerate_op, optimize_op]

    # one definite outcome in each of two seeded bases
    definite = [rng.choice(g) for g in rng.sample(groups, 2)]

    def definite_check(vfs):
        expect(len(vfs) == d ** (k - len(definite)), f"{tag}: definite intersection has {len(vfs)}")
        expect(all(vf[a] == 1 for vf in vfs[:50] for a in definite), f"{tag}: definite outcome not set")

    return [
        enumerate_op,
        Op(f"{tag}:classical_bound_ones", lambda: valuefns.classical_bound(s, ones), bound_check(k, ones)),
        Op(f"{tag}:classical_bound", lambda: valuefns.classical_bound(s, coeffs), bound_check(best, coeffs)),
        Op(f"{tag}:state_optimize_ones", lambda: ratlp.state_optimize(s, ones), optimum_check(k)),
        optimize_op,
        antiset_op(rng.sample(s.outcomes, 8)),
        antiset_op(rng.sample(s.outcomes, 3)),
        Op(f"{tag}:definite", lambda: valuefns.definite_intersection(s, definite), definite_check),
    ]


def build_vf_search(seed: int, work_dir: Path) -> Workload:
    from antictx import valuefns

    rng = random.Random(seed)
    ops = []
    ops += _mub_ops("mub5x6", mub_scenario(5, 6), 5, 6, rng, full=True)
    ops += _mub_ops("mub7x5", mub_scenario(7, 5), 7, 5, rng, full=True)
    ops += _mub_ops("mub7x6", mub_scenario(7, 6), 7, 6, rng, full=False)

    had6 = hadamard_scenario(6)
    check_rng = random.Random(rng.random())

    def had6_check(vfs):
        expect(len(vfs) == 133_111, f"hadamard6: {len(vfs)} value functions, expected 133111")
        check_sample(had6, vfs, check_rng)

    ops.append(Op("hadamard6:enumerate", lambda: valuefns.enumerate_value_functions(had6), had6_check))

    had8 = hadamard_scenario(8)
    expect(len(had8.contexts) == 480 and len(had8.outcomes) == 128, "hadamard8: expected 480 contexts")
    coeffs8 = _seeded_coeffs(rng, had8.outcomes)

    def had8_check(result):
        expect(result.value_function_count == 4096, f"hadamard8: {result.value_function_count} value functions")
        check_value_function(had8, result.maximizer.assignment)
        expect(sum(coeffs8[a] for a in result.maximizer.support()) == result.bound, "hadamard8: maximizer value")

    ops.append(Op("hadamard8:classical_bound", lambda: valuefns.classical_bound(had8, coeffs8), had8_check))
    return Workload("vf-search", ops, nominal_pass_s=11.5)


# ----------------------------------------------------------- membership-lp

# Random scenarios are drawn until every stratum, a range of value-function
# counts (LP columns) at one outcome count (LP rows), holds RANDOM_QUOTA of
# them, so that every seed gets the same mix of LP shapes.  Drawn freely, the
# median operation latency varied by 60% from seed to seed.
RANDOM_STRATA = {
    (1, 4): (2, 3, 4, 5),
    (5, 8): (4, 5, 6),
    (9, 16): (5, 6, 7),
    (17, 32): (6, 7, 8),
    (33, 64): (7, 8, 9),
}
RANDOM_QUOTA = 3


def _random_scenario_ops(index: int, s, vectors, rng: random.Random) -> list[Op]:
    from antictx import ratlp, scenario, valuefns

    blob = scenario.save_scenario(s)
    labels = sorted(s.outcomes)
    tag = f"random{index:02d}"
    k = min(rng.randint(1, 3), len(vectors))
    state = mixture(rng.sample(vectors, k), labels, [rng.randint(1, 5) for _ in range(k)])
    coeffs = _seeded_coeffs(rng, labels)
    classical = max(sum(coeffs[a] * v for a, v in zip(labels, vec)) for vec in vectors)

    def enumerate_check(vfs):
        expect([vf.values for vf in vfs] == vectors, f"{tag}: value functions differ from the 2^n filter")

    def optimize_check(result):
        expect(result.status == "optimal", f"{tag}: state optimum {result.status}")
        point = dict(zip(labels, result.point))
        expect(all(0 <= v <= 1 for v in point.values()), f"{tag}: point outside the box")
        expect(all(sum(point[a] for a in m) == 1 for m in s.contexts), f"{tag}: context sum")
        expect(all(sum(point[a] for a in m) <= 1 for m in s.partial_contexts), f"{tag}: partial sum")
        expect(sum(coeffs[a] * point[a] for a in labels) == result.value, f"{tag}: objective")
        expect(classical <= result.value, f"{tag}: classical bound {classical} > state bound {result.value}")

    def uniqueness_check(result):
        expect(result.status != "no-state", f"{tag}: value functions exist but no state")
        if len(vectors) >= 2:
            expect(result.status == "non-unique", f"{tag}: two value functions but {result.status}")
        elif result.status == "unique":
            expect(tuple(v for _, v in result.point) == vectors[0], f"{tag}: unique point")

    return [
        Op(f"{tag}:enumerate", lambda: valuefns.enumerate_value_functions(scenario.load_scenario(blob)), enumerate_check),
        Op(f"{tag}:membership", lambda: valuefns.is_noncontextual_state(scenario.load_scenario(blob), state),
           partial(check_decomposition, state)),
        Op(f"{tag}:state_optimize", lambda: ratlp.state_optimize(scenario.load_scenario(blob), coeffs), optimize_check),
        Op(f"{tag}:state_uniqueness", lambda: ratlp.state_uniqueness(scenario.load_scenario(blob)), uniqueness_check),
    ]


def _polytope_ops(tag: str, s, vectors, members: list[dict], coeffs, best, non_member: dict | None) -> list[Op]:
    from antictx import ratlp, valuefns

    ops = [
        Op(f"{tag}:membership", partial(valuefns.is_noncontextual_state, s, state), partial(check_decomposition, state))
        for state in members
    ]
    if non_member is not None:
        def not_member_check(verdict):
            expect(verdict.status == "not-member", f"{tag}: omega=1/2 judged {verdict.status}")
        ops.append(Op(f"{tag}:membership_half", lambda: valuefns.is_noncontextual_state(s, non_member), not_member_check))

    def optimize_check(result):
        expect(result.status == "optimal" and result.value == best, f"{tag}: state optimum {result.value} != {best}")

    def uniqueness_check(result):
        expect(result.status == "non-unique", f"{tag}: state space {result.status}")

    def enumerate_check(vfs):
        expect(len(vfs) == len(vectors), f"{tag}: {len(vfs)} value functions, expected {len(vectors)}")

    return ops + [
        Op(f"{tag}:enumerate", lambda: valuefns.enumerate_value_functions(s), enumerate_check),
        Op(f"{tag}:state_optimize", lambda: ratlp.state_optimize(s, coeffs), optimize_check),
        Op(f"{tag}:state_uniqueness", lambda: ratlp.state_uniqueness(s), uniqueness_check),
    ]


def build_membership_lp(seed: int, work_dir: Path) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []

    quotas = {(span, n): RANDOM_QUOTA for span, ns in RANDOM_STRATA.items() for n in ns}
    drawn = []
    for _ in range(20_000):
        if not any(quotas.values()):
            break
        s = random_scenario(rng, 12)
        vectors = brute_force_value_functions(s)
        for (lo, hi), n in quotas:
            if lo <= len(vectors) <= hi and n == len(s.outcomes) and quotas[(lo, hi), n]:
                quotas[(lo, hi), n] -= 1
                drawn.append((s, vectors))
    expect(not any(quotas.values()), "random scenario quotas not filled")
    drawn.sort(key=lambda pair: (len(pair[1]), len(pair[0].outcomes)))
    for index, (s, vectors) in enumerate(drawn):
        ops += _random_scenario_ops(index, s, vectors, rng)

    # three of the six mutually unbiased bases of C^5: 125 LP columns
    mub = mub_scenario(5, 3)
    labels = sorted(mub.outcomes)
    groups = contexts_by_basis(mub)
    vectors = brute_force_value_functions(mub)
    expect(len(vectors) == 125, "mub5x3: expected 125 value functions")
    # the uniform state, and mixtures of 1-3 value functions at fixed,
    # evenly spread positions with seeded weights: which functions are mixed
    # decides the pivot count, and seeded picks made it vary 2.4-4.2 s a pass
    members = [{a: Fraction(1, 5) for a in labels}]
    for k in (1, 2, 3) * 3:
        picks = [vectors[(len(members) * 37 + 41 * j) % len(vectors)] for j in range(k)]
        members.append(mixture(picks, labels, [rng.randint(1, 5) for _ in range(k)]))
    coeffs = _seeded_coeffs(rng, labels)
    best = sum(max(coeffs[a] for a in g) for g in groups)
    ops += _polytope_ops("mub5x3", mub, vectors, members, coeffs, best, None)

    # odd Klyachko cycles at omega = 1/2: Lucas(n) columns, never a member.
    # The member query on C_11 and C_13 mixes the three lexicographically
    # last value functions: a seeded two-function mixture on C_13 costs
    # from 0.2 to 1.6 s depending on the seed, the uniform mixture 4 s.
    for n in (9, 11, 13):
        s = cycle_scenario(n)
        labels = sorted(s.outcomes)
        vectors = brute_force_value_functions(s)
        expect(len(vectors) == lucas(n), f"cycle{n}: brute force found {len(vectors)}, not Lucas({n})")
        if n == 9:
            state = mixture(rng.sample(vectors, 2), labels, [rng.randint(1, 5), rng.randint(1, 5)])
        else:
            state = mixture(vectors[-3:], labels, [1, 1, 1])
        half = {a: Fraction(1, 2) for a in labels}
        ones = {a: 1 for a in labels}
        ops += _polytope_ops(f"cycle{n}", s, vectors, [state], ones, Fraction(n, 2), half)
    return Workload("membership-lp", ops, nominal_pass_s=7.0)


# ---------------------------------------------------------- antiset-search


def _strong_verify_op(tag: str, states, members, principal) -> Op:
    from antictx import antiset

    d = len(principal)
    expected = d * math.comb(len(set(members)), 2)

    def check(aset):
        expect(len(aset.triple_log) == expected, f"{tag}: {len(aset.triple_log)} triples, expected {expected}")
        expect(all(v.antidistinguishable for *_, v in aset.triple_log), f"{tag}: failed triple in log")

    return Op(f"{tag}:verify_strong", lambda: antiset.verify_strong_antiset(states, members, principal), check)


def _haar_unitary(rng, d: int):
    import numpy as np

    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pool(reference_seed: int, seed: int, n: int = 80, d: int = 5):
    """n random rays in C^d plus a basis, all turned by a seeded unitary.

    The rays come from a fixed reference draw; the seed picks the unitary
    and the labels' order.  Overlaps, and so the compatibility graph and
    its cliques, are the same for every seed, while every vector and the
    search order differ.  Independent draws vary from 1,793 to 2,725
    cliques (0.9-1.7 s), too wide for the benchmark's bounds.
    """
    import numpy as np

    from antictx import quantum

    ref = np.random.default_rng(reference_seed)
    rays = ref.normal(size=(n, d)) + 1j * ref.normal(size=(n, d))
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    rng = np.random.default_rng([seed, reference_seed])
    u = _haar_unitary(rng, d)
    names = [f"r{int(i):03d}" for i in rng.permutation(n)]
    pool = quantum.PureStateSet(d, tuple(names), rays @ u.T)
    basis = quantum.PureStateSet(d, tuple(f"e{k + 1}" for k in range(d)), np.eye(d, dtype=complex) @ u.T)
    return pool.union(basis), list(pool.labels), list(basis.labels)


def build_antiset_search(seed: int, work_dir: Path) -> Workload:
    import numpy as np

    from antictx import antidist, antiset, ensembles, quantum
    from antictx.ensembles import FamilySpec
    from antictx.quantum import DensityOperator

    rng = random.Random(seed)
    ops: list[Op] = []

    mub = {}
    for d in (5, 7, 11):
        states = ensembles.generate_states(FamilySpec("mub", d))
        principal = [f"a1_{k}" for k in range(1, d + 1)]
        members = [a for a in states.labels if not a.startswith("a1_")]
        mub[d] = (states, members, principal)
        ops.append(_strong_verify_op(f"mub{d}", states, members, principal))

    for d in (7, 8):
        b0 = ensembles.generate_states(FamilySpec("hadamard", d, "B0"))
        basis = ensembles.generate_states(FamilySpec("standard_basis", d))
        states = b0.union(basis)
        expected = d * math.comb(len(b0), 2)

        def find_check(found, tag=f"hadamard{d}", pool=b0.labels, expected=expected):
            expect(len(found) == 1 and found[0].members == tuple(sorted(pool)), f"{tag}: expected the whole pool")
            expect(len(found[0].triple_log) == expected, f"{tag}: triple log length")

        ops.append(Op(f"hadamard{d}:find_strong",
                      partial(antiset.find_strong_antisets, states, b0.labels, basis.labels),
                      find_check))

    for reference in (1, 2):
        states, pool, principal = random_pool(reference, seed)

        def pool_check(found, tag=f"pool{reference}"):
            expect(len(found) > 100, f"{tag}: only {len(found)} antisets")
            expect(len({a.members for a in found}) == len(found), f"{tag}: repeated antiset")
            for a in found:
                expect(len(a.triple_log) == 5 * math.comb(len(a.members), 2), f"{tag}: triple log length")

        ops.append(Op(f"pool{reference}:find_strong",
                      partial(antiset.find_strong_antisets, states, pool, principal),
                      pool_check))

    weak = []
    for d in (4, 5, 6, 7):
        states = ensembles.generate_states(FamilySpec("maroney", d))
        weak.append((f"maroney{d}", states, [f"a{j}" for j in range(1, d)], "c"))
    sic = ensembles.generate_states(FamilySpec("sic", 3))
    weak.append(("sic3", sic, [f"a{j}" for j in range(2, 10)], "a1"))
    for tag, states, members, principal in weak:
        expected = math.comb(len(members), 2)

        def weak_check(aset, tag=tag, expected=expected):
            expect(aset.kind == "weak" and len(aset.triple_log) == expected, f"{tag}: weak antiset triples")

        ops.append(Op(f"{tag}:verify_weak",
                      partial(antiset.verify_weak_antiset, states, members, principal),
                      weak_check))

    # inequalities built in set-up, evaluated against their known quantum values
    states5, members5, principal5 = mub[5]
    mub_ineq = antiset.add_context_normalization(
        antiset.inequality_from_antiset(antiset.verify_strong_antiset(states5, members5, principal5)), principal5)
    b0 = ensembles.generate_states(FamilySpec("hadamard", 6, "B0"))
    b1 = ensembles.generate_states(FamilySpec("hadamard", 6, "B1"))
    basis6 = ensembles.generate_states(FamilySpec("standard_basis", 6))
    had_ineq = antiset.add_inequality(
        antiset.inequality_from_antiset(antiset.verify_strong_antiset(b0.union(basis6), b0.labels, basis6.labels)),
        antiset.inequality_from_antiset(antiset.verify_strong_antiset(b1.union(basis6), b1.labels, basis6.labels)))
    maroney7 = weak[3][1]
    maroney_ineq = antiset.inequality_from_antiset(antiset.verify_weak_antiset(maroney7, weak[3][2], "c"))
    sic_ineq = antiset.add_constrained_outcome(
        antiset.inequality_from_antiset(antiset.verify_weak_antiset(sic, weak[4][2], "a1")), "a1")
    evaluations = [
        ("mub5", mub_ineq, states5, DensityOperator.maximally_mixed(5), 6.0),
        ("hadamard6", had_ineq, b0.union(b1), DensityOperator.maximally_mixed(6), 64 / 6),
        ("maroney7", maroney_ineq, maroney7, DensityOperator.from_pure(maroney7.vector("c")), 2.0),
        ("sic3", sic_ineq, sic, DensityOperator.from_pure(sic.vector("a1")), 3.0),
    ]
    for tag, ineq, states, rho, value in evaluations:
        def evaluate_check(report, tag=tag, value=value):
            expect(abs(report.lhs - value) <= 1e-8 and report.violated, f"{tag}: lhs {report.lhs}, expected {value}")

        ops.append(Op(f"{tag}:evaluate",
                      partial(antiset.evaluate_inequality, ineq, states, rho),
                      evaluate_check))

    mub11 = mub[11][0]

    def mub11_check(s):
        expect(len(s.contexts) == 12 and not s.partial_contexts, "mub11: expected 12 contexts")

    def had8_check(s):
        expect(len(s.contexts) == 480 and len(s.outcomes) == 128, "hadamard8: expected 480 contexts")

    had8_pool = ensembles.generate_states(FamilySpec("hadamard", 8, "B0"))
    ops.append(Op("mub11:scenario_from_states", lambda: quantum.scenario_from_states(mub11), mub11_check))
    ops.append(Op("hadamard8:scenario_from_states", lambda: quantum.scenario_from_states(had8_pool), had8_check))

    def triple_batch(triples):
        return [antidist.triple_antidistinguishable(antidist.TripleOverlaps(*t)) for t in triples]

    # squared overlaps of random ray triples, 250 in each of C^3..C^10
    np_rng = np.random.default_rng([seed, 3])
    for batch in range(4):
        triples = []
        for d in range(3, 11):
            v = np_rng.normal(size=(250, 3, d)) + 1j * np_rng.normal(size=(250, 3, d))
            v /= np.linalg.norm(v, axis=2)[:, :, None]
            g = np.abs(np.einsum("tid,tjd->tij", v.conj(), v)) ** 2
            triples += [(float(x1), float(x2), float(x3)) for x1, x2, x3 in zip(g[:, 1, 2], g[:, 0, 2], g[:, 0, 1])]
        expected = [triple_verdict_exact(*t) for t in triples]

        def triples_check(verdicts, expected=expected, tag=f"triples{batch}"):
            for got, want in zip(verdicts, expected):
                expect(want is None or got.antidistinguishable == want, f"{tag}: verdict differs from exact criterion")

        ops.append(Op(f"triples{batch}:triple_antidistinguishable",
                      partial(triple_batch, triples),
                      triples_check))

    return Workload("antiset-search", ops, nominal_pass_s=9.0)


# ---------------------------------------------------------------- cli-cold

CLI_ENTRY = "import sys; from antictx.cli import main; sys.exit(main())"


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


@dataclass
class CliOutput:
    code: int
    stdout: bytes
    stderr: bytes


def _cli_ops(tag: str, argv: list[str], code: int, check_payload, src: Path, work_dir: Path) -> tuple[Op, Op]:
    """The same command as a subprocess (timed run) and in-process (traced run)."""
    from antictx import cli

    def run_subprocess():
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], capture_output=True,
                              env=cli_env(src), cwd=work_dir, timeout=120)
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)

    def run_in_process():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return CliOutput(rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))

    def check(result: CliOutput):
        expect(result.code == code, f"{tag}: exit code {result.code}, expected {code}: {result.stderr[-300:]!r}")
        check_payload(json.loads(result.stdout))

    return Op(tag, run_subprocess, check), Op(tag, run_in_process, check)


def build_cli_cold(seed: int, work_dir: Path) -> Workload:
    from antictx import antiset, ensembles, quantum, scenario
    from antictx.ensembles import FamilySpec

    rng = random.Random(seed)
    src = Path(ensembles.__file__).resolve().parent.parent
    files = {}

    def write(name: str, data: bytes) -> str:
        path = work_dir / name
        path.write_bytes(data)
        files[name] = str(path)
        return str(path)

    klyachko = ensembles.generate_scenario("klyachko")
    write("klyachko.json", scenario.save_scenario(klyachko))
    write("half.json", json.dumps({"state": {a: "1/2" for a in klyachko.outcomes}}).encode())
    coeffs = _seeded_coeffs(rng, klyachko.outcomes)
    write("coeffs.json", json.dumps({"coeffs": coeffs}).encode())
    labels = sorted(klyachko.outcomes)
    classical = max(sum(coeffs[a] * v for a, v in zip(labels, vec))
                    for vec in brute_force_value_functions(klyachko))

    caves = ensembles.generate_states(FamilySpec("caves_example"))
    write("caves.json", quantum.save_states(caves))
    cert = json.loads(quantum.save_states(caves.subset(["a1", "a2", "a3", "a1_perp", "a2_perp", "a3_perp"])))
    cert["targets"] = ["a1", "a2", "a3"]
    write("cert.json", json.dumps(cert).encode())

    rays = ensembles.generate_states(FamilySpec("yu_oh_rays"))
    principal = ensembles.generate_states(FamilySpec("yu_oh_principal"))
    yu_oh = rays.union(principal)
    write("yu_oh.json", quantum.save_states(yu_oh))
    ineq = antiset.inequality_from_antiset(antiset.verify_strong_antiset(yu_oh, rays.labels, principal.labels))
    write("ineq.json", antiset.inequality_to_json(ineq))

    mub5 = quantum.scenario_from_states(ensembles.generate_states(FamilySpec("mub", 5)))
    write("mub5.json", scenario.save_scenario(mub5))

    # seeded overlaps p/q, away from the criterion's boundary
    while True:
        overlaps = [Fraction(rng.randint(0, 12), 36) for _ in range(3)]
        verdict = triple_verdict_exact(*(float(x) for x in overlaps))
        if verdict is not None:
            break

    def payload_is(**expected):
        def check(doc):
            for key, value in expected.items():
                expect(doc.get(key) == value, f"{key} = {doc.get(key)!r}, expected {value!r}")
        return check

    def generated_klyachko(doc):
        expect(doc == json.loads(scenario.save_scenario(klyachko)), "generate klyachko: document differs")

    def mub_states(doc):
        expect(doc["dimension"] == 5 and len(doc["states"]) == 30, "generate mub: expected 30 states in C^5")

    def evaluated(doc):
        expect(doc["violated"] and abs(doc["lhs"] - 4 / 3) <= 1e-9, f"evaluate: lhs {doc['lhs']}")

    def emitted(doc):
        expect(doc["bound"] == "1" and doc["coefficients"] == {a: "1" for a in rays.labels}, "emit: inequality")

    def listing(doc):
        expect(doc["count"] == 15625 and len(doc["value_functions"]) == 15625, "value-functions: listing size")
        expect(all(sum(vf.values()) == 6 for vf in doc["value_functions"]), "value-functions: a listed function")

    def reproduced(rows):
        expect(len(rows) == 15 and all(row["pass"] for row in rows), "reproduce: not all 15 rows pass")

    j = ["--format", "json"]
    commands = [
        ("generate", ["generate", "klyachko", *j], 0, generated_klyachko),
        ("validate", ["validate", files["klyachko.json"], *j], 0, payload_is(valid=True)),
        ("classical-bound", ["classical-bound", files["klyachko.json"], "--coeffs", files["coeffs.json"], *j], 0,
         payload_is(bound=str(classical))),
        ("state-bound", ["state-bound", files["klyachko.json"], "--coeffs", "ones", *j], 0, payload_is(value="5/2")),
        ("membership", ["membership", files["klyachko.json"], "--state", files["half.json"], *j], 1,
         payload_is(member=False)),
        ("check-anti-overlaps", ["check-anti", "--overlaps", ",".join(map(str, overlaps)), *j], 0 if verdict else 1,
         payload_is(antidistinguishable=verdict)),
        ("check-anti-vectors", ["check-anti", "--vectors", files["caves.json"], "--triple", "a1,a2,a3", *j], 0,
         payload_is(antidistinguishable=True, boundary=True)),
        ("check-anti-certificate", ["check-anti", "--certificate", files["cert.json"], *j], 0, payload_is(valid=True)),
        ("antiset-verify", ["antiset", "verify", files["yu_oh.json"], "--members", "a1,a2,a3,a4",
                            "--principal", "c1,c2,c3", *j], 0, payload_is(verified=True, triple_count=18)),
        ("inequality-emit", ["inequality", "emit", "--vectors", files["yu_oh.json"], "--members", "a1,a2,a3,a4",
                             "--principal", "c1,c2,c3", *j], 0, emitted),
        ("inequality-evaluate", ["inequality", "evaluate", "--ineq", files["ineq.json"], "--vectors",
                                 files["yu_oh.json"], "--rho", "mixed", *j], 0, evaluated),
        ("generate-mub", ["generate", "mub", "--d", "5", *j], 0, mub_states),
        ("value-functions-count", ["value-functions", files["mub5.json"], "--count-only", *j], 0,
         payload_is(count=15625)),
        ("value-functions-listing", ["value-functions", files["mub5.json"], *j], 0, listing),
        ("reproduce", ["reproduce", *j], 0, reproduced),
    ]
    pairs = [_cli_ops(tag, argv, code, check, src, work_dir) for tag, argv, code, check in commands]
    return Workload("cli-cold", [p[0] for p in pairs], nominal_pass_s=6.5, traced_ops=[p[1] for p in pairs])


BUILDERS = {
    "vf-search": build_vf_search,
    "membership-lp": build_membership_lp,
    "antiset-search": build_antiset_search,
    "cli-cold": build_cli_cold,
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    return BUILDERS[name](seed, work_dir)
