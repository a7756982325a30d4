import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from antictx.antiset import (
    add_constrained_outcome,
    add_context_normalization,
    add_inequality,
    evaluate_inequality,
    find_strong_antisets,
    inequality_from_antiset,
    inequality_to_json,
    load_inequality,
    verify_strong_antiset,
    verify_weak_antiset,
)
from antictx._cliques import maximal_cliques
from antictx.antidist import TripleOverlaps, triple_antidistinguishable
from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import (
    ConstraintMismatchError,
    DuplicateRayError,
    FailedTripleError,
    MissingLabelError,
    NotABasisError,
    ResourceLimitError,
    ScenarioParseError,
    UnknownLabelError,
)
from antictx.quantum import DensityOperator, PureStateSet, scenario_from_states
from antictx.ratlp import build_state_polytope, solve
from antictx.valuefns import enumerate_value_functions


def yu_oh_combined():
    rays = generate_states(FamilySpec("yu_oh_rays"))
    basis = generate_states(FamilySpec("yu_oh_principal"))
    return rays, basis, rays.union(basis)


def test_yu_oh_strong_antiset():
    rays, basis, combined = yu_oh_combined()
    aset = verify_strong_antiset(combined, rays.labels, basis.labels)
    assert aset.kind == "strong"
    assert len(aset.triple_log) == 18
    assert all(v.boundary and v.antidistinguishable for *_, v in aset.triple_log)
    # canonical triple order: lexicographic on (a, b, c)
    triples = [(a, b, c) for a, b, c, _ in aset.triple_log]
    assert triples == sorted(triples)


def test_hadamard_b0_strong_antiset():
    for d in (3, 4):
        b0 = generate_states(FamilySpec("hadamard", d, "B0"))
        basis = generate_states(FamilySpec("standard_basis", d))
        aset = verify_strong_antiset(b0.union(basis), b0.labels, basis.labels)
        expected_pairs = 2 ** (d - 1) * (2 ** (d - 1) - 1) // 2
        assert len(aset.triple_log) == expected_pairs * d


def test_hadamard_d2_pair_fails():
    b0 = generate_states(FamilySpec("hadamard", 2, "B0"))
    basis = generate_states(FamilySpec("standard_basis", 2))
    with pytest.raises(FailedTripleError):
        verify_strong_antiset(b0.union(basis), b0.labels, basis.labels)


def test_repeated_ray_fails_with_sum_one():
    r = 1 / math.sqrt(3)
    states = PureStateSet.from_pairs(
        3,
        [
            ("w1", [r, r, r]),
            ("w2", [-r, -r, -r]),  # same ray, opposite phase
            ("e1", [1, 0, 0]),
            ("e2", [0, 1, 0]),
            ("e3", [0, 0, 1]),
        ],
    )
    with pytest.raises(FailedTripleError) as exc:
        verify_strong_antiset(states, ["w1", "w2"], ["e1", "e2", "e3"])
    assert exc.value.verdict.margin_strict < 0


def test_principal_must_be_a_basis():
    rays, basis, combined = yu_oh_combined()
    with pytest.raises(NotABasisError):
        verify_strong_antiset(combined, ["a1", "a2"], ["c1", "c2"])
    with pytest.raises(NotABasisError):
        verify_strong_antiset(combined, ["a2", "a3"], ["c1", "c2", "a1"])


def test_basis_check_names_the_first_non_orthogonal_pair_in_row_order():
    # (p1, p4) and (p2, p3) are the only non-orthogonal principal pairs;
    # row-major order reaches (p1, p4) first, column order (p2, p3)
    r = 1 / math.sqrt(2)
    states = PureStateSet.from_pairs(
        4,
        [
            ("p1", [1, 0, 0, 0]),
            ("p2", [0, 1, 0, 0]),
            ("p3", [0, r, r, 0]),
            ("p4", [r, 0, 0, r]),
            ("w1", [0.5, 0.5, 0.5, 0.5]),
            ("w2", [0.5, -0.5, 0.5, -0.5]),
        ],
    )
    principal = ["p1", "p2", "p3", "p4"]
    for check in (verify_strong_antiset, find_strong_antisets):
        with pytest.raises(NotABasisError, match="'p1' and 'p4' are not orthogonal"):
            check(states, ["w1", "w2"], principal)


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_members_disjoint_from_principal(kind):
    if kind == "strong":
        rays, basis, combined = yu_oh_combined()
        with pytest.raises(ValueError, match=r"members and principal context overlap: \['c1'\]"):
            verify_strong_antiset(combined, ["a1", "c1"], basis.labels)
    else:
        states = generate_states(FamilySpec("maroney", 5))
        with pytest.raises(ValueError, match=r"members and principal overlap: \['c'\]"):
            verify_weak_antiset(states, ["a1", "c"], "c")


def test_antiset_checks_run_in_order():
    # at least two members, then disjointness, then the basis (strong
    # only), then unknown labels
    rays, basis, combined = yu_oh_combined()
    with pytest.raises(ValueError, match="at least two members"):
        verify_strong_antiset(combined, ["c1"], ["c1", "zz"])
    with pytest.raises(ValueError, match="overlap"):
        verify_strong_antiset(combined, ["zz", "c1"], ["c1", "c2"])
    with pytest.raises(NotABasisError):
        verify_strong_antiset(combined, ["zz", "a1"], ["c1", "c2"])
    with pytest.raises(UnknownLabelError, match="'zz'"):
        verify_strong_antiset(combined, ["zz", "a1"], basis.labels)
    with pytest.raises(ValueError, match="overlap"):
        verify_weak_antiset(combined, ["zz", "c1"], "c1")


def test_weak_antiset_with_an_unknown_principal():
    rays, basis, combined = yu_oh_combined()
    with pytest.raises(UnknownLabelError, match="'zz'"):
        verify_weak_antiset(combined, ["a1", "a2"], "zz")


def test_maroney_weak_antiset():
    states = generate_states(FamilySpec("maroney", 5))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(1, 5)], "c")
    assert aset.kind == "weak"
    assert aset.principal == "c"
    assert len(aset.triple_log) == 6


def test_sic_weak_antiset():
    states = generate_states(FamilySpec("sic", 3))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(2, 10)], "a1")
    assert len(aset.triple_log) == 28
    assert all(v.boundary for *_, v in aset.triple_log)


def test_weak_antiset_failure_on_superposition_principal():
    r = 1 / math.sqrt(2)
    states = PureStateSet.from_pairs(
        2, [("z0", [1, 0]), ("z1", [0, 1]), ("plus", [r, r])]
    )
    with pytest.raises(FailedTripleError):
        verify_weak_antiset(states, ["z0", "z1"], "plus")


def test_permuting_members_leaves_results_unchanged():
    rays, basis, combined = yu_oh_combined()
    a = verify_strong_antiset(combined, ["a1", "a2", "a3", "a4"], basis.labels)
    b = verify_strong_antiset(combined, ["a4", "a2", "a1", "a3"], basis.labels)
    assert a.members == b.members
    assert a.triple_log == b.triple_log
    assert inequality_from_antiset(a) == inequality_from_antiset(b)


def test_find_strong_antisets_yu_oh():
    rays, basis, combined = yu_oh_combined()
    found = find_strong_antisets(combined, rays.labels, basis.labels)
    assert len(found) == 1
    assert found[0].members == ("a1", "a2", "a3", "a4")


def test_find_strong_antisets_hadamard_rays():
    b0 = generate_states(FamilySpec("hadamard", 3, "B0"))
    basis = generate_states(FamilySpec("standard_basis", 3))
    found = find_strong_antisets(b0.union(basis), b0.labels, basis.labels)
    assert len(found) == 1
    assert len(found[0].members) == 4


def test_find_strong_antisets_orthogonal_pair():
    r3 = 1 / math.sqrt(3)
    r2 = 1 / math.sqrt(2)
    states = PureStateSet.from_pairs(
        3,
        [
            ("u", [r3, r3, r3]),
            ("w", [r2, -r2, 0]),
            ("e1", [1, 0, 0]),
            ("e2", [0, 1, 0]),
            ("e3", [0, 0, 1]),
        ],
    )
    found = find_strong_antisets(states, ["u", "w"], ["e1", "e2", "e3"])
    assert len(found) == 1
    assert found[0].members == ("u", "w")


def test_find_returns_empty_when_no_edges():
    r = 1 / math.sqrt(2)
    states = PureStateSet.from_pairs(
        2, [("p", [r, r]), ("m", [r, -r]), ("e1", [1, 0]), ("e2", [0, 1])]
    )
    assert find_strong_antisets(states, ["p", "m"], ["e1", "e2"]) == []


def random_pool(seed, n=9, d=4):
    """n rays in C^d, most of them unbiased to the standard basis, plus
    that basis; returns (states, pool labels, basis labels)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        if rng.random() < 0.75:
            v = np.exp(2j * np.pi * rng.random(d))
        else:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
        rows.append(v / np.linalg.norm(v))
    pool = [f"p{i}" for i in rng.permutation(n)]
    basis = [f"e{k}" for k in range(d)]
    states = PureStateSet(d, tuple(pool + basis), np.vstack(rows + list(np.eye(d, dtype=complex))))
    return states, pool, basis


def test_failed_triple_is_the_lexicographically_first():
    for seed in range(6):
        states, pool, basis = random_pool(seed)
        members = sorted(pool)
        triples = [(a, b, c) for a, b in itertools.combinations(members, 2) for c in sorted(basis)]
        failing = [
            t for t in triples
            if not triple_antidistinguishable(TripleOverlaps.from_states(states, *t)).antidistinguishable
        ]
        assert len(failing) > 1
        with pytest.raises(FailedTripleError) as exc:
            verify_strong_antiset(states, pool, basis[::-1])
        assert exc.value.triple == failing[0]
        weak = [(a, b, basis[0]) for a, b, c in failing if c == basis[0]]
        if weak:
            with pytest.raises(FailedTripleError) as exc:
                verify_weak_antiset(states, pool, basis[0])
            assert exc.value.triple == weak[0]


def test_find_matches_verify_on_every_subset():
    cliques = 0
    for seed in range(8):
        states, pool, basis = random_pool(seed)
        principal = basis[::-1]
        antisets = {}
        for size in range(2, len(pool) + 1):
            for members in itertools.combinations(sorted(pool), size):
                try:
                    antisets[members] = verify_strong_antiset(states, members, principal)
                except FailedTripleError:
                    pass
        maximal = [
            antisets[m] for m in sorted(antisets)
            if not any(set(m) < set(other) for other in antisets)
        ]
        found = find_strong_antisets(states, pool, principal)
        assert [a.members for a in found] == [a.members for a in maximal]
        for got, want in zip(found, maximal):
            assert (got.kind, got.principal) == (want.kind, want.principal)
            assert [e[:3] for e in got.triple_log] == [e[:3] for e in want.triple_log]
            for (*_, v), (*_, u) in zip(got.triple_log, want.triple_log):
                assert (v.antidistinguishable, v.boundary, v.via) == (u.antidistinguishable, u.boundary, u.via)
                assert abs(v.margin_strict - u.margin_strict) <= 1e-12
                assert abs(v.margin_quadratic - u.margin_quadratic) <= 1e-12
        cliques += sum(len(a.members) > 2 for a in found)
    assert cliques >= 3


def test_find_rejects_repeated_rays_in_the_pool():
    b0 = generate_states(FamilySpec("hadamard", 4, "B0"))
    b1 = generate_states(FamilySpec("hadamard", 4, "B1"))
    basis = generate_states(FamilySpec("standard_basis", 4))
    pool = b0.union(b1)
    with pytest.raises(DuplicateRayError, match="'0000' and '1111'"):
        find_strong_antisets(pool.union(basis), pool.labels, basis.labels)


def test_find_rejects_a_pool_that_overlaps_the_principal():
    rays, basis, combined = yu_oh_combined()
    with pytest.raises(ValueError, match=r"^pool and principal context overlap: \['c1'\]$"):
        find_strong_antisets(combined, rays.labels + ("c1",), basis.labels)


def test_find_obeys_the_node_budget():
    states, pool, basis = random_pool(3, n=12)
    with pytest.raises(ResourceLimitError):
        find_strong_antisets(states, pool, basis, node_budget=2)
    assert find_strong_antisets(states, pool, basis, node_budget=10**6) == find_strong_antisets(
        states, pool, basis
    )


def test_maximal_cliques_obeys_the_node_budget():
    # the 5-cycle: the root, three branches off pivot 0, five cliques
    adjacency = [{(i + 1) % 5, (i - 1) % 5} for i in range(5)]
    with pytest.raises(ResourceLimitError):
        maximal_cliques(5, adjacency, node_budget=8)
    expected = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert maximal_cliques(5, adjacency, node_budget=9) == expected


# ------------------------- global phases and antipodal duplicates: seeded
# properties of scenario generation and antiset search over MUB d=5 and a
# random C^4 pool


def _mub5_pool():
    states = generate_states(FamilySpec("mub", 5))
    basis = [a for a in states.labels if a.startswith("a1_")]
    return states, [a for a in states.labels if a not in basis], basis


def _c4_pool(seed):
    """`random_pool(seed)` plus a random basis (a context) and two vectors
    of another (a partial context)."""
    states, pool, basis = random_pool(seed, n=12)
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0] for _ in range(2))
    extra = PureStateSet(4, ("u0", "u1", "u2", "u3", "v0", "v1"), np.vstack([u.T, v.T[:2]]))
    return states.union(extra), pool, basis


def _rephased(states, rng):
    phases = np.exp(2j * np.pi * rng.random(len(states)))
    return PureStateSet(states.dimension, states.labels, states.vectors * phases[:, None])


def _verdicts(log):
    return [(a, b, c, v.antidistinguishable, v.boundary, v.via) for a, b, c, v in log]


def _first_failure(states, members, basis):
    try:
        verify_strong_antiset(states, members, basis)
    except FailedTripleError as exc:
        return exc.triple
    return None


def test_global_phases_change_no_scenario_and_no_antiset():
    rng = np.random.default_rng(2024)
    found = partial = failed = 0
    for states, pool, basis in [_mub5_pool()] + [_c4_pool(seed) for seed in range(4)]:
        s = scenario_from_states(states)
        antisets = find_strong_antisets(states, pool, basis)
        logs = [_verdicts(verify_strong_antiset(states, a.members, basis).triple_log) for a in antisets]
        failure = _first_failure(states, pool, basis)
        for _ in range(3):
            other = _rephased(states, rng)
            t = scenario_from_states(other)
            assert (t.contexts, t.partial_contexts) == (s.contexts, s.partial_contexts)
            again = find_strong_antisets(other, pool, basis)
            assert [a.members for a in again] == [a.members for a in antisets]
            for aset, log in zip(antisets, logs):
                assert _verdicts(verify_strong_antiset(other, aset.members, basis).triple_log) == log
            assert _first_failure(other, pool, basis) == failure
        found += len(antisets)
        partial += len(s.partial_contexts)
        failed += failure is not None
    assert found > 40 and partial and failed == 4


def test_antipodal_duplicate_is_named_by_scenario_generation_and_search():
    rng = np.random.default_rng(5)
    for states, pool, basis in [_mub5_pool()] + [_c4_pool(seed) for seed in range(3)]:
        for a in rng.choice(pool, 3, replace=False).tolist():
            twin = f"{a}_neg"
            doubled = states.union(PureStateSet(states.dimension, (twin,), -states.vectors[[states.index(a)]]))
            with pytest.raises(DuplicateRayError, match=f"'{a}' and '{twin}' are the same ray"):
                scenario_from_states(doubled)
            with pytest.raises(DuplicateRayError, match=f"'{a}' and '{twin}' are the same ray"):
                find_strong_antisets(doubled, pool + [twin], basis)


# ------------------------------------------------------------ inequalities


def test_yu_oh_inequality():
    rays, basis, combined = yu_oh_combined()
    aset = verify_strong_antiset(combined, rays.labels, basis.labels)
    ineq = inequality_from_antiset(aset)
    assert ineq.bound == 1
    assert ineq.kind == "state-independent"
    assert ineq.coefficient_map() == {a: Fraction(1) for a in rays.labels}
    assert not ineq.side_constraints


def test_maroney_inequality_is_state_dependent():
    states = generate_states(FamilySpec("maroney", 5))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(1, 5)], "c")
    ineq = inequality_from_antiset(aset)
    assert ineq.kind == "state-dependent"
    assert ineq.side_constraints == (("c", Fraction(1)),)


def test_hadamard_sum_of_inequalities():
    d = 4
    basis = generate_states(FamilySpec("standard_basis", d))
    b0 = generate_states(FamilySpec("hadamard", d, "B0"))
    b1 = generate_states(FamilySpec("hadamard", d, "B1"))
    i0 = inequality_from_antiset(
        verify_strong_antiset(b0.union(basis), b0.labels, basis.labels)
    )
    i1 = inequality_from_antiset(
        verify_strong_antiset(b1.union(basis), b1.labels, basis.labels)
    )
    total = add_inequality(i0, i1)
    assert total.bound == 2
    assert len(total.coefficients) == 2**d
    assert total.kind == "state-independent"


def test_mub_normalization_augmentation():
    states = generate_states(FamilySpec("mub", 5))
    principal = [f"a1_{k}" for k in range(1, 6)]
    members = [a for a in states.labels if not a.startswith("a1_")]
    ineq = inequality_from_antiset(verify_strong_antiset(states, members, principal))
    total = add_context_normalization(ineq, principal)
    assert total.bound == 2
    assert len(total.coefficients) == 30


def test_sic_constrained_outcome_augmentation():
    states = generate_states(FamilySpec("sic", 3))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(2, 10)], "a1")
    ineq = add_constrained_outcome(inequality_from_antiset(aset), "a1")
    assert ineq.bound == 2
    assert ineq.coefficient_map()["a1"] == 1
    assert ineq.kind == "state-dependent"


def test_constrained_outcome_requires_side_constraint():
    rays, basis, combined = yu_oh_combined()
    ineq = inequality_from_antiset(
        verify_strong_antiset(combined, rays.labels, basis.labels)
    )
    with pytest.raises(ConstraintMismatchError):
        add_constrained_outcome(ineq, "a1")


def test_context_normalization_needs_a_nonempty_context():
    rays, basis, combined = yu_oh_combined()
    ineq = inequality_from_antiset(verify_strong_antiset(combined, rays.labels, basis.labels))
    with pytest.raises(ConstraintMismatchError, match="^context normalization needs a nonempty context$"):
        add_context_normalization(ineq, [])


def test_context_normalization_shift_is_exactly_one_on_vertices():
    # for any state omega: the augmented lhs exceeds the original lhs by
    # exactly the context sum, which is exactly 1
    s = generate_scenario("antidist_example")
    ineq_coeffs = {"a1": Fraction(1), "a2": Fraction(1)}
    context = ("a1_perp", "a2_perp", "a3_perp")
    lp = build_state_polytope(s)
    labels = lp.variables
    import random

    rng = random.Random(13)
    for _ in range(20):
        objective = [Fraction(rng.randint(-3, 3)) for _ in labels]
        res = solve(lp.with_objective(objective))
        assert res.status == "optimal"
        omega = dict(zip(labels, res.point))
        base = sum((ineq_coeffs.get(a, Fraction(0)) * omega[a] for a in labels), Fraction(0))
        augmented_coeffs = dict(ineq_coeffs)
        for a in context:
            augmented_coeffs[a] = augmented_coeffs.get(a, Fraction(0)) + 1
        augmented = sum(
            (augmented_coeffs.get(a, Fraction(0)) * omega[a] for a in labels), Fraction(0)
        )
        assert augmented - base == 1


def test_emitted_bound_respected_by_embedded_scenario_value_functions():
    # strong antiset whose full antidistinguishing structure lives inside
    # the generated scenario: every value function respects the bound
    targets, cert_basis = ["a2", "a3"], None
    states = generate_states(FamilySpec("caves_example"))
    aset = verify_strong_antiset(
        states, targets, ["a1_perp", "a2_perp", "a3_perp"]
    )
    ineq = inequality_from_antiset(aset)
    assert ineq.bound == 1
    s = generate_scenario("antidist_example")
    for vf in enumerate_value_functions(s):
        assert sum(vf[a] for a in targets) <= 2  # bare scenario: only 2 is safe
    # embedding the missing pair structure tightens the count to the bound:
    # {a2, a3} plus each basis element forms an antidistinguishable triple
    # whose witness context is the basis itself for a1_perp, and fresh
    # gadgets for the other two
    from antictx.scenario import make_scenario
    from antictx.valuefns import brute_force_antiset_bound

    contexts = [["a1_perp", "a2_perp", "a3_perp"]]
    partials = [["a1", "a1_perp"], ["a2", "a2_perp"], ["a3", "a3_perp"]]
    fresh = 0
    gadget_outcomes = []
    for c in ("a1_perp", "a2_perp", "a3_perp"):
        blockers = [f"g{fresh + i}" for i in range(3)]
        fresh += 3
        gadget_outcomes += blockers
        contexts.append(blockers)
        for outcome, blocker in zip(("a2", "a3", c), blockers):
            partials.append([outcome, blocker])
    embedded = make_scenario(
        ["a1", "a2", "a3", "a1_perp", "a2_perp", "a3_perp"] + gadget_outcomes,
        contexts,
        partials,
    )
    assert brute_force_antiset_bound(embedded, targets) <= ineq.bound


# -------------------------------------------------------------- evaluation


def test_evaluate_yu_oh():
    rays, basis, combined = yu_oh_combined()
    ineq = inequality_from_antiset(
        verify_strong_antiset(combined, rays.labels, basis.labels)
    )
    report = evaluate_inequality(ineq, combined, DensityOperator.maximally_mixed(3))
    assert abs(report.lhs - 4 / 3) < 1e-9
    assert report.bound == 1
    assert report.violated
    assert report.side_constraints_satisfied


def test_evaluate_mub_any_state():
    states = generate_states(FamilySpec("mub", 5))
    principal = [f"a1_{k}" for k in range(1, 6)]
    members = [a for a in states.labels if not a.startswith("a1_")]
    ineq = add_context_normalization(
        inequality_from_antiset(verify_strong_antiset(states, members, principal)),
        principal,
    )
    rng = np.random.default_rng(5)
    for _ in range(3):
        report = evaluate_inequality(ineq, states, DensityOperator.random(5, rng))
        assert abs(report.lhs - 6.0) < 1e-9
        assert report.violated


def test_evaluate_sic_on_principal_state():
    states = generate_states(FamilySpec("sic", 3))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(2, 10)], "a1")
    ineq = add_constrained_outcome(inequality_from_antiset(aset), "a1")
    rho = DensityOperator.from_pure(states.vector("a1"))
    report = evaluate_inequality(ineq, states, rho)
    assert abs(report.lhs - 3.0) < 1e-9
    assert report.violated
    assert report.side_constraints_satisfied


def test_evaluate_side_constraint_violation_blocks_verdict():
    states = generate_states(FamilySpec("maroney", 5))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(1, 5)], "c")
    ineq = inequality_from_antiset(aset)
    rho = DensityOperator.from_pure(states.vector("a1"))
    report = evaluate_inequality(ineq, states, rho)
    assert not report.side_constraints_satisfied
    assert not report.violated


def test_evaluate_missing_label():
    states = generate_states(FamilySpec("yu_oh_rays"))
    ineq = load_inequality(
        b'{"coefficients": {"zz": "1"}, "bound": "1", "kind": "state-independent",'
        b' "side_constraints": [], "provenance": ""}'
    )
    with pytest.raises(MissingLabelError):
        evaluate_inequality(ineq, states, DensityOperator.maximally_mixed(3))


def test_evaluate_missing_side_constraint_label():
    states = generate_states(FamilySpec("yu_oh_rays"))
    ineq = load_inequality(
        b'{"coefficients": {"a1": "1"}, "bound": "1", "kind": "state-dependent",'
        b' "side_constraints": [{"label": "zz", "value": "1"}], "provenance": ""}'
    )
    with pytest.raises(MissingLabelError, match="'zz'"):
        evaluate_inequality(ineq, states, DensityOperator.maximally_mixed(3))


def test_inequality_json_round_trip():
    states = generate_states(FamilySpec("maroney", 5))
    aset = verify_weak_antiset(states, [f"a{j}" for j in range(1, 5)], "c")
    ineq = inequality_from_antiset(aset)
    assert load_inequality(inequality_to_json(ineq)) == ineq


PINNED_C1 = [{"label": "c1", "value": "1"}]


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "bogus"},
        {"kind": 5},
        {"provenance": [1]},
        {"kind": "state-independent", "side_constraints": PINNED_C1},
        {"kind": "state-dependent"},
        {"side_constraints": [{"label": 5, "value": "1"}, {"label": "zz", "value": "1"}]},
        {"side_constraints": [{"label": "c1", "value": "1"}, {"label": "c1", "value": "0"}]},
        {"side_constraints": [{"label": "c1", "value": "7"}]},
        {"side_constraints": [{"label": "c1", "value": "1/2"}]},
    ],
)
def test_load_inequality_rejects_a_kind_or_field_it_cannot_trust(fields):
    doc = {"coefficients": {"a1": "1"}, "bound": "1", **fields}
    with pytest.raises(ScenarioParseError):
        load_inequality(json.dumps(doc))


def test_load_inequality_rejects_an_extra_key_and_missing_coefficients():
    keys = "['bound', 'coefficients', 'kind', 'provenance', 'side_constraints']"
    with pytest.raises(ScenarioParseError, match=f"^inequality document keys must be within {re.escape(keys)}$"):
        load_inequality(json.dumps({"coefficients": {"a1": "1"}, "bound": "1", "extra": 1}))
    with pytest.raises(ScenarioParseError, match="^malformed inequality document: 'coefficients'$"):
        load_inequality(json.dumps({"bound": "1"}))


def test_load_inequality_derives_the_kind_from_the_side_constraints():
    doc = {"coefficients": {"a1": "1"}, "bound": "1"}
    assert load_inequality(json.dumps(doc)).kind == "state-independent"
    assert load_inequality(json.dumps({**doc, "side_constraints": PINNED_C1})).kind == "state-dependent"


def test_load_inequality_sorts_the_side_constraints():
    pinned = [{"label": "d", "value": "1"}, {"label": "c", "value": "1"}]
    doc = {"coefficients": {"a1": "1"}, "bound": "1", "provenance": "p"}
    loaded = [load_inequality(json.dumps({**doc, "side_constraints": order})) for order in (pinned, pinned[::-1])]
    assert loaded[0] == loaded[1]
    assert loaded[0].side_constraints == (("c", 1), ("d", 1))
    assert inequality_to_json(loaded[0]) == inequality_to_json(loaded[1])
