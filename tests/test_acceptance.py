"""Acceptance suite: every headline number, at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them inline).
Exact quantities are compared with zero tolerance in rational arithmetic;
floating-point quantities at the tolerance stated next to each assertion.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from antictx.antidist import (
    TripleOverlaps,
    corollary_check,
    scenario_antidistinguishable,
    triple_antidistinguishable,
)
from antictx.antiset import (
    add_constrained_outcome,
    add_context_normalization,
    add_inequality,
    evaluate_inequality,
    inequality_from_antiset,
    verify_strong_antiset,
    verify_weak_antiset,
)
from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import FailedTripleError
from antictx.quantum import (
    DensityOperator,
    frame_operator,
    gram,
    scenario_from_states,
)
from antictx.ratlp import state_optimize, state_uniqueness
from antictx.scenario import load_scenario, save_scenario
from antictx.valuefns import (
    classical_bound,
    definite_intersection,
    enumerate_value_functions,
    is_noncontextual_state,
)

from helpers import naive_value_functions, random_scenario

TOL = 1e-9


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_specker():
    with criterion("1 specker"):
        s = generate_scenario("specker")
        assert enumerate_value_functions(s) == []
        unique = state_uniqueness(s)
        assert unique.status == "unique"
        assert dict(unique.point) == {a: Fraction(1, 2) for a in "abc"}


def test_criterion_2_no_state_scenario():
    with criterion("2 no-state"):
        s = generate_scenario("no_state_example")
        assert state_optimize(s, {a: 1 for a in s.outcomes}).status == "infeasible"


def test_criterion_3_klyachko():
    with criterion("3 klyachko"):
        s = generate_scenario("klyachko")
        ones = {a: 1 for a in s.outcomes}
        bound = classical_bound(s, ones)
        assert bound.bound == Fraction(2)
        assert bound.value_function_count == 11
        assert len(naive_value_functions(s)) == 11
        assert state_optimize(s, ones).value == Fraction(5, 2)
        half = {a: Fraction(1, 2) for a in s.outcomes}
        assert is_noncontextual_state(s, half).status == "not-member"


def test_criterion_4_example3_bridge():
    with criterion("4 example3-bridge"):
        states = generate_states(FamilySpec("caves_example"))
        generated = scenario_from_states(states, tol=TOL)
        target = generate_scenario("antidist_example")
        assert generated == target
        assert definite_intersection(target, ["a1", "a2", "a3"]) == []
        verdict = scenario_antidistinguishable(target, ["a1", "a2", "a3"])
        assert verdict.antidistinguishable
        assert verdict.context == ("a1_perp", "a2_perp", "a3_perp")


def test_criterion_5_yu_oh():
    with criterion("5 yu-oh"):
        rays = generate_states(FamilySpec("yu_oh_rays"))
        basis = generate_states(FamilySpec("yu_oh_principal"))
        combined = rays.union(basis)
        aset = verify_strong_antiset(combined, rays.labels, basis.labels, tol=TOL)
        assert len(aset.triple_log) == 18
        for *_, verdict in aset.triple_log:
            assert verdict.boundary
            assert abs(verdict.margin_quadratic) <= TOL
        ineq = inequality_from_antiset(aset)
        assert ineq.bound == Fraction(1)
        _, lam = frame_operator(rays, tol=TOL)
        assert lam is not None and abs(lam - 4 / 3) <= TOL
        mixed = DensityOperator.maximally_mixed(3)
        report = evaluate_inequality(ineq, combined, mixed, tol=TOL)
        assert abs(report.lhs - 4 / 3) <= TOL
        assert report.violated
        rng = np.random.default_rng(20)
        values = [
            evaluate_inequality(
                ineq, combined, DensityOperator.random(3, rng), tol=TOL
            ).lhs
            for _ in range(20)
        ]
        assert all(abs(v - 4 / 3) <= TOL for v in values)
        assert max(values) - min(values) <= 1e-8


@pytest.mark.parametrize("d,expected", [(3, 8 / 3), (4, 4.0), (5, 32 / 5), (6, 32 / 3)])
def test_criterion_6_hadamard(d, expected):
    with criterion(f"6 hadamard-d{d}"):
        basis = generate_states(FamilySpec("standard_basis", d))
        b0 = generate_states(FamilySpec("hadamard", d, "B0"))
        b1 = generate_states(FamilySpec("hadamard", d, "B1"))
        ineq0 = inequality_from_antiset(
            verify_strong_antiset(b0.union(basis), b0.labels, basis.labels, tol=TOL)
        )
        ineq1 = inequality_from_antiset(
            verify_strong_antiset(b1.union(basis), b1.labels, basis.labels, tol=TOL)
        )
        assert ineq0.bound == ineq1.bound == Fraction(1)
        total = add_inequality(ineq0, ineq1)
        assert total.bound == Fraction(2)
        full = b0.union(b1)
        report = evaluate_inequality(
            total, full, DensityOperator.maximally_mixed(d), tol=TOL
        )
        assert abs(report.lhs - expected) <= TOL
        assert report.violated == (d >= 3)


def test_criterion_6_hadamard_d2_antiset_fails():
    with criterion("6 hadamard-d2-complement"):
        basis = generate_states(FamilySpec("standard_basis", 2))
        b0 = generate_states(FamilySpec("hadamard", 2, "B0"))
        with pytest.raises(FailedTripleError):
            verify_strong_antiset(b0.union(basis), b0.labels, basis.labels, tol=TOL)


def test_criterion_7_mub():
    with criterion("7 mub-d5"):
        states = generate_states(FamilySpec("mub", 5))
        g = gram(states)
        for i, a in enumerate(states.labels):
            for j in range(i + 1, len(states)):
                b = states.labels[j]
                expected = 0.0 if a.split("_")[0] == b.split("_")[0] else 1 / 5
                assert abs(g.overlaps[i, j] - expected) <= TOL
        principal = [f"a1_{k}" for k in range(1, 6)]
        members = [a for a in states.labels if not a.startswith("a1_")]
        assert len(members) == 25
        aset = verify_strong_antiset(states, members, principal, tol=TOL)
        ineq = add_context_normalization(inequality_from_antiset(aset), principal)
        assert ineq.bound == Fraction(2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            report = evaluate_inequality(
                ineq, states, DensityOperator.random(5, rng), tol=TOL
            )
            assert abs(report.lhs - 6.0) <= TOL
            assert report.violated
        assert triple_antidistinguishable(
            TripleOverlaps(0.25, 0.25, 0.25, TOL)
        ).antidistinguishable
        assert triple_antidistinguishable(
            TripleOverlaps(0.2, 0.2, 0.2, TOL)
        ).antidistinguishable
        assert not triple_antidistinguishable(
            TripleOverlaps(1 / 3, 1 / 3, 1 / 3, TOL)
        ).antidistinguishable


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_criterion_8_maroney(d):
    with criterion(f"8 maroney-d{d}"):
        states = generate_states(FamilySpec("maroney", d))
        members = [f"a{j}" for j in range(1, d)]
        aset = verify_weak_antiset(states, members, "c", tol=TOL)
        ineq = inequality_from_antiset(aset)
        assert ineq.kind == "state-dependent"
        assert ineq.side_constraints == (("c", Fraction(1)),)
        rho = DensityOperator.from_pure(states.vector("c"))
        report = evaluate_inequality(ineq, states, rho, tol=TOL)
        assert abs(report.lhs - (d - 1) / 3) <= TOL
        assert report.side_constraints_satisfied
        assert report.violated == (d >= 5)


def test_criterion_9_sic():
    with criterion("9 sic-d3"):
        states = generate_states(FamilySpec("sic", 3))
        g = gram(states)
        for i in range(9):
            for j in range(i + 1, 9):
                assert abs(g.overlaps[i, j] - 0.25) <= TOL
        f, lam = frame_operator(states, tol=TOL)
        assert lam is not None and abs(lam - 3.0) <= TOL
        assert np.abs(f - 3.0 * np.eye(3)).max() <= TOL
        members = [f"a{j}" for j in range(2, 10)]
        aset = verify_weak_antiset(states, members, "a1", tol=TOL)
        assert all(v.boundary for *_, v in aset.triple_log)
        ineq = add_constrained_outcome(inequality_from_antiset(aset), "a1")
        assert ineq.bound == Fraction(2)
        rho = DensityOperator.from_pure(states.vector("a1"))
        report = evaluate_inequality(ineq, states, rho, tol=TOL)
        assert abs(report.lhs - 3.0) <= TOL
        assert report.side_constraints_satisfied
        assert report.violated


def test_criterion_10a_sufficient_condition_implies_criterion():
    with criterion("10a sufficient-condition-implies-criterion"):
        rng = random.Random(100)
        counterexamples = 0
        for _ in range(100_000):
            x = TripleOverlaps(rng.random(), rng.random(), rng.random(), TOL)
            if corollary_check(x) and not triple_antidistinguishable(x).antidistinguishable:
                counterexamples += 1
        assert counterexamples == 0


def test_criterion_10b_classical_bound_vs_naive():
    with criterion("10b classical-bound-vs-naive"):
        rng = random.Random(200)
        checked = 0
        while checked < 200:
            s = random_scenario(rng, max_outcomes=10)
            naive = naive_value_functions(s)
            if not naive:
                continue
            labels = sorted(s.outcomes)
            coeffs = {a: Fraction(rng.randint(-3, 3)) for a in labels}
            expected = max(
                sum((coeffs[a] for a, bit in zip(labels, bits) if bit), Fraction(0))
                for bits in naive
            )
            assert classical_bound(s, coeffs).bound == expected
            checked += 1


def test_criterion_10c_decompositions_reconstruct_exactly():
    with criterion("10c decompositions-reconstruct"):
        rng = random.Random(300)
        checked = 0
        while checked < 40:
            s = random_scenario(rng, max_outcomes=8)
            vfs = enumerate_value_functions(s)
            if not vfs:
                continue
            chosen = rng.sample(vfs, min(len(vfs), 4))
            raw = [Fraction(rng.randint(1, 7)) for _ in chosen]
            total = sum(raw)
            state = {
                a: sum((w * vf[a] for vf, w in zip(chosen, raw)), Fraction(0)) / total
                for a in s.outcomes
            }
            verdict = is_noncontextual_state(s, state)
            assert verdict.is_member
            assert verdict.decomposition.induced_state() == state
            weights = [p for _, p in verdict.decomposition.weights]
            assert sum(weights) == 1
            assert all(0 <= p <= 1 for p in weights)
            checked += 1


def test_criterion_10d_fixture_round_trips(fixtures_dir):
    with criterion("10d fixture-round-trips"):
        for name in ("specker.json", "klyachko.json", "antidist_example.json", "no_state.json"):
            blob = (fixtures_dir / name).read_bytes()
            assert save_scenario(load_scenario(blob)) == blob


def test_criterion_10e_permutation_invariance():
    with criterion("10e permutation-invariance"):
        rng = random.Random(400)
        for _ in range(10_000):
            values = (rng.random(), rng.random(), rng.random())
            verdicts = {
                triple_antidistinguishable(TripleOverlaps(*p, TOL)).antidistinguishable
                for p in itertools.permutations(values)
            }
            assert len(verdicts) == 1
