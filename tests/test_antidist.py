import itertools
import json
import random

import numpy as np
import pytest

from antictx.antidist import (
    AntidistCertificate,
    TripleOverlaps,
    corollary_check,
    load_certificate,
    scenario_antidistinguishable,
    triple_antidistinguishable,
    triple_criterion,
    verify_certificate,
)
from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import (
    DimensionMismatchError,
    OverlapRangeError,
    ResourceLimitError,
    ScenarioParseError,
    UnknownLabelError,
)
from antictx.quantum import PureStateSet, gram, scenario_from_states
from antictx.scenario import make_scenario, validate_scenario

from helpers import naive_antidistinguishable, random_scenario


def test_yu_oh_triple_is_boundary_antidistinguishable():
    verdict = triple_antidistinguishable(TripleOverlaps(1 / 9, 1 / 3, 1 / 3))
    assert verdict.antidistinguishable
    assert verdict.boundary
    assert abs(verdict.margin_strict - 2 / 9) < 1e-12
    assert abs(verdict.margin_quadratic) < 1e-12


def test_orthogonal_triple():
    verdict = triple_antidistinguishable(TripleOverlaps(0, 0, 0))
    assert verdict.antidistinguishable
    assert not verdict.boundary


def test_sum_one_fails_strictly():
    verdict = triple_antidistinguishable(TripleOverlaps(1, 0, 0))
    assert not verdict.antidistinguishable
    verdict = triple_antidistinguishable(TripleOverlaps(1 / 3, 1 / 3, 1 / 3))
    assert not verdict.antidistinguishable


def test_sic_triple_is_boundary():
    verdict = triple_antidistinguishable(TripleOverlaps(0.25, 0.25, 0.25))
    assert verdict.antidistinguishable
    assert verdict.boundary


def test_quadratic_condition_can_fail_alone():
    # sum < 1 but (sum-1)^2 < 4 x1 x2 x3
    x = TripleOverlaps(0.3, 0.3, 0.3)
    verdict = triple_antidistinguishable(x)
    assert verdict.margin_strict > 0
    assert verdict.margin_quadratic < 0
    assert not verdict.antidistinguishable


def test_overlaps_out_of_range():
    with pytest.raises(OverlapRangeError):
        TripleOverlaps(1.5, 0, 0)
    # values within tolerance are clamped
    x = TripleOverlaps(1.0 + 1e-12, -1e-12, 0)
    assert x.x1 == 1.0
    assert x.x2 == 0.0


def test_overlap_range_follows_the_given_tolerance():
    with pytest.raises(OverlapRangeError):
        TripleOverlaps(1.0 + 1e-7, 0, 0)
    x = TripleOverlaps(1.0 + 1e-7, -1e-7, 0, 1e-6)
    assert (x.x1, x.x2, x.x3) == (1.0, 0.0, 0.0)
    assert x == TripleOverlaps(1.0, 0.0, 0.0)


def test_overlaps_report_their_tolerance():
    assert TripleOverlaps(0.1, 0.1, 0.1, 1e-6).tol == 1e-6
    assert TripleOverlaps(0.1, 0.1, 0.1, tol=1e-3).tol == 1e-3
    assert TripleOverlaps(0.1, 0.1, 0.1).tol == 1e-9
    assert TripleOverlaps(1.0, 0.0, 0.0, 1e-6) == TripleOverlaps(1.0, 0.0, 0.0)


def _family_triples():
    """Overlaps (x1, x2, x3) of every (pair, principal outcome) triple of
    the Yu-Oh, Hadamard d=4 and MUB d=3 and d=5 antisets."""
    cases = [
        (generate_states(FamilySpec("yu_oh_rays")).union(generate_states(FamilySpec("yu_oh_principal"))), 4),
        (generate_states(FamilySpec("hadamard", 4, "B0")).union(generate_states(FamilySpec("standard_basis", 4))), 8),
        (generate_states(FamilySpec("mub", 3)), 9),
        (generate_states(FamilySpec("mub", 5)), 25),
    ]
    out = []
    for states, m in cases:
        o = gram(states).overlaps
        out += [
            (o[j, c], o[i, c], o[i, j])
            for i, j in itertools.combinations(range(m), 2)
            for c in range(m, len(states))
        ]
    return out


def test_array_criterion_equals_scalar_verdicts():
    rng = random.Random(79)
    tol = 1e-9
    edges = [-tol, -tol / 2, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 1.0 + tol / 2, 1.0 + tol]
    triples = _family_triples() + [(0.25, 0.25, 0.25), (1 / 9, 1 / 3, 1 / 3)]
    triples += [tuple(rng.random() for _ in range(3)) for _ in range(3000)]
    triples += [tuple(rng.random() / 3 for _ in range(3)) for _ in range(3000)]
    triples += [tuple(rng.choice(edges + [rng.random()]) for _ in range(3)) for _ in range(500)]
    x = np.array(triples)
    strict, quadratic, ok, boundary = triple_criterion(x[:, 0], x[:, 1], x[:, 2], tol)
    assert ok.dtype == bool and boundary.dtype == bool
    assert boundary.sum() > 100 and ok.any() and not ok.all()
    for t, triple in enumerate(triples):
        verdict = triple_antidistinguishable(TripleOverlaps(*map(float, triple), tol), tol)
        assert verdict.antidistinguishable == ok[t]
        assert verdict.boundary == boundary[t]
        assert verdict.margin_strict == strict[t]
        assert verdict.margin_quadratic == quadratic[t]
    # and with a looser tolerance, and triples broadcast against one overlap
    loose = triple_criterion(x[:, :1], x[:1, 1:], 0.3, 1e-3)
    assert loose[0].shape == (len(triples), 2)
    for t, k in ((0, 0), (7, 1), (len(triples) - 1, 1)):
        verdict = triple_antidistinguishable(TripleOverlaps(float(x[t, 0]), float(x[0, 1 + k]), 0.3, 1e-3), 1e-3)
        assert (verdict.margin_strict, verdict.margin_quadratic) == (loose[0][t, k], loose[1][t, k])
        assert (verdict.antidistinguishable, verdict.boundary) == (loose[2][t, k], loose[3][t, k])


def test_array_criterion_rejects_overlaps_beyond_the_tolerance():
    with pytest.raises(OverlapRangeError, match="x2 = 1.5 "):
        triple_criterion([0.1, 0.1], [1.5, 0.1], [0.1, -2.0])
    with pytest.raises(OverlapRangeError, match="x3 = -2.0 "):
        triple_criterion([0.1, 0.1], [0.1, 1.5], [-2.0, 0.1])
    with pytest.raises(OverlapRangeError, match="x1 = "):
        triple_criterion([1.0 + 2e-9], [0.0], [0.0])
    with pytest.raises(OverlapRangeError):
        triple_criterion([0.0], [-2e-9], [0.0])
    with pytest.raises(OverlapRangeError):
        triple_criterion([0.0], [0.0], [1.0 + 1e-7], 1e-8)
    strict, *_ = triple_criterion([1.0 + 1e-7], [-1e-7], [0.0], 1e-6)
    assert strict.tolist() == [0.0]


def test_nan_overlaps_are_rejected():
    nan = float("nan")
    with pytest.raises(OverlapRangeError, match="x1 = nan "):
        TripleOverlaps(nan, 0.1, 0.1)
    with pytest.raises(OverlapRangeError, match="x3 = nan "):
        TripleOverlaps(0.1, 0.1, nan, 0.5)
    with pytest.raises(OverlapRangeError, match="x1 = nan "):
        triple_criterion(nan, 0.1, 0.1)
    with pytest.raises(OverlapRangeError, match="x2 = nan "):
        triple_criterion([0.1, 0.1], [0.1, nan], [0.1, 0.1])
    # one NaN broadcast against a column of triples names the first triple
    with pytest.raises(OverlapRangeError, match="x1 = nan "):
        triple_criterion(nan, np.full((4, 1), 0.1), [0.1, 0.2])


def test_corollary_examples():
    assert corollary_check(TripleOverlaps(0.2, 0.2, 0.2))
    assert corollary_check(TripleOverlaps(0.25, 0.25, 0.25))
    assert not corollary_check(TripleOverlaps(1 / 3, 1 / 9, 1 / 9))
    # the condition is only sufficient: the full criterion still accepts this one
    assert triple_antidistinguishable(TripleOverlaps(1 / 9, 1 / 9, 1 / 3)).antidistinguishable


def test_sufficient_condition_implies_criterion_on_random_triples():
    rng = random.Random(77)
    for _ in range(20000):
        x = TripleOverlaps(rng.random(), rng.random(), rng.random())
        if corollary_check(x):
            assert triple_antidistinguishable(x).antidistinguishable


def test_criterion_verdict_is_permutation_invariant():
    rng = random.Random(78)
    for _ in range(2000):
        values = (rng.random(), rng.random(), rng.random())
        verdicts = {
            triple_antidistinguishable(TripleOverlaps(*perm)).antidistinguishable
            for perm in itertools.permutations(values)
        }
        assert len(verdicts) == 1


# ------------------------------------------------------------ certificates


def test_caves_certificate_is_valid(fixtures_dir):
    targets, cert = load_certificate((fixtures_dir / "caves_certificate.json").read_bytes())
    report = verify_certificate(targets, cert)
    assert report.valid
    assert report.max_residual() < 1e-9


def test_distinguishable_states_are_antidistinguishable():
    targets = PureStateSet.from_pairs(3, [("t0", [1, 0, 0]), ("t1", [0, 1, 0])])
    basis = PureStateSet.from_pairs(
        3, [("b0", [0, 1, 0]), ("b1", [1, 0, 0]), ("b2", [0, 0, 1])]
    )
    report = verify_certificate(targets, AntidistCertificate(("t0", "t1"), basis))
    assert report.valid
    assert report.residual_extra == 0.0


def test_extra_basis_vectors_must_avoid_all_targets():
    # the second basis vector is orthogonal to the target, but the unused
    # third one is not, so the certificate cannot rule anything out with it
    targets = PureStateSet.from_pairs(2, [("t", [1, 0])])
    basis = PureStateSet.from_pairs(2, [("b0", [0, 1]), ("b1", [1, 0])])
    report = verify_certificate(targets, AntidistCertificate(("t",), basis))
    assert not report.valid
    assert report.residual_matched < 1e-12
    assert abs(report.residual_extra - 1.0) < 1e-12


def test_identity_pairing_fails_with_residual_one():
    targets = PureStateSet.from_pairs(3, [("t", [1, 0, 0])])
    basis = PureStateSet.from_pairs(
        3, [("b0", [1, 0, 0]), ("b1", [0, 1, 0]), ("b2", [0, 0, 1])]
    )
    report = verify_certificate(targets, AntidistCertificate(("t",), basis))
    assert not report.valid
    assert abs(report.residual_matched - 1.0) < 1e-12


def test_certificate_residuals_equal_the_pairwise_inner_products():
    rng = np.random.default_rng(2024)
    ulp = np.spacing(1.0)

    def unit_rows(k, d):
        m = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    for _ in range(60):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, d + 1))
        b = np.linalg.qr(unit_rows(d, d))[0].T  # orthonormal rows
        t = unit_rows(n, d)
        targets = PureStateSet.from_pairs(d, [(f"t{j}", v) for j, v in enumerate(t)])
        basis = PureStateSet.from_pairs(d, [(f"b{k}", v) for k, v in enumerate(b)])
        report = verify_certificate(targets, AntidistCertificate(targets.labels, basis))
        matched = max(abs(np.vdot(b[j], t[j])) for j in range(n))
        extra = max((abs(np.vdot(b[k], t[j])) for k in range(n, d) for j in range(n)), default=0.0)
        orth = np.abs(b @ b.conj().T - np.eye(d)).max()
        assert abs(report.residual_matched - matched) <= 4 * ulp
        assert abs(report.residual_extra - extra) <= 4 * ulp
        assert report.residual_orthonormality == orth


def test_certificate_needs_at_least_one_target(fixtures_dir):
    doc = json.loads((fixtures_dir / "caves_certificate.json").read_text())
    doc["targets"] = []
    with pytest.raises(ScenarioParseError, match="at least one state"):
        load_certificate(json.dumps(doc))
    basis = PureStateSet.from_pairs(2, [("b0", [1, 0]), ("b1", [0, 1])])
    with pytest.raises(ValueError, match="at least one target"):
        verify_certificate(basis.subset([]), AntidistCertificate((), basis))


@pytest.mark.parametrize(
    "targets, message",
    [
        (None, "certificate document needs a 'targets' key"),
        ("a1", "'targets' must be a list of labels"),
        (["zz"], r"targets not present in states: \['zz'\]"),
    ],
)
def test_certificate_targets_must_name_listed_states(fixtures_dir, targets, message):
    doc = json.loads((fixtures_dir / "caves_certificate.json").read_text())
    if targets is None:
        del doc["targets"]
    else:
        doc["targets"] = targets
    with pytest.raises(ScenarioParseError, match=f"^{message}$"):
        load_certificate(json.dumps(doc))


def test_certificate_basis_must_be_a_full_basis_of_the_targets_space():
    target = PureStateSet.from_pairs(2, [("t", [1, 0])])
    basis = PureStateSet.from_pairs(3, [("b0", [0, 1, 0]), ("b1", [0, 0, 1])])
    with pytest.raises(DimensionMismatchError, match="^targets and basis live in different dimensions$"):
        verify_certificate(target, AntidistCertificate(("t",), basis))
    target = PureStateSet.from_pairs(3, [("t", [1, 0, 0])])
    with pytest.raises(DimensionMismatchError, match="^basis must have exactly 3 vectors$"):
        verify_certificate(target, AntidistCertificate(("t",), basis))


def test_certificate_bridges_to_combinatorial_definition(fixtures_dir):
    targets, cert = load_certificate((fixtures_dir / "caves_certificate.json").read_bytes())
    assert verify_certificate(targets, cert).valid
    combined = targets.union(cert.basis)
    s = scenario_from_states(combined)
    verdict = scenario_antidistinguishable(s, targets.labels)
    assert verdict.antidistinguishable


# ------------------------------------------------------- scenario search


def test_example3_targets_witnessed_by_perp_context():
    s = generate_scenario("antidist_example")
    verdict = scenario_antidistinguishable(s, ["a1", "a2", "a3"])
    assert verdict.antidistinguishable
    assert verdict.context == ("a1_perp", "a2_perp", "a3_perp")
    assert verdict.blockers == (("a1", "a1_perp"), ("a2", "a2_perp"), ("a3", "a3_perp"))


def test_classical_singleton_is_not_antidistinguishable():
    s = generate_scenario("classical", 3)
    assert not scenario_antidistinguishable(s, ["x1"]).antidistinguishable


def test_specker_singleton_witness():
    s = generate_scenario("specker")
    verdict = scenario_antidistinguishable(s, ["c"])
    assert verdict.antidistinguishable
    assert verdict.context == ("a", "b")
    assert verdict.blockers == (("c", "a"),)


def test_unknown_labels_and_empty_set():
    s = generate_scenario("specker")
    with pytest.raises(UnknownLabelError):
        scenario_antidistinguishable(s, ["zz"])
    with pytest.raises(UnknownLabelError):
        scenario_antidistinguishable(s, [])


def _blocked_by_all_but_one(n: int):
    """n targets that each share a partial context with the same n - 1 of
    the n members of one context: Hall's condition fails only on all of them."""
    context = [f"c{j:02d}" for j in range(n)]
    targets = [f"t{i:02d}" for i in range(n)]
    parts = [[t, c] for t in targets for c in context[:-1]]
    return make_scenario(context + targets, [context], parts), targets


def _one_target_apart(n: int):
    """n targets and a context of n members; every target but the last
    shares a partial context with every member, the last with none."""
    context = [f"c{j:02d}" for j in range(n)]
    targets = [f"t{i:02d}" for i in range(n)]
    parts = [[t, c] for t in targets[:-1] for c in context]
    return make_scenario(context + targets, [context], parts), targets


def test_witness_search_obeys_the_node_budget():
    # the matching visits 198 edges before Hall's condition fails on all 12 targets
    s, targets = _blocked_by_all_but_one(12)
    with pytest.raises(ResourceLimitError, match="antidistinguishability search exceeded 100 nodes"):
        scenario_antidistinguishable(s, targets, node_budget=100)
    assert not scenario_antidistinguishable(s, targets, node_budget=200).antidistinguishable


def test_one_target_apart_is_decided_within_a_small_budget():
    # the permutation scan would try all 12! blocker assignments here
    s, targets = _one_target_apart(12)
    assert validate_scenario(s).valid
    assert not scenario_antidistinguishable(s, targets, node_budget=10_000).antidistinguishable
    s, targets = _one_target_apart(40)
    assert not scenario_antidistinguishable(s, targets).antidistinguishable


def _dense_single_context(rng: random.Random):
    """One context of 2..7 members among up to 3 extra outcomes, with up to
    12 random partial contexts of two outcomes not both in the context."""
    n = rng.randint(2, 7)
    labels = [f"o{i}" for i in range(n + rng.randint(0, 3))]
    context = rng.sample(labels, n)
    parts = {frozenset(rng.sample(labels, 2)) for _ in range(rng.randint(0, 12))}
    parts = [sorted(p) for p in parts if not p <= set(context)]
    return make_scenario(labels, [context], parts), rng.sample(labels, rng.randint(1, min(4, n)))


def test_matching_agrees_with_the_permutation_scan():
    rng = random.Random(2024)
    cases = []
    for _ in range(3000):
        s = random_scenario(rng, max_outcomes=9)
        cases.append((s, rng.sample(sorted(s.outcomes), rng.randint(1, min(4, len(s.outcomes))))))
    cases += [_dense_single_context(rng) for _ in range(300)]
    positive = 0
    for s, targets in cases:
        verdict = scenario_antidistinguishable(s, targets)
        assert verdict == naive_antidistinguishable(s, targets)
        positive += verdict.antidistinguishable
    assert positive > 600  # both verdicts are well represented


def _assert_witness(s, targets, verdict):
    """The verdict's context, blockers and pair contexts witness it."""
    sets = {frozenset(t) for t in s.all_sets()}
    assert frozenset(verdict.context) in set(s.contexts)
    assert [a for a, _ in verdict.blockers] == sorted(set(targets))
    perps = [perp for _, perp in verdict.blockers]
    assert len(set(perps)) == len(perps) and set(perps) <= set(verdict.context)
    named = {}
    for a, b, t in verdict.pair_contexts:
        assert a != b and {a, b} <= set(t) and frozenset(t) in sets
        named[a, b] = t
    assert all((a, perp) in named for a, perp in verdict.blockers)
    leftover = set(verdict.context) - set(perps)
    assert all((a, c) in named for c in leftover for a in targets)
    assert len(named) == len(verdict.pair_contexts) == len(targets) * (1 + len(leftover))


def test_verdict_survives_relabeling_and_every_witness_checks():
    rng = random.Random(77)
    positive = 0
    for k in range(600):
        if k % 2:
            s, targets = _dense_single_context(rng)
        else:
            s = random_scenario(rng, max_outcomes=8)
            targets = rng.sample(sorted(s.outcomes), rng.randint(1, min(3, len(s.outcomes))))
        verdict = scenario_antidistinguishable(s, targets)
        fresh = dict(zip(s.outcomes, (f"r{j:03d}" for j in rng.sample(range(1000), len(s.outcomes)))))
        relabeled = make_scenario(
            [fresh[a] for a in s.outcomes],
            [[fresh[a] for a in m] for m in s.contexts],
            [[fresh[a] for a in m] for m in s.partial_contexts],
        )
        renamed = [fresh[a] for a in targets]
        other = scenario_antidistinguishable(relabeled, renamed)
        assert other.antidistinguishable == verdict.antidistinguishable
        if verdict.antidistinguishable:
            positive += 1
            _assert_witness(s, targets, verdict)
            _assert_witness(relabeled, renamed, other)
    assert positive > 100


def test_monotone_under_added_sets():
    rng = random.Random(31)
    found = 0
    while found < 15:
        s = random_scenario(rng, max_outcomes=7)
        if not s.contexts:
            continue
        targets = rng.sample(sorted(s.outcomes), rng.randint(1, 2))
        if not scenario_antidistinguishable(s, targets).antidistinguishable:
            continue
        found += 1
        # graft two fresh outcomes and a fresh partial context; verdict stays
        extra = make_scenario(
            list(s.outcomes) + ["zz1", "zz2"],
            s.contexts,
            list(s.partial_contexts) + [["zz1", "zz2"]],
        )
        assert validate_scenario(extra).valid
        assert scenario_antidistinguishable(extra, targets).antidistinguishable
