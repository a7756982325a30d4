import copy
import gc
import inspect
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from antictx import antidist, ratlp, scenario, valuefns
from antictx.antidist import scenario_antidistinguishable
from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import (
    EmptyPolytopeError,
    NotAStateError,
    ResourceLimitError,
    UnknownLabelError,
)
from antictx.quantum import scenario_from_states
from antictx.ratlp import LinearProgram, solve
from antictx.scenario import Scenario, make_scenario
from antictx.valuefns import (
    brute_force_antiset_bound,
    classical_bound,
    count_value_functions,
    definite_intersection,
    enumerate_value_functions,
    is_noncontextual_state,
    ValueFunction,
    parse_state_json,
)

from helpers import naive_value_functions, random_scenario


def test_specker_has_no_value_functions():
    assert enumerate_value_functions(generate_scenario("specker")) == []


def test_klyachko_has_eleven_value_functions():
    s = generate_scenario("klyachko")
    vfs = enumerate_value_functions(s)
    assert len(vfs) == 11
    assert [vf.values for vf in vfs] == naive_value_functions(s)


def test_example3_has_twelve_value_functions():
    s = generate_scenario("antidist_example")
    vfs = enumerate_value_functions(s)
    assert len(vfs) == 12
    assert [vf.values for vf in vfs] == naive_value_functions(s)


def test_enumeration_is_lexicographic():
    s = generate_scenario("klyachko")
    vectors = [vf.values for vf in enumerate_value_functions(s)]
    assert vectors == sorted(vectors)


def test_every_value_function_satisfies_both_clauses():
    for name in ("klyachko", "antidist_example"):
        s = generate_scenario(name)
        for vf in enumerate_value_functions(s):
            for m in s.contexts:
                assert sum(vf[a] for a in m) == 1
            for n in s.partial_contexts:
                assert sum(vf[a] for a in n) <= 1


def test_node_budget_is_enforced():
    with pytest.raises(ResourceLimitError):
        enumerate_value_functions(generate_scenario("klyachko"), node_budget=3)


def test_definite_intersection_empty_for_antidistinguishable_targets():
    s = generate_scenario("antidist_example")
    assert definite_intersection(s, ["a1", "a2", "a3"]) == []


def test_definite_intersection_pair_leaves_one_function():
    s = generate_scenario("antidist_example")
    vfs = definite_intersection(s, ["a1", "a2"])
    assert len(vfs) == 1
    assert vfs[0].support() == ("a1", "a2", "a3_perp")


def test_definite_intersection_on_classical_scenario():
    s = generate_scenario("classical", 3)
    vfs = definite_intersection(s, ["x1"])
    assert len(vfs) == 1
    assert vfs[0].support() == ("x1",)


def test_definite_intersection_unknown_label():
    with pytest.raises(UnknownLabelError):
        definite_intersection(generate_scenario("specker"), ["zz"])


# the arguments after the scenario of every public question on a scenario
_QUESTION_ARGS = {
    "check_members_known": (),
    "enumerate_value_functions": (),
    "count_value_functions": (),
    "definite_intersection": (["a"],),
    "classical_bound": ({"a": 1},),
    "is_noncontextual_state": ({"a": 1},),
    "brute_force_antiset_bound": (["a"],),
    "build_state_polytope": (),
    "state_optimize": ({"a": 1},),
    "state_uniqueness": (),
    "scenario_antidistinguishable": (["a"],),
}


def _takes_a_scenario(f) -> bool:
    params = list(inspect.signature(f, eval_str=True).parameters.values())
    return bool(params) and params[0].annotation is Scenario


def test_sets_referencing_unknown_outcomes_fail_cleanly():
    questions = {
        name: getattr(module, name)
        for module in (scenario, valuefns, ratlp, antidist)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and _takes_a_scenario(getattr(module, name))
    }
    # these two take invalid scenarios by design
    del questions["validate_scenario"], questions["save_scenario"]
    assert set(questions) == set(_QUESTION_ARGS), "list the extra arguments of a new question"
    s = make_scenario(["a"], [["a", "ghost"]])
    for name, question in questions.items():
        with pytest.raises(UnknownLabelError, match=r"^scenario sets mention unknown outcomes: \['ghost'\]$"):
            question(s, *_QUESTION_ARGS[name])


def test_classical_bound_klyachko_all_ones():
    s = generate_scenario("klyachko")
    result = classical_bound(s, {a: 1 for a in s.outcomes})
    assert result.bound == 2
    assert result.value_function_count == 11
    assert sum(result.maximizer.values) == 2


def test_classical_bound_single_coefficient():
    s = make_scenario(["x", "y"], [["x", "y"]])
    result = classical_bound(s, {"x": 1})
    assert result.bound == 1
    assert result.maximizer["x"] == 1


def test_classical_bound_on_specker_raises():
    with pytest.raises(EmptyPolytopeError):
        classical_bound(generate_scenario("specker"), {"a": 1})


def test_classical_bound_tie_break_is_first_in_enumeration_order():
    s = make_scenario(["x", "y"], [["x", "y"]])
    result = classical_bound(s, {"x": 1, "y": 1})
    # (0,1) precedes (1,0) lexicographically
    assert result.maximizer.values == (0, 1)


def test_membership_klyachko_uniform_half_rejected():
    s = generate_scenario("klyachko")
    verdict = is_noncontextual_state(s, {a: Fraction(1, 2) for a in s.outcomes})
    assert verdict.status == "not-member"


def test_membership_single_value_function_is_member():
    s = generate_scenario("antidist_example")
    vf = enumerate_value_functions(s)[3]
    verdict = is_noncontextual_state(s, {a: vf[a] for a in s.outcomes})
    assert verdict.is_member
    weights = dict(verdict.decomposition.weights)
    assert weights == {vf: Fraction(1)}


def test_membership_of_uniform_average():
    s = generate_scenario("antidist_example")
    vfs = enumerate_value_functions(s)
    k = Fraction(1, len(vfs))
    average = {a: sum(Fraction(vf[a]) * k for vf in vfs) for a in s.outcomes}
    assert average == {a: Fraction(1, 3) for a in s.outcomes}
    verdict = is_noncontextual_state(s, average)
    assert verdict.is_member
    assert verdict.decomposition.induced_state() == average


def test_membership_rejects_non_states():
    s = generate_scenario("klyachko")
    with pytest.raises(NotAStateError):
        is_noncontextual_state(s, {a: Fraction(2, 3) for a in s.outcomes})
    with pytest.raises(NotAStateError):
        is_noncontextual_state(generate_scenario("classical", 2), {"x1": 1, "x2": 1})
    with pytest.raises(NotAStateError, match=r"^omega\(0\) = 3/2 lies outside \[0, 1\]$"):
        is_noncontextual_state(s, {"0": Fraction(3, 2)})
    with pytest.raises(NotAStateError, match=r"^partial context \['0', '1'\] sums to 2 > 1$"):
        is_noncontextual_state(s, {"0": 1, "1": 1})
    with pytest.raises(
        NotAStateError, match=r"^context \['a', 'b'\] sums to 1/2, expected exactly 1$"
    ):
        is_noncontextual_state(generate_scenario("specker"), {"a": Fraction(1, 2)})


def test_membership_empty_polytope_verdict():
    s = generate_scenario("specker")
    verdict = is_noncontextual_state(s, {a: Fraction(1, 2) for a in s.outcomes})
    assert verdict.status == "empty-polytope"
    assert not verdict.is_member


def test_brute_force_bound_examples():
    example3 = generate_scenario("antidist_example")
    assert brute_force_antiset_bound(example3, ["a1", "a2", "a3"]) == 2
    classical = generate_scenario("classical", 3)
    assert brute_force_antiset_bound(classical, ["x1", "x2"]) == 1
    klyachko = generate_scenario("klyachko")
    assert brute_force_antiset_bound(klyachko, klyachko.outcomes) == 2
    with pytest.raises(EmptyPolytopeError):
        brute_force_antiset_bound(generate_scenario("specker"), ["a"])


def test_parse_state_json():
    doc = {"state": {"a": "1/2", "b": 1, "c": 0.25}}
    assert parse_state_json(doc) == {
        "a": Fraction(1, 2),
        "b": Fraction(1),
        "c": Fraction(1, 4),
    }


# ---------------------------------------------------- randomized properties


def test_enumeration_matches_naive_filter_on_random_scenarios():
    rng = random.Random(123)
    for _ in range(120):
        s = random_scenario(rng, max_outcomes=12)
        assert [
            vf.values for vf in enumerate_value_functions(s)
        ] == naive_value_functions(s)


def test_classical_bound_matches_naive_maximum_on_random_scenarios():
    rng = random.Random(321)
    checked = 0
    while checked < 100:
        s = random_scenario(rng, max_outcomes=10)
        naive = naive_value_functions(s)
        labels = sorted(s.outcomes)
        coeffs = {a: Fraction(rng.randint(-3, 3)) for a in labels}
        if not naive:
            with pytest.raises(EmptyPolytopeError):
                classical_bound(s, coeffs)
            continue
        expected = max(
            sum((coeffs[a] for a, bit in zip(labels, bits) if bit), Fraction(0))
            for bits in naive
        )
        assert classical_bound(s, coeffs).bound == expected
        checked += 1


def test_member_states_respect_classical_bounds():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        s = random_scenario(rng, max_outcomes=8)
        vfs = enumerate_value_functions(s)
        if not vfs:
            continue
        chosen = rng.sample(vfs, min(len(vfs), 3))
        weights = [Fraction(rng.randint(1, 5)) for _ in chosen]
        total = sum(weights)
        state = {
            a: sum((w * vf[a] for vf, w in zip(chosen, weights)), Fraction(0)) / total
            for a in s.outcomes
        }
        verdict = is_noncontextual_state(s, state)
        assert verdict.is_member
        assert verdict.decomposition.induced_state() == state
        coeffs = {a: Fraction(rng.randint(-2, 3)) for a in s.outcomes}
        bound = classical_bound(s, coeffs).bound
        value = sum((coeffs[a] * state[a] for a in s.outcomes), Fraction(0))
        assert value <= bound
        checked += 1


# ----------------------------- brute-force cross-checks: an antidistinguishable
# set admits no jointly-definite value function, and a combinatorial pairwise
# antiset obeys the bound 1


def _embed_antidist_gadget(contexts, partials, triple, counter):
    """Give the triple a fresh blocking context plus co-occurrence pairs."""
    blockers = [f"g{next(counter)}" for _ in triple]
    contexts.append(blockers)
    for outcome, blocker in zip(triple, blockers):
        partials.append([outcome, blocker])
    return blockers


def test_antidistinguishable_sets_admit_no_joint_definite_function():
    counter = itertools.count()
    rng = random.Random(42)
    for _ in range(20):
        size = rng.randint(2, 3)
        targets = [f"t{i}" for i in range(size)]
        contexts, partials = [], []
        extra = _embed_antidist_gadget(contexts, partials, targets, counter)
        outcomes = targets + extra
        s = make_scenario(outcomes, contexts, partials)
        verdict = scenario_antidistinguishable(s, targets)
        assert verdict.antidistinguishable
        assert definite_intersection(s, targets) == []


def test_embedded_antiset_structure_caps_the_count_at_one():
    # W plus a principal context, every (pair, principal element) triple
    # antidistinguishable through an embedded gadget: the enumeration
    # oracle must then find no value function with two 1s inside W
    counter = itertools.count()
    rng = random.Random(4242)
    for _ in range(10):
        w = [f"w{i}" for i in range(rng.randint(2, 3))]
        principal = [f"c{i}" for i in range(rng.randint(2, 3))]
        contexts = [principal]
        partials = []
        gadget_outcomes = []
        for a, b in itertools.combinations(w, 2):
            for c in principal:
                gadget_outcomes += _embed_antidist_gadget(
                    contexts, partials, [a, b, c], counter
                )
        s = make_scenario(w + principal + gadget_outcomes, contexts, partials)
        for a, b in itertools.combinations(w, 2):
            for c in principal:
                assert scenario_antidistinguishable(s, [a, b, c]).antidistinguishable
        assert brute_force_antiset_bound(s, w) <= 1


# ------------------------------------- engine: every consumer against the
# naive 2^n filter, on random scenarios mixing contexts, partial contexts
# and outcomes in no set


def _random_cases(seed, count, max_outcomes=10):
    rng = random.Random(seed)
    return rng, [random_scenario(rng, max_outcomes=max_outcomes) for _ in range(count)]


def test_count_matches_naive_filter_on_random_scenarios():
    _, cases = _random_cases(11, 150)
    for s in cases:
        assert count_value_functions(s) == len(naive_value_functions(s))


def test_membership_decomposition_matches_the_lp_over_the_naive_filter():
    """The membership LP's columns are read off the search's masks as ints;
    the same LP written out from the naive filter with Fraction entries
    through LinearProgram.build must give the same weights, in order."""
    rng, cases = _random_cases(23, 200, max_outcomes=8)
    checked = 0
    for s in cases:
        naive = naive_value_functions(s)
        if not naive:
            continue
        labels = sorted(s.outcomes)
        chosen = rng.sample(naive, min(len(naive), 3))
        mix = [rng.randint(1, 5) for _ in chosen]
        state = {
            a: Fraction(sum(w * bits[i] for bits, w in zip(chosen, mix)), sum(mix))
            for i, a in enumerate(labels)
        }
        rows = [([bits[i] for bits in naive], "=", state[a]) for i, a in enumerate(labels)]
        rows.append(([1] * len(naive), "=", 1))
        reference = solve(LinearProgram.build([f"p{k}" for k in range(len(naive))], rows=rows))
        verdict = is_noncontextual_state(s, state)
        assert [(vf.labels, vf.values, p) for vf, p in verdict.decomposition.weights] == [
            (tuple(labels), bits, p) for bits, p in zip(naive, reference.point) if p
        ]
        checked += 1
    assert checked > 100


def test_definite_intersection_matches_naive_filter_on_random_scenarios():
    rng, cases = _random_cases(12, 150)
    for s in cases:
        labels = sorted(s.outcomes)
        naive = naive_value_functions(s)
        forced = rng.sample(labels, rng.randint(0, min(3, len(labels))))
        expected = [
            bits for bits in naive if all(bits[labels.index(a)] for a in forced)
        ]
        assert [vf.values for vf in definite_intersection(s, forced)] == expected


def test_definite_intersection_of_two_outcomes_sharing_a_set_is_empty():
    rng, cases = _random_cases(13, 150)
    checked = 0
    for s in cases:
        shared = [m for m in s.all_sets() if len(m) >= 2]
        if not shared:
            continue
        pair = rng.sample(sorted(rng.choice(shared)), 2)
        assert definite_intersection(s, pair) == []
        checked += 1
    assert checked > 50


def test_classical_bound_maximizer_is_lexicographically_first_on_random_scenarios():
    rng, cases = _random_cases(14, 150)
    for s in cases:
        labels = sorted(s.outcomes)
        naive = naive_value_functions(s)
        # few distinct rationals, so that ties between maximizers are common
        coeffs = {
            a: Fraction(rng.randint(-1, 2), rng.choice((1, 2, 3)))
            for a in labels
            if rng.random() < 0.8
        }
        if not naive:
            with pytest.raises(EmptyPolytopeError):
                classical_bound(s, coeffs)
            continue
        values = [
            sum((coeffs.get(a, 0) for a, bit in zip(labels, bits) if bit), Fraction(0))
            for bits in naive
        ]
        best = max(values)
        result = classical_bound(s, coeffs)
        assert result.bound == best
        assert result.maximizer.values == naive[values.index(best)]
        assert result.value_function_count == len(naive)


def test_brute_force_antiset_bound_matches_naive_filter_on_random_scenarios():
    rng, cases = _random_cases(15, 150)
    for s in cases:
        labels = sorted(s.outcomes)
        naive = naive_value_functions(s)
        members = rng.sample(labels, rng.randint(1, len(labels)))
        if not naive:
            with pytest.raises(EmptyPolytopeError):
                brute_force_antiset_bound(s, members)
            continue
        expected = max(
            sum(bit for a, bit in zip(labels, bits) if a in members) for bits in naive
        )
        assert brute_force_antiset_bound(s, members) == expected


def test_empty_context_admits_no_value_function():
    s = make_scenario(["a", "b"], [[], ["a", "b"]])
    assert naive_value_functions(s) == []
    assert enumerate_value_functions(s) == []
    assert count_value_functions(s) == 0
    with pytest.raises(EmptyPolytopeError):
        classical_bound(s, {"a": 1})


def _one_big_context(n):
    labels = [f"o{i:04d}" for i in range(n)]
    return make_scenario(labels, [labels])


def test_search_depth_does_not_grow_with_outcome_count():
    s = _one_big_context(1500)
    assert count_value_functions(s) == 1500
    vfs = enumerate_value_functions(s)
    assert len(vfs) == 1500
    assert vfs[0].support() == ("o1499",) and vfs[-1].support() == ("o0000",)
    assert classical_bound(s, {"o0007": 1}).value_function_count == 1500
    # outcomes in no set branch 0/1 one after another
    free = make_scenario([f"o{i:04d}" for i in range(1500)], [], [])
    with pytest.raises(ResourceLimitError):
        count_value_functions(free, node_budget=10_000)


def test_count_obeys_node_budget():
    with pytest.raises(ResourceLimitError):
        count_value_functions(generate_scenario("klyachko"), node_budget=2)
    with pytest.raises(ResourceLimitError):
        count_value_functions(_one_big_context(1500), node_budget=100)


# ------------------------- independent components: disjoint unions against
# the naive filter, counts that no list could hold, and the full MUB d=7


def _disjoint_union(parts):
    """The union of scenarios over fresh labels: outcome i of part j is
    o<i><letter j>, so the parts' outcomes interleave in the canonical order."""
    outcomes, contexts, partials = [], [], []
    for j, s in enumerate(parts):
        rename = {a: f"{a}{'abcd'[j]}" for a in s.outcomes}
        outcomes += rename.values()
        contexts += [[rename[a] for a in m] for m in s.contexts]
        partials += [[rename[a] for a in m] for m in s.partial_contexts]
    return make_scenario(outcomes, contexts, partials)


def _lp_over_naive(naive, labels, state):
    rows = [([bits[i] for bits in naive], "=", state[a]) for i, a in enumerate(labels)]
    rows.append(([1] * len(naive), "=", 1))
    return solve(LinearProgram.build([f"p{k}" for k in range(len(naive))], rows=rows))


def test_disjoint_unions_match_the_naive_filter():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        k = rng.randint(2, 4)
        s = _disjoint_union([random_scenario(rng, max_outcomes=12 // k) for _ in range(k)])
        labels = list(s.outcomes)
        naive = naive_value_functions(s)
        assert [vf.values for vf in enumerate_value_functions(s)] == naive
        assert count_value_functions(s) == len(naive)
        forced = rng.sample(labels, rng.randint(1, min(3, len(labels))))
        assert [vf.values for vf in definite_intersection(s, forced)] == [
            bits for bits in naive if all(bits[labels.index(a)] for a in forced)
        ]
        coeffs = {a: Fraction(rng.randint(-1, 2), rng.choice((1, 2))) for a in labels}
        if not naive:
            with pytest.raises(EmptyPolytopeError):
                classical_bound(s, coeffs)
            continue
        values = [sum((coeffs[a] for a, bit in zip(labels, bits) if bit), Fraction(0)) for bits in naive]
        result = classical_bound(s, coeffs)
        assert result.bound == max(values)
        assert result.maximizer.values == naive[values.index(max(values))]
        assert result.value_function_count == len(naive)
        chosen = rng.sample(naive, min(len(naive), 3))
        mix = [rng.randint(1, 5) for _ in chosen]
        state = {
            a: Fraction(sum(w * bits[i] for bits, w in zip(chosen, mix)), sum(mix))
            for i, a in enumerate(labels)
        }
        reference = _lp_over_naive(naive, labels, state)
        verdict = is_noncontextual_state(s, state)
        assert [(vf.values, p) for vf, p in verdict.decomposition.weights] == [
            (bits, p) for bits, p in zip(naive, reference.point) if p
        ]
        checked += 1
    assert checked > 30


def test_contextual_component_makes_the_union_contextual():
    klyachko = generate_scenario("klyachko")
    small = make_scenario(["x", "y", "z"], [["x", "y"]], [["y", "z"]])
    s = _disjoint_union([klyachko, small])
    labels = list(s.outcomes)
    state = {a: Fraction(1, 2) if a.endswith("a") else Fraction(int(a == "xb")) for a in labels}
    assert _lp_over_naive(naive_value_functions(s), labels, state).status == "infeasible"
    assert is_noncontextual_state(s, state).status == "not-member"


def test_counts_multiply_past_any_list():
    labels = [f"o{i:02d}{side}" for i in range(40) for side in "xy"]
    s = make_scenario(labels, [[f"o{i:02d}x", f"o{i:02d}y"] for i in range(40)])
    assert count_value_functions(s) == 2**40
    result = classical_bound(s, {"o07x": 1})
    assert result.value_function_count == 2**40
    assert result.bound == 1 and result.maximizer.support()[7] == "o07x"
    # one node per value function assembled: the list itself is capped
    with pytest.raises(ResourceLimitError):
        enumerate_value_functions(s, node_budget=10_000)


def test_full_mub_d7_all_ones_bound():
    s = scenario_from_states(generate_states(FamilySpec("mub", 7)))
    assert len(s.contexts) == 8 and not s.partial_contexts
    result = classical_bound(s, dict.fromkeys(s.outcomes, 1))
    assert result.bound == 8
    assert result.value_function_count == 7**8 == 5_764_801


# ------------------------- the tail: with every context closed, up to 16
# free outcomes are listed at once, and more are first branched 0/1


def _tail_scenario(rng, n, extra, size, context):
    """n outcomes joined into one component by a random chain of partial
    contexts, plus `extra` random partial contexts of 2..size outcomes.  With
    `context`, the chain's first link is a context instead, and no extra set
    touches its two outcomes, so n-3 outcomes stay free once it has its 1."""
    labels = [f"o{i:02d}" for i in range(n)]
    chain = rng.sample(labels, n)
    links = [frozenset(p) for p in zip(chain, chain[1:])]
    contexts = links[:1] if context else []
    pool = chain[2:] if context else chain
    sets = set(links[len(contexts):])
    while len(sets) < n - 1 - len(contexts) + extra:
        sets.add(frozenset(rng.sample(pool, rng.randint(2, size))))
    partials = [x for x in sets if not any(x < y for y in sets)]
    return make_scenario(labels, [sorted(x) for x in contexts], sorted(map(sorted, partials)))


@pytest.mark.parametrize(
    "n, extra, size, context",
    [(17, 4, 3, False), (18, 8, 3, False), (20, 30, 4, False), (19, 6, 3, True),
     (20, 10, 3, True), (20, 30, 4, True)],
)
def test_tail_matches_the_naive_filter(n, extra, size, context):
    rng = random.Random(n * 100 + extra + size + context)
    s = _tail_scenario(rng, n, extra, size, context)
    labels = list(s.outcomes)
    naive = naive_value_functions(s)
    assert [vf.values for vf in enumerate_value_functions(s)] == naive
    assert count_value_functions(s) == len(naive)
    forced = rng.sample(labels, 2)
    assert [vf.values for vf in definite_intersection(s, forced)] == [
        bits for bits in naive if all(bits[labels.index(a)] for a in forced)
    ]
    # 0/1 gains tie often: the maximizer is the first heaviest vector
    for coeffs in (
        {a: rng.randint(0, 1) for a in labels},
        {a: Fraction(rng.randint(-2, 3), rng.choice((1, 3))) for a in labels},
    ):
        values = [sum((coeffs[a] for a, bit in zip(labels, bits) if bit), Fraction(0)) for bits in naive]
        result = classical_bound(s, coeffs)
        assert result.bound == max(values)
        assert result.maximizer.values == naive[values.index(max(values))]
        assert result.value_function_count == len(naive)
    members = rng.sample(labels, 6)
    assert brute_force_antiset_bound(s, members) == max(
        sum(bit for a, bit in zip(labels, bits) if a in members) for bits in naive
    )
    if len(naive) > 600:
        return  # one LP column per value function
    chosen = rng.sample(naive, 3)
    state = {a: Fraction(sum(bits[i] for bits in chosen), 3) for i, a in enumerate(labels)}
    verdict = is_noncontextual_state(s, state)
    assert [(vf.values, p) for vf, p in verdict.decomposition.weights] == [
        (bits, p) for bits, p in zip(naive, _lp_over_naive(naive, labels, state).point) if p
    ]


def test_hadamard6_value_functions_are_sorted_and_unique():
    s = scenario_from_states(generate_states(FamilySpec("hadamard", 6, "B0")))
    assert not s.contexts and len(s.partial_contexts) == 160
    masks = [vf.ones for vf in enumerate_value_functions(s)]
    assert len(masks) == 133_111 == count_value_functions(s)
    assert all(a < b for a, b in zip(masks, masks[1:]))


def test_tail_lists_stay_small_under_a_large_budget():
    free = make_scenario([f"o{i:02d}" for i in range(40)], [], [])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            count_value_functions(free, node_budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ------------------------- the ValueFunction record: equality, hashing, repr,
# pickling and immutability, and the collector state the list build leaves


def _mixed():
    """A context, a partial context and an outcome in no set: three
    components whose outcomes interleave in the canonical order."""
    return make_scenario(["a", "b", "c", "d", "e"], [["a", "c"]], [["b", "e"]])


def test_value_function_record_semantics():
    s = _mixed()
    vf = ValueFunction(s.outcomes, 0b10011)
    twin = ValueFunction(tuple(s.outcomes), 0b10011)
    assert vf == twin and hash(vf) == hash(twin)
    assert vf != ValueFunction(s.outcomes, 0b10010)
    assert repr(vf) == "ValueFunction(labels=('a', 'b', 'c', 'd', 'e'), ones=19)"
    assert (vf.labels, vf.ones) == (s.outcomes, 19)
    for other in (pickle.loads(pickle.dumps(vf)), copy.copy(vf), copy.deepcopy(vf)):
        assert other == vf and type(other) is ValueFunction
    with pytest.raises(AttributeError):
        vf.ones = 3
    with pytest.raises(UnknownLabelError):
        vf["z"]
    with pytest.raises(UnknownLabelError):
        vf[0]
    assert vf.values == (1, 0, 0, 1, 1)
    assert vf.assignment == {"a": 1, "b": 0, "c": 0, "d": 1, "e": 1}
    assert vf.support() == ("a", "d", "e")
    assert [vf[a] for a in s.outcomes] == [1, 0, 0, 1, 1]


def test_value_function_lists_hold_records():
    s = _mixed()
    vfs = enumerate_value_functions(s)
    assert [vf.values for vf in vfs] == naive_value_functions(s)
    assert [vf.support() for vf in vfs[:3]] == [("c",), ("c", "e"), ("c", "d")]
    assert vfs[-1].assignment == {"a": 1, "b": 1, "c": 0, "d": 1, "e": 0}
    assert all(type(vf) is ValueFunction and vf.labels is s.outcomes for vf in vfs)
    definite = definite_intersection(s, ["d"])
    assert definite == [vf for vf in vfs if vf["d"]]
    assert all(type(vf) is ValueFunction for vf in definite)


@pytest.mark.parametrize("enabled", [True, False])
def test_list_builds_leave_the_collector_as_they_found_it(enabled):
    s = generate_scenario("klyachko")
    calls = [
        lambda budget: enumerate_value_functions(s, node_budget=budget),
        lambda budget: definite_intersection(s, ["0"], node_budget=budget),
    ]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for call in calls:
            assert call(None)
            assert gc.isenabled() is enabled
            with pytest.raises(ResourceLimitError):
                call(2)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
