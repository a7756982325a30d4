import json
import math
import warnings

import numpy as np
import pytest

from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import (
    DimensionMismatchError,
    DuplicateRayError,
    ScenarioParseError,
    ToleranceAmbiguityError,
)
from antictx.quantum import (
    DensityOperator,
    PureStateSet,
    frame_operator,
    gram,
    load_states,
    quantum_value,
    save_states,
    scenario_from_states,
)
from antictx.scenario import validate_scenario


def kets(dimension, *vectors):
    return PureStateSet.from_pairs(
        dimension, [(f"s{i}", v) for i, v in enumerate(vectors)]
    )


def test_purestateset_rejects_unnormalized_vectors():
    with pytest.raises(ValueError):
        kets(2, [1, 1])


def test_norms_are_checked_once_at_the_given_tolerance():
    pairs = [("a", [1.0000001, 0]), ("b", [0, 1])]
    with pytest.raises(ValueError):
        PureStateSet.from_pairs(2, pairs)
    states = PureStateSet.from_pairs(2, pairs, tol=1e-6)
    # slicing a checked set does not check it again at the default
    assert states.subset(["a"]).labels == ("a",)
    assert states.union(kets(2, [1, 0])).labels == ("a", "b", "s0")


def test_purestateset_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        PureStateSet.from_pairs(2, [("a", [1, 0]), ("a", [0, 1])])


def test_gram_yu_oh_rays():
    g = gram(generate_states(FamilySpec("yu_oh_rays")))
    n = len(g.labels)
    for i in range(n):
        for j in range(n):
            expected = 1.0 if i == j else 1 / 9
            assert abs(g.overlaps[i, j] - expected) < 1e-12


def test_gram_standard_basis_is_identity():
    g = gram(generate_states(FamilySpec("standard_basis", 3)))
    assert np.allclose(g.overlaps, np.eye(3))


def test_gram_principal_versus_rays_is_one_third():
    rays = generate_states(FamilySpec("yu_oh_rays"))
    basis = generate_states(FamilySpec("yu_oh_principal"))
    g = gram(rays.union(basis))
    for c in basis.labels:
        for a in rays.labels:
            assert abs(g.overlap(c, a) - 1 / 3) < 1e-12


def test_gram_is_invariant_under_global_phase():
    rays = generate_states(FamilySpec("yu_oh_rays"))
    before = gram(rays).overlaps
    rotated = rays.vectors.copy()
    rotated[2] *= np.exp(1j * 0.7)
    after = gram(PureStateSet(3, rays.labels, rotated)).overlaps
    assert np.abs(before - after).max() < 1e-12


def test_frame_operator_yu_oh():
    f, lam = frame_operator(generate_states(FamilySpec("yu_oh_rays")))
    assert lam is not None
    assert abs(lam - 4 / 3) < 1e-9
    assert np.abs(f - f.conj().T).max() < 1e-12
    assert abs(np.trace(f).real - 4) < 1e-9


def test_frame_operator_hadamard_full():
    for d in (3, 4):
        states = generate_states(FamilySpec("hadamard", d, "full"))
        _, lam = frame_operator(states)
        assert lam is not None
        assert abs(lam - 2**d / d) < 1e-9


def test_frame_operator_without_proportionality():
    states = kets(3, [1, 0, 0], [0, 1, 0])
    _, lam = frame_operator(states)
    assert lam is None


def test_quantum_value_yu_oh_mixed():
    rays = generate_states(FamilySpec("yu_oh_rays"))
    rho = DensityOperator.maximally_mixed(3)
    value = quantum_value(rays, {a: 1 for a in rays.labels}, rho)
    assert abs(value - 4 / 3) < 1e-9


def test_quantum_value_mub_is_state_independent():
    states = generate_states(FamilySpec("mub", 5))
    ones = {a: 1 for a in states.labels}
    rng = np.random.default_rng(8)
    values = [
        quantum_value(states, ones, DensityOperator.random(5, rng)) for _ in range(5)
    ]
    assert all(abs(v - 6.0) < 1e-9 for v in values)


def test_quantum_value_maroney_on_principal_state():
    states = generate_states(FamilySpec("maroney", 5))
    rho = DensityOperator.from_pure(states.vector("c"))
    ones = {f"a{j}": 1 for j in range(1, 5)}
    assert abs(quantum_value(states, ones, rho) - 4 / 3) < 1e-9


def test_from_pure_rejects_a_zero_vector():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero on the way
        with pytest.raises(ValueError, match="cannot normalize a zero vector"):
            DensityOperator.from_pure([0, 0])


def test_quantum_value_dimension_mismatch():
    rays = generate_states(FamilySpec("yu_oh_rays"))
    with pytest.raises(DimensionMismatchError):
        quantum_value(rays, {"a1": 1}, DensityOperator.maximally_mixed(2))


def test_state_independence_for_frame_proportional_sets():
    rays = generate_states(FamilySpec("yu_oh_rays"))
    _, lam = frame_operator(rays)
    ones = {a: 1 for a in rays.labels}
    rng = np.random.default_rng(17)
    values = [
        quantum_value(rays, ones, DensityOperator.random(3, rng)) for _ in range(100)
    ]
    assert max(values) - min(values) <= 1e-8
    assert all(abs(v - lam) <= 1e-8 for v in values)


def test_scenario_from_caves_states_reproduces_example(fixtures_dir):
    states = generate_states(FamilySpec("caves_example"))
    assert scenario_from_states(states) == generate_scenario("antidist_example")


def test_scenario_from_standard_basis():
    s = scenario_from_states(generate_states(FamilySpec("standard_basis", 3)))
    assert s.contexts == (frozenset({"e1", "e2", "e3"}),)
    assert s.partial_contexts == ()


def test_scenario_from_incomplete_orthogonal_pair():
    s = scenario_from_states(kets(3, [1, 0, 0], [0, 1, 0]))
    assert s.contexts == ()
    assert s.partial_contexts == (frozenset({"s0", "s1"}),)


def test_scenario_isolated_vertex_contributes_nothing():
    r = 1 / math.sqrt(3)
    s = scenario_from_states(kets(3, [1, 0, 0], [0, 1, 0], [r, r, r]))
    assert s.partial_contexts == (frozenset({"s0", "s1"}),)


def test_scenario_from_states_outputs_validate():
    for spec in (FamilySpec("caves_example"), FamilySpec("mub", 3), FamilySpec("sic", 3)):
        s = scenario_from_states(generate_states(spec))
        assert validate_scenario(s).valid


def test_scenario_generation_needs_two_dimensions():
    with pytest.raises(ValueError, match="^scenario generation needs dimension >= 2$"):
        scenario_from_states(kets(1, [1]))


def test_duplicate_ray_error():
    r = 1 / math.sqrt(2)
    with pytest.raises(DuplicateRayError):
        scenario_from_states(kets(2, [r, r], [-r, -r]))


def test_tolerance_ambiguity_guard_band():
    # overlap ~ 2.5e-9 falls inside (1e-9, 1e-8)
    eps = 5e-5
    v = np.array([1, eps, 0], dtype=complex)
    v /= np.linalg.norm(v)
    states = PureStateSet.from_pairs(3, [("a", v), ("b", [0, 1, 0])])
    with pytest.raises(ToleranceAmbiguityError):
        scenario_from_states(states, tol=1e-9)
    # a coarser tolerance classifies it as orthogonal
    s = scenario_from_states(states, tol=1e-6)
    assert s.partial_contexts == (frozenset({"a", "b"}),)


def _tilted(near, far, eps=5e-9):
    """A unit vector in C^3 with squared overlap `eps` (inside the default
    guard band) with basis vector `near` and the rest on `far`."""
    v = np.zeros(3)
    v[near], v[far] = math.sqrt(eps), math.sqrt(1 - eps)
    return v


def test_guard_band_pair_named_first_when_it_comes_first_in_row_order():
    # (s0, s3) is in the guard band and (s1, s2) is one ray; row-major order
    # reaches (0, 3) before (1, 2), column order would reach (1, 2) first
    states = kets(3, [1, 0, 0], [0, 1, 0], [0, -1, 0], _tilted(0, 2))
    with pytest.raises(ToleranceAmbiguityError, match=r"\|<s0\|s3>\|\^2"):
        scenario_from_states(states)


def test_duplicate_pair_named_first_when_it_comes_first_in_row_order():
    # (s0, s3) is one ray and (s1, s2) is in the guard band
    states = kets(3, [1, 0, 0], [0, 1, 0], _tilted(1, 2), [1j, 0, 0])
    with pytest.raises(DuplicateRayError, match="'s0' and 's3' are the same ray"):
        scenario_from_states(states)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(2, np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DensityOperator(2, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(2, np.diag([1.5, -0.5]).astype(complex))


def test_density_operator_follows_the_given_tolerance():
    matrix = np.diag([0.5 + 1e-7, 0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityOperator(2, matrix)
    assert DensityOperator(2, matrix, 1e-6).dimension == 2


def test_density_operator_reports_its_tolerance():
    matrix = np.diag([0.5 + 1e-7, 0.5]).astype(complex)
    assert DensityOperator(2, matrix, 1e-6).tol == 1e-6
    assert DensityOperator(2, matrix, tol=1e-3).tol == 1e-3
    assert DensityOperator.maximally_mixed(2).tol == 1e-9


def test_gram_matches_pairwise_inner_products():
    rng = np.random.default_rng(5)
    for d, n in ((2, 1), (3, 9), (7, 30)):
        v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        v /= np.linalg.norm(v, axis=1)[:, None]
        states = PureStateSet(d, tuple(f"v{i}" for i in range(n)), v)
        g = gram(states)
        reference = np.array(
            [[abs(np.vdot(v[i], v[j])) ** 2 if i != j else 1.0 for j in range(n)] for i in range(n)]
        )
        assert np.abs(g.overlaps - reference).max() <= 64 * np.finfo(float).eps
        assert (g.overlaps == g.overlaps.T).all()
        assert (np.diag(g.overlaps) == 1.0).all()
        for i, j in ((0, n - 1), (n // 2, 0)):
            assert g.overlap(f"v{i}", f"v{j}") == g.overlaps[i, j]


@pytest.mark.parametrize(
    "doc",
    [
        {"dimension": True, "states": [{"label": "a", "components": [[1, 0]]}]},
        {"dimension": 1, "states": [{"label": "a", "components": 5}]},
        {"dimension": 1, "states": [{"label": "a", "components": [[1, None]]}]},
    ],
)
def test_malformed_vector_sets(doc):
    with pytest.raises(ScenarioParseError):
        load_states(json.dumps(doc))


def test_vector_set_round_trip():
    states = generate_states(FamilySpec("mub", 3))
    again = load_states(save_states(states))
    assert again.labels == states.labels
    assert np.abs(again.vectors - states.vectors).max() < 1e-15
