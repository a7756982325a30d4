import math
import re

import numpy as np
import pytest

from antictx import ensembles
from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import UnsupportedParameterError
from antictx.quantum import GramData, PureStateSet, frame_operator, gram, scenario_from_states
from antictx.scenario import validate_scenario


def test_yu_oh_rays_values():
    states = generate_states(FamilySpec("yu_oh_rays"))
    assert states.labels == ("a1", "a2", "a3", "a4")
    assert np.allclose(states.vector("a1"), np.ones(3) / math.sqrt(3))
    g = gram(states)
    assert all(
        abs(g.overlaps[i, j] - 1 / 9) < 1e-12 for i in range(4) for j in range(4) if i != j
    )


def test_yu_oh_principal_is_standard_basis():
    states = generate_states(FamilySpec("yu_oh_principal"))
    assert states.labels == ("c1", "c2", "c3")
    assert np.allclose(states.vectors, np.eye(3))


def test_hadamard_counts_and_partition():
    for d in (2, 3, 4):
        full = generate_states(FamilySpec("hadamard", d, "full"))
        b0 = generate_states(FamilySpec("hadamard", d, "B0"))
        b1 = generate_states(FamilySpec("hadamard", d, "B1"))
        assert len(full) == 2**d
        assert len(b0) == len(b1) == 2 ** (d - 1)
        assert set(b0.labels) | set(b1.labels) == set(full.labels)
        assert not set(b0.labels) & set(b1.labels)


def test_hadamard_rejects_dimension_13_before_building(monkeypatch):
    # 2^13 sign vectors would need a 1 GiB Gram matrix; d = 16 would need 64 GiB
    def build(*args):
        raise AssertionError("hadamard d=13 built its states")

    monkeypatch.setattr(ensembles.PureStateSet, "from_pairs", build)
    for subset in ("B0", "B1", "full"):
        with pytest.raises(UnsupportedParameterError, match=r"\[2, 12\], got 13"):
            generate_states(FamilySpec("hadamard", 13, subset))


def test_standard_basis_and_maroney_reject_dimension_1025_before_building(monkeypatch):
    # a dense 1025 x 1025 complex matrix each; d = 100,000 would ask for ~160 GB
    def build(*args):
        raise AssertionError("a state family past its cap built its states")

    monkeypatch.setattr(ensembles.PureStateSet, "from_pairs", build)
    for family, low in (("standard_basis", 1), ("maroney", 3)):
        with pytest.raises(UnsupportedParameterError, match=rf"\[{low}, 1024\], got 1025"):
            generate_states(FamilySpec(family, 1025))
    # and every sized family just outside the range its table entry gives
    for family, (_, dimensions) in ensembles._FAMILIES.items():
        if dimensions is not None:
            low, high = dimensions
            for d in (low - 1, high + 1):
                message = rf"^{family} needs a dimension in \[{low}, {high}\], got {d}$"
                with pytest.raises(UnsupportedParameterError, match=message):
                    generate_states(FamilySpec(family, d))


def test_classical_scenarios_reject_n_4097_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("a classical scenario past its cap was built")

    monkeypatch.setattr(ensembles, "make_scenario", build)
    for name in ("classical", "partial_classical"):
        with pytest.raises(UnsupportedParameterError, match=r"\[1, 4096\], got 4097"):
            generate_scenario(name, 4097)


def test_hadamard_b0_first_component_positive():
    b0 = generate_states(FamilySpec("hadamard", 3, "B0"))
    assert len(b0) == 4
    assert all(abs(v[0] - 1 / math.sqrt(3)) < 1e-12 for v in b0.vectors)


def test_hadamard_phase_pairs():
    # the bitwise complement differs only by a global sign
    full = generate_states(FamilySpec("hadamard", 3, "full"))
    g = gram(full)
    for label in full.labels:
        partner = "".join("1" if ch == "0" else "0" for ch in label)
        assert abs(g.overlap(label, partner) - 1.0) < 1e-9
        assert np.allclose(full.vector(label), -full.vector(partner))


def test_mub_overlaps_d5():
    states = generate_states(FamilySpec("mub", 5))
    assert len(states) == 30
    g = gram(states)
    for i, a in enumerate(states.labels):
        for j in range(i + 1, 30):
            b = states.labels[j]
            same_basis = a.split("_")[0] == b.split("_")[0]
            expected = 0.0 if same_basis else 1 / 5
            assert abs(g.overlaps[i, j] - expected) < 1e-9


def test_mub_d2_triple():
    states = generate_states(FamilySpec("mub", 2))
    assert len(states) == 6


def test_mub_self_checks_across_small_primes():
    for d in (2, 3, 7, 11, 13):
        states = generate_states(FamilySpec("mub", d))
        assert len(states) == d * (d + 1)


def test_mub_rejects_composite_and_large_dimensions():
    for d in (4, 6, 9, 101):
        with pytest.raises(UnsupportedParameterError):
            generate_states(FamilySpec("mub", d))


def test_maroney_overlaps():
    states = generate_states(FamilySpec("maroney", 6))
    g = gram(states)
    for j in range(1, 6):
        assert abs(g.overlap("c", f"a{j}") - 1 / 3) < 1e-12
        for k in range(j + 1, 6):
            assert abs(g.overlap(f"a{j}", f"a{k}") - 1 / 9) < 1e-12


def test_maroney_needs_d_at_least_three():
    with pytest.raises(UnsupportedParameterError):
        generate_states(FamilySpec("maroney", 2))


def test_sic_d3_overlaps_and_frame():
    states = generate_states(FamilySpec("sic", 3))
    assert len(states) == 9
    g = gram(states)
    for i in range(9):
        for j in range(i + 1, 9):
            assert abs(g.overlaps[i, j] - 1 / 4) < 1e-9
    f, lam = frame_operator(states)
    assert lam is not None
    assert abs(lam - 3.0) < 1e-9


def test_sic_d2_overlaps():
    states = generate_states(FamilySpec("sic", 2))
    assert len(states) == 4
    g = gram(states)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(g.overlaps[i, j] - 1 / 3) < 1e-9


def test_sic_rejects_higher_dimensions():
    with pytest.raises(UnsupportedParameterError):
        generate_states(FamilySpec("sic", 4))


def _shift_gram(monkeypatch, shifts):
    """Make `ensembles.gram` add shifts[i, j] to the overlaps (i, j) and (j, i)."""

    def shifted(states):
        o = gram(states).overlaps.copy()
        for (i, j), delta in shifts.items():
            o[i, j] += delta
            o[j, i] = o[i, j]
        return GramData(states.labels, o)

    monkeypatch.setattr(ensembles, "gram", shifted)


@pytest.mark.parametrize(
    "spec, delta, named",
    [
        (FamilySpec("yu_oh_rays"), 1e-6, ("a1", "a4")),
        (FamilySpec("hadamard", 3, "B0"), 1e-6, ("000", "011")),
        (FamilySpec("hadamard", 4, "full"), -1e-6, ("0000", "1111")),
        (FamilySpec("mub", 3), 1e-6, ("a1_1", "a4_3")),
        (FamilySpec("maroney", 4), 1e-10, ("a1", "c")),
        (FamilySpec("sic", 2), 1e-6, ("a1", "a4")),
        (FamilySpec("sic", 3), 1e-6, ("a1", "a9")),
    ],
)
def test_family_self_check_names_the_first_perturbed_overlap(monkeypatch, spec, delta, named):
    # two overlaps are off: (0, last) comes first in row-major order, while
    # (1, 2) would come first in column order
    n = len(generate_states(spec))
    _shift_gram(monkeypatch, {(1, 2): delta, (0, n - 1): delta})
    with pytest.raises(RuntimeError, match=re.escape(f"|<{named[0]}|{named[1]}>|^2")):
        generate_states(spec)


def test_caves_self_check_names_the_first_broken_orthogonality(monkeypatch):
    # (a2, a3) turns orthogonal and (a1, a1_perp) stops being orthogonal
    _shift_gram(monkeypatch, {(1, 2): -1 / 9, (0, 3): 1e-6})
    with pytest.raises(RuntimeError, match=re.escape("failed on ['a1', 'a1_perp']")):
        generate_states(FamilySpec("caves_example"))


def test_sic_frame_self_check_catches_a_tilted_vector(monkeypatch):
    # the overlaps read as exact, but one vector is tilted by ~1e-6, so the
    # projectors no longer sum to d * I
    original = PureStateSet.from_pairs

    def tilted(dimension, pairs, tol=1e-9):
        states = original(dimension, pairs, tol)
        v = states.vectors.copy()
        v[0] += 1e-6 * v[1]
        v[0] /= np.linalg.norm(v[0])
        return PureStateSet(dimension, states.labels, v)

    def exact(states):
        o = np.full((len(states), len(states)), 1 / (states.dimension + 1))
        np.fill_diagonal(o, 1.0)
        return GramData(states.labels, o)

    monkeypatch.setattr(PureStateSet, "from_pairs", staticmethod(tilted))
    monkeypatch.setattr(ensembles, "gram", exact)
    for d in (2, 3):
        with pytest.raises(RuntimeError, match="resolve the identity"):
            generate_states(FamilySpec("sic", d))


def test_caves_example_feeds_scenario_generation():
    states = generate_states(FamilySpec("caves_example"))
    assert scenario_from_states(states) == generate_scenario("antidist_example")


def test_generated_scenarios_are_valid_and_verbatim():
    specker = generate_scenario("specker")
    assert set(specker.contexts) == {
        frozenset("ab"),
        frozenset("bc"),
        frozenset("ac"),
    }
    klyachko = generate_scenario("klyachko")
    assert klyachko.contexts == ()
    assert set(klyachko.partial_contexts) == {
        frozenset({"0", "1"}),
        frozenset({"1", "2"}),
        frozenset({"2", "3"}),
        frozenset({"3", "4"}),
        frozenset({"4", "0"}),
    }
    no_state = generate_scenario("no_state_example")
    assert len(no_state.contexts) == 5
    assert frozenset({"a1", "b1"}) in no_state.contexts
    classical = generate_scenario("classical", 4)
    assert classical.contexts == (frozenset({"x1", "x2", "x3", "x4"}),)
    partial = generate_scenario("partial_classical", 4)
    assert partial.contexts == ()
    for name in ("specker", "antidist_example", "klyachko", "no_state_example"):
        assert validate_scenario(generate_scenario(name)).valid


def test_scenario_generator_parameter_errors():
    with pytest.raises(UnsupportedParameterError):
        generate_scenario("classical")
    with pytest.raises(UnsupportedParameterError):
        generate_scenario("nope")


def test_all_state_families_validate_through_scenario_generation():
    # every family of the table, at its lowest dimension, generates a valid
    # scenario; two by design take other parameters: the full hadamard set
    # at d=2 holds the antipodal rays 00 and 11 (DuplicateRayError), and
    # scenario generation needs d >= 2
    adjusted = {"hadamard": FamilySpec("hadamard", 2, "B0"), "standard_basis": FamilySpec("standard_basis", 2)}
    for family, (_, dimensions) in ensembles._FAMILIES.items():
        spec = adjusted.get(family, FamilySpec(family, dimensions and dimensions[0]))
        s = scenario_from_states(generate_states(spec))
        assert validate_scenario(s).valid, family
