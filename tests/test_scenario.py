import json
import random
import re
from pathlib import Path

import pytest

from antictx import scenario
from antictx.errors import ScenarioParseError, ScenarioValidationError
from antictx.scenario import (
    Finding,
    Scenario,
    load_scenario,
    make_scenario,
    parse_scenario,
    read_document,
    save_scenario,
    validate_scenario,
)

from helpers import random_scenario


def rules(findings):
    return {f.rule for f in findings}


def test_specker_triangle_is_valid():
    s = make_scenario(["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]])
    report = validate_scenario(s)
    assert report.valid
    assert not report.warnings


def test_context_antichain_violation():
    s = make_scenario(["a", "b"], [["a", "b"], ["a"]])
    report = validate_scenario(s)
    assert not report.valid
    assert "context-antichain" in rules(report.violations)


def test_context_repeated_as_partial_context():
    s = make_scenario(["a", "b"], [["a", "b"]], [["a", "b"]])
    report = validate_scenario(s)
    assert not report.valid
    assert "M-not-in-N" in rules(report.violations)


def test_partial_context_inside_context_is_only_a_warning():
    s = make_scenario(["a", "b", "c"], [["a", "b", "c"]], [["a", "b"]])
    report = validate_scenario(s)
    assert report.valid
    assert "partial-context-inside-context" in rules(report.warnings)


def test_unknown_outcome_and_empty_set():
    s = make_scenario(["a"], [["a", "zz"]], [[]])
    report = validate_scenario(s)
    assert {"outcome-unknown", "empty-set"} <= rules(report.violations)


def test_bad_labels():
    report = validate_scenario(make_scenario(["", "ok", "bad\x01"]))
    assert {"label-empty", "label-control-char"} <= rules(report.violations)


def test_empty_families_are_allowed():
    assert validate_scenario(make_scenario(["a", "b"])).valid


def test_load_specker_fixture(fixtures_dir):
    s = load_scenario((fixtures_dir / "specker.json").read_bytes())
    assert s.outcomes == ("a", "b", "c")
    assert set(s.contexts) == {frozenset("ab"), frozenset("bc"), frozenset("ac")}
    assert s.partial_contexts == ()


def test_load_antidist_fixture(fixtures_dir):
    s = load_scenario((fixtures_dir / "antidist_example.json").read_bytes())
    assert s.contexts == (frozenset({"a1_perp", "a2_perp", "a3_perp"}),)
    assert len(s.partial_contexts) == 3


def test_unknown_top_level_key_is_parse_error():
    doc = json.dumps({"outcomes": ["a"], "contexts": [], "extra": 1})
    with pytest.raises(ScenarioParseError):
        load_scenario(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        b"\xff{}",
        json.dumps(["a"]),
        json.dumps({"contexts": []}),
        json.dumps({"outcomes": "a"}),
        json.dumps({"outcomes": ["a"], "contexts": [["a"], "b"]}),
        json.dumps({"outcomes": [1, 2]}),
    ],
)
def test_malformed_documents(doc):
    with pytest.raises(ScenarioParseError):
        parse_scenario(doc)


def test_read_document_accepts_bytes_text_and_files(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes('{"a": "\u00e9"}'.encode("utf-8"))
    assert read_document(path.read_bytes()) == {"a": "\u00e9"}
    assert read_document(path.read_text(encoding="utf-8")) == {"a": "\u00e9"}
    with open(path, "rb") as fh:
        assert read_document(fh) == {"a": "\u00e9"}


def test_load_rejects_invalid_scenario():
    doc = json.dumps({"outcomes": ["a", "b"], "contexts": [["a", "b"], ["a"]]})
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(doc)
    assert "context-antichain" in rules(exc.value.report.violations)


def test_save_canonical_ordering():
    s = make_scenario(["c", "b", "a"], [["b", "a"], ["c", "b"], ["a", "c"]])
    doc = json.loads(save_scenario(s))
    assert doc["outcomes"] == ["a", "b", "c"]
    assert doc["contexts"] == [["a", "b"], ["a", "c"], ["b", "c"]]


def test_scrambled_input_gives_identical_bytes():
    ordered = make_scenario(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
    scrambled = make_scenario(["c", "a", "b"], [["c", "b"], ["b", "a"], ["c", "a"]])
    assert save_scenario(ordered) == save_scenario(scrambled)


def test_duplicates_are_dropped():
    s = make_scenario(["a", "a", "b"], [["a", "b"], ["b", "a"]])
    assert s.outcomes == ("a", "b")
    assert len(s.contexts) == 1


def test_a_set_listed_twice_is_reported_once_per_repeat():
    ab, bc = frozenset("ab"), frozenset("bc")
    s = Scenario(("a", "b", "c"), (ab, bc, ab))  # unsorted, the repeat not beside its first
    report = validate_scenario(s)
    assert report.violations == (Finding("set-duplicate", ("context", ("a", "b"))),)
    assert validate_scenario(make_scenario(s.outcomes, s.contexts, s.partial_contexts)).valid


def test_every_rule_emitted_is_documented():
    source = Path(scenario.__file__).read_text()
    emitted = set(re.findall(r'Finding\("([^"]+)"', source))
    assert {"label-duplicate", "set-duplicate", "partial-context-inside-context"} <= emitted
    for rule in emitted:
        assert f"``{rule}``" in validate_scenario.__doc__, rule


SCENARIO_FIXTURES = ("specker.json", "klyachko.json", "antidist_example.json", "no_state.json")


def test_round_trip_is_byte_identical_on_fixtures(fixtures_dir):
    for name in SCENARIO_FIXTURES:
        blob = (fixtures_dir / name).read_bytes()
        assert save_scenario(load_scenario(blob)) == blob, name


def test_canonicalization_idempotent_on_random_scenarios():
    rng = random.Random(7)
    for _ in range(50):
        s = random_scenario(rng)
        first = save_scenario(s)
        assert save_scenario(load_scenario(first)) == first


def test_unicode_labels_survive_round_trip():
    s = make_scenario(["α", "β"], [["α", "β"]])
    assert load_scenario(save_scenario(s)) == s
