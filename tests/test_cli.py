import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from antictx import cli, ensembles, quantum
from antictx.cli import dispatch
from antictx.ensembles import FamilySpec


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_validate_good_scenario(fixtures_dir):
    result = dispatch(["validate", fx(fixtures_dir, "specker.json")])
    assert result.exit_code == 0
    assert result.payload["valid"]


def test_validate_reports_violations(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"outcomes": ["a", "b"], "contexts": [["a", "b"], ["a"]]}))
    result = dispatch(["validate", str(bad)])
    assert result.exit_code == 1
    assert any(v["rule"] == "context-antichain" for v in result.payload["violations"])


def test_validate_unknown_key_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"outcomes": ["a"], "bogus": []}))
    result = dispatch(["validate", str(bad)])
    assert result.exit_code == 2


def _repeated_label(tmp_path):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"outcomes": ["a", "a", "b"], "contexts": [["a", "b"]]}))
    return str(path)


def test_validate_reports_a_repeated_label(tmp_path):
    result = dispatch(["validate", _repeated_label(tmp_path)])
    assert result.exit_code == 1
    assert result.payload["violations"] == [{"rule": "label-duplicate", "subjects": ["a"]}]


def test_loading_a_repeated_label_is_a_validation_error(tmp_path):
    result = dispatch(["value-functions", _repeated_label(tmp_path)])
    assert result.exit_code == 2
    assert result.payload["error"] == "validation"


REPEATED_MEMBER = {"outcomes": ["a", "b"], "contexts": [["a", "a", "b"]]}
REPEATED_SETS = {"outcomes": ["a", "b", "c"], "contexts": [["a", "b"], ["b", "a"]],
                 "partial_contexts": [["c", "a"], ["a", "c"]]}


@pytest.mark.parametrize("command", [["validate"], ["value-functions", "--count-only"]])
def test_a_set_naming_one_outcome_twice_is_a_parse_error(command, tmp_path):
    result = dispatch([*command, _write_json(tmp_path, "s.json", REPEATED_MEMBER)])
    assert result.exit_code == 2
    assert result.payload["error"] == "ScenarioParseError"
    assert result.payload["message"] == "contexts entry ['a', 'a', 'b'] names 'a' twice"


def test_validate_reports_a_set_listed_twice(tmp_path):
    result = dispatch(["validate", _write_json(tmp_path, "s.json", REPEATED_SETS)])
    assert result.exit_code == 1
    assert result.payload["violations"] == [
        {"rule": "set-duplicate", "subjects": ["context", ["a", "b"]]},
        {"rule": "set-duplicate", "subjects": ["partial-context", ["a", "c"]]},
    ]


def test_loading_a_set_listed_twice_is_a_validation_error(tmp_path):
    result = dispatch(["value-functions", "--count-only", _write_json(tmp_path, "s.json", REPEATED_SETS)])
    assert result.exit_code == 2
    assert result.payload["error"] == "validation"
    assert [v["rule"] for v in result.payload["violations"]] == ["set-duplicate", "set-duplicate"]


def test_missing_file_is_usage_error():
    assert dispatch(["validate", "/nonexistent/path.json"]).exit_code == 2


def test_usage_error_for_unknown_subcommand(capsys):
    result = dispatch(["frobnicate"])
    assert result.exit_code == 2


def test_value_functions_count_only(fixtures_dir):
    result = dispatch(
        ["value-functions", fx(fixtures_dir, "klyachko.json"), "--count-only"]
    )
    assert result.exit_code == 0
    assert result.payload == {"count": 11}


def test_value_functions_full_listing(fixtures_dir):
    result = dispatch(["value-functions", fx(fixtures_dir, "specker.json")])
    assert result.payload == {"count": 0, "value_functions": []}


def test_node_budget_exit_code(fixtures_dir):
    result = dispatch(
        ["value-functions", fx(fixtures_dir, "klyachko.json"), "--node-budget", "2"]
    )
    assert result.exit_code == 3


def _one_big_context(tmp_path, n=1500):
    labels = [f"o{i:04d}" for i in range(n)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"outcomes": labels, "contexts": [labels]}))
    return str(path)


def test_value_functions_count_only_on_deep_scenario(tmp_path):
    result = dispatch(["value-functions", _one_big_context(tmp_path), "--count-only"])
    assert result.exit_code == 0
    assert result.payload == {"count": 1500}


def test_node_budget_exit_code_on_deep_scenario(tmp_path):
    result = dispatch(
        ["value-functions", _one_big_context(tmp_path), "--count-only", "--node-budget", "100"]
    )
    assert result.exit_code == 3


def test_classical_bound_ones(fixtures_dir):
    result = dispatch(
        ["classical-bound", fx(fixtures_dir, "klyachko.json"), "--coeffs", "ones"]
    )
    assert result.exit_code == 0
    assert result.payload["bound"] == "2"
    assert result.payload["value_function_count"] == 11


def test_classical_bound_empty_polytope(fixtures_dir):
    result = dispatch(
        ["classical-bound", fx(fixtures_dir, "specker.json"), "--coeffs", "ones"]
    )
    assert result.exit_code == 1
    assert result.payload["error"] == "empty-polytope"


def test_classical_bound_coeffs_file(fixtures_dir, tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"0": "1", "2": "1"}}))
    result = dispatch(
        ["classical-bound", fx(fixtures_dir, "klyachko.json"), "--coeffs", str(coeffs)]
    )
    assert result.payload["bound"] == "2"


def test_state_bound(fixtures_dir):
    result = dispatch(
        ["state-bound", fx(fixtures_dir, "klyachko.json"), "--coeffs", "ones"]
    )
    assert result.exit_code == 0
    assert result.payload["value"] == "5/2"
    assert result.payload["point"]["0"] == "1/2"


def test_state_bound_infeasible(fixtures_dir):
    result = dispatch(
        ["state-bound", fx(fixtures_dir, "no_state.json"), "--coeffs", "ones"]
    )
    assert result.exit_code == 1
    assert result.payload["status"] == "infeasible"


def test_membership_not_member(fixtures_dir):
    result = dispatch(
        [
            "membership",
            fx(fixtures_dir, "klyachko.json"),
            "--state",
            fx(fixtures_dir, "klyachko_half_state.json"),
        ]
    )
    assert result.exit_code == 1
    assert result.payload == {"member": False, "reason": "not-member"}


def test_membership_member(fixtures_dir):
    result = dispatch(
        [
            "membership",
            fx(fixtures_dir, "antidist_example.json"),
            "--state",
            fx(fixtures_dir, "example3_third_state.json"),
        ]
    )
    assert result.exit_code == 0
    assert result.payload["member"] is True
    total = sum(
        json.loads(json.dumps(int(w["weight"].split("/")[0]))) / int(w["weight"].split("/")[1])
        if "/" in w["weight"]
        else int(w["weight"])
        for w in result.payload["weights"]
    )
    assert abs(total - 1) < 1e-9


def test_membership_weights_as_text_are_one_entry_each(fixtures_dir, capsys):
    argv = ["membership", fx(fixtures_dir, "antidist_example.json"),
            "--state", fx(fixtures_dir, "example3_third_state.json")]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["member: True", "weights:", "  -"]
    assert lines.count("  -") == 3
    assert sum(line.startswith("    support:") for line in lines) == 3


def test_membership_invalid_state_is_usage_error(fixtures_dir, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"state": {str(i): "2/3" for i in range(5)}}))
    result = dispatch(
        ["membership", fx(fixtures_dir, "klyachko.json"), "--state", str(state)]
    )
    assert result.exit_code == 2


def test_quantum_scenario_matches_fixture(fixtures_dir):
    result = dispatch(["quantum-scenario", fx(fixtures_dir, "caves_vectors.json")])
    assert result.exit_code == 0
    expected = json.loads((fixtures_dir / "antidist_example.json").read_text())
    assert result.payload == expected


def test_check_anti_overlaps_negative():
    result = dispatch(["check-anti", "--overlaps", "1,0,0"])
    assert result.exit_code == 1
    assert result.payload["antidistinguishable"] is False


def test_check_anti_overlaps_rational_forms():
    result = dispatch(["check-anti", "--overlaps", "1/9,1/3,1/3"])
    assert result.exit_code == 0
    assert result.payload["antidistinguishable"] is True
    assert result.payload["boundary"] is True


def test_check_anti_triple_from_vectors(fixtures_dir):
    result = dispatch(
        [
            "check-anti",
            "--vectors",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--triple",
            "a1,a2,c1",
        ]
    )
    assert result.exit_code == 0
    assert result.payload["antidistinguishable"] is True


def test_check_anti_certificate(fixtures_dir):
    result = dispatch(
        ["check-anti", "--certificate", fx(fixtures_dir, "caves_certificate.json")]
    )
    assert result.exit_code == 0
    assert result.payload["valid"] is True


def test_check_anti_requires_exactly_one_mode():
    assert dispatch(["check-anti"]).exit_code == 2
    assert dispatch(["check-anti", "--overlaps", "0,0,0", "--certificate", "x"]).exit_code == 2


def test_antiset_verify(fixtures_dir):
    result = dispatch(
        [
            "antiset",
            "verify",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--members",
            "a1,a2,a3,a4",
            "--principal",
            "c1,c2,c3",
        ]
    )
    assert result.exit_code == 0
    assert result.payload["triple_count"] == 18
    assert result.payload["boundary_triples"] == 18


def test_antiset_verify_failed_triple(tmp_path):
    states = ensembles.generate_states(FamilySpec("hadamard", 2, "B0")).union(
        ensembles.generate_states(FamilySpec("standard_basis", 2))
    )
    path = tmp_path / "h2.json"
    path.write_bytes(quantum.save_states(states))
    result = dispatch(
        [
            "antiset",
            "verify",
            str(path),
            "--members",
            "00,01",
            "--principal",
            "e1,e2",
        ]
    )
    assert result.exit_code == 1
    assert result.payload["verified"] is False
    assert result.payload["failed_triple"]


def test_antiset_verify_weak_single_principal(tmp_path):
    states = ensembles.generate_states(FamilySpec("maroney", 5))
    path = tmp_path / "maroney.json"
    path.write_bytes(quantum.save_states(states))
    result = dispatch(
        ["antiset", "verify", str(path), "--members", "a1,a2,a3,a4", "--principal", "c"]
    )
    assert result.exit_code == 0
    assert result.payload["kind"] == "weak"
    assert result.payload["principal"] == "c"

    emitted = dispatch(
        ["inequality", "emit", "--vectors", str(path), "--members", "a1,a2,a3,a4",
         "--principal", "c"]
    )
    assert emitted.exit_code == 0
    assert emitted.payload["bound"] == "1"
    assert emitted.payload["side_constraints"] == [{"label": "c", "value": "1"}]


def test_inequality_missing_options_are_usage_errors(fixtures_dir, tmp_path):
    assert dispatch(["inequality", "emit"]).exit_code == 2
    assert dispatch(["inequality", "evaluate", "--rho", "mixed"]).exit_code == 2
    # augment takes exactly one addition; argparse says so, with no error payload
    ineq = ["inequality", "augment", "--ineq", _write_json(tmp_path, "i.json", {"coefficients": {}, "bound": "1"})]
    for argv in (ineq, ineq + ["--add-context", "c1", "--add-outcome", "c1"]):
        result = dispatch(argv)
        assert result.exit_code == 2 and result.payload is None


def test_augment_rejects_empty_additions(tmp_path):
    doc = {"coefficients": {"a1": "1"}, "bound": "1"}
    ineq = ["inequality", "augment", "--ineq", _write_json(tmp_path, "i.json", doc)]
    for addition in (["--add-context", ""], ["--add-context", "c1,,c2"]):
        result = dispatch(ineq + addition)
        assert result.exit_code == 2 and result.payload is None  # an argparse usage error
    result = dispatch(ineq + ["--add-inequality", ""])
    assert result.exit_code == 2
    assert result.payload["error"] == "FileNotFoundError"
    assert "No such file or directory: ''" in result.payload["message"]


# every command with a valid argv, and which of --tolerance and --node-budget it takes (the README table)
GRAMMAR = [
    (["validate", "s.json"], ()),
    (["value-functions", "s.json"], ("--node-budget",)),
    (["classical-bound", "s.json", "--coeffs", "ones"], ("--node-budget",)),
    (["state-bound", "s.json", "--coeffs", "ones"], ()),
    (["membership", "s.json", "--state", "p.json"], ("--node-budget",)),
    (["quantum-scenario", "v.json"], ("--tolerance", "--node-budget")),
    (["check-anti", "--overlaps", "0,0,0"], ("--tolerance",)),
    (["antiset", "verify", "v.json", "--members", "a,b", "--principal", "c"], ("--tolerance",)),
    (["antiset", "find", "v.json", "--members", "a,b", "--principal", "c"], ("--tolerance", "--node-budget")),
    (["inequality", "emit", "--vectors", "v.json", "--members", "a,b", "--principal", "c"], ("--tolerance",)),
    (["inequality", "augment", "--ineq", "i.json", "--add-outcome", "c"], ()),
    (["inequality", "evaluate", "--ineq", "i.json", "--vectors", "v.json"], ("--tolerance",)),
    (["generate", "klyachko"], ()),
    (["reproduce"], ("--tolerance", "--node-budget")),
]


@pytest.mark.parametrize("flag, value, default", [("--tolerance", 0.5, quantum.TOLERANCE), ("--node-budget", 7, None)])
@pytest.mark.parametrize("argv, flags", GRAMMAR, ids=[" ".join(argv[:2]) for argv, _ in GRAMMAR])
def test_each_command_takes_only_the_flags_it_reads(argv, flags, flag, value, default, capsys):
    parser = cli.build_parser()
    dest = flag[2:].replace("-", "_")
    if flag in flags:
        assert getattr(parser.parse_args(argv), dest) == default
        assert getattr(parser.parse_args(argv + [flag, str(value)]), dest) == value
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [flag, str(value)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["state-bound", "{fx}/klyachko.json", "--coeffs", "ones", "--node-budget", "0"],
        ["validate", "{fx}/klyachko.json", "--tolerance", "0.5"],
        ["antiset", "verify", "{fx}/yu_oh_all.json", "--members", "a1,a2,a3,a4", "--principal", "c1,c2,c3",
         "--node-budget", "0"],
        ["inequality", "emit", "--vectors", "{fx}/yu_oh_all.json", "--members", "a1,a2,a3,a4",
         "--principal", "c1,c2,c3", "--rho", "mixed", "--ineq", "x", "--add-context", "c1"],
        ["check-anti", "--overlaps", "0.1,0.1,0.1", "--triple", "a,b,c"],
        ["inequality", "augment", "--vectors", "x"],
        ["--tolerance", "1e-6", "check-anti", "--overlaps", "0.1,0.1,0.1"],  # only after the command
    ],
)
def test_stray_flags_are_usage_errors(argv, fixtures_dir):
    assert dispatch([a.format(fx=fixtures_dir) for a in argv]).exit_code == 2


def test_vectors_and_triple_go_together(fixtures_dir):
    vectors = fx(fixtures_dir, "yu_oh_all.json")
    for argv in (["--vectors", vectors], ["--triple", "a1,a2,c1"],
                 ["--certificate", fx(fixtures_dir, "caves_certificate.json"), "--triple", "a1,a2,c1"]):
        assert dispatch(["check-anti", *argv]).exit_code == 2


def test_comma_triples_need_three_values(fixtures_dir, capsys):
    vectors = fx(fixtures_dir, "yu_oh_all.json")
    for flag, argv in (("--overlaps", ["--overlaps", "1,2"]), ("--triple", ["--vectors", vectors, "--triple", "1,2"])):
        assert dispatch(["check-anti", *argv]).exit_code == 2
        assert f"argument {flag}: needs three comma-separated values, got 1,2" in capsys.readouterr().err


def test_format_goes_before_or_after_a_nested_command(fixtures_dir):
    verify = [fx(fixtures_dir, "yu_oh_all.json"), "--members", "a1,a2", "--principal", "c1,c2,c3"]
    j = ["--format", "json"]
    for argv in ([*j, "antiset", "verify", *verify], ["antiset", *j, "verify", *verify],
                 ["antiset", "verify", *verify, *j]):
        result = dispatch(argv)
        assert result.exit_code == 0 and result.fmt == "json"


def test_antiset_find(fixtures_dir):
    result = dispatch(
        [
            "antiset",
            "find",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--members",
            "a1,a2,a3,a4",
            "--principal",
            "c1,c2,c3",
        ]
    )
    assert result.exit_code == 0
    assert len(result.payload["antisets"]) == 1
    assert result.payload["antisets"][0]["members"] == ["a1", "a2", "a3", "a4"]


def test_antiset_find_node_budget_exit_code(fixtures_dir):
    argv = ["antiset", "find", fx(fixtures_dir, "yu_oh_all.json"),
            "--members", "a1,a2,a3,a4", "--principal", "c1,c2,c3"]
    assert dispatch(argv + ["--node-budget", "1"]).exit_code == 3
    assert dispatch(argv + ["--node-budget", "5"]).exit_code == 0


def test_negative_node_budget_is_usage_error(fixtures_dir, capsys):
    count = ["value-functions", fx(fixtures_dir, "klyachko.json"), "--count-only"]
    find = ["antiset", "find", fx(fixtures_dir, "yu_oh_all.json"),
            "--members", "a1,a2,a3,a4", "--principal", "c1,c2,c3"]
    for argv in (count + ["--node-budget", "-1"], find + ["--node-budget", "-3"],
                 count + ["--node-budget", "2.5"]):
        assert dispatch(argv).exit_code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "node budget must be a nonnegative integer" in err
    # zero is a valid budget that runs out at once
    assert dispatch(count + ["--node-budget", "0"]).exit_code == 3


def test_antiset_find_repeated_ray_is_usage_error(tmp_path):
    pool = ensembles.generate_states(FamilySpec("hadamard", 4, "B0")).union(
        ensembles.generate_states(FamilySpec("hadamard", 4, "B1"))
    )
    path = tmp_path / "h4.json"
    path.write_bytes(quantum.save_states(pool.union(ensembles.generate_states(FamilySpec("standard_basis", 4)))))
    result = dispatch(["antiset", "find", str(path), "--members", ",".join(pool.labels),
                       "--principal", "e1,e2,e3,e4", "--format", "json"])
    assert result.exit_code == 2
    assert result.payload["error"] == "DuplicateRayError"


def test_inequality_emit_augment_evaluate(fixtures_dir, tmp_path):
    emit = dispatch(
        [
            "inequality",
            "emit",
            "--vectors",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--members",
            "a1,a2,a3,a4",
            "--principal",
            "c1,c2,c3",
        ]
    )
    assert emit.exit_code == 0
    assert emit.payload["bound"] == "1"
    ineq_path = tmp_path / "ineq.json"
    ineq_path.write_text(json.dumps(emit.payload))

    augmented = dispatch(
        [
            "inequality",
            "augment",
            "--ineq",
            str(ineq_path),
            "--add-context",
            "c1,c2,c3",
        ]
    )
    assert augmented.exit_code == 0
    assert augmented.payload["bound"] == "2"

    evaluated = dispatch(
        [
            "inequality",
            "evaluate",
            "--ineq",
            str(ineq_path),
            "--vectors",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--rho",
            "mixed",
        ]
    )
    assert evaluated.exit_code == 0
    assert evaluated.payload["violated"] is True
    assert abs(evaluated.payload["lhs"] - 4 / 3) < 1e-9


def test_inequality_text_output_is_pipeable_json(fixtures_dir, tmp_path, capsys):
    # emit/augment print the inequality document itself, so shell pipelines
    # can feed one command's stdout into the next command's --ineq
    code = cli.main(
        [
            "inequality",
            "emit",
            "--vectors",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--members",
            "a1,a2,a3,a4",
            "--principal",
            "c1,c2,c3",
        ]
    )
    assert code == 0
    emitted = capsys.readouterr().out
    ineq_path = tmp_path / "piped.json"
    ineq_path.write_text(emitted)

    code = cli.main(
        ["inequality", "augment", "--ineq", str(ineq_path), "--add-context", "c1,c2,c3"]
    )
    assert code == 0
    augmented = json.loads(capsys.readouterr().out)
    assert augmented["bound"] == "2"


def test_inequality_evaluate_not_violated(fixtures_dir, tmp_path):
    ineq = {
        "coefficients": {"a1": "1"},
        "bound": "2",
        "kind": "state-independent",
        "side_constraints": [],
        "provenance": "test",
    }
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(ineq))
    result = dispatch(
        [
            "inequality",
            "evaluate",
            "--ineq",
            str(path),
            "--vectors",
            fx(fixtures_dir, "yu_oh_all.json"),
            "--rho",
            "label:a1",
        ]
    )
    assert result.exit_code == 1
    assert result.payload["violated"] is False


def test_generate_states_and_scenarios():
    result = dispatch(["generate", "yu_oh_rays"])
    assert result.exit_code == 0
    assert result.payload["dimension"] == 3
    assert len(result.payload["states"]) == 4

    result = dispatch(["generate", "hadamard", "--d", "3", "--subset", "B0"])
    assert len(result.payload["states"]) == 4

    result = dispatch(["generate", "klyachko"])
    assert result.payload["partial_contexts"] == [
        ["0", "1"],
        ["0", "4"],
        ["1", "2"],
        ["2", "3"],
        ["3", "4"],
    ]

    result = dispatch(["generate", "classical", "--n", "3"])
    assert result.payload["contexts"] == [["x1", "x2", "x3"]]


def test_generate_rejects_bad_parameters():
    assert dispatch(["generate", "mub", "--d", "4"]).exit_code == 2
    assert dispatch(["generate", "unknown_family"]).exit_code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["klyachko", "--d", "7"],  # a scenario takes no dimension
        ["classical", "--n", "3", "--d", "3"],
        ["specker", "--subset", "B0"],  # nor a subset
        ["caves_example", "--subset", "B1", "--n", "4"],
        ["mub", "--d", "5", "--subset", "B0"],  # only hadamard takes a subset
        ["standard_basis", "--d", "3", "--subset", "full"],
        ["yu_oh_rays", "--d", "3"],  # a fixed family takes no dimension
        ["caves_example", "--d", "3"],
        ["mub", "--d", "5", "--n", "2"],  # a state family takes no --n
        ["yu_oh_principal", "--n", "3"],
        ["specker", "--n", "3"],  # only the classical scenarios take --n
    ],
)
def test_generate_rejects_flags_its_family_does_not_take(argv):
    assert dispatch(["generate", *argv]).exit_code == 2


def test_generate_needs_the_dimension_of_a_sized_family():
    for family in ("standard_basis", "hadamard", "mub", "maroney", "sic"):
        result = dispatch(["generate", family])
        assert result.exit_code == 2
        assert result.payload["message"] == f"{family} needs a dimension"


def test_json_and_text_report_identical_numbers(fixtures_dir, capsys):
    argv = ["classical-bound", fx(fixtures_dir, "klyachko.json"), "--coeffs", "ones"]
    code = cli.main(argv + ["--format", "json"])
    json_out = capsys.readouterr().out
    assert code == 0
    assert json.loads(json_out)["bound"] == "2"
    code = cli.main(argv + ["--format", "text"])
    text_out = capsys.readouterr().out
    assert "bound: 2" in text_out


def test_json_output_is_the_indented_payload_and_no_text(fixtures_dir, capsys):
    argv = ["value-functions", fx(fixtures_dir, "klyachko.json"), "--format", "json"]
    result = dispatch(argv)
    assert result.text is None  # text is rendered only when asked for
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == json.dumps(result.payload, indent=2) + "\n"
    assert cli.main(argv[:-2]) == 0
    assert capsys.readouterr().out.startswith("count: 11\nvalue_functions:\n")


def test_global_flags_accepted_before_subcommand(fixtures_dir):
    result = dispatch(
        ["--format", "json", "validate", fx(fixtures_dir, "specker.json")]
    )
    assert result.exit_code == 0
    assert result.fmt == "json"


def test_stdin_input(fixtures_dir, monkeypatch):
    import io

    blob = (fixtures_dir / "specker.json").read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(blob)))
    result = dispatch(["validate", "-"])
    assert result.exit_code == 0


REPRODUCE_TEXT = """\
example           bound    quantum violated  result
---------------------------------------------------
specker               -          -        -  PASS
no-state              -          -        -  PASS
klyachko              2          -        -  PASS
example3-bridge       -          -        -  PASS
yu-oh                 1   1.333333      yes  PASS
hadamard-d3           2   2.666667      yes  PASS
hadamard-d4           2   4.000000      yes  PASS
hadamard-d5           2   6.400000      yes  PASS
hadamard-d6           2  10.666667      yes  PASS
mub-d5                2   6.000000      yes  PASS
maroney-d4            1   1.000000       no  PASS
maroney-d5            1   1.333333      yes  PASS
maroney-d6            1   1.666667      yes  PASS
maroney-d7            1   2.000000      yes  PASS
sic-d3                2   3.000000      yes  PASS
all rows pass"""


def test_reproduce_all_rows_pass():
    result = dispatch(["reproduce"])
    assert result.exit_code == 0
    assert all(row["pass"] for row in result.payload)
    assert {row["example"] for row in result.payload} >= {
        "specker",
        "klyachko",
        "yu-oh",
        "mub-d5",
        "sic-d3",
    }
    assert result.text == REPRODUCE_TEXT


def test_reproduce_out_of_budget_exits_3(capsys):
    assert cli.main(["reproduce", "--node-budget", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeded 1 nodes" in captured.err


def test_reproduce_loose_tolerance_still_passes():
    result = dispatch(["reproduce", "--tolerance", "1e-2"])
    assert result.exit_code == 0
    assert all(row["pass"] for row in result.payload)


def test_reproduce_fault_injection_names_the_broken_row(monkeypatch):
    import numpy as np

    true_generate = ensembles.generate_states

    def corrupted(spec):
        states = true_generate(spec)
        if spec.family == "mub":
            vectors = states.vectors.copy()
            # norm-preserving corruption: swap two components of one vector
            vectors[7][0], vectors[7][1] = vectors[7][1], vectors[7][0]
            return quantum.PureStateSet(states.dimension, states.labels, vectors)
        return states

    monkeypatch.setattr(ensembles, "generate_states", corrupted)
    result = dispatch(["reproduce"])
    assert result.exit_code == 1
    failing = [row["example"] for row in result.payload if not row["pass"]]
    assert failing == ["mub-d5"]
    assert result.text.splitlines()[-1] == "FAILED: mub-d5 (total 1 failing)"


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_zero_denominator_coefficient_is_usage_error(fixtures_dir, tmp_path):
    coeffs = _write_json(tmp_path, "c.json", {"coeffs": {"0": "1/0"}})
    result = dispatch(["classical-bound", fx(fixtures_dir, "klyachko.json"), "--coeffs", coeffs])
    assert result.exit_code == 2


def test_bad_coefficient_is_a_parse_error_naming_its_label(fixtures_dir, tmp_path):
    coeffs = _write_json(tmp_path, "c.json", {"coeffs": {"0": "1", "3": "x"}})
    result = dispatch(["classical-bound", fx(fixtures_dir, "klyachko.json"), "--coeffs", coeffs])
    assert result.exit_code == 2
    assert result.payload == {"error": "ScenarioParseError", "message": "bad rational for '3': 'x'"}


def test_zero_denominator_overlap_is_usage_error():
    assert dispatch(["check-anti", "--overlaps", "1/0,0,0"]).exit_code == 2


def _evaluate_argv(fixtures_dir, tmp_path, vectors, rho_doc):
    ineq = _write_json(tmp_path, "ineq.json", {"coefficients": {"a1": "1"}, "bound": "1"})
    rho = _write_json(tmp_path, "rho.json", rho_doc)
    return ["inequality", "evaluate", "--ineq", ineq, "--vectors", vectors, "--rho", rho]


def test_non_string_side_constraint_label_is_usage_error(fixtures_dir, tmp_path):
    side = [{"label": 5, "value": "1"}, {"label": "zz", "value": "1"}]
    ineq = _write_json(tmp_path, "ineq.json", {"coefficients": {"a1": "1"}, "bound": "1", "side_constraints": side})
    result = dispatch(["inequality", "evaluate", "--ineq", ineq, "--vectors", fx(fixtures_dir, "yu_oh_all.json")])
    assert result.exit_code == 2
    assert result.payload["error"] == "ScenarioParseError"


def test_conflicting_side_constraints_are_usage_errors(fixtures_dir, tmp_path):
    # neither a verdict from evaluate nor a missing pin from augment
    side = [{"label": "c1", "value": "1"}, {"label": "c1", "value": "0"}]
    ineq = _write_json(tmp_path, "ineq.json", {"coefficients": {"a1": "1"}, "bound": "1", "side_constraints": side})
    vectors = fx(fixtures_dir, "yu_oh_all.json")
    for argv in (["evaluate", "--ineq", ineq, "--vectors", vectors, "--rho", "label:c1"],
                 ["augment", "--ineq", ineq, "--add-outcome", "c1"]):
        result = dispatch(["inequality", *argv])
        assert result.exit_code == 2
        assert result.payload == {"error": "ScenarioParseError",
                                  "message": "conflicting side constraints on 'c1': 1 vs 0"}


def test_side_constraint_pinning_to_neither_0_nor_1_is_a_usage_error(fixtures_dir, tmp_path):
    # no probability meets such a pin, so evaluate must not give a verdict on it
    side = [{"label": "c1", "value": "7"}]
    ineq = _write_json(tmp_path, "ineq.json", {"coefficients": {"a1": "1"}, "bound": "1", "side_constraints": side})
    argv = ["inequality", "evaluate", "--ineq", ineq, "--vectors", fx(fixtures_dir, "yu_oh_all.json"), "--rho", "label:c1"]
    result = dispatch(argv)
    assert result.exit_code == 2
    assert result.payload == {"error": "ScenarioParseError", "message": "side constraint pins 'c1' to 7, not to 0 or 1"}


def test_density_document_must_be_a_matrix_of_pairs(fixtures_dir, tmp_path):
    vectors = fx(fixtures_dir, "yu_oh_all.json")
    result = dispatch(_evaluate_argv(fixtures_dir, tmp_path, vectors, {"matrix": 5}))
    assert result.exit_code == 2
    ragged = {"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}
    assert dispatch(_evaluate_argv(fixtures_dir, tmp_path, vectors, ragged)).exit_code == 2


def test_density_document_rejects_unknown_keys(fixtures_dir, tmp_path):
    vectors = fx(fixtures_dir, "yu_oh_all.json")
    mixed = [[[1 / 3 if i == j else 0, 0] for j in range(3)] for i in range(3)]
    assert dispatch(_evaluate_argv(fixtures_dir, tmp_path, vectors, {"matrix": mixed})).exit_code == 1
    result = dispatch(_evaluate_argv(fixtures_dir, tmp_path, vectors, {"matrix": mixed, "rho_typo": 1}))
    assert result.exit_code == 2
    assert result.payload["error"] == "ScenarioParseError"


def _unit_pairs(d, norm=1.0):
    rows = []
    for k in range(d):
        components = [[0, 0] for _ in range(d)]
        components[k] = [norm if k == 0 else 1, 0]
        rows.append({"label": f"e{k + 1}", "components": components})
    return {"dimension": d, "states": rows}


def test_vector_components_must_be_number_pairs(tmp_path):
    doc = _unit_pairs(2)
    doc["states"][0]["components"][0] = ["1", 0]
    assert dispatch(["quantum-scenario", _write_json(tmp_path, "v.json", doc)]).exit_code == 2


def test_vector_labels_must_be_strings(tmp_path):
    doc = _unit_pairs(2)
    doc["states"][0]["label"] = 5
    assert dispatch(["quantum-scenario", _write_json(tmp_path, "v.json", doc)]).exit_code == 2


def test_node_budget_reaches_the_clique_search_of_quantum_scenario(fixtures_dir):
    result = dispatch(["quantum-scenario", fx(fixtures_dir, "yu_oh_all.json"), "--node-budget", "0"])
    assert result.exit_code == 3
    assert result.payload["message"] == "clique search exceeded 0 nodes"


def test_tolerance_reaches_the_overlap_range_check():
    argv = ["check-anti", "--overlaps", "1.0000001,0,0"]
    assert dispatch(argv).exit_code == 2
    assert dispatch(argv + ["--tolerance", "1e-6"]).exit_code in (0, 1)


def test_tolerance_reaches_the_norm_check(tmp_path):
    vectors = _write_json(tmp_path, "v.json", _unit_pairs(2, norm=1.0000001))
    assert dispatch(["quantum-scenario", vectors]).exit_code == 2
    result = dispatch(["quantum-scenario", vectors, "--tolerance", "1e-6"])
    assert result.exit_code == 0
    assert result.payload["contexts"] == [["e1", "e2"]]
    # argparse abbreviation: --tol is --tolerance
    assert dispatch(["quantum-scenario", vectors, "--tol", "1e-6"]).exit_code == 0


def test_tolerance_reaches_norms_of_sliced_state_sets(tmp_path):
    vectors = _write_json(tmp_path, "v.json", _unit_pairs(3, norm=1.0000001))
    argv = ["check-anti", "--vectors", vectors, "--triple", "e1,e2,e3"]
    assert dispatch(argv).exit_code == 2
    assert dispatch(argv + ["--tolerance", "1e-6"]).exit_code == 0


def test_tolerance_reaches_the_density_matrix_check(fixtures_dir, tmp_path):
    rho = {"matrix": [[[0.5000001, 0], [0, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]}
    argv = _evaluate_argv(fixtures_dir, tmp_path, fx(fixtures_dir, "yu_oh_all.json"), rho)
    assert dispatch(argv).exit_code == 2
    assert dispatch(argv + ["--tolerance", "1e-6"]).exit_code in (0, 1)


def test_tolerance_must_lie_between_zero_and_one():
    for value in ("0", "-1", "nan", "1"):
        assert dispatch(["check-anti", "--overlaps", "0.1,0.1,0.1", "--tolerance", value]).exit_code == 2


def test_non_numeric_tolerance_is_usage_error(capsys):
    assert dispatch(["check-anti", "--overlaps", "0.1,0.1,0.1", "--tolerance", "abc"]).exit_code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "argument --tolerance: tolerance must be a number, got abc" in err
    assert "_tolerance" not in err


def test_tolerance_that_joins_more_than_d_rays_is_usage_error(fixtures_dir):
    # at 0.5 the Yu-Oh rays form a clique of 7 mutually "orthogonal" rays in d = 3
    argv = ["quantum-scenario", fx(fixtures_dir, "yu_oh_all.json"), "--tolerance", "0.5"]
    result = dispatch(argv)
    assert result.exit_code == 2
    assert result.payload["error"] == "ToleranceAmbiguityError"
    assert "clique of 7" in result.payload["message"]


def test_quantum_scenario_has_no_tol_option(capsys):
    assert dispatch(["quantum-scenario", "--help"]).exit_code == 0
    usage = capsys.readouterr().out
    assert "--tolerance" in usage
    assert "--tol " not in usage and "--tol\n" not in usage


def test_nan_vector_component_is_usage_error(tmp_path):
    doc = _unit_pairs(3)
    doc["states"][2]["components"][0] = [float("nan"), 0]
    vectors = _write_json(tmp_path, "v.json", doc)
    result = dispatch(["quantum-scenario", vectors])
    assert result.exit_code == 2
    assert "'e3' is not unit-norm" in result.payload["message"]
    assert dispatch(["check-anti", "--vectors", vectors, "--triple", "e1,e2,e3"]).exit_code == 2


def test_nan_density_matrix_is_usage_error(fixtures_dir, tmp_path):
    vectors = fx(fixtures_dir, "yu_oh_all.json")
    nan = float("nan")
    on_diagonal = [[[nan, 0], [0, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0.5, 0]]]
    off_diagonal = [[[1 / 3, 0], [nan, 0], [0, 0]], [[nan, 0], [1 / 3, 0], [0, 0]], [[0, 0], [0, 0], [1 / 3, 0]]]
    for matrix in (on_diagonal, off_diagonal):
        result = dispatch(_evaluate_argv(fixtures_dir, tmp_path, vectors, {"matrix": matrix}))
        assert result.exit_code == 2
        assert result.payload["error"] == "ValueError"


def test_certificate_without_targets_is_usage_error(fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "caves_certificate.json").read_text())
    doc["targets"] = []
    result = dispatch(["check-anti", "--certificate", _write_json(tmp_path, "cert.json", doc)])
    assert result.exit_code == 2
    assert result.payload["message"] == "'targets' must name at least one state"


def test_closed_pipe_leaves_no_traceback():
    # ~0.5 MB of JSON: the writer is still blocked on the pipe when it closes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "antictx.cli", "generate", "standard_basis", "--d", "100"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.wait(timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err
