"""Exact stdout, stderr and exit code of the commands whose payloads are
built from result records, in both output formats.

`tests/fixtures/cli_outputs.json` was recorded while every payload was
still copied field by field; the records must reproduce it byte for byte.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from antictx import cli, ensembles, quantum
from antictx.ensembles import FamilySpec

FIXTURES = Path(__file__).parent / "fixtures"

# one violation of each shape (flat and nested subjects) and one warning
INVALID_SCENARIO = {
    "outcomes": ["a", "b", "c"],
    "contexts": [["a", "b"], ["a"], ["c", "d"]],
    "partial_contexts": [["b"]],
}
YU_OH_INEQUALITY = {"coefficients": {"a1": "1", "a2": "1", "a3": "1", "a4": "1"}, "bound": "1"}

CASES = {
    "validate-invalid": ["validate", "{tmp}/invalid.json"],
    "load-invalid": ["value-functions", "{tmp}/invalid.json"],
    "check-anti-overlaps-boundary": ["check-anti", "--overlaps", "1/9,1/3,1/3"],
    "check-anti-overlaps-negative": ["check-anti", "--overlaps", "1/2,1/2,1/2"],
    "check-anti-vectors": ["check-anti", "--vectors", "{fixtures}/yu_oh_all.json", "--triple", "a1,a2,c1"],
    "check-anti-certificate": ["check-anti", "--certificate", "{fixtures}/caves_certificate.json"],
    "antiset-verify-failed-triple": [
        "antiset", "verify", "{tmp}/hadamard2.json", "--members", "00,01", "--principal", "e1,e2",
    ],
    "inequality-evaluate": [
        "inequality", "evaluate", "--ineq", "{tmp}/ineq.json",
        "--vectors", "{fixtures}/yu_oh_all.json", "--rho", "mixed",
    ],
}


def write_inputs(workdir: Path) -> None:
    (workdir / "invalid.json").write_text(json.dumps(INVALID_SCENARIO))
    (workdir / "ineq.json").write_text(json.dumps(YU_OH_INEQUALITY))
    states = ensembles.generate_states(FamilySpec("hadamard", 2, "B0")).union(
        ensembles.generate_states(FamilySpec("standard_basis", 2))
    )
    (workdir / "hadamard2.json").write_bytes(quantum.save_states(states))


def run_case(name: str, fmt: str, workdir: Path) -> dict:
    """The exit code and output streams of one case under `cli.main`."""
    argv = [a.format(tmp=workdir, fixtures=FIXTURES) for a in CASES[name]] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_recording(name, fmt, tmp_path):
    recorded = json.loads((FIXTURES / "cli_outputs.json").read_text())
    write_inputs(tmp_path)
    assert run_case(name, fmt, tmp_path) == recorded[f"{name} {fmt}"]
