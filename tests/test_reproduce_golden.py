"""`antictx reproduce --format json` against the recorded table.

Every key of every row must match exactly, except the floating-point
quantum values and the float in a row's detail text, which may move by
at most 1e-9.
"""

import json
import re

from antictx import cli

FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def _split_floats(text):
    return FLOAT.split(text), [float(x) for x in FLOAT.findall(text)]


def test_reproduce_json_matches_golden(fixtures_dir, capsys):
    golden = json.loads((fixtures_dir / "reproduce.json").read_text())
    assert cli.main(["reproduce", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == len(golden) == 15
    for got, want in zip(rows, golden):
        assert list(got) == list(want)
        assert got["pass"] is True
        for key, value in want.items():
            if key == "quantum_value" and value is not None:
                assert abs(got[key] - value) <= 1e-9, (want["example"], key)
            elif key == "detail":
                got_text, got_floats = _split_floats(got[key])
                want_text, want_floats = _split_floats(value)
                assert got_text == want_text, want["example"]
                assert len(got_floats) == len(want_floats)
                assert all(abs(g - w) <= 1e-9 for g, w in zip(got_floats, want_floats))
            else:
                assert got[key] == value, (want["example"], key)
