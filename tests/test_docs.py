"""The README's library example runs as written, its CLI examples parse, and
its flag table matches the parser."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from antictx import cli

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library example)", "exec"), {})


def test_readme_cli_examples_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[: argv.index(">")] if ">" in argv else argv for argv in lines if argv]
    assert len(commands) > 10 and all(argv[0] == "antictx" for argv in commands)
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def _commands(parser, words=()):
    """Each leaf command of `parser` as (its words, its parser)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*words, name))


def test_readme_flag_table_matches_the_parser():
    section = README.read_text().split("## CLI", 1)[1]
    header = "| command | `--tolerance` | `--node-budget` |"
    rows = section.split(header, 1)[1].split("\n\n", 1)[0].strip().splitlines()[1:]
    declared = {name: set(p._option_string_actions) for name, p in _commands(cli.build_parser())}
    listed = set()
    for row in rows:
        names, *marks = [cell.strip() for cell in row.strip("|").split("|")]
        flags = {flag for flag, mark in zip(("--tolerance", "--node-budget"), marks) if mark == "yes"}
        for name in re.findall(r"`([^`]+)`", names):
            listed.add(name)
            assert declared[name] & {"--tolerance", "--node-budget"} == flags, name
    assert listed == set(declared)
