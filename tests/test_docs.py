"""The README's library example runs as written, and its CLI examples parse."""

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
