"""README drift guard: the examples in README.md must run against this epkit.

A doc that names a removed flag, or shows a matrix file or a library call
the code no longer accepts, fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from epkit import cli, serialize

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str) -> str:
    """The body of the first fenced code block under a README heading."""
    _, found, section = README.partition(f"\n{heading}\n")
    assert found, f"README has no heading {heading!r}"
    match = re.search(r"^```[a-z]*\n(.*?)^```", section, re.S | re.M)
    assert match, f"README has no code block under {heading!r}"
    return match.group(1)


COMMAND_LINES = [
    line for line in fenced_block("## Command line").splitlines() if line.startswith("epkit ")
]


def test_command_line_block_shows_every_command():
    assert [line.split()[1] for line in COMMAND_LINES] == ["classify", "verify", "suite", "model"]


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_example_parses(line):
    # Optional groups such as [--output report.json] are dropped.
    argv = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def test_matrix_file_example_parses():
    m = serialize.parse_matrix_text(fenced_block("### Matrix file format"))
    assert m.shape == (2, 2)


def test_library_quick_start_runs():
    exec(compile(fenced_block("## Library quick start"), "README.md", "exec"), {})
