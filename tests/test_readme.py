"""The README's CLI and library examples run as written."""

import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from cyclewalk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(heading: str, lang: str) -> str:
    """The first ```lang block of the README section with this heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


CLI_EXAMPLES = [line for line in fenced("CLI", "sh").splitlines() if line.startswith("cyclewalk ")]


def test_every_subcommand_has_an_example():
    commands = {shlex.split(line)[1] for line in CLI_EXAMPLES}
    assert len(CLI_EXAMPLES) == 10 and commands == {"simulate", "verify", "solve", "special"}


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_exits_0(capsys, line):
    code = main(shlex.split(line)[1:])
    assert (code, capsys.readouterr().err) == (0, "")


def test_library_example_prints_what_its_comments_say():
    code, namespace, out = fenced("Library example", "python"), {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    first, second = out.getvalue().splitlines()
    n, rho, generators = re.search(r"# (\d+), ([\d.]+)\.\.\., \((.*)\)", code).groups()
    assert (n, generators, second) == ("30", "4/15, 2/5, 23/30, 9/10", "8")
    printed_n, printed_rho = first.split()[:2]
    assert (printed_n, printed_rho[:len(rho)]) == (n, rho)
    assert namespace["cert"].generators == tuple(map(Fraction, generators.split(", ")))
    assert code.rstrip().endswith(f"# {second}")
