"""The README examples run: every Python block executes, every CLI line parses, every named object exists."""

import pkgutil
import re
import shlex
from pathlib import Path

import pytest

from ordpat.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, flags=re.DOTALL)
PYTHON_BLOCKS = [code for lang, code in BLOCKS if lang == "python"]
# backticked dotted names such as `ordpat.io.write_csv` or `ordpat.patterns.permutation_table(n)`
DOTTED_NAMES = sorted(set(re.findall(r"`(ordpat(?:\.\w+)+)", README)))


def cli_lines():
    """Each ``ordpat ...`` command of the shell blocks, continuation lines joined."""
    lines = []
    for lang, code in BLOCKS:
        if lang == "bash":
            joined = code.replace("\\\n", " ")
            lines += [line for line in joined.splitlines() if line.startswith("ordpat ")]
    return lines


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 2
    assert len(cli_lines()) >= 10


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("line", cli_lines(), ids=lambda line: shlex.split(line, comments=True)[1])
def test_cli_line_parses(line):
    # usage errors exit through SystemExit, which fails the test
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert args.func is not None


def test_readme_names_objects():
    assert len(DOTTED_NAMES) >= 5


@pytest.mark.parametrize("name", DOTTED_NAMES)
def test_dotted_name_resolves(name):
    # imports the longest module prefix, then reads the rest as attributes
    pkgutil.resolve_name(name)
