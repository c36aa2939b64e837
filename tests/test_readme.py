"""Every `hks` command in README's ```sh blocks parses with the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from hks.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hks"]:
                commands.append(words[1:])
    return commands


def test_readme_shows_commands():
    assert len(readme_commands()) >= 11


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)
