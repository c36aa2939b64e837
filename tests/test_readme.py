"""Every `hks` command in README's ```sh blocks parses with the CLI, and
every ```python block runs."""

import re
import shlex
from pathlib import Path

import pytest

from hks.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", TEXT, re.M | re.S)


def readme_commands() -> list[list[str]]:
    commands = []
    for block in blocks("sh"):
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


@pytest.mark.parametrize("block", blocks("python"), ids=lambda _: "python")
def test_readme_python_runs(tmp_path, monkeypatch, block):
    """Run in a directory whose pool.tsv holds the pool lines README
    shows under "File formats"."""
    (pool,) = re.findall(r"^Pool TSV.*?^```\n(.*?)^```", TEXT, re.M | re.S)
    (tmp_path / "pool.tsv").write_text(pool.replace("<TAB>", "\t"),
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
