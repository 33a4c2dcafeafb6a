"""The README's examples run: every telecrit command line of its sh blocks
exits 0, and its library block executes."""

import re
import shlex
from pathlib import Path

import pytest

from telecrit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _commands():
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["telecrit"]:
                yield words[1:]


COMMANDS = list(_commands())


def test_readme_has_examples():
    assert len(COMMANDS) >= 5
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_readme_library_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
