"""README.md's console sessions and Python Quick start, replayed.

Every ```` ```console ```` block of the README runs in a fresh temporary
directory: each ``$ subreco ...`` line goes through ``subreco.cli.main``
(``data/...`` arguments resolve against the repository) and each
``$ cat FILE`` line reads the file, and what they print must equal the lines
the README shows under them.  The ```` ```python ```` Quick start block runs
as a script, and each ``print(...)`` line must print the value in its
trailing ``# ...`` comment (the text before any two-space gap).
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from subreco.cli import main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
BLOCKS = re.findall(r"^```console\n(.*?)^```$", README, re.M | re.S)
QUICK_START = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def session(block: str) -> list[tuple[str, str]]:
    """``(command, expected output)`` for each ``$`` line of a block."""
    steps: list[tuple[str, str]] = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            steps.append((line[2:].strip(), ""))
        else:
            command, expected = steps[-1]
            steps[-1] = (command, expected + line)
    return steps


def test_readme_has_sessions():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[b.split("\n", 1)[0][2:] for b in BLOCKS])
def test_console_session(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, expected in session(block):
        program, *args = shlex.split(command)
        if program == "cat":
            got = "".join(Path(a).read_text(encoding="utf-8") for a in args)
        else:
            assert program == "subreco", command
            main([str(REPO / a) if a.startswith("data/") else a for a in args])
            captured = capsys.readouterr()
            got = captured.out + captured.err
        assert got == expected, command


def test_quick_start_prints_its_comments(capsys):
    (block,) = QUICK_START
    expected = [
        re.split(r"\s{2,}", m)[0]
        for m in re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    ]
    assert len(expected) == block.count("print(") > 0
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
