"""Smoke test: the demos run to completion in-process.

``files_and_cli.py`` is left out: its CLI steps are covered by
``test_cli.py`` and it is the slowest demo.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "counterexample_tour.py",
        "determinant_walks.py",
        "karate_influence.py",
        "reductions_tour.py",
    ],
)
def test_demo_completes(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
