"""Smoke test: the demos run to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "counterexample_tour.py",
        "determinant_walks.py",
        "files_and_cli.py",
        "karate_influence.py",
        "reductions_tour.py",
    ],
)
def test_demo_completes(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
