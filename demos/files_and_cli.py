"""
Instance files and the command line
===================================

Every generator writes a small self-describing text format, and the
``subreco`` command covers the generate / solve / validate loop without any
Python.  This script drives the command through ``subreco.cli.main``, the
entry point behind both the installed script and ``python -m subreco``, in
a scratch directory, shows each file it produces, and checks each exit code
it narrates.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from subreco.cli import main


def run(*args, expect=0):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in args])
    print(f"$ subreco {' '.join(str(a) for a in args)}")
    for line in (out.getvalue() + err.getvalue()).strip().splitlines():
        print(f"  {line}")
    print(f"  (exit {code})")
    assert code == expect, f"exit {code}, expected {expect}"


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    inst = tmp / "detour.inst"
    seq = tmp / "walk.csv"

    # built-in generator -> instance file
    run("gen", "obs52", "--out", inst)
    print("\n" + inst.read_text())

    # thresholded search writes the walk as index,set,value rows
    run("solve", "astar", inst, "--theta", "1", "--out", seq)
    print("\n" + seq.read_text())

    # the validator replays the walk against the instance
    run("validate", inst, seq, "--theta", "1")

    # structural audits of the oracle behind the instance
    run("curvature", inst)
    run("check", "submodular", inst)

    # tightening the threshold past the optimum flips the exit code to 1
    run("exact", inst)
    run("validate", inst, seq, "--theta", "1.01", expect=1)
