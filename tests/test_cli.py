"""End-to-end tests for the command-line entry point.

Each test drives ``subreco.cli.main`` with an argv list and checks the exit
code contract: 0 for success, 1 for a definite negative, 2 for an exhausted
budget, 3 for input errors.  The subprocess tests start the CLI as
``python -m subreco`` with the interpreter running the suite, and the same
``subreco`` package the suite imported, so a plain checkout needs no install.
One more test runs the installed ``subreco`` console script; it is skipped
where the script is not on the path.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subreco
from subreco import (
    AdjacencyRule,
    CoverageSpec,
    GramMatrix,
    Subset,
    WeightedGraph,
    check_monotone,
    check_submodular,
    coverage_oracle,
    cut_oracle,
    format_ids_1indexed,
    inapprox_gadget,
    load_instance,
    load_sequence_csv,
    logdet_oracle,
    make_synthetic_gram,
    modular_oracle,
    optimal_value,
    parse_ids_1indexed,
    shifted_incidence_oracle,
    write_edge_list,
    write_gram,
    write_instance,
)
from subreco.cli import main
from subreco.core import CHECK_TOL

from conftest import colour_classes, grid_graph, random_coverage_spec, random_graph, run_cli


def gen_instance(tmp_path, name, *extra):
    path = tmp_path / f"{name}.inst"
    assert main(["gen", name, "--out", str(path), *extra]) == 0
    return path


def write_modular(tmp_path, weights, rule, theta=None):
    """Modular ``weights`` on three elements, X = {1} and Y = {3}, as an instance file."""
    path = tmp_path / "modular.inst"
    write_instance(path, modular_oracle(weights), Subset(3, [0]), Subset(3, [2]), rule,
                   theta=theta)
    return path


def write_singular(tmp_path):
    """A log-det instance whose f(X) is the log-determinant of a singular
    minor, so min(f(X), f(Y)) is -inf."""
    gram = GramMatrix(np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                                [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]]))
    path = tmp_path / "singular.inst"
    write_instance(path, logdet_oracle(gram), Subset(4, [0, 1]), Subset(4, [2, 3]),
                   AdjacencyRule.TJAR)
    return path


def write_p3(tmp_path):
    # path on three vertices: edges (1,2), (2,3) in file ids
    path = tmp_path / "p3.tsv"
    path.write_text("1 2\n2 3\n", encoding="utf-8")
    return path


def write_p4(tmp_path):
    path = tmp_path / "p4.tsv"
    path.write_text("1 2\n2 3\n3 4\n", encoding="utf-8")
    return path


def write_single_clause_cnf(tmp_path):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n", encoding="utf-8")
    return path


def writable_oracle(rng: random.Random, n: int):
    """A small oracle that instance files hold.  Cuts and shifted incidence
    fail monotonicity; sums of modular weights near 1e16 round, so a gain can
    grow as the set does and fail submodularity."""
    kind = rng.choice(["modular", "cut", "shifted-incidence", "coverage"])
    if kind == "modular":
        return modular_oracle([rng.choice([3e16, -1e16, 6.0, -3.0, 0.5]) for _ in range(n)])
    if kind == "coverage":
        return coverage_oracle(random_coverage_spec(rng, n, rng.randint(2, 6)))
    graph = random_graph(rng, n)
    return cut_oracle(graph) if kind == "cut" else shifted_incidence_oracle(graph)


def run_module(*args):
    """Run ``python -m subreco ARGS`` on the package this suite imported."""
    src = str(Path(subreco.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "subreco", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestGen:
    def test_obs52_roundtrip(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        assert "wrote" in capsys.readouterr().out
        spec = load_instance(path)
        assert spec.rule is AdjacencyRule.TJ
        assert spec.oracle.universe.n == 5
        assert spec.x == Subset(5, (0, 1))
        assert spec.y == Subset(5, (2, 3))
        # both endpoints cover the whole 4-item universe
        assert spec.oracle.evaluate(spec.x) == 1.0
        assert spec.oracle.evaluate(spec.y) == 1.0

    def test_obs54_default_and_explicit_n(self, tmp_path):
        spec = load_instance(gen_instance(tmp_path, "obs54"))
        assert spec.oracle.universe.n == 8
        assert spec.x == Subset(8, range(4))
        big_path = tmp_path / "obs54-12.inst"
        assert main(["gen", "obs54", "--n", "12", "--out", str(big_path)]) == 0
        big = load_instance(big_path)
        assert big.oracle.universe.n == 12

    def test_obs55(self, tmp_path):
        spec = load_instance(gen_instance(tmp_path, "obs55"))
        assert spec.rule is AdjacencyRule.TAR
        assert spec.oracle.universe.n == 2
        assert spec.oracle.evaluate(spec.x) == 1.0

    def test_vc_exchange_from_edge_list(self, tmp_path):
        graph = write_p3(tmp_path)
        path = tmp_path / "vc.inst"
        code = main(
            ["gen", "vc2msreco", "--graph", str(graph), "--x", "1,2", "--y", "2,3",
             "--out", str(path)]
        )
        assert code == 0
        spec = load_instance(path)
        assert spec.rule is AdjacencyRule.TJ
        assert spec.theta == 2.0
        # cover endpoints meet the all-edges threshold
        assert spec.oracle.evaluate(spec.x) == 2.0
        assert spec.oracle.evaluate(spec.y) == 2.0

    def test_min_cover_add_remove_from_edge_list(self, tmp_path):
        graph = write_p4(tmp_path)
        path = tmp_path / "minvc.inst"
        code = main(
            ["gen", "minvc2tjar", "--graph", str(graph), "--x", "2,3", "--y", "1,3",
             "--out", str(path)]
        )
        assert code == 0
        spec = load_instance(path)
        assert spec.rule is AdjacencyRule.TJAR
        # 3 edges, size-2 covers of a 4-vertex path: 3 - 2/2 + 4/2 = 4
        assert spec.theta == 4.0
        assert spec.oracle.evaluate(spec.x) == 4.0

    def test_shifted_incidence_audit_verdicts(self, tmp_path, capsys):
        # the exhaustive checks read shifted incidence through its batch form
        graph = write_p4(tmp_path)
        path = gen_instance(
            tmp_path, "minvc2tjar", "--graph", str(graph), "--x", "2,3", "--y", "1,3"
        )
        capsys.readouterr()
        assert main(["check", "submodular", str(path)]) == 0
        assert main(["check", "monotone", str(path)]) == 1
        assert capsys.readouterr().out == (
            "ok\ncounterexample: {2}, {1,2}: adding {1} decreases the value\n"
        )

    def test_nae_clause_instance(self, tmp_path):
        cnf = write_single_clause_cnf(tmp_path)
        path = tmp_path / "nae.inst"
        code = main(
            ["gen", "nae2tar", "--cnf", str(cnf), "--sx", "100", "--sy", "110",
             "--out", str(path)]
        )
        assert code == 0
        spec = load_instance(path)
        assert spec.rule is AdjacencyRule.TAR
        assert spec.theta == 1.0
        assert spec.x == Subset(3, (0,))
        assert spec.y == Subset(3, (0, 1))

    def test_assignment_pair_composes_to_cover_instance(self, tmp_path):
        cnf = write_single_clause_cnf(tmp_path)
        path = tmp_path / "sat.inst"
        code = main(
            ["gen", "sat2vc", "--cnf", str(cnf), "--sx", "100", "--sy", "010",
             "--out", str(path)]
        )
        assert code == 0
        spec = load_instance(path)
        assert spec.rule is AdjacencyRule.TJ
        # both endpoints are covers, so they sit exactly at the threshold
        theta = spec.theta
        assert spec.oracle.evaluate(spec.x) == theta
        assert spec.oracle.evaluate(spec.y) == theta
        assert len(spec.x) == len(spec.y)

    def test_gadget_round_trip(self, tmp_path):
        path = tmp_path / "gadget.inst"
        code = main(
            ["gen", "gadget", "--upsilon", "6", "--weights", "1,2", "--out", str(path)]
        )
        assert code == 0
        spec = load_instance(path)
        assert spec.rule is AdjacencyRule.TJAR
        assert spec.oracle.universe.n == 6
        direct = inapprox_gadget(modular_oracle([1.0, 2.0]), 6.0)
        for s in (Subset(6, ()), direct.x, direct.y, Subset(6, range(6))):
            assert spec.oracle.evaluate(s) == direct.oracle.evaluate(s)
        assert optimal_value(
            spec.oracle, spec.x, spec.y, spec.rule
        ) == optimal_value(direct.oracle, direct.x, direct.y, AdjacencyRule.TJAR)

    def test_gadget_requires_upsilon(self, tmp_path, capsys):
        code = main(["gen", "gadget", "--out", str(tmp_path / "g.inst")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_cover_generators_require_graph_and_endpoints(self, tmp_path, capsys):
        assert main(["gen", "vc2msreco", "--out", str(tmp_path / "v.inst")]) == 3
        assert main(["gen", "nae2tar", "--out", str(tmp_path / "n.inst")]) == 3
        err = capsys.readouterr().err
        assert "gen vc2msreco needs --graph" in err and "gen nae2tar needs --cnf" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["gadget", "--upsilon", "nan"], "upsilon must be positive and finite"),
            (["gadget", "--upsilon", "2", "--weights", "1,inf"], "weights must be finite"),
            (["vc2msreco", "--x", "2,3", "--y", "2,9"], "element 9 outside 1..4"),
            (["vc2msreco", "--x", "0,3", "--y", "1,3"], "element 0 outside 1..4"),
        ],
        ids=["upsilon-nan", "weight-inf", "cover-id-high", "cover-id-zero"],
    )
    def test_bad_input_writes_no_file(self, tmp_path, capsys, flags, message):
        path = tmp_path / "g.inst"
        graph = ["--graph", str(write_p4(tmp_path))] if flags[0] == "vc2msreco" else []
        assert main(["gen", *flags, *graph, "--out", str(path)]) == 3
        assert message in capsys.readouterr().err
        assert not path.exists()

    def test_unknown_generator_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "bogus", "--out", str(tmp_path / "b.inst")])
        assert err.value.code == 2


class TestSolve:
    def test_swap_summary(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs54")
        capsys.readouterr()
        assert main(["solve", "swap", str(path)]) == 0
        out = capsys.readouterr().out
        assert "algorithm=swap" in out
        assert "status=ok" in out
        # the half-way exchange set cuts nothing
        assert "value=0 " in out

    def test_add_remove_walk_keeps_heaviest_edge(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs54")
        capsys.readouterr()
        assert main(["solve", "tjar", str(path)]) == 0
        out = capsys.readouterr().out
        assert "value=1 " in out

    def test_search_found(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        assert main(["solve", "astar", str(path), "--theta", "0"]) == 0
        out = capsys.readouterr().out
        assert "status=found" in out
        assert "length=2" in out

    def test_search_no_path(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        assert main(["solve", "astar", str(path), "--theta", "0.5"]) == 1
        assert "status=no_path" in capsys.readouterr().out

    def test_search_budget_exhausted(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        code = main(["solve", "astar", str(path), "--theta", "1", "--budget", "0"])
        assert code == 2
        assert "status=inconclusive" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs54")
        out_csv = tmp_path / "walk.csv"
        capsys.readouterr()
        assert main(["solve", "swap", str(path), "--out", str(out_csv)]) == 0
        assert f"csv={out_csv}" in capsys.readouterr().out
        seq = load_sequence_csv(out_csv, 8)
        assert seq[0] == Subset(8, range(4))
        assert seq[-1] == Subset(8, range(4, 8))

    def test_rule_override(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        assert main(["solve", "tjar", str(path), "--rule", "tjar"]) == 0
        assert "rule=tjar" in capsys.readouterr().out

    def test_csv_line_names_the_path_as_given(self, tmp_path, capsys, monkeypatch):
        path = gen_instance(tmp_path, "obs54")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["solve", "swap", str(path), "--out", "./walk.csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "csv=walk.csv"
        assert len(load_sequence_csv(tmp_path / "walk.csv", 8)) == 5

    def test_run_without_a_walk_writes_no_csv(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        out_csv = tmp_path / "walk.csv"
        capsys.readouterr()
        assert main(["solve", "astar", str(path), "--theta", "0.5", "--out", str(out_csv)]) == 1
        out = capsys.readouterr().out
        assert "status=no_path" in out and "csv=" not in out
        assert not out_csv.exists()


class TestExact:
    def test_value_line(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "algorithm=exact" in out
        assert "status=found" in out
        assert "value=1 " in out

    def test_restriction(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        assert main(["exact", str(path), "--restrict", "1,2,3,4"]) == 0
        out = capsys.readouterr().out
        # shut out of the universal fifth element the best walk dips to 3/4
        assert "value=0.75" in out
        assert "restricted=yes" in out
        assert out == (
            "algorithm=exact rule=tj status=found theta=- value=0.75 length=2 "
            "calls_total=9 calls_algorithm=6 calls_evaluation=3 restricted=yes\n"
        )

    def test_threshold_above_the_optimum_is_no_path(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        out_csv = tmp_path / "walk.csv"
        capsys.readouterr()
        assert main(["exact", str(path), "--theta", "1.01", "--out", str(out_csv)]) == 1
        out = capsys.readouterr().out
        # the summary and the CSV still describe the optimal walk
        assert out.startswith(
            "algorithm=exact rule=tj status=no_path theta=1.01 value=1 length=3 "
        )
        assert len(load_sequence_csv(out_csv, 5)) == 4
        assert main(["exact", str(path), "--theta", "1"]) == 0
        assert "status=found theta=1 value=1 " in capsys.readouterr().out

    def test_answers_above_the_old_lattice_guard(self, tmp_path, capsys):
        # 24 elements: 2^24 states, of which the ascent evaluates 13
        path = gen_instance(tmp_path, "obs54", "--n", "24")
        capsys.readouterr()
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status=found" in out
        assert "calls_algorithm=13 " in out

    def test_budget_run_out_is_inconclusive(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs54", "--n", "24")
        capsys.readouterr()
        assert main(["exact", str(path), "--budget", "12"]) == 2
        out = capsys.readouterr().out
        assert out == "inconclusive: search gave up after 12 expansions\n"

    def test_negative_budget_is_an_input_error(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        assert main(["exact", str(path), "--budget", "-3"]) == 3
        assert "budget must be nonnegative, got -3" in capsys.readouterr().err


class TestRunOptions:
    """``--rule``, ``--theta`` and ``--theta-frac`` replace the instance's own
    rule and threshold before the run; a fraction's f(X) and f(Y) are taken
    then, outside the run's ``calls_total``."""

    def test_astar_frac_threshold(self, tmp_path, capsys):
        # endpoints of the single-edge instance both have value 1
        path = gen_instance(tmp_path, "obs55")
        code, out, _ = run_cli(["solve", "astar", path, "--theta-frac", "0.5"], capsys)
        assert code == 1
        assert "status=no_path theta=0.5 " in out

    @pytest.mark.parametrize("flag", ["--theta", "--theta-frac"], ids=["theta", "theta-frac"])
    def test_no_walk_counts_the_same_under_either_threshold(self, tmp_path, capsys, flag):
        path = gen_instance(tmp_path, "obs55")
        line = (
            "algorithm=astar rule=tar status=no_path theta=0.5 value=- length=- "
            "calls_total=4 calls_algorithm=4 calls_evaluation=0\n"
        )
        assert run_cli(["solve", "astar", path, flag, "0.5"], capsys) == (1, line, "")

    @pytest.mark.parametrize("flag", ["--theta", "--theta-frac"], ids=["theta", "theta-frac"])
    @pytest.mark.parametrize("token, theta", [("-1e-3", "-0.001"), ("-2E1", "-20"), ("-inf", None)],
                             ids=["exponent", "capital-exponent", "minus-inf"])
    def test_a_negative_threshold_token_is_read_as_a_number(self, tmp_path, capsys, flag, token,
                                                            theta):
        # argparse takes "-1e-3" or "-inf" for an option; the CLI joins it to its flag
        path = gen_instance(tmp_path, "obs55")  # min(f(X), f(Y)) is 1
        got = run_cli(["solve", "astar", path, flag, token], capsys)
        assert got == run_cli(["solve", "astar", path, f"{flag}={token}"], capsys)
        if theta is None:
            assert got[:2] == (3, "") and got[2].startswith("error: threshold must be finite")
        else:
            assert got[0] == 0 and f" status=found theta={theta} " in got[1]

    @pytest.mark.parametrize("name, solver, line", [
        ("vc2msreco", "swap", "algorithm=swap rule=tj status=no_path theta=24 value=19 length=8 "
         "calls_total=66 calls_algorithm=57 calls_evaluation=9"),
        ("minvc2tjar", "tjar", "algorithm=tjar rule=tjar status=no_path theta=28 value=11.5 "
         "length=15 calls_total=72 calls_algorithm=56 calls_evaluation=16"),
    ], ids=["swap", "tjar"])
    def test_a_walk_below_the_threshold_is_no_path(self, tmp_path, capsys, name, solver, line):
        # the 4x4 grid's colour classes are a no-instance of both reductions:
        # the file's threshold is a yes-instance's optimum, so every walk dips below it
        grid = grid_graph(4, 4)
        graph = tmp_path / "grid.tsv"
        write_edge_list(graph, grid)
        x, y = (format_ids_1indexed(s) for s in colour_classes(grid))
        path = gen_instance(tmp_path, name, "--graph", str(graph), "--x", x, "--y", y)
        assert run_cli(["solve", solver, path], capsys) == (1, line + "\n", "")

    def test_file_fraction_is_evaluated_outside_the_run(self, tmp_path, capsys):
        path = write_modular(tmp_path, [2.0, 1.0, 3.0], AdjacencyRule.TJAR)
        calls = "calls_total=5 calls_algorithm=3 calls_evaluation=2\n"
        assert run_cli(["solve", "swap", path, "--theta-frac", "0.5"], capsys) == (
            0, f"algorithm=swap rule=tjar status=ok theta=1 value=2 length=1 {calls}", ""
        )
        _, out, _ = run_cli(["solve", "swap", path], capsys)
        assert out.endswith(f"theta=- value=2 length=1 {calls}")

    @pytest.mark.parametrize("weights, rule", [
        ([2.0, 1.0, 3.0], AdjacencyRule.TJAR), ([3.0, 1.0, 2.0], AdjacencyRule.TJ),
    ], ids=["tjar", "tj"])
    def test_run_options_override_the_file_threshold(self, tmp_path, capsys, weights, rule):
        # min(f(X), f(Y)) is 2 in both files; --theta beats --theta-frac
        path = write_modular(tmp_path, weights, rule, theta=1.5)
        for flags, theta in (
            ([], "1.5"),
            (["--theta-frac", "0.5"], "1"),
            (["--theta", "0.25", "--theta-frac", "0.5"], "0.25"),
        ):
            code, out, _ = run_cli(["solve", "swap", path, *flags], capsys)
            assert code == 0
            assert out.startswith(f"algorithm=swap rule={rule.token} status=ok theta={theta} ")

    def test_rule_override_relaxes_the_instance(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        code, out, _ = run_cli(["exact", path, "--rule", "tjar"], capsys)
        assert code == 0
        assert out.startswith("algorithm=exact rule=tjar status=found theta=- value=1 ")

    @pytest.mark.parametrize("argv, flags", [
        (["solve", "swap", "obs55"], ["--theta", "nan"]),
        (["solve", "tjar", "obs52"], ["--theta-frac", "inf"]),
    ], ids=["swap-under-tar", "tjar-under-tj"])
    def test_a_non_finite_flag_is_reported_before_the_walk_rule(self, tmp_path, capsys, argv,
                                                                flags):
        *command, name = argv
        code, out, err = run_cli([*command, gen_instance(tmp_path, name), *flags], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: threshold must be finite, got ")

    @pytest.mark.parametrize("frac, theta", [("0.5", "-inf"), ("0", "nan"), ("-1", "inf")])
    def test_a_fraction_of_a_singular_endpoint_is_refused(self, tmp_path, capsys, frac, theta):
        path = write_singular(tmp_path)
        walk = tmp_path / "walk.csv"
        assert run_cli(["exact", path, "--out", walk], capsys)[0] == 0
        for argv in (["solve", "swap", path], ["solve", "tjar", path], ["solve", "astar", path],
                     ["exact", path], ["validate", path, walk]):
            assert run_cli([*argv, f"--theta-frac={frac}"], capsys) == (
                3, "", f"error: threshold must be finite, got theta={theta}\n"
            )

    def test_drawn_run_options_exit_0_to_3(self, tmp_path):
        """Seeded draws of every run option, including non-finite, negative and
        out-of-range values, end in an exit code and never in a traceback;
        ``validate`` draws the threshold flags against a walk ``exact`` wrote.
        A threshold that is not finite, as given or as a fraction of
        min(f(X), f(Y)), is an input error for every command."""
        paths = [gen_instance(tmp_path, name) for name in ("obs52", "obs54", "obs55")]
        paths.append(gen_instance(tmp_path, "gadget", "--upsilon", "6", "--weights", "0.3,0.2"))
        paths.append(write_singular(tmp_path))
        walks, lowest = {}, {}
        for path in paths:
            walks[path] = path.with_suffix(".csv")
            assert main(["exact", str(path), "--out", str(walks[path])]) == 0
            inst = load_instance(path)
            lowest[path] = min(inst.oracle.evaluate(inst.x), inst.oracle.evaluate(inst.y))
        codes, non_finite = Counter(), Counter()
        # tokens as typed: exponent-form negatives are read whether or not "=" joins them
        number = st.one_of(
            st.none(), st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e-3", "-2E1"]),
            st.floats(-3, 3).map(repr),
        )

        @given(
            st.sampled_from(paths),
            st.sampled_from([["solve", "swap"], ["solve", "tjar"], ["solve", "astar"], ["exact"],
                             ["validate"]]),
            st.sampled_from([None, "tj", "tar", "tjar"]),
            number,
            number,
            st.sampled_from([None, -1, 0, 1, 3, 1000]),
            st.sampled_from([None, "1,2,3,4", "0,2", "x"]),
            st.booleans(),
        )
        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        def run(path, command, rule, theta, frac, budget, restrict, joined):
            argv = [*command, str(path)]
            if command == ["validate"]:
                argv.append(str(walks[path]))
                rule = budget = None
            for flag, value in (("rule", rule), ("theta", theta), ("theta-frac", frac),
                                ("budget", budget), ("restrict", restrict)):
                if value is None or (flag == "restrict" and command != ["exact"]):
                    continue
                if joined or not flag.startswith("theta"):
                    argv.append(f"--{flag}={value}")
                else:
                    argv += [f"--{flag}", value]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err.getvalue(), argv
            assert "expected one argument" not in err.getvalue(), argv
            codes[code] += 1
            threshold = None if theta is None else float(theta)
            if threshold is None and frac is not None:
                threshold = float(frac) * lowest[path]
            if threshold is not None and not math.isfinite(threshold):
                assert code == 3, argv
                non_finite[command[0]] += 1

        run()
        assert sorted(codes) == [0, 1, 2, 3], codes  # the draws reach every exit code
        assert sorted(non_finite) == ["exact", "solve", "validate"], non_finite


class TestRawDataSources:
    """``--graph`` and ``--gram`` build disjoint greedy endpoints of size ``--k``."""

    @pytest.fixture
    def gram(self, tmp_path):
        path = tmp_path / "m.gram"
        write_gram(path, make_synthetic_gram(6, seed=5))
        return path

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["solve", "tjar"], "algorithm=tjar rule=tjar status=ok theta=- value=0.795302 "
             "length=3 calls_total=10 calls_algorithm=6 calls_evaluation=4"),
            (["exact"], "algorithm=exact rule=tjar status=found theta=- value=1.54283 "
             "length=2 calls_total=6 calls_algorithm=3 calls_evaluation=3"),
        ],
        ids=["tjar", "exact"],
    )
    def test_gram_source(self, gram, capsys, argv, line):
        capsys.readouterr()
        assert main([*argv, "--gram", str(gram), "--k", "2"]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_edge_list_source(self, tmp_path, capsys):
        # the 6-cycle; k(k+1) + 1 calls for the swap walk between disjoint endpoints
        ring = tmp_path / "ring.tsv"
        write_edge_list(ring, WeightedGraph.build(6, [(i, (i + 1) % 6) for i in range(6)]))
        capsys.readouterr()
        argv = ["solve", "swap", "--graph", str(ring), "--k", "2", "--seed", "3"]
        assert main([*argv, "--rr-count", "500"]) == 0
        assert capsys.readouterr().out == (
            "algorithm=swap rule=tj status=ok theta=- value=4.116 length=2 "
            "calls_total=10 calls_algorithm=7 calls_evaluation=3\n"
        )


class TestValidate:
    def solved_pair(self, tmp_path):
        path = gen_instance(tmp_path, "obs52")
        out_csv = tmp_path / "seq.csv"
        code = main(
            ["solve", "astar", str(path), "--theta", "1", "--out", str(out_csv)]
        )
        assert code == 0
        return path, out_csv

    def test_round_trip_ok(self, tmp_path, capsys):
        path, seq = self.solved_pair(tmp_path)
        capsys.readouterr()
        assert main(["validate", str(path), str(seq), "--theta", "1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_theta_fraction(self, tmp_path):
        path, seq = self.solved_pair(tmp_path)
        assert main(["validate", str(path), str(seq), "--theta-frac", "0.75"]) == 0

    def test_reversed_sequence_starts_at_wrong_endpoint(self, tmp_path, capsys):
        path, seq = self.solved_pair(tmp_path)
        lines = seq.read_text(encoding="utf-8").splitlines()
        reordered = [lines[0]] + lines[:0:-1]
        seq.write_text("\n".join(reordered) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(path), str(seq), "--theta", "1"]) == 1
        # subsets are named 1-indexed, as the CSV writes them
        assert capsys.readouterr().out == "invalid at step 0: first step {3,4} is not X\n"

    def test_threshold_violation(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs54")
        out_csv = tmp_path / "swap.csv"
        assert main(["solve", "swap", str(path), "--out", str(out_csv)]) == 0
        capsys.readouterr()
        # the swap walk dips to value 0, far below half the endpoint values
        assert main(["validate", str(path), str(out_csv), "--theta", "0.5"]) == 1
        assert capsys.readouterr().out == (
            "invalid at step 2: step {1,2,5,6} falls below threshold 0.5\n"
        )

    def test_without_theta_checks_structure_only(self, tmp_path):
        path = gen_instance(tmp_path, "obs54")
        out_csv = tmp_path / "swap.csv"
        assert main(["solve", "swap", str(path), "--out", str(out_csv)]) == 0
        assert main(["validate", str(path), str(out_csv)]) == 0


class TestCurvature:
    def test_modular_is_flat(self, tmp_path, capsys):
        path = tmp_path / "mod.inst"
        write_instance(
            path,
            modular_oracle([1.0, 2.0, 3.0]),
            Subset(3, (0,)),
            Subset(3, (1,)),
            AdjacencyRule.TAR,
        )
        assert main(["curvature", str(path)]) == 0
        assert "curvature=0.0" in capsys.readouterr().out

    def test_fully_redundant_element(self, tmp_path, capsys):
        path = tmp_path / "cov.inst"
        write_instance(
            path,
            coverage_oracle(CoverageSpec(1, ((0,), (0,)))),
            Subset(2, (0,)),
            Subset(2, (1,)),
            AdjacencyRule.TJAR,
        )
        assert main(["curvature", str(path)]) == 0
        assert "curvature=1.0" in capsys.readouterr().out


class TestCheck:
    def test_submodular_holds(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        assert main(["check", "submodular", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_cut_is_not_monotone(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        assert main(["check", "monotone", str(path)]) == 1
        assert "counterexample:" in capsys.readouterr().out

    def test_exhaustive_budget_is_inconclusive(self, tmp_path, capsys):
        path = tmp_path / "big.inst"
        write_instance(
            path,
            modular_oracle([1.0] * 18),
            Subset(18, (0,)),
            Subset(18, (1,)),
            AdjacencyRule.TAR,
        )
        assert main(["check", "submodular", str(path)]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_sampled_mode(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        code = main(
            ["check", "submodular", str(path), "--mode", "sampled",
             "--samples", "200", "--seed", "0"]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_sampled_mode_defaults(self, tmp_path, capsys):
        # unset, --samples is 1000 and --seed 0, as check_monotone defaults them
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        assert main(["check", "monotone", str(path), "--mode", "sampled"]) == 1
        out = capsys.readouterr().out
        for argv in (["--seed", "0"], ["--samples", "1000"]):
            assert main(["check", "monotone", str(path), "--mode", "sampled", *argv]) == 1
            assert capsys.readouterr().out == out

    def test_counterexample_is_1indexed(self, tmp_path, capsys):
        # the file holds obs54's heaviest edge as "edge 1 5"
        path = gen_instance(tmp_path, "obs54", "--n", "8")
        capsys.readouterr()
        assert main(["check", "monotone", str(path)]) == 1
        assert capsys.readouterr().out == (
            "counterexample: {1}, {1,5}: adding {5} decreases the value\n"
        )

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["submodular", "monotone"]),
           st.sampled_from(["exhaustive", "sampled"]))
    @settings(max_examples=80, deadline=None)
    def test_printed_sets_violate_the_property(self, seed, prop, mode):
        """Every set ``check`` prints parses back, 1-indexed, into a
        violation of the property on the oracle the file holds."""
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        sampled = ["--mode", "sampled", "--samples", "50"] if mode == "sampled" else []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "drawn.inst"
            write_instance(path, writable_oracle(rng, n), Subset(n, ()), Subset(n, ()),
                           AdjacencyRule.TAR)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["check", prop, str(path), *sampled])
            f = load_instance(path).oracle
        if code == 0:
            assert out.getvalue() == "ok\n"
            return
        assert code == 1 and out.getvalue().startswith("counterexample: ")
        sets = [parse_ids_1indexed(t, n) for t in re.findall(r"\{[\d,]*\}", out.getvalue())]
        if prop == "monotone":
            s, larger, e = sets
            assert larger == s | e and s.mask & e.mask == 0 and len(e) == 1
            assert f.evaluate(larger) < f.evaluate(s) - CHECK_TOL
            return
        s, t, e, *g = sets
        assert s.issubset(t) and e.mask & t.mask == 0 and len(e) == 1
        assert len(g) == (mode == "exhaustive") and all(t == s | h and len(h) == 1 for h in g)
        gain_small = f.evaluate(s | e) - f.evaluate(s)
        assert gain_small - (f.evaluate(t | e) - f.evaluate(t)) < -CHECK_TOL

    def test_drawn_oracles_fail_each_check(self):
        # the draws above reach a counterexample of each property in each mode
        failed = Counter()
        for seed in range(200):
            rng = random.Random(seed)
            f = writable_oracle(rng, rng.randint(1, 6))
            for check in (check_submodular, check_monotone):
                failed[check.__name__, "exhaustive"] += not check(f)
                failed[check.__name__, "sampled"] += not check(f, "sampled", 50)
        assert min(failed.values()) >= 15, failed

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sampled_mode_needs_a_sample(self, tmp_path, capsys, samples):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        code = main(["check", "monotone", str(path), "--mode", "sampled", "--samples", samples])
        assert code == 3
        assert "at least one sample" in capsys.readouterr().err


class TestInputErrors:
    def test_missing_instance_file(self, tmp_path, capsys):
        assert main(["solve", "swap", str(tmp_path / "nope.inst")]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "submodular", "{dir}"],
            ["solve", "swap", "--graph", "{dir}", "--k", "1", "--seed", "1"],
            ["validate", "{inst}", "{dir}"],
            ["gen", "nae2tar", "--cnf", "{dir}", "--sx", "100", "--sy", "110", "--out", "{out}"],
        ],
        ids=["instance", "graph", "sequence", "cnf"],
    )
    def test_directory_is_an_input_error(self, tmp_path, capsys, argv):
        inst = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        out = tmp_path / "g.inst"
        assert main([a.format(dir=tmp_path, inst=inst, out=out) for a in argv]) == 3
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen", "obs52", "--out", "{dir}"], ["solve", "swap", "{inst}", "--out", "{dir}"]],
        ids=["gen", "solve"],
    )
    def test_output_that_cannot_be_written_exits_3(self, tmp_path, capsys, argv):
        inst = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        assert main([a.format(dir=tmp_path, inst=inst) for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ")
        assert captured.out == ""  # the file is written before the summary

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "submodular", "{inst}"], ["check", "monotone", "{inst}"],
            ["curvature", "{inst}"], ["solve", "swap", "{inst}"],
            ["solve", "astar", "{inst}", "--theta", "1"], ["exact", "{inst}"],
            ["validate", "{inst}", "{seq}"],
        ],
        ids=["submodular", "monotone", "curvature", "swap", "astar", "exact", "validate"],
    )
    def test_tj_endpoints_of_two_sizes(self, tmp_path, capsys, argv):
        path = tmp_path / "tj.inst"
        path.write_text(
            "[oracle]\nkind modular\nweights 1 2 3\n\n[endpoints]\nx 1\ny 2 3\n\n[rule]\ntj\n",
            encoding="utf-8",
        )
        seq = tmp_path / "seq.csv"
        seq.write_text('index,set,value\n0,"{1}",1.0\n', encoding="utf-8")
        assert main([a.format(inst=path, seq=seq) for a in argv]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}:10: endpoints must have size 1, got 1 and 2\n"
        )

    def test_malformed_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.inst"
        path.write_text("[oracle]\nkind bogus\n", encoding="utf-8")
        assert main(["curvature", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_no_instance_source(self, capsys):
        assert main(["solve", "swap"]) == 3
        assert "source" in capsys.readouterr().err

    def test_obs54_size_zero(self, tmp_path, capsys):
        path = tmp_path / "z.inst"
        assert main(["gen", "obs54", "--n", "0", "--out", str(path)]) == 3
        assert "positive multiple of 4" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("name", ["vc2msreco", "minvc2tjar"])
    def test_non_cover_is_named_as_written(self, tmp_path, capsys, name):
        path = tmp_path / "vc.inst"
        flags = ["--graph", str(write_p4(tmp_path)), "--x", "1,2", "--y", "2,3"]
        assert main(["gen", name, *flags, "--out", str(path)]) == 3
        assert capsys.readouterr().err == "error: {1,2} is not a vertex cover\n"
        assert not path.exists()

    def test_gadget_size_differs_from_weights(self, tmp_path, capsys):
        path = tmp_path / "g.inst"
        flags = ["--upsilon", "6", "--n", "2", "--weights", "1,2,3", "--out", str(path)]
        assert main(["gen", "gadget", *flags]) == 3
        assert capsys.readouterr().err == "error: gen gadget --n 2 differs from the 3 weights\n"
        assert not path.exists()

    def test_gadget_negative_size(self, tmp_path, capsys):
        path = tmp_path / "g.inst"
        assert main(["gen", "gadget", "--upsilon", "6", "--n", "-3", "--out", str(path)]) == 3
        assert "must be nonnegative" in capsys.readouterr().err
        assert not path.exists()

    def test_two_instance_sources(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs55")
        graph = write_p3(tmp_path)
        capsys.readouterr()
        assert main(["solve", "swap", str(path), "--graph", str(graph)]) == 3

    @pytest.mark.parametrize(
        "solver, supported", [("swap", "tj or tjar"), ("tjar", "tjar")]
    )
    def test_walk_under_an_unsupported_rule(self, tmp_path, capsys, solver, supported):
        path = gen_instance(tmp_path, "obs55")  # an add/remove (tar) instance
        capsys.readouterr()
        assert main(["solve", solver, str(path)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {solver} needs rule {supported}, not tar\n"

    def test_graph_source_requires_seed(self, data_dir, capsys):
        karate = data_dir / "karate.tsv"
        code = main(
            ["solve", "swap", "--graph", str(karate), "--k", "2", "--rr-count", "10"]
        )
        assert code == 3
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "astar", "{inst}", "--k", "3"], "k applies only to"),
            (["exact", "{inst}", "--k", "1"], "k applies only to"),
            (["solve", "swap", "{inst}", "--seed", "1"], "seed applies only to"),
            (["exact", "--gram", "{gram}", "--k", "1", "--seed", "1"], "seed applies only to"),
            (
                ["solve", "swap", "{inst}", "--directed", "--rr-count", "5",
                 "--probability-mode", "given"],
                "directed applies only to",
            ),
            (
                ["solve", "tjar", "{inst}", "--probability-mode", "inverse-in-degree"],
                "probability_mode applies only to",
            ),
            (
                ["exact", "--gram", "{gram}", "--k", "1", "--rr-count", "5"],
                "rr_count applies only to",
            ),
            (["check", "submodular", "{inst}", "--samples", "5", "--seed", "9"], "--mode sampled"),
            (
                ["check", "monotone", "{inst}", "--mode", "exhaustive", "--seed", "0"],
                "--mode sampled",
            ),
            (["check", "monotone", "{inst}", "--samples", "1000"], "--mode sampled"),
        ],
        ids=["k-solve", "k-exact", "seed-instance", "seed-gram", "graph-flags-instance",
             "probability-mode-instance", "rr-count-gram", "check-samples-and-seed",
             "check-seed-exhaustive", "check-samples"],
    )
    def test_flag_the_source_does_not_read(self, tmp_path, capsys, argv, message):
        inst = gen_instance(tmp_path, "obs52")
        gram = tmp_path / "m.gram"
        gram.write_text("2\n2.0 0.0\n0.0 2.0\n", encoding="utf-8")
        capsys.readouterr()
        assert main([a.format(inst=inst, gram=gram) for a in argv]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_non_finite_gram(self, tmp_path, capsys):
        path = tmp_path / "nan.gram"
        path.write_text("2\n1.0 0.0\n0.0 nan\n", encoding="utf-8")
        assert main(["exact", "--gram", str(path), "--k", "1"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}:3: ")

    @pytest.mark.parametrize("flag, value", [("--theta", "nan"), ("--theta-frac", "inf")])
    def test_non_finite_threshold(self, tmp_path, capsys, flag, value):
        path = gen_instance(tmp_path, "obs55")
        capsys.readouterr()
        assert main(["solve", "astar", str(path), flag, value]) == 3
        assert "must be finite" in capsys.readouterr().err

    def test_negative_search_budget(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        code = main(["solve", "astar", str(path), "--theta", "1", "--budget", "-3"])
        assert code == 3
        assert capsys.readouterr().err == "error: budget must be nonnegative, got -3\n"

    @pytest.mark.parametrize("solver", ["swap", "tjar"])
    def test_a_walk_takes_no_budget(self, tmp_path, capsys, solver):
        path = gen_instance(tmp_path, "obs54")
        assert run_cli(["solve", solver, path, "--budget", "5"], capsys) == (
            3, "", f"error: {solver} takes no budget; only astar and exact do\n"
        )

    @pytest.mark.parametrize("ids, bad", [("1,9", 9), ("0,2", 0)])
    def test_restriction_id_is_named_as_written(self, tmp_path, capsys, ids, bad):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        assert main(["exact", str(path), "--restrict", ids]) == 3
        assert capsys.readouterr().err == f"error: element {bad} outside 1..5\n"

    def test_missing_sequence_file(self, tmp_path, capsys):
        path = gen_instance(tmp_path, "obs52")
        capsys.readouterr()
        code = main(["validate", str(path), str(tmp_path / "nope.csv"), "--theta", "1"])
        assert code == 3

    def test_huge_vertex_count_exits_0_to_3(self, tmp_path, capsys):
        """A graph instance declaring 10**18 vertices and one edge loads: the
        walks that touch only the edge's ends answer, and a command that must
        hold a whole-ground-set mask or table is inconclusive, out of memory
        (neither ``[0] * 10**18`` nor ``1 << 10**18`` fits any address space,
        so nothing is allocated)."""
        walk = tmp_path / "walk.csv"
        walk.write_text('index,set,value\n0,"1",0\n1,"2",0\n', encoding="utf-8")
        oom = (2, "inconclusive: out of memory\n", "")
        refused = (2, "inconclusive: exhaustive submodularity check refused for "
                      "n=1000000000000000000 > 16\n", "")
        not_monotone = (3, "", "error: total curvature needs a monotone nonnegative oracle\n")
        for kind, value in (("cut", "1"), ("incidence", "1"), ("shifted-incidence", "5e+17")):
            path = tmp_path / f"{kind}.inst"
            path.write_text(f"[oracle]\nkind {kind}\nn 1000000000000000000\nedge 1 2\n\n"
                            "[endpoints]\nx 1\ny 2\n\n[rule]\ntj\n", encoding="utf-8")
            swap = (0, f"algorithm=swap rule=tj status=ok theta=- value={value} length=1 "
                       "calls_total=5 calls_algorithm=3 calls_evaluation=2\n", "")
            expected = {
                "validate": (0, "ok\n", ""),
                "solve swap": swap,
                "exact": oom,
                "solve astar --theta 0": oom,
                "curvature": oom if kind == "incidence" else not_monotone,
                "check submodular": refused,
            }
            for command, outcome in expected.items():
                argv = command.split()
                argv.insert(2 if command.startswith(("solve", "check")) else 1, path)
                if command == "validate":
                    argv.append(walk)
                assert run_cli(argv, capsys) == outcome, (kind, command)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = gen_instance(tmp_path, "obs55")
        result = run_module("exact", path)
        assert result.returncode == 0
        assert "value=0 " in result.stdout

    def test_usage_error_exits_two(self):
        result = run_module()
        assert result.returncode == 2

    @pytest.mark.skipif(
        shutil.which("subreco") is None, reason="console script not installed"
    )
    def test_console_script(self, tmp_path):
        path = gen_instance(tmp_path, "obs55")
        result = subprocess.run(
            ["subreco", "exact", str(path)], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "value=0 " in result.stdout
