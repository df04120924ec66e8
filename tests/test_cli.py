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

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import subreco
from subreco import (
    AdjacencyRule,
    CoverageSpec,
    Subset,
    coverage_oracle,
    inapprox_gadget,
    load_instance,
    load_sequence_csv,
    modular_oracle,
    optimal_value,
    write_instance,
)
from subreco.cli import main


def gen_instance(tmp_path, name, *extra):
    path = tmp_path / f"{name}.inst"
    assert main(["gen", name, "--out", str(path), *extra]) == 0
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
            "ok\ncounterexample: {1}, {0,1} (adding 0 decreases the value)\n"
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
        assert capsys.readouterr().err.startswith("error: [Errno ")

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
