"""Endpoint construction, synthetic matrices, and the experiment runner.

``run_experiment`` takes an in-memory instance; the raw-data sources
(``--graph``, ``--gram``) and the flags each reads are the CLI's, so their
tests drive ``subreco.cli.main``.
"""

import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from subreco import (
    AdjacencyRule,
    ExperimentConfig,
    ProblemInstance,
    Report,
    Subset,
    WeightedGraph,
    influence_oracle,
    interchangeable_greedy,
    load_edge_list,
    load_gram,
    load_instance,
    logdet_oracle,
    make_synthetic_gram,
    modular_oracle,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    run_experiment,
    sample_rr_sets,
    write_edge_list,
    write_gram,
    write_instance,
)

from conftest import run_cli

EXPERIMENT = Path(__file__).resolve().parent.parent / "src" / "subreco" / "experiment.py"


def write_ring(tmp_path):
    """The 6-cycle as an edge list."""
    path = tmp_path / "ring.tsv"
    write_edge_list(path, WeightedGraph.build(6, [(i, (i + 1) % 6) for i in range(6)]))
    return path


def write_detour(tmp_path):
    """The coverage counterexample as an instance file."""
    inst = obs52_instance()
    path = tmp_path / "detour.inst"
    write_instance(path, inst.oracle, inst.x, inst.y, inst.rule, theta=inst.theta)
    return path


def write_small_gram(tmp_path, n=6):
    path = tmp_path / "m.gram"
    write_gram(path, make_synthetic_gram(n, seed=5))
    return path


class TestInterchangeableGreedy:
    def test_alternating_picks(self):
        f = modular_oracle([4.0, 3.0, 2.0, 1.0])
        x, y = interchangeable_greedy(f, 2)
        # rounds: X takes 0, Y takes 1, X takes 2, Y takes 3
        assert x == Subset(4, [0, 2])
        assert y == Subset(4, [1, 3])

    def test_disjointness(self):
        f = modular_oracle([1.0] * 6)
        x, y = interchangeable_greedy(f, 3)
        assert x.mask & y.mask == 0
        assert len(x) == len(y) == 3

    def test_needs_room_for_both(self):
        f = modular_oracle([1.0] * 5)
        with pytest.raises(ValueError):
            interchangeable_greedy(f, 3)

    def test_k_zero(self):
        f = modular_oracle([1.0, 1.0])
        x, y = interchangeable_greedy(f, 0)
        assert len(x) == len(y) == 0


class TestSyntheticGram:
    def test_eigenvalue_band_and_determinism(self):
        g1 = make_synthetic_gram(6, seed=2)
        g2 = make_synthetic_gram(6, seed=2)
        g3 = make_synthetic_gram(6, seed=3)
        assert np.array_equal(g1.a, g2.a)
        assert not np.array_equal(g1.a, g3.a)
        eigs = np.linalg.eigvalsh(g1.a)
        assert eigs.min() == pytest.approx(1.3)
        assert eigs.max() == pytest.approx(3.0)


class TestRunExperiment:
    def test_exact_on_the_coverage_counterexample(self):
        report = run_experiment(ExperimentConfig(algorithm="exact", instance=obs52_instance()))
        assert report.status == "found"
        assert report.value == 1.0
        assert report.length == 3
        assert len(report.rows) == 4
        # the ascent evaluates 8 of the 10 states of the size-2 slice; f(X)
        # and f(Y) come from the walk's rows
        assert report.endpoint_values == (1.0, 1.0)
        assert report.calls_algorithm == 8
        assert report.calls_evaluation == 4
        assert report.calls_total == 12
        # the detour through the universal fifth element, never below 1
        assert report.rows == [
            (0, Subset(5, [0, 1]), 1.0),
            (1, Subset(5, [0, 4]), 1.0),
            (2, Subset(5, [3, 4]), 1.0),
            (3, Subset(5, [2, 3]), 1.0),
        ]

    def test_tjar_on_the_matching_counterexample(self):
        report = run_experiment(
            ExperimentConfig(algorithm="tjar", instance=obs54_instance(8))
        )
        assert report.status == "ok"
        assert report.value == pytest.approx(1.0)
        assert report.length == 7
        assert report.calls_algorithm == 18  # two greedy runs over 4 elements, lazy from step 3
        assert report.calls_evaluation == 8

    def test_swap_on_the_matching_counterexample(self):
        report = run_experiment(
            ExperimentConfig(algorithm="swap", instance=obs54_instance(8))
        )
        assert report.value == pytest.approx(0.0)
        assert report.length == 4

    def test_astar_both_sides_of_threshold(self):
        found = run_experiment(
            ExperimentConfig(algorithm="astar", instance=replace(obs55_instance(), theta=0.0))
        )
        assert found.status == "found"
        assert found.length == 2
        assert found.expansions is not None
        blocked = run_experiment(
            ExperimentConfig(algorithm="astar", instance=replace(obs55_instance(), theta=0.5))
        )
        assert blocked.status == "no_path"
        assert blocked.rows == [] and blocked.value is None and blocked.length is None

    def test_no_walk_has_no_endpoint_values(self):
        # without rows to read f(X) and f(Y) from, the run does not evaluate them
        inst = replace(obs55_instance(), theta=0.5)
        report = run_experiment(ExperimentConfig(algorithm="astar", instance=inst))
        assert report.status == "no_path"
        assert report.endpoint_values is None
        assert inst.oracle.calls == report.calls_total == 4
        assert "calls_setup" not in {f.name for f in fields(report)}

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_instance_threshold_is_refused(self, theta):
        # the instance refuses it when built, so no run can be given one
        inst = obs55_instance()
        with pytest.raises(ValueError, match=f"threshold must be finite, got theta={theta}"):
            replace(inst, theta=theta)
        assert inst.oracle.calls == 0

    @pytest.mark.parametrize(
        "algorithm, instance, budget, status",
        [
            ("swap", obs54_instance(8), None, "ok"),
            ("tjar", obs54_instance(8), None, "ok"),
            ("tjar", replace(obs54_instance(8), theta=0.5), None, "ok"),
            ("swap", replace(obs54_instance(8), theta=0.5), None, "no_path"),
            ("tjar", replace(obs54_instance(8), theta=1.5), None, "no_path"),
            ("astar", replace(obs55_instance(), theta=0.0), None, "found"),
            ("astar", replace(obs55_instance(), theta=0.5), None, "no_path"),
            ("astar", replace(obs52_instance(), theta=1.0), 0, "inconclusive"),
            ("exact", obs52_instance(), None, "found"),
            ("exact", replace(obs52_instance(), theta=1.01), None, "no_path"),
        ],
        ids=["swap", "tjar", "tjar-above-theta", "swap-below-theta", "tjar-below-theta",
             "astar-found", "astar-no-path", "astar-inconclusive",
             "exact-found", "exact-no-path"],
    )
    def test_calls_total_counts_every_call_of_the_run(self, algorithm, instance, budget, status):
        f = instance.oracle
        before = f.calls
        report = run_experiment(ExperimentConfig(algorithm, instance, budget=budget))
        assert report.status == status
        assert f.calls - before == report.calls_total

    def test_exact_with_restriction(self):
        inst = obs52_instance()
        report = run_experiment(
            ExperimentConfig(
                algorithm="exact",
                instance=inst,
                restriction=inst.x | inst.y,
            )
        )
        assert report.value == 0.75

    @pytest.mark.parametrize("algorithm", ["swap", "tjar"])
    def test_a_walk_takes_no_budget(self, algorithm):
        inst = obs54_instance(8)
        with pytest.raises(ValueError, match=f"^{algorithm} takes no budget; only astar and exact"):
            run_experiment(ExperimentConfig(algorithm, inst, budget=10))
        assert inst.oracle.calls == 0

    def test_a_walk_below_the_threshold_keeps_its_rows(self):
        # the threshold judges the walk after it is evaluated, so the report
        # still reads its value, length and endpoints
        report = run_experiment(ExperimentConfig("swap", replace(obs54_instance(8), theta=0.5)))
        assert (report.status, report.value, report.length) == ("no_path", 0.0, 4)
        assert report.endpoint_values == (report.rows[0][2], report.rows[-1][2])

    def test_the_report_stores_only_what_the_rows_do_not_hold(self):
        assert [f.name for f in fields(Report)] == [
            "algorithm", "rule", "theta", "status", "rows", "calls_algorithm",
            "calls_evaluation", "expansions",
        ]

    @pytest.mark.parametrize("algorithm", ["swap", "tjar", "astar"])
    def test_restriction_outside_exact_is_refused(self, algorithm):
        inst = obs52_instance()
        cfg = ExperimentConfig(
            algorithm=algorithm,
            instance=replace(inst, theta=0.5),
            restriction=Subset(5, [0, 1, 2, 3]),
        )
        with pytest.raises(ValueError, match=f"{algorithm} takes no restriction"):
            run_experiment(cfg)
        assert inst.oracle.calls == 0

    def test_instance_from_file(self, tmp_path):
        inst = ProblemInstance(
            modular_oracle([2.0, 1.0, 3.0]),
            Subset(3, [0]),
            Subset(3, [2]),
            AdjacencyRule.TJ,
            cardinality_k=1,
        )
        p = tmp_path / "case.instance"
        write_instance(p, inst.oracle, inst.x, inst.y, inst.rule, theta=inst.theta)
        report = run_experiment(ExperimentConfig(algorithm="swap", instance=load_instance(p)))
        assert report.status == "ok"
        assert report.endpoint_values == (2.0, 3.0)
        assert report.value == 2.0

    def test_summary_mentions_the_essentials(self):
        report = run_experiment(
            ExperimentConfig(algorithm="swap", instance=obs52_instance())
        )
        text = report.summary()
        assert "algorithm=swap" in text
        assert "rule=tj" in text
        assert "value=0.75" in text
        assert "calls_algorithm=" in text

    def test_config_validation(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(algorithm="solve", instance=obs52_instance()))
        path = write_detour(tmp_path)
        gram = write_small_gram(tmp_path, 4)
        for argv in (["solve", "swap"], ["solve", "swap", path, "--gram", gram]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (3, "")
            assert err == "error: exactly one instance source must be set\n"
        # the library names no CLI flag; the CLI names its own
        inst = obs52_instance()
        with pytest.raises(ValueError, match="^astar needs a threshold$"):
            run_experiment(ExperimentConfig(algorithm="astar", instance=inst))
        assert inst.oracle.calls == 0
        assert run_cli(["solve", "astar", path], capsys) == (
            3, "", "error: astar needs --theta or --theta-frac\n"
        )

    def test_graph_source_needs_seed_and_k(self, data_dir, capsys):
        karate = data_dir / "karate.tsv"
        for flags, message in (
            (["--k", "4"], "influence experiments need an explicit seed"),
            (["--seed", "1"], "endpoint construction needs k"),
        ):
            code, out, err = run_cli(["solve", "swap", "--graph", karate, *flags], capsys)
            assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 2}, "k applies only to"),
            ({"seed": 1}, "seed applies only to"),
        ],
    )
    def test_instance_source_refuses_k_and_seed(self, tmp_path, capsys, fields, message):
        path = write_detour(tmp_path)
        (name, value), = fields.items()
        for command in (["solve", "swap"], ["exact"]):
            code, out, err = run_cli([*command, path, f"--{name}", value], capsys)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "fields",
        [
            {"directed": False},
            {"probability_mode": "inverse-in-degree"},
            {"rr_count": 100_000},
            {"directed": True, "probability_mode": "given", "rr_count": 5},
        ],
    )
    def test_only_an_edge_list_reads_the_graph_fields(self, tmp_path, capsys, fields):
        # --directed is a switch, so the CLI sets that field by naming it
        flags = []
        for key, value in fields.items():
            flags += [f"--{key.replace('_', '-')}"] + ([] if key == "directed" else [value])
        path = write_detour(tmp_path)
        gram = write_small_gram(tmp_path, 4)
        name = next(iter(fields))
        for source in ([path], ["--gram", gram, "--k", "1"]):
            code, out, err = run_cli(["solve", "swap", *source, *flags], capsys)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: {name} applies only to an edge-list")

    def test_edge_list_defaults(self, tmp_path, capsys):
        # an unset --probability-mode reads as inverse in-degree
        path = write_ring(tmp_path)
        runs = [
            run_cli(["solve", "swap", "--graph", path, "--k", "2", "--seed", "3",
                     "--rr-count", "500", *flags], capsys)
            for flags in ([], ["--probability-mode", "inverse-in-degree"])
        ]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_gram_source_refuses_seed(self, tmp_path, capsys):
        gram = write_small_gram(tmp_path, 4)
        argv = ["solve", "swap", "--gram", gram, "--k", "1", "--seed", "3"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert "seed applies only to" in err

    def test_small_influence_pipeline(self, tmp_path):
        g = load_edge_list(write_ring(tmp_path), probability_mode="inverse-in-degree")
        f = influence_oracle(sample_rr_sets(g, 500, 3))
        x, y = interchangeable_greedy(f, 2)
        inst = ProblemInstance(f, x, y, AdjacencyRule.TJ, None, 2)
        report = run_experiment(ExperimentConfig(algorithm="swap", instance=inst))
        assert report.status == "ok"
        assert report.rule is AdjacencyRule.TJ
        assert report.length == len(report.rows) - 1
        assert report.calls_algorithm == 2 * 3 + 1  # k(k+1) + 1 for disjoint endpoints
        assert report.value >= min(report.endpoint_values) * 0.5 - 1e-9

    def test_small_gram_pipeline(self, tmp_path):
        f = logdet_oracle(load_gram(write_small_gram(tmp_path)))
        x, y = interchangeable_greedy(f, 2)
        inst = ProblemInstance(f, x, y, AdjacencyRule.TJAR)
        report = run_experiment(ExperimentConfig(algorithm="tjar", instance=inst))
        assert report.status == "ok"
        assert report.rule is AdjacencyRule.TJAR
        assert report.value > 0.0

    def test_setup_excludes_the_instance_construction(self, tmp_path):
        f = logdet_oracle(load_gram(write_small_gram(tmp_path)))
        x, y = interchangeable_greedy(f, 2)
        greedy_calls = f.calls
        inst = ProblemInstance(f, x, y, AdjacencyRule.TJAR)
        report = run_experiment(ExperimentConfig(algorithm="tjar", instance=inst))
        # f(X) and f(Y) come from the walk's rows, and the greedy built the instance
        assert greedy_calls > 0
        assert f.calls == greedy_calls + report.calls_algorithm + report.calls_evaluation


def test_the_runner_imports_nothing_from_fileio():
    # files are read and written by the CLI; the runner takes an in-memory instance
    tree = ast.parse(EXPERIMENT.read_text(encoding="utf-8"), str(EXPERIMENT))
    # dotted names: "fileio.load_gram" for "from .fileio import load_gram"
    imported = [
        ".".join(filter(None, [getattr(node, "module", None), alias.name]))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [name for name in imported if "fileio" in name.split(".")], imported
