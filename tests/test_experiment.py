"""Endpoint construction, synthetic matrices, and the experiment runner."""

import numpy as np
import pytest

from subreco import (
    AdjacencyRule,
    ExperimentConfig,
    ProblemInstance,
    Subset,
    interchangeable_greedy,
    load_gram,
    load_sequence_csv,
    logdet_oracle,
    make_synthetic_gram,
    modular_oracle,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    run_experiment,
    write_instance,
    write_instance_for,
)


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
        assert x.isdisjoint(y)
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
    def test_exact_on_the_coverage_counterexample(self, tmp_path):
        out = tmp_path / "seq.csv"
        report = run_experiment(
            ExperimentConfig(algorithm="exact", instance=obs52_instance(), out=out)
        )
        assert report.status == "found"
        assert report.value == 1.0
        assert report.length == 3
        assert len(report.rows) == 4
        # the ascent evaluates 8 of the 10 states of the size-2 slice
        assert report.calls_setup == 2
        assert report.calls_algorithm == 8
        assert report.calls_evaluation == 4
        assert report.calls_total == 12
        seq = load_sequence_csv(out, 5)
        assert seq.steps == tuple(s for _, s, _ in report.rows)

    def test_tjar_on_the_matching_counterexample(self):
        report = run_experiment(
            ExperimentConfig(algorithm="tjar", instance=obs54_instance(8))
        )
        assert report.status == "ok"
        assert report.value == pytest.approx(1.0)
        assert report.length == 7
        assert report.calls_setup == 2
        assert report.calls_algorithm == 20  # two greedy runs over 4 elements
        assert report.calls_evaluation == 8

    def test_swap_on_the_matching_counterexample(self):
        report = run_experiment(
            ExperimentConfig(algorithm="swap", instance=obs54_instance(8))
        )
        assert report.value == pytest.approx(0.0)
        assert report.length == 4

    def test_astar_both_sides_of_threshold(self):
        found = run_experiment(
            ExperimentConfig(algorithm="astar", instance=obs55_instance(), theta=0.0)
        )
        assert found.status == "found"
        assert found.length == 2
        assert found.expansions is not None
        blocked = run_experiment(
            ExperimentConfig(algorithm="astar", instance=obs55_instance(), theta=0.5)
        )
        assert blocked.status == "no_path"
        assert blocked.rows == [] and blocked.value is None and blocked.length is None

    def test_astar_frac_threshold(self):
        # endpoints of the single-edge instance both have value 1
        report = run_experiment(
            ExperimentConfig(algorithm="astar", instance=obs55_instance(), theta_frac=0.5)
        )
        assert report.theta == pytest.approx(0.5)
        assert report.status == "no_path"

    def test_file_fraction_costs_the_endpoint_values_once(self, tmp_path):
        p = tmp_path / "frac.instance"
        write_instance(
            p,
            modular_oracle([2.0, 1.0, 3.0]),
            Subset(3, [0]),
            Subset(3, [2]),
            AdjacencyRule.TJAR,
            theta_frac=0.5,
        )
        report = run_experiment(ExperimentConfig(algorithm="swap", instance=p))
        assert report.theta == pytest.approx(1.0)
        assert report.calls_setup == 2  # f(X) and f(Y), taken once

    def test_rule_override_relaxes_the_instance(self):
        report = run_experiment(
            ExperimentConfig(
                algorithm="exact", instance=obs52_instance(), rule=AdjacencyRule.TJAR
            )
        )
        assert report.rule is AdjacencyRule.TJAR
        assert report.value == 1.0

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

    def test_instance_from_file(self, tmp_path):
        inst = ProblemInstance(
            modular_oracle([2.0, 1.0, 3.0]),
            Subset(3, [0]),
            Subset(3, [2]),
            AdjacencyRule.TJ,
            cardinality_k=1,
        )
        p = tmp_path / "case.instance"
        write_instance_for(inst, p)
        report = run_experiment(ExperimentConfig(algorithm="swap", instance=p))
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(algorithm="solve", instance=obs52_instance()))
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(algorithm="swap"))
        with pytest.raises(ValueError):
            run_experiment(
                ExperimentConfig(
                    algorithm="swap", instance=obs52_instance(), gram_path="x.gram"
                )
            )
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(algorithm="astar", instance=obs52_instance()))

    def test_graph_source_needs_seed_and_k(self, data_dir):
        with pytest.raises(ValueError):
            run_experiment(
                ExperimentConfig(
                    algorithm="swap", graph_path=data_dir / "karate.tsv", k=4
                )
            )
        with pytest.raises(ValueError):
            run_experiment(
                ExperimentConfig(
                    algorithm="swap", graph_path=data_dir / "karate.tsv", seed=1
                )
            )

    def test_small_influence_pipeline(self, tmp_path):
        from subreco import WeightedGraph, write_edge_list

        g = WeightedGraph.build(6, [(i, i + 1) for i in range(5)] + [(0, 5)])
        path = tmp_path / "ring.tsv"
        write_edge_list(path, g)
        report = run_experiment(
            ExperimentConfig(
                algorithm="swap",
                graph_path=path,
                k=2,
                seed=3,
                rr_count=500,
            )
        )
        assert report.status == "ok"
        assert report.rule is AdjacencyRule.TJ
        assert report.length == len(report.rows) - 1
        assert report.calls_algorithm == 2 * 3 + 1  # k(k+1) + 1 for disjoint endpoints
        assert report.value >= min(report.endpoint_values) * 0.5 - 1e-9

    def test_small_gram_pipeline(self, tmp_path):
        from subreco import write_gram

        path = tmp_path / "m.gram"
        write_gram(path, make_synthetic_gram(6, seed=5))
        report = run_experiment(
            ExperimentConfig(algorithm="tjar", gram_path=path, k=2)
        )
        assert report.status == "ok"
        assert report.rule is AdjacencyRule.TJAR
        assert report.value > 0.0

    def test_setup_counts_endpoint_construction(self, tmp_path):
        from subreco import write_gram

        path = tmp_path / "m.gram"
        write_gram(path, make_synthetic_gram(6, seed=5))
        f = logdet_oracle(load_gram(path))
        interchangeable_greedy(f, 2)
        report = run_experiment(
            ExperimentConfig(algorithm="tjar", gram_path=path, k=2)
        )
        # the greedy's calls plus f(X) and f(Y)
        assert report.calls_setup == f.calls + 2
