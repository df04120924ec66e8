"""Acceptance suite: one test per shipped guarantee.

Each test prints a single pass/fail line with its elapsed time (visible with
``pytest tests/test_acceptance.py -s``) and enforces its runtime budget where
one is stated.  Expected values are either exact by construction or frozen
from independent derivations; random suites use fixed seeds throughout.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from conftest import (
    bfs_shortest_feasible,
    colour_classes,
    covers_of_min_size,
    cycle_graph,
    exact_influence,
    grid_graph,
    random_monotone_oracle,
    random_nonnegative_oracle,
    random_subset,
    small_graph_family,
)
from subreco import (
    AdjacencyRule,
    CnfFormula,
    ExperimentConfig,
    ProblemInstance,
    SatAssignment,
    Subset,
    VcReconfigInstance,
    WeightedGraph,
    astar,
    check_monotone,
    check_submodular,
    inapprox_gadget,
    influence_oracle,
    interchangeable_greedy,
    load_edge_list,
    logdet_oracle,
    make_synthetic_gram,
    minvc_to_usreco_tjar,
    modular_oracle,
    nae_clause_oracle,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    optimal_value,
    residual,
    run_experiment,
    sample_rr_sets,
    sat_reconfig_to_vc_reconfig,
    swap_reconfigure,
    tjar_reconfigure,
    total_curvature,
    validate_sequence,
    vc_to_msreco,
)
from subreco.algorithms import default_budget, feasible_path


@contextmanager
def criterion(label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"{label}: FAIL ({elapsed:.2f}s, budget {budget:.0f}s)")
        raise AssertionError(f"{label!r} took {elapsed:.2f}s, budget {budget:.0f}s")
    suffix = "" if budget is None else f", budget {budget:.0f}s"
    print(f"{label}: PASS ({elapsed:.2f}s{suffix})")


def walk_value(oracle, seq):
    return min(oracle.evaluate(s) for s in seq)


def test_01_coverage_detour_beats_restricted_exchanges():
    with criterion("[01] coverage detour beats restricted exchanges", budget=1.0):
        inst = obs52_instance()
        f, x, y = inst.oracle, inst.x, inst.y
        free = optimal_value(f, x, y, AdjacencyRule.TJ)
        assert free == 1.0
        narrowed = optimal_value(f, x, y, AdjacencyRule.TJ, restriction=x | y)
        assert narrowed == 0.75
        assert walk_value(f, swap_reconfigure(f, x, y)) == 0.75


def test_02_matching_cut_separates_the_walk_strategies():
    with criterion("[02] matching cut separates the walk strategies", budget=1.0):
        for n in (8, 16):
            inst = obs54_instance(n)
            f, x, y = inst.oracle, inst.x, inst.y
            assert walk_value(f, tjar_reconfigure(f, x, y)) == 1.0
            assert walk_value(f, swap_reconfigure(f, x, y)) == 0.0


def test_03_single_edge_add_remove_optimum_is_zero():
    with criterion("[03] single-edge add-remove optimum is zero"):
        inst = obs55_instance()
        f, x, y = inst.oracle, inst.x, inst.y
        assert f.evaluate(x) == 1.0
        assert f.evaluate(y) == 1.0
        assert optimal_value(f, x, y, AdjacencyRule.TAR) == 0.0
        res = astar(ProblemInstance(f, x, y, AdjacencyRule.TAR, 0.5))
        assert res.status == "no_path"
        assert res.sequence is None


def test_04_swap_walk_guarantee_on_coverage_mixtures():
    with criterion("[04] swap walk value guarantee, 200 coverage mixtures", budget=30.0):
        rng = random.Random(40400)
        for _ in range(200):
            n = rng.randint(4, 12)
            k = rng.randint(1, min(5, n // 2))
            f = random_monotone_oracle(rng, n)
            x = random_subset(rng, n, k)
            y = random_subset(rng, n, k)
            kappa = total_curvature(f)
            seq = swap_reconfigure(f, x, y)
            bound = max(0.5, (1.0 - kappa) ** 2) * min(f.evaluate(x), f.evaluate(y))
            assert walk_value(f, seq) >= bound - 1e-9
            assert validate_sequence(ProblemInstance(f, x, y, AdjacencyRule.TJ, None, k), seq)
            assert seq.length <= k


def test_05_add_remove_walk_guarantee_on_nonnegative_mixtures():
    with criterion("[05] add-remove walk value guarantee, 200 cut mixtures", budget=30.0):
        rng = random.Random(50500)
        for _ in range(200):
            n = rng.randint(3, 12)
            f = random_nonnegative_oracle(rng, n)
            x = random_subset(rng, n, rng.randint(1, n))
            y = random_subset(rng, n, rng.randint(1, n))
            seq = tjar_reconfigure(f, x, y)
            bound = min(f.evaluate(x), f.evaluate(y)) / n
            assert walk_value(f, seq) >= bound - 1e-9
            assert validate_sequence(ProblemInstance(f, x, y, AdjacencyRule.TJAR), seq)
            assert seq.length <= 2 * n


def test_06_residual_modular_sandwich_exhaustive():
    with criterion("[06] residual modular sandwich, exhaustive", budget=60.0):
        for n in range(3, 9):
            for seed in (n, 100 + n):
                f = random_monotone_oracle(random.Random(seed), n)
                kappa = total_curvature(f)
                for r_mask in range(1 << n):
                    r = Subset.from_mask(n, r_mask)
                    res = residual(f, r)
                    comp = ~r_mask & ((1 << n) - 1)
                    # the modular bound's weights: singleton residual values
                    single = {e: res.evaluate(1 << e) for e in Subset.from_mask(n, comp)}
                    s_mask = comp
                    while True:
                        s = Subset.from_mask(n, s_mask)
                        u = 0.0
                        for e in s:  # in ascending id order
                            u += single[e]
                        fr = res.evaluate(s)
                        assert fr <= u + 1e-9
                        assert (1.0 - kappa) * u <= fr + 1e-9
                        if s_mask == 0:
                            break
                        s_mask = (s_mask - 1) & comp


def test_07_search_matches_exhaustive_shortest_paths():
    with criterion("[07] search equals exhaustive shortest paths, 300 instances", budget=60.0):
        rng = random.Random(70700)
        rules = [AdjacencyRule.TJ, AdjacencyRule.TAR, AdjacencyRule.TJAR]
        for trial in range(300):
            n = rng.randint(3, 8)
            rule = rules[trial % 3]
            f = (random_monotone_oracle if trial % 2 else random_nonnegative_oracle)(rng, n)
            if rule is AdjacencyRule.TJ:
                k = rng.randint(1, n - 1)
                x = random_subset(rng, n, k)
                y = random_subset(rng, n, k)
                cardinality = k
            else:
                x = random_subset(rng, n, rng.randint(0, n))
                y = random_subset(rng, n, rng.randint(0, n))
                cardinality = None
            theta = rng.uniform(0.2, 1.2) * min(f.evaluate(x), f.evaluate(y))
            ref = bfs_shortest_feasible(f, x, y, rule, theta)
            res = astar(ProblemInstance(f, x, y, rule, theta, cardinality))
            if ref is None:
                assert res.status == "no_path"
            else:
                assert res.status == "found"
                assert res.sequence.length == ref


def test_08_reduction_soundness_suites():
    with criterion("[08] reduction soundness suites", budget=120.0):
        # fixed-size threshold round trip and the add-remove cover filter
        for g in small_graph_family():
            n = g.n
            _, covers = covers_of_min_size(g)
            cover_masks = {c.mask for c in covers}

            filt = minvc_to_usreco_tjar(VcReconfigInstance(g, covers[0], covers[-1]))
            feasible = {
                m
                for m in range(1 << n)
                if filt.oracle.evaluate(Subset.from_mask(n, m)) >= filt.theta - 1e-9
            }
            assert feasible == cover_masks

            if len(covers) >= 2:
                adj = [[] for _ in covers]
                for i, a in enumerate(covers):
                    for j in range(i + 1, len(covers)):
                        if (a.mask ^ covers[j].mask).bit_count() == 2:
                            adj[i].append(j)
                            adj[j].append(i)

                def cover_bfs(src, dst):
                    seen = {src}
                    frontier = [src]
                    while frontier:
                        frontier = [
                            j for i in frontier for j in adj[i] if j not in seen
                        ]
                        seen.update(frontier)
                    return dst in seen

                for i, j in list(combinations(range(len(covers)), 2))[:8]:
                    inst = vc_to_msreco(VcReconfigInstance(g, covers[i], covers[j]))
                    assert (astar(inst).status == "found") == cover_bfs(i, j)

        # full-count clause oracle matches the not-all-equal predicate
        rng = random.Random(404)
        for _ in range(15):
            n = rng.randint(3, 8)
            phi = CnfFormula.monotone3(
                n, [rng.sample(range(n), 3) for _ in range(rng.randint(1, 6))]
            )
            oracle = nae_clause_oracle(phi)
            for mask in range(1 << n):
                bits = tuple(bool(mask >> i & 1) for i in range(n))
                full = oracle.evaluate(Subset.from_mask(n, mask)) >= phi.m - 1e-9
                assert full == phi.nae_satisfies(bits)

        # formula-graph structural counts and cover sizes
        rng = random.Random(505)
        built = 0
        while built < 12:
            n = rng.randint(2, 6)
            m = rng.randint(1, 6)
            clauses = tuple(
                tuple(
                    (v, rng.random() < 0.5)
                    for v in rng.sample(range(n), min(rng.choice((2, 3)), n))
                )
                for _ in range(m)
            )
            phi = CnfFormula(n, clauses)
            sats = [
                tuple(bool(mask >> i & 1) for i in range(n))
                for mask in range(1 << n)
                if phi.satisfies(tuple(bool(mask >> i & 1) for i in range(n)))
            ]
            if len(sats) < 2:
                continue
            vc = sat_reconfig_to_vc_reconfig(
                phi, SatAssignment(sats[0]), SatAssignment(sats[-1])
            )
            lits = sum(len(c) for c in phi.clauses)
            assert vc.graph.n == 2 * n + lits
            cliques = sum(len(c) * (len(c) - 1) // 2 for c in phi.clauses)
            assert vc.graph.edge_count == n + cliques + lits
            assert len(vc.cover_x) == len(vc.cover_y) == vc.graph.n - m - n
            built += 1

        # gadget value bands and their case bounds
        rng = random.Random(606)
        for trial in range(8):
            n = 1 + trial % 4
            if trial < 4:
                inner = modular_oracle([rng.uniform(0.0, 2.0) for _ in range(n)])
            else:
                inner = random_monotone_oracle(rng, n)
            max_f = max(inner.evaluate(Subset.from_mask(n, m)) for m in range(1 << n))
            ups = 1.5 * (max_f + 1.0)
            gadget = inapprox_gadget(inner, ups)
            total = n + 4
            bands = (0.0, ups, 2.0 * ups)
            for mask in range(1 << total):
                gv = gadget.oracle.evaluate(Subset.from_mask(total, mask))
                fv = inner.evaluate(Subset.from_mask(n, mask & ((1 << n) - 1)))
                comp = min(bands, key=lambda c: abs(gv - (c + fv)))
                assert abs(gv - (comp + fv)) <= 1e-9
                if gv < ups:
                    assert comp == 0.0
                elif gv < 2.0 * ups:
                    assert comp == ups
                else:
                    assert comp == 2.0 * ups
            top = 2.0 * ups + inner.evaluate(Subset(n, ()))
            assert gadget.oracle.evaluate(gadget.x) == pytest.approx(top, abs=1e-9)
            assert gadget.oracle.evaluate(gadget.y) == pytest.approx(top, abs=1e-9)


def test_09_influence_estimator_accuracy_across_seeds():
    with criterion("[09] influence estimate within 0.05, 50 seeds", budget=60.0):
        toys = [
            WeightedGraph.build(
                4, [(0, 1), (1, 2), (2, 3)], directed=True, probabilities=[0.5, 0.5, 0.5]
            ),
            WeightedGraph.build(
                4, [(0, 1), (0, 2), (0, 3)], directed=True, probabilities=[0.3, 0.6, 0.9]
            ),
            WeightedGraph.build(
                4, [(1, 0), (2, 0), (3, 0)], directed=True, probabilities=[0.4, 0.7, 1.0]
            ),
        ]
        exact_tables = [
            [exact_influence(g, Subset.from_mask(4, m)) for m in range(16)] for g in toys
        ]
        fails = 0
        for trial in range(50):
            which = trial % 3
            est = influence_oracle(sample_rr_sets(toys[which], 100_000, seed=trial))
            diff = max(
                abs(est.evaluate(Subset.from_mask(4, m)) - exact_tables[which][m])
                for m in range(16)
            )
            if diff > 0.05:
                fails += 1
        assert fails <= 2


def test_10_karate_influence_pipeline_end_to_end(data_dir):
    with criterion("[10] karate influence pipeline end to end", budget=120.0):
        k = 8
        graph = load_edge_list(data_dir / "karate.tsv", probability_mode="inverse-in-degree")
        f = influence_oracle(sample_rr_sets(graph, 100_000, seed=7))
        x, y = interchangeable_greedy(f, k)
        inst = ProblemInstance(f, x, y, AdjacencyRule.TJ, None, k)
        report = run_experiment(ExperimentConfig(algorithm="swap", instance=inst))
        fx, fy = report.endpoint_values
        assert 20.0 <= fx <= 27.0
        assert 20.0 <= fy <= 27.0
        # deterministic for this sampler and seed; guards silent estimator drift
        assert fx == pytest.approx(23.08498, abs=1e-9)
        assert fy == pytest.approx(23.54194, abs=1e-9)
        assert len(report.rows) == 9
        assert report.value >= 0.8 * min(fx, fy)
        # lazy greedy steps, within the eager count k(k+1)+1 = 73
        assert report.calls_algorithm == 55
        assert report.calls_algorithm <= 2 * k * k
        assert report.calls_evaluation == k + 1


def test_11_synthetic_gram_search_optimum_and_walk_gap():
    with criterion("[11] synthetic gram search optimum and walk gap", budget=120.0):
        f = logdet_oracle(make_synthetic_gram(24, seed=2))
        x, y = interchangeable_greedy(f, 6)
        v = min(f.evaluate(x), f.evaluate(y))
        assert v == pytest.approx(4.754647619348113, abs=1e-9)

        res = astar(ProblemInstance(f, x, y, AdjacencyRule.TJAR, v))
        assert res.status == "found"
        assert walk_value(f, res.sequence) == v

        # independent bottleneck check on the 12-element restriction
        assert len(x | y) == 12
        assert optimal_value(f, x, y, AdjacencyRule.TJAR, restriction=x | y) == v

        # the true optimum over all 24 elements, past the old lattice guard
        calls = f.calls
        best = optimal_value(f, x, y, AdjacencyRule.TJAR)
        assert best == v
        assert f.calls - calls == 7  # one round: X, Y and five exchanges between

        walk = tjar_reconfigure(f, x, y)
        wv = walk_value(f, walk)
        assert wv <= best
        assert wv >= v / 24 - 1e-9
        assert wv < 0.5 * v  # the walk can land far below the search optimum


def test_12_exhaustive_audit_of_a_16_element_gram():
    with criterion("[12] exhaustive structural audit, 16-element gram", budget=3.0):
        f = logdet_oracle(make_synthetic_gram(16, seed=3))
        # one evaluate_many over 65,536 states per check, then numpy scans
        assert check_submodular(f).ok
        assert check_monotone(f).ok
        assert f.calls == 2 * (1 << 16)


def test_13_walks_against_the_exact_optimum_on_no_instances():
    # PAPER.md's no-instances: the colour classes of a grid or an even cycle
    # are minimum vertex covers no exchange sequence joins, so the optimum
    # lies below theta.  Triples are (optimum, swap or tjar walk, shortest
    # walk with every state feasible); kappa = 1 on every TJ oracle here.
    pinned = {
        ("4x4", "tj"): (22, 19, 21), ("4x4", "tjar"): (27, 11.5, 25),
        ("C_12", "tj"): (11, 7, 11), ("C_12", "tjar"): (14.5, 7.5, 14),
        ("C_20", "tj"): (19, 11, 19), ("C_20", "tjar"): (24.5, 11.5, 24),
    }
    with criterion("[13] walks against the exact optimum on no-instances", budget=5.0):
        for name, g in (("4x4", grid_graph(4, 4)), ("C_12", cycle_graph(12)),
                        ("C_20", cycle_graph(20))):
            x, y = colour_classes(g)
            for reduce, walker in ((vc_to_msreco, swap_reconfigure),
                                   (minvc_to_usreco_tjar, tjar_reconfigure)):
                inst = reduce(VcReconfigInstance(g, x, y))
                f = inst.oracle
                best = optimal_value(f, x, y, inst.rule)
                walk = walk_value(f, walker(f, x, y))
                status, chain, _ = feasible_path(
                    inst.rule, (1 << g.n) - 1, x.mask, y.mask, lambda m: True, default_budget(g.n)
                )
                assert status == "found"
                shortest = min(f.evaluate(m) for m in chain)
                assert (best, walk, shortest) == pinned[name, inst.rule.token]
                assert max(walk, shortest) <= best < inst.theta
                top = min(f.evaluate(x), f.evaluate(y))
                if inst.rule is AdjacencyRule.TJ:
                    kappa = total_curvature(f)
                    assert kappa == 1.0
                    assert walk >= max(0.5, (1.0 - kappa) ** 2) * top
                else:
                    assert walk >= top / g.n
