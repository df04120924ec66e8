"""Greedy ordering, the two approximation walks, and threshold A* search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subreco import (
    AdjacencyRule,
    AstarConfig,
    AstarResult,
    GroundSet,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    astar,
    cut_oracle,
    default_heuristic,
    greedy,
    interchangeable_greedy,
    modular_oracle,
    sequence_value,
    swap_reconfigure,
    tjar_reconfigure,
    total_curvature,
    validate_sequence,
)

from conftest import (
    bfs_shortest_feasible,
    random_graph,
    random_monotone_oracle,
    random_nonnegative_oracle,
    random_subset,
)


class TestGreedy:
    def test_modular_trace(self):
        f = modular_oracle([3.0, 1.0, 2.0])
        trace = greedy(f, Subset.full(3), 2)
        assert trace.elements == (0, 2)
        assert trace.prefix_values == (3.0, 5.0)
        # 3 candidates in round one, 2 in round two
        assert trace.oracle_calls == 5
        assert f.calls == 5

    def test_tie_goes_to_smallest_id(self):
        f = modular_oracle([1.0, 1.0, 1.0])
        assert greedy(f, Subset.full(3), 3).elements == (0, 1, 2)
        assert greedy(f, Subset(3, [1, 2]), 1).elements == (1,)

    def test_restricted_ground(self):
        f = modular_oracle([3.0, 1.0, 2.0])
        trace = greedy(f, Subset(3, [1, 2]), 2)
        assert trace.elements == (2, 1)
        assert trace.prefix_values == (2.0, 3.0)

    def test_k_zero(self):
        f = modular_oracle([1.0])
        trace = greedy(f, Subset.full(1), 0)
        assert trace.elements == () and trace.oracle_calls == 0

    def test_k_out_of_range(self):
        f = modular_oracle([1.0, 1.0])
        with pytest.raises(ValueError):
            greedy(f, Subset(2, [0]), 2)

    @given(st.integers(0, 999), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_call_count_and_diminishing_prefixes(self, seed, n):
        rng = random.Random(seed)
        f = random_monotone_oracle(rng, n)
        k = rng.randint(1, n)
        trace = greedy(f, Subset.full(n), k)
        assert trace.oracle_calls == sum(n - i for i in range(k))
        gains = [trace.prefix_values[0]] + [
            trace.prefix_values[i] - trace.prefix_values[i - 1] for i in range(1, k)
        ]
        for a, b in zip(gains, gains[1:]):
            assert b <= a + 1e-9


class TestSwapReconfigure:
    def test_modular_walk(self):
        f = modular_oracle([3.0, 1.0, 4.0, 2.0])
        seq = swap_reconfigure(f, Subset(4, [0, 1]), Subset(4, [2, 3]))
        # X's greedy order keeps 0 longest, Y's brings 2 in first
        assert seq == ReconfigSequence(
            [Subset(4, [0, 1]), Subset(4, [0, 2]), Subset(4, [2, 3])]
        )
        assert sequence_value(f, seq) == 4.0  # modular: no loss below min endpoint

    def test_shared_elements_never_move(self):
        f = modular_oracle([1.0] * 5)
        x, y = Subset(5, [0, 1, 2]), Subset(5, [0, 3, 4])
        seq = swap_reconfigure(f, x, y)
        assert seq.length == 2
        for s in seq:
            assert 0 in s and len(s) == 3

    def test_identical_endpoints(self):
        f = modular_oracle([1.0, 1.0])
        seq = swap_reconfigure(f, Subset(2, [0]), Subset(2, [0]))
        assert seq == ReconfigSequence([Subset(2, [0])])
        assert f.calls == 0

    def test_disjoint_call_count(self):
        # one call fixes the residual offset, then k(k+1) greedy evaluations
        f = modular_oracle([3.0, 1.0, 4.0, 2.0])
        swap_reconfigure(f, Subset(4, [0, 1]), Subset(4, [2, 3]))
        assert f.calls == 1 + 2 * 3

    def test_size_mismatch_rejected(self):
        f = modular_oracle([1.0] * 3)
        with pytest.raises(ValueError):
            swap_reconfigure(f, Subset(3, [0]), Subset(3, [1, 2]))

    def test_universe_mismatch_rejected(self):
        f = modular_oracle([1.0] * 3)
        with pytest.raises(ValueError):
            swap_reconfigure(f, Subset(4, [0]), Subset(4, [1]))

    @given(st.integers(0, 9999))
    @settings(max_examples=60, deadline=None)
    def test_guarantee_and_shape(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        k = rng.randint(1, n)
        f = random_monotone_oracle(rng, n)
        x = random_subset(rng, n, k)
        y = random_subset(rng, n, k)
        kappa = total_curvature(f)
        seq = swap_reconfigure(f, x, y)
        assert seq.length == len(x - y)
        inst = ProblemInstance(f, x, y, AdjacencyRule.TJ, cardinality_k=k)
        assert validate_sequence(inst, seq)
        floor = max(0.5, (1.0 - kappa) ** 2) * min(f.evaluate(x), f.evaluate(y))
        assert sequence_value(f, seq) >= floor - 1e-9


class TestTjarReconfigure:
    def test_modular_walk(self):
        f = modular_oracle([3.0, 1.0, 4.0, 2.0])
        seq = tjar_reconfigure(f, Subset(4, [0, 1]), Subset(4, [2, 3]))
        # shrink X to its best singleton, jump, regrow Y best-first
        assert seq == ReconfigSequence(
            [Subset(4, [0, 1]), Subset(4, [0]), Subset(4, [2]), Subset(4, [2, 3])]
        )
        assert sequence_value(f, seq) == 3.0

    def test_overlapping_endpoints_collapse_duplicates(self):
        f = modular_oracle([3.0, 1.0, 2.0])
        seq = tjar_reconfigure(f, Subset(3, [0, 1]), Subset(3, [0, 2]))
        assert seq == ReconfigSequence(
            [Subset(3, [0, 1]), Subset(3, [0]), Subset(3, [0, 2])]
        )

    def test_identical_singletons(self):
        f = modular_oracle([1.0, 1.0])
        seq = tjar_reconfigure(f, Subset(2, [0]), Subset(2, [0]))
        assert seq == ReconfigSequence([Subset(2, [0])])

    def test_call_count(self):
        f = modular_oracle([3.0, 1.0, 4.0, 2.0])
        tjar_reconfigure(f, Subset(4, [0, 1]), Subset(4, [2, 3]))
        # two greedy runs over two-element grounds: (2 + 1) each
        assert f.calls == 6

    def test_empty_endpoint_rejected(self):
        f = modular_oracle([1.0, 1.0])
        with pytest.raises(ValueError):
            tjar_reconfigure(f, Subset.empty(2), Subset(2, [0]))
        with pytest.raises(ValueError):
            tjar_reconfigure(f, Subset(2, [0]), Subset.empty(2))

    @given(st.integers(0, 9999))
    @settings(max_examples=60, deadline=None)
    def test_guarantee_and_shape(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        f = random_nonnegative_oracle(rng, n)
        x = random_subset(rng, n, rng.randint(1, n))
        y = random_subset(rng, n, rng.randint(1, n))
        seq = tjar_reconfigure(f, x, y)
        assert seq.length <= len(x) + len(y)
        inst = ProblemInstance(f, x, y, AdjacencyRule.TJAR)
        assert validate_sequence(inst, seq)
        floor = min(f.evaluate(x), f.evaluate(y)) / n
        assert sequence_value(f, seq) >= floor - 1e-9


class TestDefaultHeuristic:
    def test_values(self):
        y = Subset(4, [2, 3])
        s = Subset(4, [0, 1])
        assert default_heuristic(AdjacencyRule.TJ, y)(s) == 2.0
        assert default_heuristic(AdjacencyRule.TAR, y)(s) == 4.0
        assert default_heuristic(AdjacencyRule.TJAR, y)(s) == 2.0
        t = Subset(4, [0])
        assert default_heuristic(AdjacencyRule.TJ, y)(t) == 1.5
        assert default_heuristic(AdjacencyRule.TAR, y)(t) == 3.0
        assert default_heuristic(AdjacencyRule.TJAR, y)(t) == 2.0

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1),
                            st.integers(0, 2**n - 1))),
        st.sampled_from(list(AdjacencyRule)))
    @settings(max_examples=150)
    def test_zero_at_target_and_consistent(self, args, rule):
        n, y_mask, s_mask = args
        y = Subset.from_mask(n, y_mask)
        s = Subset.from_mask(n, s_mask)
        h = default_heuristic(rule, y)
        assert h(y) == 0.0
        from subreco import neighbors

        for t in neighbors(rule, s):
            assert h(s) <= h(t) + 1.0 + 1e-12

    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1),
                            st.integers(0, 2**n - 1))),
        st.sampled_from(list(AdjacencyRule)))
    @settings(max_examples=100, deadline=None)
    def test_admissible(self, args, rule):
        n, y_mask, s_mask = args
        y = Subset.from_mask(n, y_mask)
        s = Subset.from_mask(n, s_mask)
        f = modular_oracle([0.0] * n)
        dist = bfs_shortest_feasible(f, s, y, rule, theta=-1.0)
        if dist is not None:
            assert default_heuristic(rule, y)(s) <= dist + 1e-12


class TestAstar:
    def make_instance(self, weights, x, y, rule, theta):
        n = len(weights)
        return ProblemInstance(
            modular_oracle(weights), Subset(n, x), Subset(n, y), rule, theta=theta
        )

    def test_finds_shortest_direct_route(self):
        inst = self.make_instance([2.0, 1.0, 3.0], [0], [2], AdjacencyRule.TJ, 1.5)
        result = astar(inst)
        assert result.status == "found" and bool(result)
        assert result.sequence == ReconfigSequence([Subset(3, [0]), Subset(3, [2])])
        assert result.sequence.length == 1

    def test_detours_around_infeasible_states(self):
        # going down to {} is barred by the threshold, so TAR must go up first
        inst = self.make_instance([1.0, 1.0], [0], [1], AdjacencyRule.TAR, 0.5)
        result = astar(inst)
        assert result.sequence == ReconfigSequence(
            [Subset(2, [0]), Subset(2, [0, 1]), Subset(2, [1])]
        )

    def test_threshold_prunes_to_no_path(self):
        inst = self.make_instance([1.0, 1.0], [0], [1], AdjacencyRule.TAR, 1.5)
        result = astar(inst)
        assert result.status == "no_path" and not bool(result)
        assert result.sequence is None

    def test_infeasible_endpoint_short_circuits(self):
        inst = self.make_instance([1.0, 2.0], [0], [1], AdjacencyRule.TJAR, 1.5)
        result = astar(inst)
        assert result.status == "no_path"
        assert result.expansions == 0
        assert result.oracle_calls == 1  # X already settles it

    def test_identical_endpoints(self):
        inst = self.make_instance([1.0], [0], [0], AdjacencyRule.TAR, 0.5)
        result = astar(inst)
        assert result.sequence == ReconfigSequence([Subset(1, [0])])
        assert result.expansions == 1

    def test_budget_exhaustion_is_inconclusive(self):
        inst = self.make_instance(
            [1.0] * 6, [0], [5], AdjacencyRule.TAR, 0.0
        )
        result = astar(inst, AstarConfig(budget=0))
        assert result.status == "inconclusive"
        assert result.sequence is None
        full = astar(inst)
        assert full.status == "found"

    def test_negative_budget_is_an_error(self):
        inst = self.make_instance([1.0, 1.0], [0], [1], AdjacencyRule.TAR, 0.5)
        with pytest.raises(ValueError, match="budget"):
            astar(inst, AstarConfig(budget=-1))

    def test_threshold_required(self):
        inst = self.make_instance([1.0, 1.0], [0], [1], AdjacencyRule.TAR, None)
        with pytest.raises(ValueError):
            astar(inst)

    def test_each_subset_evaluated_once(self):
        hits: dict[int, int] = {}

        def fn(s: Subset) -> float:
            hits[s.mask] = hits.get(s.mask, 0) + 1
            return float(len(s))

        f = SetFunctionOracle(fn, GroundSet(4))
        inst = ProblemInstance(
            f, Subset(4, [0]), Subset(4, [1, 2, 3]), AdjacencyRule.TAR, theta=0.0
        )
        result = astar(inst)
        assert result.status == "found"
        assert max(hits.values()) == 1
        assert result.oracle_calls == len(hits)

    def test_deterministic_across_runs(self):
        inst = self.make_instance(
            [1.0, 2.0, 1.0, 2.0, 1.0], [0, 1], [3, 4], AdjacencyRule.TJAR, 1.0
        )
        first = astar(inst)
        second = astar(inst)
        assert first.sequence == second.sequence
        assert first.expansions == second.expansions

    @given(st.integers(0, 9999))
    @settings(max_examples=80, deadline=None)
    def test_matches_breadth_first_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        f = random_nonnegative_oracle(rng, n)
        rule = rng.choice(list(AdjacencyRule))
        if rule is AdjacencyRule.TJ:
            k = rng.randint(1, n)
            x = random_subset(rng, n, k)
            y = random_subset(rng, n, k)
        else:
            x = random_subset(rng, n, rng.randint(0, n))
            y = random_subset(rng, n, rng.randint(0, n))
        lo = 0.0
        hi = max(f.evaluate(x), f.evaluate(y))
        theta = rng.uniform(lo, hi * 1.05) if hi > 0 else 0.0
        inst = ProblemInstance(f, x, y, rule, theta=theta)
        result = astar(inst)
        expected = bfs_shortest_feasible(f, x, y, rule, theta)
        if expected is None:
            assert result.status == "no_path"
        else:
            assert result.status == "found"
            assert result.sequence.length == expected
            assert validate_sequence(inst, result.sequence)

    # seeded cut graphs on which A* finds a shorter path to a state that is
    # already queued, so the pins cover re-pushes as well as plain expansion
    @pytest.mark.parametrize(
        "seed, rule, frac, budget, expected",
        [
            (1, AdjacencyRule.TJ, 0.9, None, ("found", 4, 7, 125)),
            (18, AdjacencyRule.TJ, 0.95, None, ("found", 6, 29, 304)),
            (2, AdjacencyRule.TAR, 0.9, None, ("found", 10, 84, 547)),
            (1, AdjacencyRule.TAR, 0.95, None, ("no_path", None, 65, 452)),
            (2, AdjacencyRule.TAR, 0.9, 20, ("inconclusive", None, 20, 173)),
        ],
    )
    def test_pinned_search_effort(self, seed, rule, frac, budget, expected):
        f = cut_oracle(random_graph(random.Random(seed), 12, 0.4))
        x, y = interchangeable_greedy(f, 4)
        theta = frac * min(f.evaluate(x), f.evaluate(y))
        k = 4 if rule is AdjacencyRule.TJ else None
        result = astar(ProblemInstance(f, x, y, rule, theta, k), AstarConfig(budget=budget))
        length = result.sequence.length if result.sequence else None
        assert (result.status, length, result.expansions, result.oracle_calls) == expected

    def test_result_truthiness(self):
        found = AstarResult("found", ReconfigSequence([Subset(1, [0])]), 1, 1)
        assert bool(found)
        assert not bool(AstarResult("no_path", None, 0, 1))
        assert not bool(AstarResult("inconclusive", None, 5, 5))
