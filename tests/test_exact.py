"""State-graph enumeration, reachability, and the bottleneck optimum."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subreco.exact
from subreco import (
    AdjacencyRule,
    AstarConfig,
    BudgetExceededError,
    GroundSet,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    astar,
    build_value_table,
    cut_oracle,
    interchangeable_greedy,
    load_gram,
    logdet_oracle,
    modular_oracle,
    obs52_instance,
    obs54_instance,
    optimal_sequence,
    optimal_value,
    reachable,
    sequence_value,
    validate_sequence,
    WeightedGraph,
)

from conftest import (
    bfs_shortest_feasible,
    random_nonnegative_oracle,
    random_subset,
    widest_path_value,
)


class TestBuildValueTable:
    def test_full_lattice(self):
        f = modular_oracle([1.0, 2.0])
        table, summary = build_value_table(f, AdjacencyRule.TAR)
        assert table == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        assert summary.states == 4
        assert f.calls == 4  # one evaluation per state

    def test_fixed_size_slice(self):
        f = modular_oracle([1.0, 2.0, 4.0])
        table, summary = build_value_table(f, AdjacencyRule.TJ, cardinality_k=1)
        assert table == {1: 1.0, 2: 2.0, 4: 4.0}
        assert summary.cardinality_k == 1

    def test_restriction(self):
        f = modular_oracle([1.0, 2.0, 4.0])
        table, summary = build_value_table(
            f, AdjacencyRule.TAR, restriction=Subset(3, [0, 2])
        )
        assert set(table) == {0, 0b001, 0b100, 0b101}
        assert summary.restriction == Subset(3, [0, 2])

    def test_evaluation_order(self):
        # descending submasks of the restriction; a slice in combinations order
        seen = []
        f = SetFunctionOracle(lambda mask: seen.append(mask) or 0.0, GroundSet(3))
        build_value_table(f, AdjacencyRule.TAR, restriction=Subset(3, [0, 2]))
        build_value_table(f, AdjacencyRule.TJ, cardinality_k=2)
        assert seen == [0b101, 0b100, 0b001, 0, 0b011, 0b101, 0b110]

    def test_full_lattice_guard(self):
        f = modular_oracle([1.0] * 21)
        with pytest.raises(BudgetExceededError):
            build_value_table(f, AdjacencyRule.TAR)

    def test_slice_guard(self):
        f = modular_oracle([1.0] * 30)
        with pytest.raises(BudgetExceededError):
            build_value_table(f, AdjacencyRule.TJ, cardinality_k=15)

    def test_cardinality_bounds_checked(self):
        f = modular_oracle([1.0, 1.0])
        with pytest.raises(ValueError):
            build_value_table(f, AdjacencyRule.TJ, cardinality_k=3)


K2_CUT = cut_oracle(WeightedGraph.build(2, [(0, 1)]))


def random_ascent_case(rng: random.Random, max_n: int):
    """An oracle, endpoints, a rule and maybe a restriction, for the ascent.

    Half the oracles are tables drawing from a few repeated values and
    ``-inf``, so ties and a ``-inf`` optimum both occur.
    """
    n = rng.randint(2, max_n)
    if rng.random() < 0.5:
        f = random_nonnegative_oracle(rng, n)
    else:
        pool = [-math.inf, 0.0, 1.0, 2.0, rng.uniform(0.0, 3.0)]
        values = [rng.choice(pool) for _ in range(1 << n)]
        f = SetFunctionOracle(lambda mask: values[mask], GroundSet(n))
    restriction = None
    ground = list(range(n))
    if rng.random() < 0.3:
        ground = rng.sample(ground, rng.randint(1, n))
        restriction = Subset(n, ground)
    rule = rng.choice(list(AdjacencyRule))
    k = rng.randint(0, len(ground))
    x = Subset(n, rng.sample(ground, k))
    if rule is not AdjacencyRule.TJ:
        k = rng.randint(0, len(ground))
    y = Subset(n, rng.sample(ground, k))
    return f, x, y, rule, restriction


class TestOptimalValue:
    def test_singleton_exchange(self):
        f = modular_oracle([3.0, 1.0, 2.0])
        v = optimal_value(f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ)
        assert v == 2.0  # the weaker endpoint is the bottleneck

    def test_tar_forces_a_valley(self):
        # moving between the two singletons of an edge must pass a cut-0 set
        v = optimal_value(K2_CUT, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR)
        assert v == 0.0

    def test_identical_endpoints(self):
        f = modular_oracle([1.0, 5.0])
        v = optimal_value(f, Subset(2, [1]), Subset(2, [1]), AdjacencyRule.TAR)
        assert v == 5.0

    def test_exchange_slice_has_the_size_of_x(self):
        f = modular_oracle([3.0, 1.0, 2.0, 5.0])
        assert optimal_value(f, Subset(4, [0, 1]), Subset(4, [2, 3]), AdjacencyRule.TJ) == 4.0
        assert f.calls == 3  # X, Y and one state between them, not C(4, 2)

    def test_exchange_endpoints_of_unequal_size(self):
        f = modular_oracle([1.0, 1.0, 1.0])
        for solve in (optimal_value, optimal_sequence):
            with pytest.raises(ValueError, match="equal size"):
                solve(f, Subset(3, [0]), Subset(3, [1, 2]), AdjacencyRule.TJ)

    def test_endpoints_must_respect_restriction(self):
        f = modular_oracle([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            optimal_value(
                f,
                Subset(3, [0]),
                Subset(3, [2]),
                AdjacencyRule.TAR,
                restriction=Subset(3, [0, 1]),
            )

    def test_restriction_never_helps(self):
        f = modular_oracle([3.0, 1.0, 4.0, 2.0])
        x, y = Subset(4, [0]), Subset(4, [3])
        free = optimal_value(f, x, y, AdjacencyRule.TJ)
        narrowed = optimal_value(f, x, y, AdjacencyRule.TJ, restriction=Subset(4, [0, 1, 3]))
        # singletons are pairwise exchange-adjacent, so the weaker endpoint
        # is the whole story either way
        assert free == narrowed == 2.0

    def test_restriction_can_strictly_hurt(self):
        from subreco import obs52_instance

        inst = obs52_instance()
        free = optimal_value(inst.oracle, inst.x, inst.y, inst.rule)
        narrowed = optimal_value(
            inst.oracle, inst.x, inst.y, inst.rule, restriction=inst.x | inst.y
        )
        # the detour element outside X | Y is what sustains full value
        assert free == 1.0
        assert narrowed == 0.75

    @given(st.integers(0, 9999))
    @settings(max_examples=80, deadline=None)
    def test_matches_widest_path_reference(self, seed):
        rng = random.Random(seed)
        f, x, y, rule, restriction = random_ascent_case(rng, 8)
        table, _ = build_value_table(
            f,
            rule,
            cardinality_k=len(x) if rule is AdjacencyRule.TJ else None,
            restriction=restriction,
        )
        expected = widest_path_value(table, rule, f.universe.n, x.mask, y.mask)
        assert optimal_value(f, x, y, rule, restriction=restriction) == expected

    @given(st.integers(0, 9999))
    @settings(max_examples=80, deadline=None)
    def test_ascent_evaluates_each_state_once(self, seed):
        rng = random.Random(seed)
        f, x, y, rule, restriction = random_ascent_case(rng, 7)
        seen = []
        recording = SetFunctionOracle(
            lambda mask: seen.append(mask) or f.evaluate(mask), f.universe
        )
        optimal_sequence(recording, x, y, rule, restriction=restriction)
        # one memo across all rounds and the sequence pass
        assert len(seen) == len(set(seen)) == recording.calls
        _, summary = build_value_table(
            f,
            rule,
            cardinality_k=len(x) if rule is AdjacencyRule.TJ else None,
            restriction=restriction,
        )
        assert recording.calls <= summary.states

    def test_pinned_calls_above_the_old_lattice_guard(self):
        # 2^24 and 2^40 states; the ascent evaluates what its searches pop
        for n, calls in ((24, 13), (40, 21)):
            inst = obs54_instance(n)
            optimal_value(inst.oracle, inst.x, inst.y, inst.rule)
            assert inst.oracle.calls == calls

    @given(st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_tie_order_does_not_matter(self, seed):
        # constant function: every state ties, optimum is that constant
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        c = rng.choice([0.0, 1.0, 2.5])
        from subreco import GroundSet, SetFunctionOracle

        f = SetFunctionOracle(lambda mask: c, GroundSet(n))
        x = random_subset(rng, n, rng.randint(0, n))
        y = random_subset(rng, n, rng.randint(0, n))
        assert optimal_value(f, x, y, AdjacencyRule.TJAR) == c

    @given(st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_extra_moves_never_hurt(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = random_nonnegative_oracle(rng, n)
        x = random_subset(rng, n, rng.randint(0, n))
        y = random_subset(rng, n, rng.randint(0, n))
        v_tar = optimal_value(f, x, y, AdjacencyRule.TAR)
        v_tjar = optimal_value(f, x, y, AdjacencyRule.TJAR)
        assert v_tjar >= v_tar - 1e-12


class TestOptimalSequence:
    def test_returns_attaining_sequence(self):
        f = modular_oracle([3.0, 1.0, 2.0])
        v, seq = optimal_sequence(f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ)
        assert v == 2.0
        assert seq[0] == Subset(3, [0]) and seq[-1] == Subset(3, [2])
        assert sequence_value(f, seq) == v

    def test_sequence_is_shortest_at_the_optimum(self):
        v, seq = optimal_sequence(
            K2_CUT, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR
        )
        assert v == 0.0
        expected = bfs_shortest_feasible(
            K2_CUT, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR, v
        )
        assert seq.length == expected == 2

    def test_obs52_walk_is_pinned(self):
        # A*'s tie order picks this one among the shortest walks at the optimum
        inst = obs52_instance()
        v, seq = optimal_sequence(inst.oracle, inst.x, inst.y, inst.rule)
        assert v == 1.0
        steps = ([0, 1], [0, 4], [3, 4], [2, 3])
        assert seq == ReconfigSequence([Subset(5, s) for s in steps])

    def test_gram24_lattice_walk_is_pinned(self, data_dir):
        # greedy endpoints at k = 6 under TJAR, searched inside X | Y only
        f = logdet_oracle(load_gram(data_dir / "gram24.txt"))
        x, y = interchangeable_greedy(f, 6)
        calls = f.calls
        v, seq = optimal_sequence(f, x, y, AdjacencyRule.TJAR, restriction=x | y)
        assert f.calls - calls == 7
        assert v == pytest.approx(4.811933749758116, rel=1e-12)
        steps = (
            [0, 6, 7, 13, 18, 21], [0, 6, 7, 13, 18, 23], [0, 6, 7, 13, 22, 23],
            [0, 6, 7, 12, 22, 23], [0, 6, 9, 12, 22, 23], [0, 4, 9, 12, 22, 23],
            [3, 4, 9, 12, 22, 23],
        )
        assert seq == ReconfigSequence([Subset(24, s) for s in steps])

    def test_identical_endpoints(self):
        f = modular_oracle([1.0, 1.0])
        v, seq = optimal_sequence(f, Subset(2, [0]), Subset(2, [0]), AdjacencyRule.TAR)
        assert v == 1.0 and seq.length == 0

    @given(st.integers(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_sequence_validates_and_attains(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = random_nonnegative_oracle(rng, n)
        rule = rng.choice([AdjacencyRule.TAR, AdjacencyRule.TJAR])
        x = random_subset(rng, n, rng.randint(0, n))
        y = random_subset(rng, n, rng.randint(0, n))
        v, seq = optimal_sequence(f, x, y, rule)
        inst = ProblemInstance(f, x, y, rule, theta=v)
        assert validate_sequence(inst, seq)
        assert sequence_value(f, seq) == pytest.approx(v)
        # shortest among sequences meeting the optimum threshold
        assert seq.length == bfs_shortest_feasible(f, x, y, rule, v)


class TestBudget:
    def test_negative_budget_raises(self):
        inst = obs52_instance()
        for solve in (optimal_value, optimal_sequence):
            with pytest.raises(ValueError, match="budget must be nonnegative, got -3"):
                solve(inst.oracle, inst.x, inst.y, inst.rule, budget=-3)

    def test_identical_endpoints_need_no_search(self):
        f = modular_oracle([1.0, 5.0])
        x = Subset(2, [1])
        v, seq = optimal_sequence(f, x, x, AdjacencyRule.TAR, budget=0)
        assert v == 5.0 and seq.length == 0
        assert f.calls == 1

    def test_budget_spans_rounds_and_the_sequence_pass(self):
        inst = obs52_instance()
        args = (inst.oracle, inst.x, inst.y, inst.rule)
        assert optimal_value(*args, budget=7) == 1.0
        with pytest.raises(BudgetExceededError, match="^search gave up after 6 expansions$"):
            optimal_value(*args, budget=6)
        assert optimal_sequence(*args, budget=11)[0] == 1.0
        with pytest.raises(BudgetExceededError, match="^search gave up after 10 expansions$"):
            optimal_sequence(*args, budget=10)

    def test_default_budget_is_per_search(self):
        # the three searches expand 7 states of a 4-state lattice in total
        x, y = Subset(2, [0]), Subset(2, [1])
        with pytest.raises(BudgetExceededError):
            optimal_sequence(K2_CUT, x, y, AdjacencyRule.TAR, budget=6)
        v, seq = optimal_sequence(K2_CUT, x, y, AdjacencyRule.TAR)
        assert v == 0.0 and seq.length == 2


class TestReachable:
    def test_threshold_cases(self):
        x, y = Subset(2, [0]), Subset(2, [1])
        base = dict(oracle=K2_CUT, x=x, y=y, rule=AdjacencyRule.TAR)
        assert reachable(ProblemInstance(theta=0.0, **base))
        assert not reachable(ProblemInstance(theta=0.5, **base))

    def test_requires_threshold(self):
        inst = ProblemInstance(
            K2_CUT, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR
        )
        with pytest.raises(ValueError):
            reachable(inst)

    def test_slack_admits_boundary(self):
        inst = ProblemInstance(
            K2_CUT,
            Subset(2, [0]),
            Subset(2, [1]),
            AdjacencyRule.TAR,
            theta=5e-10,
        )
        assert reachable(inst)

    def test_answers_above_the_lattice_guard(self):
        # 24 elements: the lattice guard refuses to tabulate this instance
        inst = replace(obs54_instance(24), theta=1.0)
        assert reachable(inst)
        assert inst.oracle.calls < 2000

    def test_pinned_calls_above_the_lattice_guard(self):
        # the search evaluates only the states it pops
        inst = replace(obs54_instance(24), theta=1.0)
        assert reachable(inst)
        assert inst.oracle.calls == 13

    def test_evaluates_only_touched_states(self):
        f = modular_oracle([1.0] * 16)
        inst = ProblemInstance(
            f, Subset(16, range(8)), Subset(16, range(8, 16)), AdjacencyRule.TJAR, 8.0
        )
        assert reachable(inst)
        assert f.calls == 9  # 2 endpoints and 7 popped states, not 2^16

    def test_inconclusive_search_raises(self, monkeypatch):
        monkeypatch.setattr(
            subreco.exact, "astar", lambda inst: astar(inst, AstarConfig(budget=0))
        )
        inst = ProblemInstance(
            K2_CUT, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR, theta=0.0
        )
        with pytest.raises(BudgetExceededError):
            reachable(inst)

    @given(st.integers(0, 9999))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_optimal_value(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = random_nonnegative_oracle(rng, n)
        rule = rng.choice(list(AdjacencyRule))
        if rule is AdjacencyRule.TJ:
            k = rng.randint(1, n)
            x = random_subset(rng, n, k)
            y = random_subset(rng, n, k)
            kwargs = dict(cardinality_k=k)
        else:
            x = random_subset(rng, n, rng.randint(0, n))
            y = random_subset(rng, n, rng.randint(0, n))
            kwargs = {}
        best = optimal_value(f, x, y, rule)
        theta = rng.uniform(0.0, best + 1.0)
        inst = ProblemInstance(f, x, y, rule, theta=theta, **kwargs)
        assert reachable(inst) == (best >= theta - 1e-9)
