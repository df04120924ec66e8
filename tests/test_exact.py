"""State-graph enumeration, reachability, and the bottleneck optimum."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subreco import (
    AdjacencyRule,
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
    make_synthetic_gram,
    minvc_to_usreco_tjar,
    modular_oracle,
    obs52_instance,
    obs54_instance,
    optimal_sequence,
    optimal_value,
    sequence_value,
    validate_sequence,
    vc_to_msreco,
    VcReconfigInstance,
    WeightedGraph,
)
from subreco.algorithms import feasible_path

from conftest import (
    bfs_shortest_feasible,
    colour_classes,
    cycle_graph,
    grid_graph,
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

    def test_restriction(self):
        f = modular_oracle([1.0, 2.0, 4.0])
        table, summary = build_value_table(
            f, AdjacencyRule.TAR, restriction=Subset(3, [0, 2])
        )
        assert set(table) == {0, 0b001, 0b100, 0b101}
        assert summary.restriction == Subset(3, [0, 2])

    def test_evaluation_order(self):
        # descending submasks of the restriction
        seen = []
        f = SetFunctionOracle(lambda mask: seen.append(mask) or 0.0, GroundSet(3))
        build_value_table(f, AdjacencyRule.TAR, restriction=Subset(3, [0, 2]))
        assert seen == [0b101, 0b100, 0b001, 0]

    def test_full_lattice_guard(self):
        f = modular_oracle([1.0] * 21)
        with pytest.raises(BudgetExceededError):
            build_value_table(f, AdjacencyRule.TAR)


K2_CUT = cut_oracle(WeightedGraph.build(2, [(0, 1)]))


def random_ascent_case(rng: random.Random, max_n: int):
    """An oracle, endpoints, a rule and maybe a restriction, for the ascent.

    Half the oracles are tables drawing from a few repeated values, so ties
    occur, with each state ``-inf`` with probability ``p ~ U(0, 0.9)``.  Most
    tables give the endpoints finite values, so the optimum is ``-inf`` both
    at an endpoint and where walls of ``-inf`` states cut every walk.
    """
    n = rng.randint(2, max_n)
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
    if rng.random() < 0.5:
        return random_nonnegative_oracle(rng, n), x, y, rule, restriction
    p = rng.uniform(0.0, 0.9)
    pool = [0.0, 1.0, 2.0, rng.uniform(0.0, 3.0)]
    values = [-math.inf if rng.random() < p else rng.choice(pool) for _ in range(1 << n)]
    if rng.random() < 0.7:
        values[x.mask], values[y.mask] = rng.choice(pool), rng.choice(pool)
    f = SetFunctionOracle(lambda mask: values[mask], GroundSet(n))
    return f, x, y, rule, restriction


def ascent_reference(f, x, y, rule, restriction=None, walk=True):
    """The optimum and last walk of the threshold ascent from ``-inf`` alone.

    ``exact``'s schedule without its upper-bound round: every round asks for
    a walk above the best walk's value so far, until one fails or the walk
    reaches ``min(f(X), f(Y))``.
    """
    if x == y:
        return f.evaluate(x), [x.mask]
    ground = (Subset.full(f.universe.n) if restriction is None else restriction).mask
    memo = {}

    def value(mask):
        if mask not in memo:
            memo[mask] = f.evaluate(mask)
        return memo[mask]

    def search(feasible):
        status, chain, _ = feasible_path(rule, ground, x.mask, y.mask, feasible, 1 << 24)
        assert status != "inconclusive"
        return chain

    v, chain = -math.inf, None
    while v < min(value(x.mask), value(y.mask)):
        found = search(lambda m: value(m) > v)
        if found is None:
            break
        chain, v = found, min(memo[m] for m in found)
    if chain is None and walk:
        chain = search(lambda m: value(m) >= v)
    return v, chain


class TestUpperBoundRound:
    def test_matches_the_ascent_reference(self):
        # the same optimum and walk as the ascent from -inf, in no more calls,
        # whether the upper-bound round finds the walk or fails first
        seen, calls = Counter(), Counter()
        for seed in range(1000):
            f, x, y, rule, restriction = random_ascent_case(random.Random(seed), 8)
            top = min(f.evaluate(x), f.evaluate(y))
            for walk in (False, True):
                before = f.calls
                expected, chain = ascent_reference(f, x, y, rule, restriction, walk)
                reference, before = f.calls - before, f.calls
                if walk:
                    v, seq = optimal_sequence(f, x, y, rule, restriction=restriction)
                    assert [s.mask for s in seq] == chain
                else:
                    v = optimal_value(f, x, y, rule, restriction=restriction)
                assert v == expected
                assert f.calls - before <= reference
                calls["reference"] += reference
                calls["upper bound first"] += f.calls - before
            if x != y:
                seen["at the bound" if v == top else "below it"] += 1
        assert seen["at the bound"] >= 600 and seen["below it"] >= 40
        # the upper-bound round saves calls only where it finds the walk
        assert calls == {"reference": 8115, "upper bound first": 8033}

    @pytest.mark.parametrize("reduce", [vc_to_msreco, minvc_to_usreco_tjar])
    def test_no_instances_ascend_as_before(self, reduce):
        # the upper-bound round fails on the colour classes of a grid or an
        # even cycle; the ascent that follows gives the same optimum and walk
        # at the same calls, since the ascent's last, failing round evaluates
        # every state the upper-bound round did
        for g in (grid_graph(4, 4, seed=1), cycle_graph(12, seed=2), cycle_graph(20, seed=3)):
            x, y = colour_classes(g)
            inst = reduce(VcReconfigInstance(g, x, y))
            f = inst.oracle
            expected, chain = ascent_reference(f, x, y, inst.rule)
            reference, before = f.calls, f.calls
            v, seq = optimal_sequence(f, x, y, inst.rule)
            assert v == expected < inst.theta
            assert [s.mask for s in seq] == chain
            assert f.calls - before == reference

    def test_one_search_settles_a_synthetic_gram(self):
        # greedy endpoints at k = 6 under TJAR inside X | Y: the optimum is
        # min(f(X), f(Y)), and one search expanding the 7 states of its 6-step
        # walk finds it
        f = logdet_oracle(make_synthetic_gram(24, 1))
        x, y = interchangeable_greedy(f, 6)
        args = (f, x, y, AdjacencyRule.TJAR)
        calls = f.calls
        v, seq = optimal_sequence(*args, restriction=x | y)
        assert f.calls - calls == 17
        calls = f.calls
        assert ascent_reference(*args, x | y)[0] == v
        assert f.calls - calls == 21
        assert v == min(f.evaluate(x), f.evaluate(y)) and seq.length == 6
        with pytest.raises(BudgetExceededError, match="^search gave up after 6 expansions$"):
            optimal_sequence(*args, restriction=x | y, budget=6)
        assert optimal_sequence(*args, restriction=x | y, budget=7) == (v, seq)


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
        table, _ = build_value_table(f, rule, restriction=restriction)
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
        # one memo across all rounds
        assert len(seen) == len(set(seen)) == recording.calls
        r = f.universe.n if restriction is None else len(restriction)
        states = math.comb(r, len(x)) if rule is AdjacencyRule.TJ else 1 << r
        assert recording.calls <= states

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

    @pytest.mark.parametrize(
        "reduce, optimum, length, calls",
        [(vc_to_msreco, 22.0, 8, 256), (minvc_to_usreco_tjar, 27.0, 10, 780)],
    )
    def test_grid_no_instance_is_pinned(self, reduce, optimum, length, calls):
        # the 4x4 grid's colour classes, a no-instance of both reductions
        g = grid_graph(4, 4)
        inst = reduce(VcReconfigInstance(g, *colour_classes(g)))
        f = inst.oracle
        before = f.calls
        v, seq = optimal_sequence(f, inst.x, inst.y, inst.rule)
        assert (v, seq.length, f.calls - before) == (optimum, length, calls)

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

    def test_last_walk_matches_breadth_first_reference(self):
        # the ascent's last walk is as short as any walk at the optimum, under
        # every rule, with and without a restriction, and at an optimum of -inf
        # from an endpoint or from walls of -inf states
        seen = Counter()
        for seed in range(1000):
            f, x, y, rule, restriction = random_ascent_case(random.Random(seed), 6)
            v, seq = optimal_sequence(f, x, y, rule, restriction=restriction)
            assert seq.length == bfs_shortest_feasible(
                f, x, y, rule, v, slack=0.0, ground=restriction
            )
            assert sequence_value(f, seq) == v
            if restriction is not None:
                assert all(s.issubset(restriction) for s in seq)
            seen[rule, restriction is not None] += 1
            if v == -math.inf:
                ends = min(f.evaluate(x), f.evaluate(y))
                seen["endpoint" if ends == -math.inf else "walled"] += 1
            elif x != y:
                seen["finite"] += 1
        assert min(seen[rule, r] for rule in AdjacencyRule for r in (False, True)) >= 40
        assert seen["finite"] >= 300 and seen["endpoint"] >= 35 and seen["walled"] >= 12

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
        # the optimum is min(f(X), f(Y)) = 1, so the upper-bound round finds
        # the 4-state walk in 4 expansions and no ascent follows; the walk is
        # that round's, so the sequence costs no expansion of its own
        inst = obs52_instance()
        args = (inst.oracle, inst.x, inst.y, inst.rule)
        for solve in (optimal_value, optimal_sequence):
            with pytest.raises(BudgetExceededError, match="^search gave up after 3 expansions$"):
                solve(*args, budget=3)
        assert optimal_value(*args, budget=4) == 1.0
        assert optimal_sequence(*args, budget=4)[0] == 1.0

    def test_default_budget_is_per_search(self):
        # the failing upper-bound round (1 expansion) and three ascent rounds
        # (4, 4 and 1) expand 10 states of an 8-state lattice in total
        f = cut_oracle(WeightedGraph.build(3, [(0, 1), (1, 2)]))
        x, y = Subset(3, [1]), Subset(3, [0, 2])
        with pytest.raises(BudgetExceededError, match="^search gave up after 8 expansions$"):
            optimal_sequence(f, x, y, AdjacencyRule.TAR, budget=8)
        v, seq = optimal_sequence(f, x, y, AdjacencyRule.TAR)
        assert v == 1.0 and seq.length == 3


class TestReachable:
    """The decision form for one threshold, read off :func:`astar`'s status."""

    def test_threshold_cases(self):
        x, y = Subset(2, [0]), Subset(2, [1])
        base = dict(oracle=K2_CUT, x=x, y=y, rule=AdjacencyRule.TAR)
        assert astar(ProblemInstance(theta=0.0, **base)).status == "found"
        assert astar(ProblemInstance(theta=0.5, **base)).status == "no_path"

    def test_requires_threshold(self):
        inst = ProblemInstance(
            K2_CUT, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR
        )
        with pytest.raises(ValueError):
            astar(inst)

    def test_slack_admits_boundary(self):
        inst = ProblemInstance(
            K2_CUT,
            Subset(2, [0]),
            Subset(2, [1]),
            AdjacencyRule.TAR,
            theta=5e-10,
        )
        assert astar(inst).status == "found"

    def test_answers_above_the_lattice_guard(self):
        # 24 elements: the lattice guard refuses to tabulate this instance
        inst = replace(obs54_instance(24), theta=1.0)
        assert astar(inst).status == "found"
        assert inst.oracle.calls < 2000

    def test_pinned_calls_above_the_lattice_guard(self):
        # the search evaluates only the states it pops
        inst = replace(obs54_instance(24), theta=1.0)
        assert astar(inst).status == "found"
        assert inst.oracle.calls == 13

    def test_evaluates_only_touched_states(self):
        f = modular_oracle([1.0] * 16)
        inst = ProblemInstance(
            f, Subset(16, range(8)), Subset(16, range(8, 16)), AdjacencyRule.TJAR, 8.0
        )
        assert astar(inst).status == "found"
        assert f.calls == 9  # 2 endpoints and 7 popped states, not 2^16

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
        assert (astar(inst).status == "found") == (best >= theta - 1e-9)
