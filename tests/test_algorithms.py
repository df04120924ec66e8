"""Greedy ordering, the two approximation walks, and threshold A* search."""

import heapq
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subreco import (
    AdjacencyRule,
    AstarConfig,
    AstarResult,
    GramMatrix,
    GroundSet,
    NotPositiveDefiniteError,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    WeightedGraph,
    astar,
    cut_oracle,
    default_heuristic,
    greedy,
    influence_oracle,
    interchangeable_greedy,
    inverse_indegree_probabilities,
    logdet_oracle,
    modular_oracle,
    residual,
    sample_rr_sets,
    sequence_value,
    swap_reconfigure,
    tjar_reconfigure,
    total_curvature,
    validate_sequence,
)
from subreco import algorithms, experiment
from subreco.algorithms import GreedyTrace, feasible_path, step_bound
from subreco.core import VALUE_SLACK, neighbor_masks

from conftest import (
    BATCH_KINDS,
    batch_kind_oracle,
    bfs_shortest_feasible,
    random_graph,
    random_monotone_oracle,
    random_nonnegative_oracle,
    random_subset,
)


def eager_feasible_path(rule, ground, x_mask, y_mask, feasible, budget):
    """Reference A* that asks ``feasible`` about each neighbour on relax.

    The open list is a heap keyed by ``(g + step_bound, -push_count)``, so
    the lowest score goes first and the most recent push first among ties.
    """
    if not feasible(x_mask) or not feasible(y_mask):
        return "no_path", None, 0
    g_score = {x_mask: 0}
    parent = {}
    heap = [(step_bound(rule, x_mask, y_mask), 0, 0, x_mask)]
    push_count = 0
    expansions = 0
    while heap:
        _, _, g, mask = heapq.heappop(heap)
        if g != g_score[mask]:
            continue
        if expansions >= budget:
            return "inconclusive", None, expansions
        expansions += 1
        if mask == y_mask:
            chain = [mask]
            while chain[-1] != x_mask:
                chain.append(parent[chain[-1]])
            return "found", chain[::-1], expansions
        for t in neighbor_masks(rule, ground, mask):
            if g + 1 < g_score.get(t, math.inf) and feasible(t):
                g_score[t] = g + 1
                parent[t] = mask
                push_count += 1
                score = g + 1 + step_bound(rule, t, y_mask)
                heapq.heappush(heap, (score, -push_count, g + 1, t))
    return "no_path", None, expansions


def random_query(seed, n, rule, frac):
    """An oracle, endpoints fit for ``rule``, and a threshold of ``frac``
    times the larger endpoint value.

    A quarter of the oracles are nonnegative mixtures.  The rest are 0/1
    tables whose endpoints are 1 and whose other states are 1 with
    probability ``p ~ U(0.3, 0.9)``, so the search detours around failing
    states or exhausts.
    """
    rng = random.Random(seed)
    if rule is AdjacencyRule.TJ:
        k = rng.randint(1, n)
        x, y = random_subset(rng, n, k), random_subset(rng, n, k)
    else:
        x = random_subset(rng, n, rng.randint(0, n))
        y = random_subset(rng, n, rng.randint(0, n))
    if rng.random() < 0.25:
        f = random_nonnegative_oracle(rng, n)
    else:
        p = rng.uniform(0.3, 0.9)
        values = [float(rng.random() < p) for _ in range(1 << n)]
        values[x.mask] = values[y.mask] = 1.0
        f = SetFunctionOracle(lambda mask: values[mask], GroundSet(n))
    theta = frac * max(f.evaluate(x), f.evaluate(y))
    return f, x, y, theta


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


# ---------------------------------------------------------------------------
# one evaluate_many batch per greedy step


def loop_best_extension(f, base_mask, candidates):
    """The per-mask loop the batched greedy step replaced: one ``evaluate``
    per candidate in ascending id order, a strictly larger value winning."""
    best_e = -1
    best_v = 0.0
    m = candidates
    while m:
        low = m & -m
        m ^= low
        v = f.evaluate(base_mask | low)
        if best_e < 0 or v > best_v:
            best_e, best_v = low.bit_length() - 1, v
    return best_e, best_v


def loop_reference(run):
    """``run()`` with every greedy step on :func:`loop_best_extension`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_best_extension", loop_best_extension)
        mp.setattr(experiment, "_best_extension", loop_best_extension)
        return run()


GREEDY_KINDS = (*BATCH_KINDS, "tied_modular", "rank_one_logdet", "influence", "residual")


def greedy_kind_oracle(kind, seed, n):
    """``(f, watched, allowed)``: an oracle, every oracle whose calls it
    charges, and the mask of the elements its queries may hold."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    if kind == "tied_modular":  # repeated weights: ties go to the smallest id
        f = modular_oracle([rng.choice([0.0, 1.0, 2.5]) for _ in range(n)])
    elif kind == "rank_one_logdet":  # every set of two or more is singular: -inf
        b = np.random.default_rng(seed).normal(size=(n, 1))
        f = logdet_oracle(GramMatrix(b @ b.T))
    elif kind == "influence":  # no batch form: evaluate_many runs the loop
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        g = inverse_indegree_probabilities(WeightedGraph.build(n, arcs, directed=True))
        f = influence_oracle(sample_rr_sets(g, 200, seed))
    elif kind == "residual":  # no batch form; it queries its base one mask at a time
        base = batch_kind_oracle(rng.choice(BATCH_KINDS), seed, n)
        r = rng.getrandbits(n) & rng.getrandbits(n)
        return residual(base, Subset.from_mask(n, r)), (base,), full & ~r
    else:
        f = batch_kind_oracle(kind, seed, n)
    return f, (f,), full


def greedy_outcome(run, watched):
    """What ``run()`` returned, or the error it raised, and the calls charged."""
    try:
        got = run()
    except ValueError as exc:  # an indefinite log-det submatrix, a masked residual query
        got = (type(exc), str(exc), getattr(exc, "subset", None))
    if isinstance(got, GreedyTrace):
        got = (got.elements, [v.hex() for v in got.prefix_values], got.oracle_calls)
    return got, [o.calls for o in watched]


class TestBatchedGreedyStep:
    @given(kind=st.sampled_from(GREEDY_KINDS), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_picks_values_and_calls_as_the_loop(self, kind, seed, data):
        n = data.draw(st.integers(1, 10), label="n")
        allowed = greedy_kind_oracle(kind, seed, n)[2]
        ids = [e for e in range(n) if allowed >> e & 1]
        if not ids:
            return
        ground = data.draw(st.lists(st.sampled_from(ids), unique=True), label="ground")
        k = data.draw(st.integers(0, len(ground)), label="k")
        x = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True), label="x")
        y = data.draw(st.lists(st.sampled_from(ids), min_size=len(x), max_size=len(x),
                               unique=True), label="y")
        jobs = [
            lambda f: greedy(f, Subset(n, ground), k),
            lambda f: interchangeable_greedy(f, n // 2),
            lambda f: tjar_reconfigure(f, Subset(n, x), Subset(n, y)),
            lambda f: swap_reconfigure(f, Subset(n, x), Subset(n, y)),
        ]
        for job in jobs:
            f, watched, _ = greedy_kind_oracle(kind, seed, n)
            got = greedy_outcome(lambda: job(f), watched)
            f, watched, _ = greedy_kind_oracle(kind, seed, n)
            want = loop_reference(lambda: greedy_outcome(lambda: job(f), watched))
            assert got == want

    def test_indefinite_candidate_raises_as_the_loop_does(self):
        # step 1 picks 1; step 2 evaluates {0,1}, then fails on {1,2}, whose
        # eigenvalues are about 3.08 and -0.08; element 3's large diagonal
        # only lets the matrix pass GramMatrix's semidefiniteness tolerance
        a = np.diag([1.5, 2.0, 1.0, 1e7])
        a[1, 2] = a[2, 1] = 1.5
        ground = Subset(4, [0, 1, 2])
        outcomes = []
        runs = (lambda f: greedy(f, ground, 2), lambda f: loop_reference(lambda: greedy(f, ground, 2)))
        for run in runs:
            f = logdet_oracle(GramMatrix(a))
            with pytest.raises(NotPositiveDefiniteError) as err:
                run(f)
            outcomes.append((err.value.subset, str(err.value), f.calls))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == Subset(4, [1, 2]) and outcomes[0][2] == 4


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

    def test_budget_zero_still_settles_a_failing_endpoint(self):
        inst = self.make_instance([1.0, 2.0, 3.0], [0], [2], AdjacencyRule.TJ, 5.0)
        result = astar(inst, AstarConfig(budget=0))
        assert (result.status, result.expansions, result.oracle_calls) == ("no_path", 0, 1)

    def test_negative_budget_is_an_error(self):
        inst = self.make_instance([1.0, 1.0], [0], [1], AdjacencyRule.TAR, 0.5)
        with pytest.raises(ValueError, match="budget"):
            astar(inst, AstarConfig(budget=-1))

    def test_threshold_required(self):
        inst = self.make_instance([1.0, 1.0], [0], [1], AdjacencyRule.TAR, None)
        with pytest.raises(ValueError):
            astar(inst)

    @given(st.integers(0, 9999), st.integers(2, 7), st.sampled_from(list(AdjacencyRule)),
           st.floats(0.0, 1.05))
    @settings(max_examples=80, deadline=None)
    def test_each_subset_evaluated_once(self, seed, n, rule, frac):
        base, x, y, theta = random_query(seed, n, rule, frac)
        hits: dict[int, int] = {}

        def fn(mask: int) -> float:
            hits[mask] = hits.get(mask, 0) + 1
            return base.evaluate(mask)

        f = SetFunctionOracle(fn, GroundSet(n))
        result = astar(ProblemInstance(f, x, y, rule, theta=theta))
        assert max(hits.values()) == 1
        assert result.oracle_calls == len(hits)

    @given(st.integers(0, 9999), st.integers(2, 7), st.sampled_from(list(AdjacencyRule)),
           st.floats(0.0, 1.05), st.one_of(st.none(), st.integers(0, 6)))
    @settings(max_examples=120, deadline=None)
    def test_matches_eager_reference(self, seed, n, rule, frac, budget):
        f, x, y, theta = random_query(seed, n, rule, frac)
        if budget is None:
            budget = 1 << n
        memo: dict[int, bool] = {}
        lazy_calls = []

        def value_passes(mask):
            return f.evaluate(Subset.from_mask(n, mask)) >= theta - VALUE_SLACK

        def eager(mask):
            if mask not in memo:
                memo[mask] = value_passes(mask)
            return memo[mask]

        def lazy(mask):
            lazy_calls.append(mask)
            return value_passes(mask)

        full = (1 << n) - 1
        expected = eager_feasible_path(rule, full, x.mask, y.mask, eager, budget)
        assert feasible_path(rule, full, x.mask, y.mask, lazy, budget) == expected
        assert len(lazy_calls) <= len(memo)

    def test_random_queries_reach_every_outcome(self):
        # the draws of the randomized tests above fail at an endpoint, walk
        # straight to Y, detour, and exhaust a search, each many times
        seen = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            n, rule = rng.randint(2, 7), rng.choice(list(AdjacencyRule))
            f, x, y, theta = random_query(seed, n, rule, rng.uniform(0.0, 1.05))
            status, masks, expansions = feasible_path(
                rule, (1 << n) - 1, x.mask, y.mask,
                lambda m: f.evaluate(m) >= theta - VALUE_SLACK, 1 << n,
            )
            if status == "found":
                direct = len(masks) - 1 == step_bound(rule, x.mask, y.mask)
                seen["direct" if direct else "detour"] += 1
            else:
                seen["searched" if expansions else "endpoint"] += 1
        assert seen["endpoint"] >= 150 and seen["direct"] >= 800, seen
        assert seen["detour"] >= 20 and seen["searched"] >= 30, seen

    @given(st.integers(0, 9999), st.integers(2, 8), st.sampled_from(list(AdjacencyRule)),
           st.floats(0.0, 0.6), st.one_of(st.none(), st.integers(0, 6)))
    @settings(max_examples=200, deadline=None)
    def test_restricted_search_matches_filter_at_pop(self, seed, n, rule, density, budget):
        """A search over the subsets of R equals one over the whole universe
        whose ``feasible`` rejects each state outside R when it is popped.

        Sparse random passing sets force detours and exhausted searches, so
        states next to R's subsets are pushed and popped, not only direct
        walks."""
        rng = random.Random(seed)
        x = random_subset(rng, n, rng.randint(0, n // 2))
        y = random_subset(rng, n, len(x) if rule is AdjacencyRule.TJ else rng.randint(0, n // 2))
        ground = x.mask | y.mask | rng.getrandbits(n) & rng.getrandbits(n)
        passing = {m for m in range(1 << n) if rng.random() < density} | {x.mask, y.mask}
        if budget is None:
            budget = 1 << n
        asked, reference_asked = [], []

        def restricted(mask):
            asked.append(mask)
            return mask in passing

        def filter_at_pop(mask):
            reference_asked.append(mask)
            return not mask & ~ground and mask in passing

        full = (1 << n) - 1
        expected = feasible_path(rule, full, x.mask, y.mask, filter_at_pop, budget)
        assert feasible_path(rule, ground, x.mask, y.mask, restricted, budget) == expected
        assert asked == [m for m in reference_asked if not m & ~ground]

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
            (1, AdjacencyRule.TJ, 0.9, None, ("found", 4, 7, 30)),
            (18, AdjacencyRule.TJ, 0.95, None, ("found", 6, 29, 245)),
            (2, AdjacencyRule.TAR, 0.9, None, ("found", 10, 84, 376)),
            (1, AdjacencyRule.TAR, 0.95, None, ("no_path", None, 65, 452)),
            (2, AdjacencyRule.TAR, 0.9, 20, ("inconclusive", None, 20, 91)),
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

    # n = 24 cut graphs (p = 0.25), so vertex ids span three bytes; each case
    # pins status, length, effort and the exact walk found
    @pytest.mark.parametrize(
        "seed, k, rule, frac, expected",
        [
            (0, 8, AdjacencyRule.TJ, 0.9, ("found", 8, 14, 105, (
                0xCE1050, 0x4E10D0, 0x0F10D0, 0x0710F0, 0x0312F0, 0x0312B8,
                0x2312A8, 0x2132A8, 0x2126A8))),
            (0, 10, AdjacencyRule.TJ, 0.99, ("found", 11, 31, 1162, (
                0xCE9052, 0xCE90D0, 0xCE9098, 0xC69198, 0xC29398, 0xC213B8,
                0xC233A8, 0xC037A8, 0xC02FA8, 0xC12EA8, 0xA12EA8, 0x216EA8))),
            (2, 10, AdjacencyRule.TJAR, 0.99, ("found", 11, 60, 2202, (
                0x52C259, 0x52C278, 0x50CA78, 0x514A78, 0x414AF8, 0x410EF8,
                0x490EE8, 0x490EAA, 0x4D0EA2, 0xCD0CA2, 0x8D2CA2, 0x8D25A2))),
            (3, 8, AdjacencyRule.TJAR, 0.99, ("found", 9, 15, 427, (
                0x228B14, 0x2A8A14, 0x2A8A44, 0x1A8A44, 0x1B0A44, 0x130AC4,
                0x111AC4, 0x1112C5, 0x1116C1, 0x1114E1))),
            (3, 10, AdjacencyRule.TJ, 0.99, ("no_path", None, 4, 478, None)),
            (3, 10, AdjacencyRule.TJAR, 0.99, ("found", 12, 16, 780, (
                0x2AAB14, 0xA2AB14, 0xA2AB15, 0xA0BB15, 0xA03B95, 0xE03B91,
                0x603F91, 0x703E91, 0x703EC1, 0x513EC1, 0x551EC1, 0x5516E1,
                0x5514E1))),
        ],
    )
    def test_pinned_search_on_24_elements(self, seed, k, rule, frac, expected):
        f = cut_oracle(random_graph(random.Random(seed), 24, 0.25))
        x, y = interchangeable_greedy(f, k)
        theta = frac * min(f.evaluate(x), f.evaluate(y))
        tj_k = k if rule is AdjacencyRule.TJ else None
        result = astar(ProblemInstance(f, x, y, rule, theta, tj_k))
        seq = result.sequence
        walk = tuple(s.mask for s in seq) if seq else None
        length = seq.length if seq else None
        assert (result.status, length, result.expansions, result.oracle_calls, walk) == expected

    def test_result_truthiness(self):
        found = AstarResult("found", ReconfigSequence([Subset(1, [0])]), 1, 1)
        assert bool(found)
        assert not bool(AstarResult("no_path", None, 0, 1))
        assert not bool(AstarResult("inconclusive", None, 5, 5))
