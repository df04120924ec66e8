"""Subsets, oracles, adjacency, sequence validation, and structural checks."""

import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subreco import (
    AdjacencyRule,
    BudgetExceededError,
    CnfFormula,
    CoverageSpec,
    ExperimentConfig,
    GroundSet,
    OracleDomainError,
    ProblemInstance,
    ReconfigSequence,
    SatAssignment,
    SetFunctionOracle,
    Subset,
    UniverseMismatchError,
    Verdict,
    WeightedGraph,
    astar,
    build_value_table,
    check_monotone,
    check_submodular,
    coverage_oracle,
    cut_oracle,
    incidence_oracle,
    influence_oracle,
    inverse_indegree_probabilities,
    is_adjacent,
    modular_oracle,
    nae3sat_to_usreco_tar,
    neighbors,
    optimal_sequence,
    residual,
    run_experiment,
    sample_rr_sets,
    sequence_value,
    shifted_incidence_oracle,
    swap_reconfigure,
    total_curvature,
    validate_sequence,
)
from subreco.core import CHECK_TOL, neighbor_masks

from conftest import (
    BATCH_KINDS,
    batch_kind_oracle,
    random_monotone_oracle,
    random_nonnegative_oracle,
    random_subset,
)


def table_oracle(values: dict[frozenset, float], n: int, **claims) -> SetFunctionOracle:
    return SetFunctionOracle(
        lambda mask: values[frozenset(Subset.from_mask(n, mask))], GroundSet(n), **claims
    )


# ---------------------------------------------------------------------------
# Subset


class TestSubset:
    def test_construction_and_membership(self):
        s = Subset(5, [3, 0])
        assert 0 in s and 3 in s and 1 not in s
        assert len(s) == 2
        assert s.members() == (0, 3)
        assert s.mask == 0b01001

    def test_out_of_range_element_rejected(self):
        with pytest.raises(UniverseMismatchError):
            Subset(3, [3])
        with pytest.raises(UniverseMismatchError):
            Subset(3, [-1])

    def test_from_mask_bounds(self):
        assert Subset.from_mask(3, 0b101).members() == (0, 2)
        with pytest.raises(UniverseMismatchError):
            Subset.from_mask(3, 0b1000)

    def test_empty_and_full(self):
        assert len(Subset.empty(4)) == 0
        assert Subset.full(4).members() == (0, 1, 2, 3)

    def test_algebra(self):
        a = Subset(4, [0, 1])
        b = Subset(4, [1, 2])
        assert (a | b).members() == (0, 1, 2)
        assert (a & b).members() == (1,)
        assert (a - b).members() == (0,)
        assert (a ^ b).members() == (0, 2)

    def test_mixed_universes_rejected(self):
        with pytest.raises(UniverseMismatchError):
            Subset(3, [0]) | Subset(4, [0])
        assert Subset(3, [0]) != Subset(4, [0])

    def test_immutability_and_hash(self):
        s = Subset(3, [1])
        with pytest.raises(AttributeError):
            s.mask = 0
        assert s == Subset(3, [1])
        assert hash(s) == hash(Subset(3, [1]))
        assert len({s, Subset(3, [1]), Subset(3, [2])}) == 2

    def test_hash_is_that_of_mask_and_n(self):
        for n in range(5):
            for mask in range(1 << n):
                s = Subset.from_mask(n, mask)
                assert hash(s) == hash((s.mask, s.n))

    def test_str_is_ascending_braced(self):
        assert str(Subset(5, [4, 0, 2])) == "{0,2,4}"
        assert str(Subset.empty(3)) == "{}"

    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1)),
                            st.sets(st.integers(0, n - 1)))))
    def test_algebra_matches_builtin_sets(self, args):
        n, xs, ys = args
        a, b = Subset(n, xs), Subset(n, ys)
        assert set(a | b) == xs | ys
        assert set(a & b) == xs & ys
        assert set(a - b) == xs - ys
        assert set(a ^ b) == xs ^ ys
        assert a.issubset(b) == xs.issubset(ys)
        assert list(a) == sorted(xs)


# ---------------------------------------------------------------------------
# oracle wrapper, residual, curvature, modular bound


class TestOracleWrapper:
    def test_call_counter(self):
        f = modular_oracle([1.0, 2.0])
        assert f.calls == 0
        f.evaluate(Subset(2, [0]))
        f.evaluate(Subset(2, [0, 1]))
        assert f.calls == 2

    def test_universe_mismatch(self):
        f = modular_oracle([1.0, 2.0])
        with pytest.raises(UniverseMismatchError):
            f.evaluate(Subset(3, [0]))

    def test_nonnegative_claim_is_checked(self):
        f = SetFunctionOracle(lambda mask: -1.0, GroundSet(1), claims_nonnegative=True)
        with pytest.raises(ValueError, match="nonnegative oracle returned -1.0"):
            f.evaluate(Subset(1, [0]))
        # values within the rounding tolerance pass
        g = SetFunctionOracle(lambda mask: -1e-13, GroundSet(1), claims_nonnegative=True)
        assert g.evaluate(Subset(1, [0])) == -1e-13

    def test_nonnegative_claim_names_a_masked_query_as_a_subset(self):
        f = SetFunctionOracle(lambda mask: -1.0, GroundSet(3), claims_nonnegative=True)
        for query in (0b101, np.int64(0b101), Subset(3, [0, 2])):
            with pytest.raises(ValueError, match=r"^nonnegative oracle returned -1.0 on \{0,2\}$"):
                f.evaluate(query)
        assert f.calls == 0

    @pytest.mark.parametrize("kind", [*BATCH_KINDS, "influence"])
    def test_subset_int_and_numpy_masks_agree(self, kind):
        for seed in range(4):
            n = 3 + seed
            if kind == "influence":
                pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
                arcs = [(u, v) for u, v in pairs if (u + v + seed) % 3]
                g = inverse_indegree_probabilities(WeightedGraph.build(n, arcs, directed=True))
                f = influence_oracle(sample_rr_sets(g, 300, seed))
            else:
                f = batch_kind_oracle(kind, seed, n)
            for mask in range(1 << n):
                outcomes = set()
                for query in (Subset.from_mask(n, mask), mask, np.int64(mask)):
                    calls = f.calls
                    try:
                        outcomes.add(("value", f.evaluate(query).hex(), f.calls - calls))
                    except ValueError as exc:  # an indefinite log-det submatrix
                        outcomes.add(("error", str(exc), f.calls - calls))
                (outcome,) = outcomes  # one outcome for the three forms
                assert outcome[2] == (outcome[0] == "value")  # a value costs one call

    @pytest.mark.parametrize("bad", [-1, 8, 1 << 70, np.int64(-5), np.int64(8)])
    def test_mask_outside_the_universe(self, bad):
        f = modular_oracle([1.0, 2.0, 3.0])
        with pytest.raises(UniverseMismatchError, match="outside universe of size 3$"):
            f.evaluate(bad)
        assert f.calls == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_pass_through_wrapper(self, seed):
        # built as a timing wrapper builds one: fn hands its mask to evaluate
        def twins():
            rng = random.Random(seed)
            n = rng.randint(3, 7)
            build = random_monotone_oracle if seed % 2 else random_nonnegative_oracle
            g = build(rng, n)
            wrapped = SetFunctionOracle(
                lambda m: g.evaluate(m),
                g.universe,
                claims_monotone=g.claims_monotone,
                claims_submodular=g.claims_submodular,
                claims_nonnegative=g.claims_nonnegative,
            )
            x, y = (random_subset(rng, n, rng.randint(1, n)) for _ in range(2))
            return g, wrapped, x, y

        runs = []
        for wrap in (False, True):
            g, wrapped, x, y = twins()
            f = wrapped if wrap else g
            theta = 0.8 * min(f.evaluate(x), f.evaluate(y))
            search = astar(ProblemInstance(f, x, y, AdjacencyRule.TJAR, theta=theta))
            best = optimal_sequence(f, x, y, AdjacencyRule.TJAR)
            verdict = check_submodular(f, mode="sampled", sample_count=200, seed=seed)
            runs.append((search, best, verdict, f.calls, g.calls))
        (search, best, verdict, calls, _), (w_search, w_best, w_verdict, w_calls, inner) = runs
        assert (w_search, w_best, w_verdict) == (search, best, verdict)
        assert w_calls == inner == calls


# coverage fixture: element 0 covers items {0,1}, element 1 covers {1,2},
# element 2 covers {3}; so f({0})=2, f({0,1})=3, f({0,1,2})=4
COVER = CoverageSpec(4, ((0, 1), (1, 2), (3,)))


class TestResidual:
    def test_values(self):
        f = coverage_oracle(COVER)
        f_r = residual(f, Subset(3, [0]))
        # f({0,1}) - f({0}) = 3 - 2
        assert f_r.evaluate(Subset(3, [1])) == 1.0
        assert f_r.evaluate(Subset.empty(3)) == 0.0

    def test_masked_queries_rejected(self):
        f_r = residual(coverage_oracle(COVER), Subset(3, [0]))
        with pytest.raises(OracleDomainError):
            f_r.evaluate(Subset(3, [0, 1]))

    def test_construction_costs_one_call(self):
        f = coverage_oracle(COVER)
        f_r = residual(f, Subset(3, [0]))
        assert f.calls == 1
        f_r.evaluate(Subset(3, [1]))
        assert f.calls == 2 and f_r.calls == 1

    def test_claims_propagate(self):
        f = coverage_oracle(COVER)
        f_r = residual(f, Subset(3, [0]))
        assert f_r.claims_monotone and f_r.claims_submodular and f_r.claims_nonnegative

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_residual_identity(self, r_mask, s_mask, seed):
        n = 10
        f = random_monotone_oracle(random.Random(seed), n)
        s_mask &= ~r_mask
        r, s = Subset.from_mask(n, r_mask), Subset.from_mask(n, s_mask)
        f_r = residual(f, r)
        assert f_r.evaluate(s) == pytest.approx(f.evaluate(s | r) - f.evaluate(r))


class TestTotalCurvature:
    def test_modular_has_zero_curvature(self):
        assert total_curvature(modular_oracle([3.0, 1.0, 2.0])) == 0.0

    def test_fully_redundant_element_gives_one(self):
        # two copies of the same item set: top marginals are all zero
        f = coverage_oracle(CoverageSpec(2, ((0, 1), (0, 1))))
        assert total_curvature(f) == 1.0

    def test_square_root_of_size(self):
        f = SetFunctionOracle(
            lambda mask: math.sqrt(mask.bit_count()),
            GroundSet(2),
            claims_monotone=True,
            claims_submodular=True,
            claims_nonnegative=True,
        )
        # 1 - (sqrt(2) - 1) / 1
        assert total_curvature(f) == pytest.approx(2.0 - math.sqrt(2.0))

    def test_zero_singleton_does_not_inflate(self):
        # element 1 covers nothing: f({1}) = 0 must contribute ratio 1, not blow up
        f = coverage_oracle(CoverageSpec(2, ((0,), ())))
        assert total_curvature(f) == 0.0

    def test_uses_exactly_2n_plus_1_calls(self):
        f = coverage_oracle(COVER)
        total_curvature(f)
        assert f.calls == 2 * 3 + 1

    def test_requires_monotone_nonnegative(self):
        f = cut_oracle(WeightedGraph.build(2, [(0, 1)]))
        with pytest.raises(ValueError):
            total_curvature(f)

    @given(st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_range(self, seed):
        kappa = total_curvature(random_monotone_oracle(random.Random(seed), 6))
        assert 0.0 <= kappa <= 1.0


class TestModularUpperBound:
    @given(st.integers(0, 999), st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, seed, r_mask, s_mask):
        n = 8
        f = random_monotone_oracle(random.Random(seed), n)
        s_mask &= ~r_mask
        r, s = Subset.from_mask(n, r_mask), Subset.from_mask(n, s_mask)
        kappa = total_curvature(f)
        res_f = residual(f, r)
        # the modular bound: singleton residual values added in ascending id order
        upper = 0.0
        for e in s:
            upper += res_f.evaluate(1 << e)
        res = res_f.evaluate(s)
        assert res <= upper + 1e-9
        assert (1.0 - kappa) * upper <= res + 1e-9


# ---------------------------------------------------------------------------
# adjacency and neighbor enumeration


class TestAdjacency:
    @pytest.mark.parametrize(
        "rule,s,t,expected",
        [
            (AdjacencyRule.TJ, [0, 1], [0, 2], True),
            (AdjacencyRule.TJ, [0, 1], [0], False),
            (AdjacencyRule.TJ, [0, 1], [2, 3], False),
            (AdjacencyRule.TAR, [0, 1], [0], True),
            (AdjacencyRule.TAR, [0, 1], [0, 1, 2], True),
            (AdjacencyRule.TAR, [0, 1], [0, 2], False),
            (AdjacencyRule.TJAR, [0, 1], [0, 2], True),
            (AdjacencyRule.TJAR, [0, 1], [0], True),
            (AdjacencyRule.TJAR, [0, 1], [2, 3], False),
            (AdjacencyRule.TJAR, [0, 1], [0, 1], False),
        ],
    )
    def test_examples(self, rule, s, t, expected):
        assert is_adjacent(rule, Subset(4, s), Subset(4, t)) is expected

    def test_rule_parse(self):
        assert AdjacencyRule.parse(" TJ ") is AdjacencyRule.TJ
        assert AdjacencyRule.parse("tjar") is AdjacencyRule.TJAR
        assert AdjacencyRule.TAR.token == "tar"
        with pytest.raises(ValueError):
            AdjacencyRule.parse("swap")

    def test_neighbor_order_is_pinned(self):
        s = Subset(2, [0])
        assert neighbors(AdjacencyRule.TAR, s) == [Subset.empty(2), Subset(2, [0, 1])]
        assert neighbors(AdjacencyRule.TJ, s) == [Subset(2, [1])]
        assert neighbors(AdjacencyRule.TJAR, s) == [
            Subset.empty(2),
            Subset(2, [0, 1]),
            Subset(2, [1]),
        ]
        # exchanges ordered by (removed, added)
        assert neighbors(AdjacencyRule.TJ, Subset(4, [0, 1])) == [
            Subset(4, [1, 2]),
            Subset(4, [1, 3]),
            Subset(4, [0, 2]),
            Subset(4, [0, 3]),
        ]

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1),
                            st.integers(0, 2**n - 1))),
        st.sampled_from(list(AdjacencyRule)))
    def test_symmetry(self, args, rule):
        n, a, b = args
        s, t = Subset.from_mask(n, a), Subset.from_mask(n, b)
        assert is_adjacent(rule, s, t) == is_adjacent(rule, t, s)

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))),
        st.sampled_from(list(AdjacencyRule)))
    @settings(max_examples=120)
    def test_neighbors_agree_with_predicate(self, args, rule):
        n, mask = args
        s = Subset.from_mask(n, mask)
        listed = neighbors(rule, s)
        assert len(listed) == len(set(listed))  # no duplicates
        assert s not in listed
        expected = {
            Subset.from_mask(n, t)
            for t in range(1 << n)
            if is_adjacent(rule, s, Subset.from_mask(n, t))
        }
        assert set(listed) == expected

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1),
                            st.integers(0, 2**n - 1))),
        st.sampled_from(list(AdjacencyRule)))
    def test_neighbor_masks_stay_inside_ground(self, args, rule):
        """Over a ground mask, the neighbours are the full universe's that lie
        inside it, in the same order."""
        n, mask, extra = args
        ground = mask | extra
        assert neighbor_masks(rule, ground, mask) == [
            t for t in neighbor_masks(rule, (1 << n) - 1, mask) if not t & ~ground
        ]


# ---------------------------------------------------------------------------
# sequences and validation


class TestSequence:
    def test_length_counts_moves(self):
        seq = ReconfigSequence([Subset(3, [0]), Subset(3, [1]), Subset(3, [2])])
        assert seq.length == 2
        assert len(seq) == 3
        assert seq[0] == Subset(3, [0])
        assert list(seq) == [Subset(3, [0]), Subset(3, [1]), Subset(3, [2])]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReconfigSequence([])

    def test_mixed_universes_rejected(self):
        with pytest.raises(UniverseMismatchError):
            ReconfigSequence([Subset(3, [0]), Subset(4, [0])])

    def test_value_is_minimum_over_steps(self):
        f = coverage_oracle(COVER)
        seq = ReconfigSequence([Subset(3, [0, 1]), Subset(3, [0, 2]), Subset(3, [1, 2])])
        # covered items {0,1,2}, {0,1,3}, {1,2,3}: three each
        assert sequence_value(f, seq) == 3.0
        seq2 = ReconfigSequence([Subset(3, [0, 1]), Subset(3, [1]), Subset(3, [1, 2])])
        assert sequence_value(f, seq2) == 2.0

    def test_value_evaluates_every_step(self):
        f = coverage_oracle(COVER)
        sequence_value(f, ReconfigSequence([Subset(3, [0])] * 3))
        assert f.calls == 3


VALUES4 = {
    frozenset(s): v
    for s, v in [
        ((0, 1), 5.0),
        ((0, 2), 4.0),
        ((2, 3), 6.0),
        ((0, 3), 1.0),
    ]
}


class TestValidateSequence:
    def make(self, theta=None, k=2, rule=AdjacencyRule.TJ):
        oracle = table_oracle(VALUES4, 4)
        return ProblemInstance(
            oracle, Subset(4, [0, 1]), Subset(4, [2, 3]), rule,
            theta=theta, cardinality_k=k,
        )

    def good_seq(self):
        return ReconfigSequence(
            [Subset(4, [0, 1]), Subset(4, [0, 2]), Subset(4, [2, 3])]
        )

    def test_accepts_valid(self):
        verdict = validate_sequence(self.make(theta=4.0), self.good_seq())
        assert verdict.ok and bool(verdict)

    def test_wrong_first_step(self):
        seq = ReconfigSequence([Subset(4, [0, 2]), Subset(4, [2, 3])])
        verdict = validate_sequence(self.make(), seq)
        assert not verdict.ok and verdict.index == 0 and "not X" in verdict.reason

    def test_wrong_last_step(self):
        seq = ReconfigSequence([Subset(4, [0, 1]), Subset(4, [0, 2])])
        verdict = validate_sequence(self.make(k=None, rule=AdjacencyRule.TJAR), seq)
        assert not verdict.ok and verdict.index == 1 and "not Y" in verdict.reason

    def test_cardinality_violation(self):
        seq = ReconfigSequence(
            [Subset(4, [0, 1]), Subset(4, [0, 1, 2]), Subset(4, [2, 3])]
        )
        verdict = validate_sequence(self.make(), seq)
        # a step that changes the size is not a TJ move
        assert not verdict.ok and verdict.index == 1 and "adjacent" in verdict.reason

    @pytest.mark.parametrize("k", [2, None])
    def test_first_bad_step_is_reported(self, k):
        inst = ProblemInstance(
            modular_oracle([1.0] * 5), Subset(5, [0, 1]), Subset(5, [2, 3]),
            AdjacencyRule.TJ, cardinality_k=k,
        )
        seq = ReconfigSequence(
            [Subset(5, [0, 1]), Subset(5, [2, 4]), Subset(5, [2, 3, 4]), Subset(5, [2, 3])]
        )
        verdict = validate_sequence(inst, seq)
        assert not verdict.ok and verdict.index == 1 and "adjacent" in verdict.reason

    def test_adjacency_violation(self):
        seq = ReconfigSequence([Subset(4, [0, 1]), Subset(4, [2, 3])])
        verdict = validate_sequence(self.make(), seq)
        assert not verdict.ok and verdict.index == 1 and "adjacent" in verdict.reason

    def test_threshold_violation_points_at_step(self):
        verdict = validate_sequence(self.make(theta=5.0), self.good_seq())
        assert not verdict.ok and verdict.index == 1  # f({0,2}) = 4 < 5

    def test_threshold_slack(self):
        # minimum along the path is 4; a threshold within slack still passes
        assert validate_sequence(self.make(theta=4.0 + 5e-10), self.good_seq())
        assert not validate_sequence(self.make(theta=4.0 + 1e-6), self.good_seq())

    def test_universe_mismatch_is_a_verdict(self):
        inst = self.make()
        seq = ReconfigSequence([Subset(5, [0, 1]), Subset(5, [0, 2])])
        verdict = validate_sequence(inst, seq)
        assert not verdict.ok and "universe" in verdict.reason

    def test_single_step_sequence(self):
        oracle = table_oracle({frozenset((0, 1)): 5.0}, 4)
        inst = ProblemInstance(
            oracle, Subset(4, [0, 1]), Subset(4, [0, 1]), AdjacencyRule.TJ,
            cardinality_k=2,
        )
        assert validate_sequence(inst, ReconfigSequence([Subset(4, [0, 1])]))


class TestProblemInstance:
    def test_cardinality_requires_tj(self):
        f = modular_oracle([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            ProblemInstance(
                f, Subset(3, [0]), Subset(3, [1]), AdjacencyRule.TAR, cardinality_k=1
            )

    def test_cardinality_must_match_endpoints(self):
        f = modular_oracle([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            ProblemInstance(
                f, Subset(3, [0]), Subset(3, [1, 2]), AdjacencyRule.TJ, cardinality_k=1
            )

    def test_tj_endpoints_of_two_sizes_are_refused(self):
        # no TJ step changes the size, so no walk joins them
        f = modular_oracle([1.0] * 16)
        x, y = Subset(16, range(4)), Subset(16, range(4, 9))
        with pytest.raises(ValueError, match="^endpoints must have size 4, got 4 and 5$"):
            ProblemInstance(f, x, y, AdjacencyRule.TJ, theta=1.0)
        assert ProblemInstance(f, x, y, AdjacencyRule.TJAR, theta=1.0).theta == 1.0

    def test_endpoint_universe_checked(self):
        f = modular_oracle([1.0, 1.0])
        with pytest.raises(UniverseMismatchError):
            ProblemInstance(f, Subset(3, [0]), Subset(3, [1]), AdjacencyRule.TAR)


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


class TestCopyAndPickle:
    """Subsets and walks, and the results that hold them, copy and pickle to
    equal values; an instance holds an oracle's closures, so it deep-copies
    but does not pickle."""

    WALK = ReconfigSequence([Subset(3, [0]), Subset(3, [1]), Subset(3, [2])])

    @staticmethod
    def task(theta):
        f = modular_oracle([1.0, 2.0, 3.0])
        return ProblemInstance(f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ, theta=theta)

    def results(self):
        failed = validate_sequence(self.task(2.0), self.WALK)
        found = astar(self.task(1.0))
        assert not failed and failed.subsets and found.sequence is not None
        return [Subset(3, [0, 2]), Subset.empty(0), self.WALK, failed, found]

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip_keeps_value_and_hash(self, clone):
        for obj in self.results():
            twin = clone(obj)
            assert type(twin) is type(obj) and twin == obj
            assert hash(twin) == hash(obj)
        with pytest.raises(AttributeError):
            clone(Subset(3, [1])).mask = 0
        with pytest.raises(AttributeError):
            clone(self.WALK).steps = ()

    def test_instance_and_report_deep_copy(self):
        task = self.task(1.0)
        twin = copy.deepcopy(task)
        assert (twin.x, twin.y, twin.rule, twin.theta) == (task.x, task.y, task.rule, task.theta)
        assert twin.oracle is not task.oracle and twin.oracle.evaluate(0b101) == 4.0
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(task)
        report = run_experiment(ExperimentConfig("swap", task))
        assert copy.deepcopy(report) == report


# ---------------------------------------------------------------------------
# structural checks


def reference_submodular(oracle: SetFunctionOracle) -> Verdict:
    """The exhaustive diminishing-returns scan as a plain loop over (S, e, g),
    every ordered pair (e, g) on its own."""
    n = oracle.universe.n
    table = [oracle.evaluate(Subset.from_mask(n, m)) for m in range(1 << n)]
    for s_mask in range(1 << n):
        free = [e for e in range(n) if not s_mask >> e & 1]
        base = table[s_mask]
        for e in free:
            with_e = table[s_mask | 1 << e]
            for g in (g for g in free if g != e):
                with_g = table[s_mask | 1 << g]
                with_both = table[s_mask | 1 << e | 1 << g]
                if (with_e - base) - (with_both - with_g) < -CHECK_TOL:
                    return Verdict(
                        False,
                        None,
                        "{}, {}: gain of {} grows when {} is added",
                        (
                            Subset.from_mask(n, s_mask),
                            Subset.from_mask(n, s_mask | 1 << g),
                            Subset(n, [e]),
                            Subset(n, [g]),
                        ),
                    )
    return Verdict(True)


def reference_monotone(oracle: SetFunctionOracle) -> Verdict:
    """The exhaustive monotonicity scan as a plain loop over (S, e)."""
    n = oracle.universe.n
    table = [oracle.evaluate(Subset.from_mask(n, m)) for m in range(1 << n)]
    for s_mask in range(1 << n):
        base = table[s_mask]
        for e in range(n):
            if not s_mask >> e & 1 and table[s_mask | 1 << e] < base - CHECK_TOL:
                return Verdict(
                    False,
                    None,
                    "{}, {}: adding {} decreases the value",
                    (
                        Subset.from_mask(n, s_mask),
                        Subset.from_mask(n, s_mask | 1 << e),
                        Subset(n, [e]),
                    ),
                )
    return Verdict(True)


@st.composite
def value_tables(draw) -> tuple[int, list[float]]:
    """A budget-additive table (monotone submodular, rich in ties) with a few
    entries overwritten, some by ``-inf``."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cap = draw(st.integers(0, 3 * n))
    table = [
        float(min(cap, sum(w for e, w in enumerate(weights) if m >> e & 1)))
        for m in range(1 << n)
    ]
    values = st.sampled_from([-math.inf, -1.0, 0.0, 1e-9, 1.0, 2.5, 9.0])
    planted = st.tuples(st.integers(0, (1 << n) - 1), values)
    for m, v in draw(st.lists(planted, max_size=4)):
        table[m] = v
    return n, table


def modular_table(weights: list[float]) -> list[float]:
    """The modular function's value on every mask, its weights summed in id order."""
    n = len(weights)
    return [sum((w for e, w in enumerate(weights) if m >> e & 1), 0.0) for m in range(1 << n)]


@st.composite
def rounding_tables(draw) -> tuple[int, list[float]]:
    """A modular table whose weights may be near 1e16, so that its sums
    round, with a few entries moved by about ``CHECK_TOL``."""
    n = draw(st.integers(2, 5))
    weight = st.sampled_from([3e16, 1e16, -1e16, 6.0, -3.0, 2.0, 1.0, 1e-9, 0.0])
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    table = modular_table(weights)
    nudge = st.sampled_from([-2e-9, -1e-9, 1e-9, 2e-9])
    for m, d in draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1), nudge), max_size=4)):
        table[m] += d
    return n, table


class TestChecks:
    def test_supermodular_square_is_caught(self):
        f = SetFunctionOracle(lambda mask: float(mask.bit_count() ** 2), GroundSet(4))
        verdict = check_submodular(f)
        assert not verdict.ok
        s, t, e, g = verdict.subsets
        assert s | g == t and e.mask & t.mask == 0 and len(e) == len(g) == 1

    def test_coverage_passes_exhaustive(self):
        assert check_submodular(coverage_oracle(COVER)).ok

    def test_cut_passes_submodular_fails_monotone(self):
        f = cut_oracle(WeightedGraph.build(2, [(0, 1)]))
        assert check_submodular(f).ok
        verdict = check_monotone(f)
        assert not verdict.ok
        small, large, e = verdict.subsets
        assert small | e == large and small.mask & e.mask == 0 and len(e) == 1
        # the witness really is a decrease
        assert f.evaluate(large) < f.evaluate(small)

    def test_monotone_passes(self):
        assert check_monotone(coverage_oracle(COVER)).ok

    def test_exhaustive_guard(self):
        f = modular_oracle([1.0] * 18)
        with pytest.raises(BudgetExceededError):
            check_submodular(f, mode="exhaustive")
        assert check_submodular(f, mode="sampled", sample_count=200).ok
        assert check_monotone(f, mode="sampled", sample_count=200).ok

    def test_sampled_finds_gross_violation(self):
        f = SetFunctionOracle(lambda mask: float(mask.bit_count() ** 3), GroundSet(18))
        assert not check_submodular(f, mode="sampled", sample_count=500, seed=1).ok
        g = SetFunctionOracle(lambda mask: -float(mask.bit_count()), GroundSet(18))
        assert not check_monotone(g, mode="sampled", sample_count=500, seed=1).ok

    def test_unknown_mode_rejected(self):
        f = modular_oracle([1.0])
        with pytest.raises(ValueError):
            check_submodular(f, mode="fuzzy")
        with pytest.raises(ValueError):
            check_monotone(f, mode="fuzzy")

    @pytest.mark.parametrize("count", [0, -3])
    def test_sampled_mode_needs_a_sample(self, count):
        f = modular_oracle([1.0, 2.0])
        with pytest.raises(ValueError):
            check_submodular(f, mode="sampled", sample_count=count)
        with pytest.raises(ValueError):
            check_monotone(f, mode="sampled", sample_count=count)

    @given(value_tables())
    # a gain that shrinks, or a value that drops, by exactly CHECK_TOL is no violation
    @example((2, [0.0, 0.0, 0.0, 1e-9]))
    @example((2, [1e-9, 0.0, 0.0, 0.0]))
    # only the order (e, g) = (1, 0) of this pair falls below -CHECK_TOL
    @example((2, [1e-9, 0.0, 2.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_scans_match_the_reference_loops(self, case):
        n, table = case
        for check, reference in (
            (check_submodular, reference_submodular),
            (check_monotone, reference_monotone),
        ):
            got, want = (
                scan(SetFunctionOracle(lambda mask: table[mask], GroundSet(n)))
                for scan in (check, reference)
            )
            assert (got.ok, got.template, got.subsets) == (want.ok, want.template, want.subsets)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: modular_oracle([3e16, 6.0, -3.0]),  # f({0,1}) rounds to 3e16 + 8
            # (e, g) = (1, 0) reads (2 - 1e-9) - 2, just below -CHECK_TOL
            lambda: SetFunctionOracle([1e-9, 0.0, 2.0, 2.0].__getitem__, GroundSet(2)),
        ],
        ids=["modular-1e16", "table-1e-9"],
    )
    def test_each_order_of_a_pair_is_scanned(self, make):
        exhaustive, sampled = check_submodular(make()), check_submodular(make(), "sampled")
        assert exhaustive.reason == "{}, {0}: gain of {1} grows when {0} is added"
        assert sampled.reason == "{}, {0}: gain of {1} grows from S to T"
        assert exhaustive.subsets[:3] == sampled.subsets

    @given(rounding_tables(), st.integers(0, 2**32 - 1))
    @example((2, [1e-9, 0.0, 2.0, 2.0]), 0)
    @example((3, modular_table([3e16, 6.0, -3.0])), 0)
    @settings(max_examples=300, deadline=None)
    def test_sampled_cover_violations_fail_the_exhaustive_scan(self, case, seed):
        """A sampled violation with T = S + g is a triple the exhaustive scan
        reads with the same floats, so the scan fails at it or before it."""
        n, table = case
        f = SetFunctionOracle(table.__getitem__, GroundSet(n))
        sampled = check_submodular(f, "sampled", 50, seed)
        if sampled.ok or len(sampled.subsets[1] - sampled.subsets[0]) != 1:
            return
        s, t, e = sampled.subsets
        exhaustive = check_submodular(f)
        assert not exhaustive.ok
        s2, _, e2, g2 = exhaustive.subsets
        assert (s2.mask, e2.mask, g2.mask) <= (s.mask, e.mask, (t - s).mask)

    @pytest.mark.parametrize(
        "kind", ["cut", "nae", "logdet", "coverage", "incidence", "shifted_incidence"]
    )
    def test_oracle_kinds_match_the_reference_loops(self, kind):
        for check, reference in (
            (check_submodular, reference_submodular),
            (check_monotone, reference_monotone),
        ):
            f, g = batch_kind_oracle(kind, 5, 9), batch_kind_oracle(kind, 5, 9)
            got, want = check(f), reference(g)
            assert (got.ok, got.template, got.subsets) == (want.ok, want.template, want.subsets)
            assert f.calls == g.calls == 1 << 9

    @given(st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_random_mixtures_satisfy_their_claims(self, seed):
        f = random_monotone_oracle(random.Random(seed), 6)
        assert check_submodular(f).ok
        assert check_monotone(f).ok


# ---------------------------------------------------------------------------
# argument checks


def _modular3():
    return modular_oracle([1.0, 2.0, 3.0])


def _arc():
    return WeightedGraph.build(2, [(0, 1)], directed=True)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: swap_reconfigure(_modular3(), Subset(4, [0]), Subset(3, [1])),
         ValueError, "endpoints over wrong universe"),
        (lambda: residual(_modular3(), Subset(4, [0])),
         UniverseMismatchError, "residual base set over wrong universe"),
        (lambda: build_value_table(_modular3(), AdjacencyRule.TAR, restriction=Subset(4, [0])),
         ValueError, "restriction over wrong universe"),
        (lambda: WeightedGraph.build(2, [(0, 1)], probabilities=[0.5, 0.5]),
         ValueError, "probabilities must align with edges"),
        (lambda: incidence_oracle(_arc()),
         ValueError, "incidence oracle expects an undirected graph"),
        (lambda: shifted_incidence_oracle(_arc()),
         ValueError, "shifted incidence oracle expects an undirected graph"),
        (lambda: sample_rr_sets(WeightedGraph.build(0, [], directed=True, probabilities=[]), 5, 0),
         ValueError, "cannot sample from an empty graph"),
        (lambda: nae3sat_to_usreco_tar(
            CnfFormula.monotone3(3, [(0, 1, 2)]),
            SatAssignment.from_string("10"),
            SatAssignment.from_string("100"),
        ), ValueError, "assignment length differs from variable count"),
    ],
    ids=["swap-universe", "residual-universe", "value-table-restriction",
         "graph-probabilities", "incidence-directed", "shifted-incidence-directed",
         "rr-empty-graph", "nae-assignment-length"],
)
def test_argument_checks_raise(call, kind, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message
