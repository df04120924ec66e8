"""Concrete oracle families: values, claims, validation, and sampling."""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subreco import (
    BudgetExceededError,
    CnfFormula,
    CoverageSpec,
    GramMatrix,
    GroundSet,
    NotPositiveDefiniteError,
    RrSetCollection,
    SetFunctionOracle,
    Subset,
    UniverseMismatchError,
    WeightedGraph,
    check_monotone,
    check_submodular,
    coverage_oracle,
    cut_oracle,
    directionalize,
    exact_influence,
    incidence_oracle,
    influence_oracle,
    inverse_indegree_probabilities,
    is_vertex_cover,
    logdet_oracle,
    modular_oracle,
    modular_upper_bound,
    nae_clause_oracle,
    sample_rr_sets,
    shifted_incidence_oracle,
)
from subreco import oracles

from conftest import BATCH_KINDS, batch_kind_oracle


# ---------------------------------------------------------------------------
# modular and coverage


class TestModular:
    def test_sums_in_element_order(self):
        # in order, 1.0 + 1e16 rounds back to 1e16 and so does adding the
        # second 1.0; a compensated sum (built-in sum() from Python 3.12)
        # gives 1.0000000000000002e16
        f = modular_oracle([1.0, 1e16, 1.0])
        assert f.evaluate(Subset.full(3)) == 1e16
        assert f.evaluate_many([0b111])[0] == 1e16
        bound = modular_upper_bound(f, Subset.empty(3))
        assert bound.evaluate(Subset.full(3)) == 1e16

    def test_values(self):
        f = modular_oracle([3.0, 1.0, 2.0])
        assert f.evaluate(Subset(3, [0, 2])) == 5.0
        assert f.evaluate(Subset.empty(3)) == 0.0
        assert f.claims_monotone and f.claims_submodular and f.claims_nonnegative

    def test_negative_weight_drops_claims(self):
        f = modular_oracle([1.0, -2.0])
        assert not f.claims_monotone and not f.claims_nonnegative
        assert f.claims_submodular

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            modular_oracle([1.0, bad])


class TestCoverage:
    SPEC = CoverageSpec(4, ((0, 1), (1, 2), (3,)))

    def test_values(self):
        f = coverage_oracle(self.SPEC)
        assert f.evaluate(Subset.empty(3)) == 0.0
        assert f.evaluate(Subset(3, [0])) == 2.0
        assert f.evaluate(Subset(3, [0, 1])) == 3.0
        assert f.evaluate(Subset.full(3)) == 4.0

    def test_divisor_scales(self):
        f = coverage_oracle(CoverageSpec(4, self.SPEC.covered, divisor=2.0))
        assert f.evaluate(Subset(3, [0, 1])) == 1.5

    def test_duplicate_items_normalized(self):
        spec = CoverageSpec(3, ((0, 0, 1),))
        assert spec.covered == ((0, 1),)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageSpec(2, ((0, 5),))
        with pytest.raises(ValueError):
            CoverageSpec(2, ((0,),), divisor=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_divisor(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CoverageSpec(2, ((0,),), divisor=bad)

    def test_claims_hold(self):
        f = coverage_oracle(self.SPEC)
        assert check_submodular(f).ok and check_monotone(f).ok


# ---------------------------------------------------------------------------
# graphs and graph oracles


class TestWeightedGraph:
    def test_build_defaults_weight_one(self):
        g = WeightedGraph.build(3, [(0, 1), (1, 2, 2.5)])
        assert g.weights == (1.0, 2.5)
        assert g.edge_count == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, edges=((0, 0),), weights=(1.0,)),
            dict(n=2, edges=((0, 3),), weights=(1.0,)),
            dict(n=2, edges=((0, 1),), weights=(-1.0,)),
            dict(n=2, edges=((0, 1),), weights=(float("nan"),)),
            dict(n=2, edges=((0, 1),), weights=(float("inf"),)),
            dict(n=2, edges=((0, 1),), weights=(1.0, 2.0)),
            dict(n=2, edges=((0, 1),), weights=(1.0,), probabilities=(1.5,)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WeightedGraph(**kwargs)

    def test_directionalize(self):
        g = directionalize(WeightedGraph.build(3, [(0, 1, 2.0), (1, 2)]))
        assert g.directed
        assert g.edges == ((0, 1), (1, 0), (1, 2), (2, 1))
        assert g.weights == (2.0, 2.0, 1.0, 1.0)
        assert directionalize(g) is g

    def test_inverse_indegree_probabilities(self):
        # path 0-1-2: vertex 1 has in-degree 2 after directionalizing
        g = inverse_indegree_probabilities(WeightedGraph.build(3, [(0, 1), (1, 2)]))
        assert g.edges == ((0, 1), (1, 0), (1, 2), (2, 1))
        assert g.probabilities == (0.5, 1.0, 1.0, 0.5)


class TestCut:
    # path 0-1-2 with edge weights 1 and 2
    G = WeightedGraph.build(3, [(0, 1, 1.0), (1, 2, 2.0)])

    def test_values(self):
        f = cut_oracle(self.G)
        assert f.evaluate(Subset.empty(3)) == 0.0
        assert f.evaluate(Subset(3, [0])) == 1.0
        assert f.evaluate(Subset(3, [1])) == 3.0
        assert f.evaluate(Subset(3, [0, 1])) == 2.0
        assert f.evaluate(Subset(3, [0, 2])) == 3.0
        assert f.evaluate(Subset.full(3)) == 0.0

    def test_rejects_directed(self):
        with pytest.raises(ValueError):
            cut_oracle(directionalize(self.G))

    def test_claims_hold(self):
        f = cut_oracle(self.G)
        assert f.claims_submodular and not f.claims_monotone
        assert check_submodular(f).ok
        assert not check_monotone(f).ok


K3 = WeightedGraph.build(3, [(0, 1), (0, 2), (1, 2)])


class TestIncidence:
    def test_values(self):
        f = incidence_oracle(K3)
        assert f.evaluate(Subset.empty(3)) == 0.0
        assert f.evaluate(Subset(3, [0])) == 2.0
        assert f.evaluate(Subset(3, [0, 1])) == 3.0
        assert f.evaluate(Subset.full(3)) == 3.0

    def test_full_value_characterizes_covers(self):
        f = incidence_oracle(K3)
        for mask in range(8):
            s = Subset.from_mask(3, mask)
            assert (f.evaluate(s) == 3.0) == is_vertex_cover(K3, s)

    def test_claims_hold(self):
        f = incidence_oracle(K3)
        assert check_submodular(f).ok and check_monotone(f).ok


class TestShiftedIncidence:
    def test_values(self):
        f = shifted_incidence_oracle(K3)
        assert f.evaluate(Subset.empty(3)) == 1.5
        assert f.evaluate(Subset(3, [0])) == 3.0
        assert f.evaluate(Subset(3, [0, 1])) == 3.5
        assert f.evaluate(Subset.full(3)) == 3.0

    def test_size_k_covers_are_strict_peaks(self):
        # on K3 with k=2 the covers are exactly the three pairs; every other
        # size-2-or-adjacent set scores at least 0.5 lower
        f = shifted_incidence_oracle(K3)
        cover_value = f.evaluate(Subset(3, [0, 1]))
        for mask in range(8):
            s = Subset.from_mask(3, mask)
            if len(s) == 2:
                continue
            assert f.evaluate(s) <= cover_value - 0.5

    def test_claims_hold(self):
        f = shifted_incidence_oracle(K3)
        assert check_submodular(f).ok
        assert not check_monotone(f).ok


# The plain loops the table-driven cut evaluation and the union-count kernel
# (coverage, incidence, shifted incidence, influence) replace.


def reference_cut(g: WeightedGraph, mask: int) -> float:
    total = 0.0
    for i, (u, v) in enumerate(g.edges):
        if (mask >> u & 1) != (mask >> v & 1):
            total += g.weights[i]
    return total


def reference_incidence(g: WeightedGraph, mask: int) -> float:
    return float(sum(1 for u, v in g.edges if (mask >> u | mask >> v) & 1))


@given(
    n=st.integers(0, 80),
    m=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_scalar_paths_equal_reference_loops(n, m, seed, data):
    # past 64 edges the edge words are wider than a machine word, and past
    # 4 vertices the masks span several table entries
    rng = random.Random(seed)
    edges = []
    if n >= 2:
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            w = rng.choice([0.0, 10 ** rng.uniform(-300, 300), rng.uniform(0.5, 1.5)])
            edges.append((u, v, w))
        edges += rng.sample(edges, min(len(edges), 5))  # parallel edges
    g = WeightedGraph.build(n, edges)
    cut, inc, shifted = cut_oracle(g), incidence_oracle(g), shifted_incidence_oracle(g)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    for mask in masks + [rng.getrandbits(n)]:
        s = Subset.from_mask(n, mask)
        assert cut.evaluate(s) == reference_cut(g, mask)
        assert inc.evaluate(s) == reference_incidence(g, mask)
        assert shifted.evaluate(s) == reference_incidence(g, mask) + 0.5 * (n - len(s))


def reference_coverage(spec: CoverageSpec, mask: int) -> float:
    items = set()
    for e in range(spec.n):
        if mask >> e & 1:
            items.update(spec.covered[e])
    return len(items) / spec.divisor


@given(
    n=st.integers(0, 80),
    items=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_coverage_equals_reference_loop(n, items, seed, data):
    # past 64 items an element's covered set spans several 64-bit words
    rng = random.Random(seed)
    covered = tuple(tuple(rng.sample(range(items), rng.randint(0, items))) for _ in range(n))
    spec = CoverageSpec(items, covered, rng.choice([1.0, 3.0, 0.7, 1e-300]))
    f = coverage_oracle(spec)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    for mask in masks + [rng.getrandbits(n)]:
        assert f.evaluate(Subset.from_mask(n, mask)) == reference_coverage(spec, mask)


def test_cut_adds_weights_in_edge_order():
    # star on vertex 0: in edge order each 1.0 rounds away against 1e16, while
    # adding the two 1.0s first, or a compensated sum, gives 1.0000000000000002e16
    g = WeightedGraph.build(4, [(0, 1, 1.0), (0, 2, 1e16), (0, 3, 1.0)])
    assert cut_oracle(g).evaluate(Subset(4, [0])) == 1e16


# ---------------------------------------------------------------------------
# CNF formulas and the clause-splitting oracle


class TestCnfFormula:
    def test_monotone3_builder(self):
        phi = CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])
        assert phi.m == 2 and phi.monotone
        assert phi.clause_vars(1) == (1, 2, 3)

    def test_monotone3_validation(self):
        with pytest.raises(ValueError):
            CnfFormula.monotone3(3, [(0, 1)])
        with pytest.raises(ValueError):
            CnfFormula.monotone3(3, [(0, 1, 1)])

    def test_general_clause_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(2, (((5, True),),))
        with pytest.raises(ValueError):
            CnfFormula(2, ((),))

    def test_satisfies(self):
        # (x0 or not x1)
        phi = CnfFormula(2, (((0, True), (1, False)),))
        assert phi.satisfies([True, True])
        assert phi.satisfies([False, False])
        assert not phi.satisfies([False, True])
        assert not phi.monotone

    def test_nae_satisfies(self):
        phi = CnfFormula.monotone3(3, [(0, 1, 2)])
        assert phi.nae_satisfies([True, False, False])
        assert not phi.nae_satisfies([True, True, True])
        assert not phi.nae_satisfies([False, False, False])

    def test_assignment_length_checked(self):
        phi = CnfFormula.monotone3(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            phi.satisfies([True])
        with pytest.raises(ValueError):
            phi.nae_satisfies([True])


class TestNaeClauseOracle:
    def test_single_clause(self):
        f = nae_clause_oracle(CnfFormula.monotone3(3, [(0, 1, 2)]))
        assert f.evaluate(Subset.empty(3)) == 0.0
        assert f.evaluate(Subset(3, [0])) == 1.0
        assert f.evaluate(Subset(3, [0, 1])) == 1.0
        assert f.evaluate(Subset.full(3)) == 0.0

    def test_counts_split_clauses(self):
        phi = CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])
        f = nae_clause_oracle(phi)
        # {0} splits the first clause only; {0,3} splits both
        assert f.evaluate(Subset(4, [0])) == 1.0
        assert f.evaluate(Subset(4, [0, 3])) == 2.0
        assert f.evaluate(Subset(4, [1, 2])) == 2.0
        assert f.evaluate(Subset(4, [1, 2, 3])) == 1.0

    def test_full_value_characterizes_nae_assignments(self):
        phi = CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])
        f = nae_clause_oracle(phi)
        for mask in range(16):
            s = Subset.from_mask(4, mask)
            assign = [v in s for v in range(4)]
            assert (f.evaluate(s) == phi.m) == phi.nae_satisfies(assign)

    def test_requires_monotone_fragment(self):
        phi = CnfFormula(3, (((0, True), (1, False), (2, True)),))
        with pytest.raises(ValueError):
            nae_clause_oracle(phi)

    def test_claims_hold(self):
        f = nae_clause_oracle(CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)]))
        assert check_submodular(f).ok
        assert not check_monotone(f).ok


# ---------------------------------------------------------------------------
# log-determinant


class TestGramMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            GramMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                GramMatrix(np.array([[1.0, bad], [bad, 1.0]]))

    def test_principal(self):
        g = GramMatrix(np.diag([1.0, 2.0, 3.0]))
        assert np.array_equal(g.principal([0, 2]).a, np.diag([1.0, 3.0]))
        assert g.n == 3


class TestLogdet:
    def test_diagonal_values(self):
        f = logdet_oracle(GramMatrix(np.diag([2.0, 3.0])))
        assert f.evaluate(Subset.empty(2)) == 0.0
        assert f.evaluate(Subset(2, [0])) == pytest.approx(math.log(2.0))
        assert f.evaluate(Subset.full(2)) == pytest.approx(math.log(6.0))

    def test_identity_is_identically_zero(self):
        f = logdet_oracle(GramMatrix(np.eye(3)))
        for mask in range(8):
            assert f.evaluate(Subset.from_mask(3, mask)) == pytest.approx(0.0)

    def test_singular_submatrix_returns_minus_inf(self):
        f = logdet_oracle(GramMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
        assert f.evaluate(Subset(2, [0])) == pytest.approx(0.0)
        assert f.evaluate(Subset.full(2)) == float("-inf")

    def test_indefinite_submatrix_raises(self):
        # the large diagonal entry loosens the whole-matrix tolerance enough
        # to admit a slightly indefinite 2x2 block; querying that block alone
        # must fail loudly rather than return a garbage value
        a = np.zeros((3, 3))
        a[:2, :2] = [[1.0, 1.0002], [1.0002, 1.0]]
        a[2, 2] = 1e6
        f = logdet_oracle(GramMatrix(a))
        with pytest.raises(NotPositiveDefiniteError) as exc:
            f.evaluate(Subset(3, [0, 1]))
        assert exc.value.subset == Subset(3, [0, 1])

    def test_claims_hold_on_positive_definite(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(5, 5))
        f = logdet_oracle(GramMatrix(b @ b.T + 5.0 * np.eye(5)))
        assert check_submodular(f).ok
        assert not f.claims_nonnegative

    def test_well_conditioned_gram_is_monotone_when_shifted(self):
        # eigenvalues >= 1 make every marginal log-det gain nonnegative
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        f = logdet_oracle(GramMatrix(q @ np.diag(np.linspace(1.5, 3.0, 5)) @ q.T))
        assert check_monotone(f).ok


# ---------------------------------------------------------------------------
# batch evaluation

def one_at_a_time(f: SetFunctionOracle, masks) -> list[float]:
    return [f.evaluate(Subset.from_mask(f.universe.n, m)) for m in masks]


@given(
    kind=st.sampled_from(BATCH_KINDS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_evaluate_many_equals_evaluate(kind, seed, data):
    n = data.draw(st.integers(1, 20), label="n")
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=80), label="masks")
    batch, loop = batch_kind_oracle(kind, seed, n), batch_kind_oracle(kind, seed, n)
    got = batch.evaluate_many(masks)
    assert got.dtype == np.float64
    assert np.array_equal(got, one_at_a_time(loop, masks))
    assert batch.calls == loop.calls == len(masks)


class TestEvaluateMany:
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_whole_lattice_in_small_chunks(self, kind, monkeypatch):
        monkeypatch.setattr(oracles, "LOGDET_CHUNK", 5)
        masks = list(range(1 << 9))[::-1]
        got = batch_kind_oracle(kind, 11, 9).evaluate_many(masks)
        assert np.array_equal(got, one_at_a_time(batch_kind_oracle(kind, 11, 9), masks))

    def test_indefinite_gram_fails_on_the_same_subset(self):
        a = np.zeros((3, 3))
        a[:2, :2] = [[1.0, 1.0002], [1.0002, 1.0]]
        a[2, 2] = 1e6
        batch, loop = logdet_oracle(GramMatrix(a)), logdet_oracle(GramMatrix(a))
        masks = [0b001, 0b100, 0b011, 0b010]
        with pytest.raises(NotPositiveDefiniteError) as got:
            batch.evaluate_many(masks)
        with pytest.raises(NotPositiveDefiniteError) as want:
            one_at_a_time(loop, masks)
        assert got.value.subset == want.value.subset == Subset(3, [0, 1])
        assert str(got.value) == str(want.value)
        assert batch.calls == loop.calls == 2

    def test_singular_gram_gives_minus_inf(self):
        f = logdet_oracle(GramMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
        assert f.evaluate_many([3, 0, 1, 2, 3]).tolist() == [-math.inf, 0.0, 0.0, 0.0, -math.inf]
        assert f.calls == 5

    def test_negative_value_on_a_nonnegative_oracle(self):
        batches = []

        def batch_fn(masks):
            batches.append(len(masks))
            return np.where(masks == 2, -1.0, 0.0)

        f = SetFunctionOracle(
            lambda mask: -1.0 if mask == 2 else 0.0,
            GroundSet(2),
            claims_nonnegative=True,
            batch_fn=batch_fn,
        )
        with pytest.raises(ValueError, match=r"^nonnegative oracle returned -1.0 on \{1\}$"):
            f.evaluate_many([0, 1, 2, 3])
        assert batches == [4]  # the batch ran, then was discarded uncharged
        assert f.calls == 2

    @pytest.mark.parametrize("bad", [8, -1, 1 << 70])
    def test_out_of_range_mask(self, bad):
        f = modular_oracle([1.0, 2.0, 3.0])
        with pytest.raises(UniverseMismatchError):
            f.evaluate_many([0, 7, bad, 1])
        assert f.calls == 2

    def test_oracle_without_batch_form(self):
        f = SetFunctionOracle(lambda mask: float(mask.bit_count()), GroundSet(3))
        assert f.evaluate_many(range(8)).tolist() == [0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0]
        assert f.calls == 8
        assert f.evaluate_many([]).shape == (0,)

    def test_large_universe_evaluates_one_at_a_time(self):
        f = modular_oracle([float(e) for e in range(70)])
        assert f.evaluate_many([1 << 69, 0b110]).tolist() == [69.0, 3.0]
        assert f.calls == 2


# ---------------------------------------------------------------------------
# influence and reverse-reachable sampling


CHAIN = WeightedGraph.build(
    3, [(0, 1), (1, 2)], directed=True, probabilities=[1.0, 1.0]
)


class TestRrSampling:
    def test_deterministic_per_seed(self):
        g = inverse_indegree_probabilities(
            WeightedGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        )
        a = sample_rr_sets(g, 50, seed=9)
        b = sample_rr_sets(g, 50, seed=9)
        c = sample_rr_sets(g, 50, seed=10)
        assert a.sets == b.sets
        assert a.sets != c.sets

    def test_certain_arcs_collect_all_ancestors(self):
        # with p = 1 the set for root r is exactly the vertices that reach r
        rr = sample_rr_sets(CHAIN, 200, seed=0)
        expected = {0: {0}, 1: {0, 1}, 2: {0, 1, 2}}
        for s in rr.sets:
            root_candidates = [r for r, anc in expected.items() if set(s) == anc]
            assert len(root_candidates) == 1

    def test_impossible_arcs_leave_singletons(self):
        g = WeightedGraph.build(
            3, [(0, 1), (1, 2)], directed=True, probabilities=[0.0, 0.0]
        )
        rr = sample_rr_sets(g, 100, seed=1)
        assert all(len(s) == 1 for s in rr.sets)

    def test_input_validation(self):
        undirected = WeightedGraph.build(2, [(0, 1)])
        with pytest.raises(ValueError):
            sample_rr_sets(undirected, 10, seed=0)
        no_probs = WeightedGraph.build(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            sample_rr_sets(no_probs, 10, seed=0)
        with pytest.raises(ValueError):
            sample_rr_sets(CHAIN, 0, seed=0)

    def test_collection_validation(self):
        for n, rows in [
            (3, b"\x08"),  # vertex 3 is past n = 3
            (9, b"\x01\x02"),  # vertex 9 is past n = 9
            (3, b"\x01\x00"),  # the second set is empty
            (3, b""),  # no sets
            (0, b"\x01"),  # no vertices
            (9, b"\x01\x00\x01"),  # not a whole number of 2-byte rows
        ]:
            with pytest.raises(ValueError):
                RrSetCollection(n, rows, seed=0)

    def test_rows_are_packed_little_endian_per_set(self):
        rr = RrSetCollection(9, bytes([0b101, 0, 0, 1]), seed=0)
        assert rr.count == 2 and rr.width == 2
        assert rr.sets == (Subset(9, [0, 2]), Subset(9, [8]))
        assert RrSetCollection(8, b"\x80", seed=0).sets == (Subset(8, [7]),)


def reference_rr_sample(g, count, seed):
    """Masks of a plain reverse search over each sample's block of a fresh Philox."""
    width = len(g.edges) + 1
    key = 2 * seed if seed >= 0 else -2 * seed - 1
    stream = np.random.Philox(np.random.SeedSequence(key)).random_raw(count * width)
    incoming = [[] for _ in range(g.n)]
    for a, ((u, v), p) in enumerate(zip(g.edges, g.probabilities)):
        incoming[v].append((a, u, p))
    masks = []
    for i in range(count):
        u = [(w >> 11) * 2**-53 for w in stream[i * width : (i + 1) * width].tolist()]
        root = min(int(u[0] * g.n), g.n - 1)
        mask, queue = 1 << root, [root]
        for v in queue:
            for a, t, p in incoming[v]:
                if not mask >> t & 1 and u[1 + a] < p:
                    mask |= 1 << t
                    queue.append(t)
        masks.append(mask)
    return masks


COMPLETE_14_ARCS = [(u, v) for u in range(14) for v in range(14) if u != v]
COMPLETE_14 = WeightedGraph.build(
    14, COMPLETE_14_ARCS, directed=True, probabilities=[0.12] * 182
)


class TestRrSamplerMatchesReference:
    """The lock-step sampler gives the per-sample Philox reverse search bit for bit."""

    # name: (vertices, arcs, probability, count, seed)
    CASES = {
        "single-vertex": (1, [], 0.5, 50, 3),
        "chain": (3, [(0, 1), (1, 2)], 0.5, 400, 0),
        "star-17": (17, [(i, 0) for i in range(1, 17)], 0.3, 3000, -4),
        # 182 arcs: 9,000 samples span seven chunks, four on the caller
        "complete-14": (14, COMPLETE_14_ARCS, 0.12, 9000, 10**40),
        # a ring with hops 1 and 5, whose masks reach past bit 63
        "ring-70": (
            70,
            [(i, (i + h) % 70) for h in (1, 5) for i in range(70)],
            0.45,
            2000,
            2**20000 + 3,
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_sets_match_reference_walk(self, name):
        n, arcs, p, count, seed = self.CASES[name]
        g = WeightedGraph.build(n, arcs, directed=True, probabilities=[p] * len(arcs))
        masks = reference_rr_sample(g, count, seed)
        assert [s.mask for s in sample_rr_sets(g, count, seed).sets] == masks
        if name == "ring-70":
            assert sum(m >> 64 != 0 for m in masks) > count // 20

    def test_prefix_and_chunk_independence(self, monkeypatch):
        long = sample_rr_sets(COMPLETE_14, 9000, 11).sets
        assert long[:5000] == sample_rr_sets(COMPLETE_14, 5000, 11).sets
        monkeypatch.setattr(oracles, "_CHUNK_WORDS", 1)  # one sample per chunk
        assert sample_rr_sets(COMPLETE_14, 300, 11).sets == long[:300]

    def test_seeds_are_distinct_and_reproducible(self):
        seeds = [-4, 0, 10**40, 2**20000 + 3]
        collections = [sample_rr_sets(COMPLETE_14, 200, s).sets for s in seeds]
        for s, sets in zip(seeds, collections):
            assert sample_rr_sets(COMPLETE_14, 200, s).sets == sets
        for i in range(len(seeds)):
            for j in range(i):
                assert collections[i] != collections[j]

    def test_zero_and_one_probabilities_are_exact(self):
        # p = 1 arcs are always kept and p = 0 arcs never: each set is the
        # ancestors of its root over the p = 1 arcs
        arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (5, 2)]
        probs = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        g = WeightedGraph.build(6, arcs, directed=True, probabilities=probs)
        certain = [(u, v) for (u, v), p in zip(arcs, probs) if p == 1.0]
        ancestors = []
        for r in range(6):
            reach = {r}
            while True:
                more = {u for u, v in certain if v in reach} - reach
                if not more:
                    break
                reach |= more
            ancestors.append(frozenset(reach))
        roots_seen = set()
        for s in sample_rr_sets(g, 3000, 8).sets:
            roots = [r for r in range(6) if frozenset(s) == ancestors[r]]
            assert roots
            roots_seen.update(roots)
        assert roots_seen == set(range(6))


class TestRrSamplerThreads:
    """Chunks split over the caller and one helper thread give the same bytes."""

    @staticmethod
    def chunk_words(samples: int) -> int:
        """A ``_CHUNK_WORDS`` giving ``samples`` COMPLETE_14 samples per chunk."""
        return 2 * (len(COMPLETE_14_ARCS) + 1 + COMPLETE_14.n) * samples

    # (samples per chunk, count): a chunk of 3 samples is 549 words, so chunk
    # starts fall at every offset within a 4-word Philox block
    @pytest.mark.parametrize(
        "per_chunk, count",
        [(3, 20), (3, 18), (1, 8), (7, 1), (5, 5)],
        ids=["7-chunks-last-short", "6-chunks", "8-single-sample-chunks", "count-1", "1-chunk"],
    )
    def test_chunked_sets_match_reference(self, monkeypatch, per_chunk, count):
        monkeypatch.setattr(oracles, "_CHUNK_WORDS", self.chunk_words(per_chunk))
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        rr = sample_rr_sets(COMPLETE_14, count, 5)
        assert [s.mask for s in rr.sets] == reference_rr_sample(COMPLETE_14, count, 5)
        chunks = -(-count // per_chunk)
        assert len(started) == (chunks > 1)
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(oracles, "_CHUNK_WORDS", self.chunk_words(2))
        before = threading.active_count()
        assert sample_rr_sets(COMPLETE_14, 9, 3).count == 9
        assert threading.active_count() == before
        philox = np.random.Philox

        def broken(key):
            in_helper = threading.current_thread() is not threading.main_thread()
            if in_helper == (failing == "helper"):
                raise RuntimeError(f"stream failed in the {failing}")
            return philox(key)

        monkeypatch.setattr(np.random, "Philox", broken)
        with pytest.raises(RuntimeError, match=f"in the {failing}"):
            sample_rr_sets(COMPLETE_14, 9, 3)
        assert threading.active_count() == before

    def test_concurrent_calls(self, monkeypatch):
        # more callers than cores, each with its own helper, switching often
        monkeypatch.setattr(oracles, "_CHUNK_WORDS", self.chunk_words(4))
        seeds = range(6)
        want = {s: sample_rr_sets(COMPLETE_14, 50, s).rows for s in seeds}
        got = {}

        def call(s):
            got[s] = sample_rr_sets(COMPLETE_14, 50, s).rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(s,)) for s in seeds]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want


def random_rr_collection(rng: random.Random, n: int, count: int) -> RrSetCollection:
    width = (n + 7) // 8
    rows = b"".join(rng.randrange(1, 1 << n).to_bytes(width, "little") for _ in range(count))
    return RrSetCollection(n, rows, seed=0)


def reference_vertex_masks(rr):
    """The per-set loop: vertex v's bitmap has the bits of the sets holding v."""
    hit = np.zeros((rr.n, rr.count), dtype=bool)
    for j, s in enumerate(rr.sets):
        for v in s:
            hit[v, j] = True
    packed = np.packbits(hit, axis=1)
    return tuple(int.from_bytes(packed[v].tobytes(), "big") for v in range(rr.n))


@pytest.mark.parametrize("n", [3, 34, 70])
@pytest.mark.parametrize("count", [1, 1003])
def test_vertex_masks_match_per_set_loop(n, count):
    rr = random_rr_collection(random.Random(n * 7919 + count), n, count)
    assert oracles._vertex_masks(rr) == reference_vertex_masks(rr)


def reference_influence(rr: RrSetCollection, mask: int) -> float:
    """The per-set loop: the share of sets meeting S, scaled to n as the oracle does."""
    hits = sum(1 for r in rr.sets if r.mask & mask)
    return rr.n / rr.count * hits


@given(
    n=st.integers(1, 80),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_influence_equals_reference_loop(n, count, seed, data):
    rng = random.Random(seed)
    rr = random_rr_collection(rng, n, count)
    f = influence_oracle(rr)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    for mask in masks + [rng.getrandbits(n)]:
        assert f.evaluate(Subset.from_mask(n, mask)) == reference_influence(rr, mask)


def test_influence_evaluate_many_is_the_per_mask_loop():
    # influence has no batch form: evaluate_many runs evaluate mask by mask
    rng = random.Random(4)
    rr = random_rr_collection(rng, 12, 500)
    masks = [rng.getrandbits(12) for _ in range(200)]
    batch, loop = influence_oracle(rr), influence_oracle(rr)
    assert np.array_equal(batch.evaluate_many(masks), one_at_a_time(loop, masks))
    assert batch.calls == loop.calls == len(masks)


class TestInfluenceOracle:
    def test_values_from_known_collection(self):
        rr = RrSetCollection(3, bytes([0b001, 0b011, 0b100]), seed=0)
        f = influence_oracle(rr)
        assert f.evaluate(Subset.empty(3)) == 0.0
        assert f.evaluate(Subset(3, [0])) == pytest.approx(2.0)
        assert f.evaluate(Subset(3, [1])) == pytest.approx(1.0)
        assert f.evaluate(Subset(3, [2])) == pytest.approx(1.0)
        assert f.evaluate(Subset(3, [0, 2])) == pytest.approx(3.0)
        assert f.evaluate(Subset.full(3)) == pytest.approx(3.0)

    def test_claims_hold(self):
        rr = sample_rr_sets(
            inverse_indegree_probabilities(K3), 60, seed=2
        )
        f = influence_oracle(rr)
        assert check_submodular(f).ok and check_monotone(f).ok

    def test_estimator_tracks_exact_value(self):
        g = WeightedGraph.build(
            2, [(0, 1)], directed=True, probabilities=[0.5]
        )
        exact = exact_influence(g, Subset(2, [0]))
        assert exact == pytest.approx(1.5)
        f = influence_oracle(sample_rr_sets(g, 20000, seed=5))
        assert f.evaluate(Subset(2, [0])) == pytest.approx(exact, abs=0.05)


class TestExactInfluence:
    def test_certain_chain(self):
        assert exact_influence(CHAIN, Subset(3, [0])) == pytest.approx(3.0)
        assert exact_influence(CHAIN, Subset(3, [1])) == pytest.approx(2.0)
        assert exact_influence(CHAIN, Subset(3, [2])) == pytest.approx(1.0)

    def test_mixed_probabilities(self):
        g = WeightedGraph.build(
            3, [(0, 1), (1, 2)], directed=True, probabilities=[1.0, 0.0]
        )
        assert exact_influence(g, Subset(3, [0])) == pytest.approx(2.0)

    def test_branching(self):
        # 0 -> 1, 0 -> 2 each with p = 0.5: spread 1 + 0.5 + 0.5
        g = WeightedGraph.build(
            3, [(0, 1), (0, 2)], directed=True, probabilities=[0.5, 0.5]
        )
        assert exact_influence(g, Subset(3, [0])) == pytest.approx(2.0)

    def test_guard(self):
        big = WeightedGraph.build(
            22,
            [(i, i + 1) for i in range(21)],
            directed=True,
            probabilities=[0.5] * 21,
        )
        with pytest.raises(BudgetExceededError):
            exact_influence(big, Subset(22, [0]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            exact_influence(WeightedGraph.build(2, [(0, 1)]), Subset(2, [0]))
        with pytest.raises(ValueError):
            exact_influence(CHAIN, Subset(5, [0]))


class TestEstimatorStatistics:
    def test_error_shrinks_with_sample_count(self):
        g = WeightedGraph.build(
            3,
            [(0, 1), (1, 2), (0, 2)],
            directed=True,
            probabilities=[0.6, 0.3, 0.2],
        )
        target = exact_influence(g, Subset(3, [0]))
        errors = []
        for count in (100, 10000):
            per_seed = [
                abs(
                    influence_oracle(sample_rr_sets(g, count, seed=s)).evaluate(
                        Subset(3, [0])
                    )
                    - target
                )
                for s in range(8)
            ]
            errors.append(sum(per_seed) / len(per_seed))
        assert errors[1] < errors[0]
        assert errors[1] < 0.05
