"""Reductions between reconfiguration problems and the pinned counterexamples."""

import math
import random
from itertools import combinations

import pytest

from subreco import (
    AdjacencyRule,
    CnfFormula,
    GroundSet,
    ProblemInstance,
    ReconfigSequence,
    SatAssignment,
    SetFunctionOracle,
    Subset,
    VcReconfigInstance,
    WeightedGraph,
    astar,
    inapprox_gadget,
    is_vertex_cover,
    minvc_to_usreco_tjar,
    modular_oracle,
    nae3sat_to_usreco_tar,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    optimal_sequence,
    optimal_value,
    sat_reconfig_to_vc_reconfig,
    sequence_value,
    swap_reconfigure,
    tjar_reconfigure,
    validate_sequence,
    vc_to_msreco,
)

from conftest import (
    colour_classes,
    covers_of_min_size,
    cycle_graph,
    grid_graph,
    random_graph,
    small_graph_family,
)

P3 = WeightedGraph.build(3, [(0, 1), (1, 2)])
C4 = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
P4 = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3)])


def minimum_cover_size(g: WeightedGraph) -> int:
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_vertex_cover(g, Subset(g.n, combo)):
                return k
    raise AssertionError("the full vertex set always covers")


class TestSatAssignment:
    def test_parsing(self):
        assert SatAssignment.from_string("TFT").values == (True, False, True)
        assert SatAssignment.from_string("101").values == (True, False, True)
        assert SatAssignment.from_string(" tf ").values == (True, False)
        with pytest.raises(ValueError):
            SatAssignment.from_string("TX")

    def test_true_set(self):
        assert SatAssignment.from_string("TFT").true_set() == Subset(3, [0, 2])
        assert len(SatAssignment((True, False))) == 2


class TestVcReconfigInstance:
    def test_accepts_covers(self):
        vc = VcReconfigInstance(P3, Subset(3, [0, 1]), Subset(3, [1, 2]))
        assert vc.graph is P3

    def test_rejects_non_cover(self):
        # {0} leaves the edge (1,2) uncovered; {1} alone covers the path
        with pytest.raises(ValueError):
            VcReconfigInstance(P3, Subset(3, [0]), Subset(3, [1]))
        with pytest.raises(ValueError):
            VcReconfigInstance(P3, Subset(3, [1]), Subset(3, [2]))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            VcReconfigInstance(P3, Subset(3, [0, 1]), Subset(3, [1]))

    def test_rejects_directed_and_wrong_universe(self):
        directed = WeightedGraph.build(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            VcReconfigInstance(directed, Subset(2, [0]), Subset(2, [1]))
        with pytest.raises(ValueError):
            VcReconfigInstance(P3, Subset(4, [0, 1]), Subset(4, [1, 2]))


class TestCoverExchangeReduction:
    def test_instance_shape(self):
        inst = vc_to_msreco(VcReconfigInstance(P3, Subset(3, [0, 1]), Subset(3, [1, 2])))
        assert inst.rule is AdjacencyRule.TJ
        assert inst.theta == 2.0
        assert inst.cardinality_k == 2

    def test_feasible_states_are_exactly_covers(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 7))
            if not g.edges:
                continue
            k = rng.randint(minimum_cover_size(g), g.n)
            cover = next(
                Subset(g.n, c)
                for c in combinations(range(g.n), k)
                if is_vertex_cover(g, Subset(g.n, c))
            )
            inst = vc_to_msreco(VcReconfigInstance(g, cover, cover))
            for combo in combinations(range(g.n), k):
                s = Subset(g.n, combo)
                feasible = inst.oracle.evaluate(s) >= inst.theta - 1e-9
                assert feasible == is_vertex_cover(g, s)

    def test_yes_instance(self):
        inst = vc_to_msreco(VcReconfigInstance(P3, Subset(3, [0, 1]), Subset(3, [1, 2])))
        result = astar(inst)
        assert result.status == "found"
        assert result.sequence.length == 1
        assert validate_sequence(inst, result.sequence)

    def test_no_instance(self):
        # the two size-2 covers of the 4-cycle cannot exchange one vertex
        inst = vc_to_msreco(VcReconfigInstance(C4, Subset(4, [0, 2]), Subset(4, [1, 3])))
        assert astar(inst).status == "no_path"


class TestMinCoverAddRemoveReduction:
    def test_instance_shape(self):
        inst = minvc_to_usreco_tjar(
            VcReconfigInstance(P4, Subset(4, [1, 2]), Subset(4, [0, 2]))
        )
        assert inst.rule is AdjacencyRule.TJAR
        assert inst.cardinality_k is None
        # |E| - k/2 + n/2 = 3 - 1 + 2
        assert inst.theta == 4.0

    def test_feasible_states_are_exactly_minimum_covers(self):
        rng = random.Random(6)
        checked = 0
        while checked < 25:
            g = random_graph(rng, rng.randint(2, 7))
            if not g.edges:
                continue
            k = minimum_cover_size(g)
            cover = next(
                Subset(g.n, c)
                for c in combinations(range(g.n), k)
                if is_vertex_cover(g, Subset(g.n, c))
            )
            inst = minvc_to_usreco_tjar(VcReconfigInstance(g, cover, cover))
            for mask in range(1 << g.n):
                s = Subset.from_mask(g.n, mask)
                feasible = inst.oracle.evaluate(s) >= inst.theta - 1e-9
                expected = len(s) == k and is_vertex_cover(g, s)
                assert feasible == expected, (g.edges, s)
            checked += 1

    def test_yes_instance(self):
        inst = minvc_to_usreco_tjar(
            VcReconfigInstance(P4, Subset(4, [1, 2]), Subset(4, [0, 2]))
        )
        result = astar(inst)
        assert result.status == "found" and result.sequence.length == 1

    def test_no_instance(self):
        inst = minvc_to_usreco_tjar(
            VcReconfigInstance(C4, Subset(4, [0, 2]), Subset(4, [1, 3]))
        )
        assert astar(inst).status == "no_path"


def gap_instances():
    """Vertex cover reconfiguration instances, each with its yes/no answer.

    The first 8 pairs of minimum covers of each graph of the small family,
    answered by A* under :func:`vc_to_msreco`; then the colour classes of a
    grid and two even cycles (no-instances), and a path whose covers
    exchange (a yes-instance).
    """
    for g in small_graph_family():
        _, covers = covers_of_min_size(g)
        for a, b in list(combinations(covers, 2))[:8]:
            vc = VcReconfigInstance(g, a, b)
            yield vc, astar(vc_to_msreco(vc)).status == "found"
    for g in (grid_graph(4, 4, seed=1), cycle_graph(12, seed=2), cycle_graph(20, seed=3)):
        yield VcReconfigInstance(g, *colour_classes(g)), False
    yield VcReconfigInstance(P4, Subset(4, [0, 2]), Subset(4, [1, 3])), True


class TestOptimumGap:
    """PAPER.md's gap: optimum |E| on yes-instances, at most |E| - 1 on no-instances."""

    def test_cover_exchange_optimum(self):
        answers, values = {True: 0, False: 0}, []
        for vc, yes in gap_instances():
            inst = vc_to_msreco(vc)
            v = optimal_value(inst.oracle, inst.x, inst.y, inst.rule)
            edges = vc.graph.edge_count
            assert v == edges if yes else v <= edges - 1
            answers[yes] += 1
            values.append(v)
        # 106 yes and 3 no from the small family, then the four named instances
        assert answers == {True: 107, False: 6}
        assert values[-4:] == [22, 11, 19, 3]  # 4x4 grid, C_12, C_20, P4

    def test_min_cover_add_remove_optimum(self):
        values = []
        for vc, yes in gap_instances():
            inst = minvc_to_usreco_tjar(vc)
            v = optimal_value(inst.oracle, inst.x, inst.y, inst.rule)
            assert v == inst.theta if yes else v < inst.theta
            values.append((v, inst.theta))
        assert values[-4] == (27.0, 28.0)  # the 4x4 grid


class TestNaeReduction:
    PHI = CnfFormula.monotone3(3, [(0, 1, 2)])

    def test_instance_shape(self):
        inst = nae3sat_to_usreco_tar(
            self.PHI,
            SatAssignment.from_string("TFF"),
            SatAssignment.from_string("FTF"),
        )
        assert inst.rule is AdjacencyRule.TAR
        assert inst.theta == 1.0
        assert inst.x == Subset(3, [0]) and inst.y == Subset(3, [1])

    def test_yes_instance(self):
        inst = nae3sat_to_usreco_tar(
            self.PHI,
            SatAssignment.from_string("TFF"),
            SatAssignment.from_string("FTF"),
        )
        result = astar(inst)
        assert result.status == "found"
        assert result.sequence.length == 2  # flip one variable on, one off

    def test_rejects_non_nae_assignment(self):
        with pytest.raises(ValueError):
            nae3sat_to_usreco_tar(
                self.PHI,
                SatAssignment.from_string("TTT"),
                SatAssignment.from_string("TFF"),
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            nae3sat_to_usreco_tar(
                self.PHI,
                SatAssignment.from_string("TF"),
                SatAssignment.from_string("FT"),
            )

    def test_rejects_non_monotone_formula(self):
        phi = CnfFormula(3, (((0, True), (1, False), (2, True)),))
        with pytest.raises(ValueError):
            nae3sat_to_usreco_tar(
                phi, SatAssignment.from_string("TFF"), SatAssignment.from_string("FTF")
            )

    def test_walks_match_flip_walks(self):
        # two clauses sharing variables; check thresholds pick out exactly
        # the not-all-equal satisfying true-sets
        phi = CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])
        inst = nae3sat_to_usreco_tar(
            phi,
            SatAssignment.from_string("TFFT"),
            SatAssignment.from_string("FTTF"),
        )
        for mask in range(16):
            s = Subset.from_mask(4, mask)
            assign = [v in s for v in range(4)]
            feasible = inst.oracle.evaluate(s) >= inst.theta - 1e-9
            assert feasible == phi.nae_satisfies(assign)


class TestSatToVertexCover:
    # one clause (x0 or x1) gives 2 variable edges, a 2-clique, 2 literal edges
    PHI = CnfFormula(2, (((0, True), (1, True)),))

    def test_graph_shape(self):
        vc = sat_reconfig_to_vc_reconfig(
            self.PHI,
            SatAssignment.from_string("TT"),
            SatAssignment.from_string("TF"),
        )
        assert vc.graph.n == 6
        assert vc.graph.edge_count == 5
        assert set(vc.graph.edges) == {(0, 1), (2, 3), (4, 5), (4, 1), (5, 3)}

    def test_covers_encode_assignments(self):
        vc = sat_reconfig_to_vc_reconfig(
            self.PHI,
            SatAssignment.from_string("TT"),
            SatAssignment.from_string("TF"),
        )
        # complement of {true endpoints} | {first satisfied witness}
        assert vc.cover_x == Subset(6, [1, 3, 5])
        assert vc.cover_y == Subset(6, [1, 2, 5])
        # cover size |V| - m - n
        assert len(vc.cover_x) == 6 - 1 - 2

    def test_composes_with_cover_exchange(self):
        vc = sat_reconfig_to_vc_reconfig(
            self.PHI,
            SatAssignment.from_string("TT"),
            SatAssignment.from_string("TF"),
        )
        inst = vc_to_msreco(vc)
        result = astar(inst)
        assert result.status == "found" and result.sequence.length == 1

    def test_rejects_non_satisfying(self):
        with pytest.raises(ValueError):
            sat_reconfig_to_vc_reconfig(
                self.PHI,
                SatAssignment.from_string("FF"),
                SatAssignment.from_string("TT"),
            )

    def test_rejects_oversized_and_duplicated_clauses(self):
        big = CnfFormula(4, (((0, True), (1, True), (2, True), (3, True)),))
        with pytest.raises(ValueError):
            sat_reconfig_to_vc_reconfig(
                big,
                SatAssignment.from_string("TTTT"),
                SatAssignment.from_string("TTTT"),
            )
        dup = CnfFormula(2, (((0, True), (0, False)),))
        with pytest.raises(ValueError):
            sat_reconfig_to_vc_reconfig(
                dup, SatAssignment.from_string("TF"), SatAssignment.from_string("TF")
            )

    def test_random_formulas_produce_valid_covers(self):
        rng = random.Random(11)
        for _ in range(20):
            n_vars = rng.randint(3, 5)
            clauses = [
                tuple(rng.sample(range(n_vars), 3)) for _ in range(rng.randint(1, 4))
            ]
            phi = CnfFormula.monotone3(n_vars, clauses)
            satisfying = [
                SatAssignment(tuple(bool(m >> i & 1) for i in range(n_vars)))
                for m in range(1 << n_vars)
                if phi.satisfies([bool(m >> i & 1) for i in range(n_vars)])
            ]
            if len(satisfying) < 2:
                continue
            sx, sy = rng.sample(satisfying, 2)
            vc = sat_reconfig_to_vc_reconfig(phi, sx, sy)
            assert is_vertex_cover(vc.graph, vc.cover_x)
            assert is_vertex_cover(vc.graph, vc.cover_y)
            expected_size = vc.graph.n - phi.m - n_vars
            assert len(vc.cover_x) == len(vc.cover_y) == expected_size


class TestInapproxGadget:
    def make(self, upsilon=1.5):
        return inapprox_gadget(modular_oracle([0.3, 0.2]), upsilon)

    def test_endpoint_and_band_values(self):
        gadget = self.make()
        f = gadget.oracle
        assert f.universe.n == 6
        assert gadget.x == Subset(6, [2, 3])
        assert gadget.y == Subset(6, [4, 5])
        assert gadget.rule is AdjacencyRule.TJAR and gadget.theta is None
        assert f.evaluate(gadget.x) == pytest.approx(3.0)  # 2 * upsilon
        assert f.evaluate(gadget.y) == pytest.approx(3.0)
        # one gadget element per side cuts half the edges
        assert f.evaluate(Subset(6, [2, 4])) == pytest.approx(1.5)
        # no gadget element: just the inner function
        assert f.evaluate(Subset(6, [0, 1])) == pytest.approx(0.5)
        assert f.evaluate(Subset(6, [2, 3, 0])) == pytest.approx(3.3)

    def test_optimum_is_pinned_to_the_middle_band(self):
        gadget = self.make()
        v = optimal_value(gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR)
        # upsilon from the best mixed gadget state plus the full inner value
        assert v == pytest.approx(1.5 + 0.5)
        endpoint = min(
            gadget.oracle.evaluate(gadget.x), gadget.oracle.evaluate(gadget.y)
        )
        assert v < 0.75 * endpoint

    def test_scaling_drives_the_ratio_to_one_half(self):
        for upsilon, bound in ((10.0, 0.53), (100.0, 0.503)):
            gadget = inapprox_gadget(modular_oracle([0.3, 0.2]), upsilon)
            v = optimal_value(gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR)
            endpoint = min(
                gadget.oracle.evaluate(gadget.x), gadget.oracle.evaluate(gadget.y)
            )
            assert 0.5 < v / endpoint < bound

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(upsilon=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                self.make(upsilon=bad)
        plain = SetFunctionOracle(lambda mask: float(mask.bit_count()), GroundSet(2))
        with pytest.raises(ValueError):
            inapprox_gadget(plain, 1.0)


class TestObs52:
    def test_exact_optimum_uses_the_outside_element(self):
        inst = obs52_instance()
        v, seq = optimal_sequence(inst.oracle, inst.x, inst.y, inst.rule)
        assert v == 1.0
        assert any(4 in s for s in seq)

    def test_restricted_and_swap_values_drop(self):
        inst = obs52_instance()
        restricted = optimal_value(
            inst.oracle, inst.x, inst.y, inst.rule, restriction=inst.x | inst.y
        )
        assert restricted == 0.75
        seq = swap_reconfigure(inst.oracle, inst.x, inst.y)
        assert seq == ReconfigSequence(
            [Subset(5, [0, 1]), Subset(5, [0, 2]), Subset(5, [2, 3])]
        )
        assert sequence_value(inst.oracle, seq) == 0.75


class TestObs54:
    @pytest.mark.parametrize("n", [8, 16])
    def test_separates_the_two_algorithms(self, n):
        inst = obs54_instance(n)
        fx = inst.oracle.evaluate(inst.x)
        fy = inst.oracle.evaluate(inst.y)
        assert fx == fy == pytest.approx(sum(1.0 / (i + 1) for i in range(n // 2)))
        down_up = tjar_reconfigure(inst.oracle, inst.x, inst.y)
        assert sequence_value(inst.oracle, down_up) == pytest.approx(1.0)
        assert validate_sequence(
            ProblemInstance(inst.oracle, inst.x, inst.y, AdjacencyRule.TJAR), down_up
        )
        exchange = swap_reconfigure(inst.oracle, inst.x, inst.y)
        assert sequence_value(inst.oracle, exchange) == pytest.approx(0.0)

    def test_validation(self):
        for bad in (0, 6, -4):
            with pytest.raises(ValueError):
                obs54_instance(bad)


class TestObs55:
    def test_add_remove_optimum_is_zero_despite_good_endpoints(self):
        inst = obs55_instance()
        assert inst.oracle.evaluate(inst.x) == 1.0
        assert inst.oracle.evaluate(inst.y) == 1.0
        assert optimal_value(inst.oracle, inst.x, inst.y, inst.rule) == 0.0

    def test_search_confirms_both_sides_of_the_threshold(self):
        inst = obs55_instance()
        blocked = ProblemInstance(inst.oracle, inst.x, inst.y, inst.rule, theta=0.5)
        assert astar(blocked).status == "no_path"
        open_inst = ProblemInstance(inst.oracle, inst.x, inst.y, inst.rule, theta=0.0)
        result = astar(open_inst)
        assert result.status == "found"
        assert result.sequence == ReconfigSequence(
            [Subset(2, [0]), Subset(2, [0, 1]), Subset(2, [1])]
        )
