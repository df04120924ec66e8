"""On-disk formats: edge lists, gram matrices, CNF, samples, and instances."""

import math
import pickle
import re
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subreco import (
    AdjacencyRule,
    CnfFormula,
    CoverageSpec,
    GramMatrix,
    InstanceParseError,
    ProblemInstance,
    ReconfigSequence,
    Subset,
    UniverseMismatchError,
    WeightedGraph,
    coverage_oracle,
    cut_oracle,
    format_ids_1indexed,
    incidence_oracle,
    inapprox_gadget,
    influence_oracle,
    inverse_indegree_probabilities,
    load_cnf,
    load_edge_list,
    load_gram,
    load_instance,
    load_rr_collection,
    load_sequence_csv,
    logdet_oracle,
    make_synthetic_gram,
    modular_oracle,
    nae_clause_oracle,
    parse_ids_1indexed,
    sample_rr_sets,
    save_rr_collection,
    shifted_incidence_oracle,
    write_cnf,
    write_edge_list,
    write_gram,
    write_instance,
    write_sequence_csv,
)
from subreco.fileio import _KINDS, _REPEATABLE


def assert_same_values(f, g, masks=None):
    n = f.universe.n
    assert g.universe.n == n
    if masks is None:
        masks = range(min(1 << n, 64))
    for mask in masks:
        s = Subset.from_mask(n, mask)
        assert g.evaluate(s) == pytest.approx(f.evaluate(s)), s


class TestIdFormatting:
    def test_round_trip(self):
        s = Subset(6, [0, 2, 5])
        assert format_ids_1indexed(s) == "{1,3,6}"
        assert parse_ids_1indexed("{1,3,6}", 6) == s
        assert parse_ids_1indexed("1 3 6", 6) == s
        assert parse_ids_1indexed("{}", 4) == Subset.empty(4)

    def test_parse_round_trip(self):
        for members in [(), (0,), (0, 2, 4)]:
            s = Subset(5, members)
            assert parse_ids_1indexed(format_ids_1indexed(s), 5) == s
        assert parse_ids_1indexed("2, 4", 4) == Subset(4, [1, 3])
        with pytest.raises(UniverseMismatchError, match="element 7 outside 1..4"):
            parse_ids_1indexed("{7}", 4)


class TestEdgeList:
    def test_basic(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("% comment\n1 2\n2 3 0.5\n\n% n 4\n")
        g = load_edge_list(p)
        assert g.n == 4  # header beats the largest id
        assert g.edges == ((0, 1), (1, 2))
        assert g.weights == (1.0, 0.5)
        assert not g.directed

    def test_header_smaller_than_ids_is_ignored(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("% n 2\n1 5\n")
        assert load_edge_list(p).n == 5

    def test_karate_fixture(self, data_dir):
        g = load_edge_list(data_dir / "karate.tsv")
        assert g.n == 34
        assert g.edge_count == 78
        assert all(w == 1.0 for w in g.weights)

    def test_karate_inverse_indegree(self, data_dir):
        g = load_edge_list(data_dir / "karate.tsv", probability_mode="inverse-in-degree")
        assert g.directed and g.edge_count == 156
        # every vertex's incoming probabilities sum to one
        assert sum(g.probabilities) == pytest.approx(34.0)

    def test_given_probabilities(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("1 2 0.25\n")
        g = load_edge_list(p, probability_mode="given")
        # undirected rows expand to opposite arc pairs
        assert g.directed and g.edges == ((0, 1), (1, 0))
        assert g.probabilities == (0.25, 0.25)
        p.write_text("1 2 0\n2 3 1\n")
        assert load_edge_list(p, probability_mode="given").probabilities == (0, 0, 1, 1)
        p2 = tmp_path / "missing.tsv"
        p2.write_text("1 2\n")
        with pytest.raises(InstanceParseError):
            load_edge_list(p2, probability_mode="given")

    def test_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("1 2\nnonsense tokens here extra\n")
        with pytest.raises(InstanceParseError) as exc:
            load_edge_list(p)
        assert exc.value.line == 2
        p.write_text("1 two\n")
        with pytest.raises(InstanceParseError):
            load_edge_list(p)
        p.write_text("0 1\n")
        with pytest.raises(InstanceParseError):
            load_edge_list(p)
        p.write_text("1 2\n3 3\n")
        with pytest.raises(InstanceParseError, match="self-loop at 3 not"):
            load_edge_list(p)

    def test_empty_needs_header(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("% nothing here\n")
        with pytest.raises(InstanceParseError):
            load_edge_list(p)
        p.write_text("% n 3\n")
        g = load_edge_list(p)
        assert g.n == 3 and g.edge_count == 0

    def test_unknown_mode(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("1 2\n")
        with pytest.raises(ValueError):
            load_edge_list(p, probability_mode="guess")

    def test_write_round_trip(self, tmp_path):
        g = WeightedGraph.build(4, [(0, 1), (1, 2, 2.5), (2, 3)])
        p = tmp_path / "g.tsv"
        write_edge_list(p, g, comment="for a test")
        back = load_edge_list(p)
        assert back == g

    def test_write_round_trip_with_probabilities(self, tmp_path):
        g = WeightedGraph.build(
            3, [(0, 1), (1, 2)], directed=True, probabilities=[0.2, 0.7]
        )
        p = tmp_path / "g.tsv"
        write_edge_list(p, g)
        back = load_edge_list(p, directed=True, probability_mode="given")
        assert back == g


class TestGram:
    def test_round_trip_is_exact(self, tmp_path):
        gram = make_synthetic_gram(5, seed=3)
        p = tmp_path / "m.gram"
        write_gram(p, gram)
        back = load_gram(p)
        assert np.array_equal(back.a, gram.a)

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "not-a-number\n",
            "2\n1.0 0.0\n",
            "2\n1.0 0.0 0.0\n0.0 1.0 0.0\n",
            "2\n1.0 x\n0.0 1.0\n",
            "2\n1.0 0.5\n0.4 1.0\n",
            "2\n1.0 nan\nnan 1.0\n",
            "2\ninf 0.0\n0.0 1.0\n",
        ],
    )
    def test_malformed(self, tmp_path, content):
        p = tmp_path / "m.gram"
        p.write_text(content)
        with pytest.raises(InstanceParseError):
            load_gram(p)


class TestCnf:
    def test_round_trip(self, tmp_path):
        phi = CnfFormula(
            3, (((0, True), (1, False)), ((2, True), (0, False), (1, True)))
        )
        p = tmp_path / "f.cnf"
        write_cnf(p, phi)
        assert load_cnf(p) == phi

    def test_dimacs_quirks(self, tmp_path):
        p = tmp_path / "f.cnf"
        p.write_text("c comment\np cnf 3 2\n1 -2 0 3\n1\n")
        phi = load_cnf(p)
        # clauses may span lines; the final clause may omit its terminator
        assert phi.clauses == (
            ((0, True), (1, False)),
            ((2, True), (0, True)),
        )

    @pytest.mark.parametrize(
        "content",
        [
            "1 2 0\n",
            "p cnf 2\n1 2 0\n",
            "p cnf 2 2\n1 2 0\n",
            "p cnf 1 1\n2 0\n",
            "p cnf 2 1\n1 x 0\n",
        ],
    )
    def test_malformed(self, tmp_path, content):
        p = tmp_path / "f.cnf"
        p.write_text(content)
        with pytest.raises(InstanceParseError):
            load_cnf(p)


class TestRrCollection:
    def make(self, seed=4):
        g = WeightedGraph.build(
            4,
            [(0, 1), (1, 2), (2, 3)],
            directed=True,
            probabilities=[0.9, 0.5, 0.1],
        )
        return sample_rr_sets(g, 25, seed=seed)

    def test_round_trip(self, tmp_path):
        # a seed with more than 4,300 decimal digits is written in hex
        for seed, header in [(4, "4 25 4"), (2**20000 + 3, f"4 25 {2**20000 + 3:#x}")]:
            rr = self.make(seed)
            p = tmp_path / "sample.rr"
            save_rr_collection(p, rr)
            assert p.read_text().startswith(header + "\n")
            back = load_rr_collection(p)
            assert back == rr

    # the text written for make() before the sets were stored packed; a drift
    # in the format would still survive a save/load round trip
    TEXT = """\
        4 25 4
        1 2
        1 2 3
        1
        2 3
        1 2 3
        2
        1
        3
        1 2 3
        1 2
        1 2
        4
        1
        1 2
        3
        1 2
        3
        3
        3
        1 2 3
        4
        1
        4
        1 2 3
        1 2
"""

    def test_text_is_pinned(self, tmp_path):
        p = tmp_path / "sample.rr"
        save_rr_collection(p, self.make())
        assert p.read_text() == textwrap.dedent(self.TEXT)

    def test_files_with_a_graph_comment_still_load(self, tmp_path):
        # files written before the source-graph digest was dropped carry it
        # as a comment after the header
        header, rest = textwrap.dedent(self.TEXT).split("\n", 1)
        p = tmp_path / "sample.rr"
        p.write_text(f"{header}\n% graph {'9f76' * 16}\n{rest}")
        assert load_rr_collection(p) == self.make()

    def test_round_trip_preserves_oracle(self, tmp_path):
        rr = self.make()
        p = tmp_path / "sample.rr"
        save_rr_collection(p, rr)
        assert_same_values(influence_oracle(rr), influence_oracle(load_rr_collection(p)))

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "3 2\n1\n2\n",
            "3 2 0\n1\n",
            "3 1 0\nx\n",
            "3 0 5\n",
            "0 1 5\n1\n",
            "3 1 x\n1\n",
            "3 1 0\n4\n",
        ],
    )
    def test_malformed(self, tmp_path, content):
        p = tmp_path / "sample.rr"
        p.write_text(content)
        with pytest.raises(InstanceParseError):
            load_rr_collection(p)


class TestInstanceFiles:
    def roundtrip(self, tmp_path, oracle, x, y, rule, **theta):
        p = tmp_path / "case.instance"
        write_instance(p, oracle, x, y, rule, **theta)
        return p, load_instance(p)

    def test_coverage(self, tmp_path):
        f = coverage_oracle(CoverageSpec(4, ((0, 1), (1, 2), (3,)), divisor=2.0))
        p, inst = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ,
            theta=0.5,
        )
        assert inst.x == Subset(3, [0]) and inst.y == Subset(3, [2])
        assert inst.rule is AdjacencyRule.TJ
        assert inst.theta == 0.5
        assert_same_values(f, inst.oracle)

    def test_modular(self, tmp_path):
        f = modular_oracle([1.5, 0.0, 2.0])
        _, inst = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TAR
        )
        assert inst.theta is None
        assert_same_values(f, inst.oracle)

    @pytest.mark.parametrize("maker", [cut_oracle, incidence_oracle, shifted_incidence_oracle])
    def test_graph_kinds(self, tmp_path, maker):
        # these oracles ignore probabilities, so none may be written as a weight
        f = maker(
            WeightedGraph.build(
                4, [(0, 1), (1, 2, 2.0), (2, 3)], probabilities=[0.5, 0.5, 0.5]
            )
        )
        _, inst = self.roundtrip(
            tmp_path, f, Subset(4, [0, 2]), Subset(4, [1, 3]), AdjacencyRule.TJAR
        )
        assert_same_values(f, inst.oracle)

    def test_nae(self, tmp_path):
        f = nae_clause_oracle(CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)]))
        _, inst = self.roundtrip(
            tmp_path, f, Subset(4, [0]), Subset(4, [3]), AdjacencyRule.TAR,
            theta=2.0,
        )
        assert_same_values(f, inst.oracle)

    def test_logdet_writes_sibling_gram(self, tmp_path):
        f = logdet_oracle(make_synthetic_gram(4, seed=1))
        p, inst = self.roundtrip(
            tmp_path, f, Subset(4, [0]), Subset(4, [3]), AdjacencyRule.TJAR
        )
        assert (tmp_path / "case.gram").exists()
        assert_same_values(f, inst.oracle)

    def test_influence_writes_sibling_rr(self, tmp_path):
        g = WeightedGraph.build(
            3, [(0, 1), (1, 2)], directed=True, probabilities=[0.8, 0.4]
        )
        f = influence_oracle(sample_rr_sets(g, 40, seed=2))
        p, inst = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJAR
        )
        assert (tmp_path / "case.rr").exists()
        assert_same_values(f, inst.oracle)

    def test_influence_from_graph_file(self, tmp_path):
        g = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        write_edge_list(tmp_path / "net.tsv", g)
        (tmp_path / "case.instance").write_text(
            "[oracle]\n"
            "kind influence\n"
            "graph-file net.tsv\n"
            "rr-count 30\n"
            "seed 12\n"
            "\n[endpoints]\nx 1\ny 4\n\n[rule]\ntj\n"
        )
        inst = load_instance(tmp_path / "case.instance")
        expected = influence_oracle(
            sample_rr_sets(inverse_indegree_probabilities(g), 30, 12)
        )
        assert_same_values(expected, inst.oracle, masks=range(16))

    @pytest.mark.parametrize(
        "maker", [cut_oracle, incidence_oracle, shifted_incidence_oracle, nae_clause_oracle]
    )
    def test_data_file_form_gives_the_inline_values(self, tmp_path, maker):
        g = WeightedGraph.build(4, [(0, 1), (1, 2, 2.0), (2, 3), (0, 3, 0.5)])
        phi = CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])
        write_edge_list(tmp_path / "net.tsv", g)
        write_cnf(tmp_path / "f.cnf", phi)
        nae = maker is nae_clause_oracle
        f = maker(phi if nae else g)
        _, inline = self.roundtrip(tmp_path, f, Subset(4, [0]), Subset(4, [3]), AdjacencyRule.TAR)
        directive = "cnf-file f.cnf" if nae else "graph-file net.tsv"
        p = tmp_path / "file.instance"
        p.write_text(f"[oracle]\nkind {f.serial[0]}\n{directive}\n" + _TAIL)
        # every one of the 16 masks
        assert_same_values(inline.oracle, load_instance(p).oracle)

    def test_gadget(self, tmp_path):
        gadget = inapprox_gadget(modular_oracle([0.3, 0.2]), 1.5)
        _, inst = self.roundtrip(
            tmp_path, gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR
        )
        assert_same_values(gadget.oracle, inst.oracle)

    def test_gadget_round_trip_without_patching(self, tmp_path):
        gadget = inapprox_gadget(modular_oracle([1, 2]), 6)
        p = tmp_path / "gadget.instance"
        write_instance(p, gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR)
        inst = load_instance(p)
        assert (inst.x, inst.y) == (gadget.x, gadget.y)
        assert_same_values(gadget.oracle, inst.oracle)

    def test_gadget_refuses_a_second_weights_line(self, tmp_path):
        gadget = inapprox_gadget(modular_oracle([0.3, 0.2]), 1.5)
        p = tmp_path / "gadget.instance"
        write_instance(p, gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR)
        text = p.read_text()
        p.write_text(text.replace("\n\n[endpoints]", "\nweights 9.0 9.0\n\n[endpoints]", 1))
        with pytest.raises(InstanceParseError) as exc:
            load_instance(p)
        assert str(exc.value) == f"{p}:5: second 'weights' line in [oracle]"

    def test_to_problem_instance_defaults(self, tmp_path):
        f = modular_oracle([3.0, 1.0, 2.0])
        _, inst = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ,
            theta=1.5,
        )
        assert isinstance(inst, ProblemInstance)
        assert inst.theta == 1.5
        assert inst.cardinality_k == 1  # implied by the exchange rule

    def test_write_problem_instance(self, tmp_path):
        inst = ProblemInstance(
            modular_oracle([1.0, 2.0]),
            Subset(2, [0]),
            Subset(2, [1]),
            AdjacencyRule.TAR,
            theta=0.75,
        )
        p = tmp_path / "case.instance"
        write_instance(p, inst.oracle, inst.x, inst.y, inst.rule, theta=inst.theta)
        back = load_instance(p)
        assert back.theta == 0.75 and back.cardinality_k is None
        assert back.x == inst.x and back.y == inst.y and back.rule is inst.rule

    def test_theta_fraction_is_a_run_option(self, tmp_path):
        p = tmp_path / "case.instance"
        p.write_text("[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[theta]\nfrac 0.5\n")
        with pytest.raises(InstanceParseError, match="--theta-frac") as exc:
            load_instance(p)
        assert exc.value.line == 13

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_refused_before_writing(self, tmp_path, theta):
        # load_instance refuses a non-finite number, so no file may hold one
        f = logdet_oracle(make_synthetic_gram(2, seed=1))
        p = tmp_path / "case.instance"
        with pytest.raises(ValueError, match="theta must be finite"):
            write_instance(p, f, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR, theta=theta)
        assert list(tmp_path.iterdir()) == []

    def test_instance_named_as_its_data_file_is_refused(self, tmp_path):
        # the sibling data file would overwrite the instance path itself
        g = WeightedGraph.build(2, [(0, 1)], directed=True, probabilities=[0.5])
        cases = [
            ("m.gram", logdet_oracle(make_synthetic_gram(2, seed=1)), "gram-file"),
            ("x.rr", influence_oracle(sample_rr_sets(g, 10, seed=2)), "rr-file"),
        ]
        for name, f, directive in cases:
            with pytest.raises(ValueError, match=f"would be its own {directive}"):
                write_instance(
                    tmp_path / name, f, Subset(2, [0]), Subset(2, [1]), AdjacencyRule.TAR
                )
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_oracle(self, tmp_path):
        from subreco import GroundSet, SetFunctionOracle

        f = SetFunctionOracle(lambda mask: 0.0, GroundSet(2))
        with pytest.raises(ValueError):
            write_instance(
                tmp_path / "x.instance", f, Subset(2, [0]), Subset(2, [1]),
                AdjacencyRule.TAR,
            )

    @pytest.mark.parametrize(
        "content",
        [
            "[endpoints]\nx 1\ny 2\n\n[rule]\ntj\n",
            "[oracle]\nkind modular\nweights 1.0 2.0\n\n[rule]\ntar\n",
            "[oracle]\nkind modular\nweights 1.0 2.0\n\n[endpoints]\nx 1\ny 2\n",
            "kind modular\n",
            "[oracle]\nkind mystery\n\n[endpoints]\nx 1\ny 2\n\n[rule]\ntar\n",
            "[oracle]\nkind modular\nweights 1.0\n\n[endpoints]\nx 1\nz 1\n\n[rule]\ntar\n",
            "[oracle]\nkind modular\nweights 1.0\n\n[endpoints]\nx 1\ny 1\n\n[rule]\nhop\n",
            "[oracle]\nkind modular\nweights 1.0\n\n[endpoints]\nx 1\ny 1\n\n[rule]\ntar\n\n[theta]\nmaybe 1\n",
            "[oracle]\nkind modular\nweights 1.0 2.0\n\n[endpoints]\nx 5\ny 1\n\n[rule]\ntar\n",
        ],
    )
    def test_malformed(self, tmp_path, content):
        p = tmp_path / "case.instance"
        p.write_text(content)
        with pytest.raises(InstanceParseError):
            load_instance(p)


    @pytest.mark.parametrize("word", ["true", "TRUE", "True", "false", "FALSE"])
    def test_influence_directed_is_true_or_false_in_any_case(self, tmp_path, word):
        g = WeightedGraph.build(2, [(0, 1)])
        write_edge_list(tmp_path / "net.tsv", g)
        (tmp_path / "case.instance").write_text(
            f"[oracle]\nkind influence\ngraph-file net.tsv\ndirected {word}\n"
            "rr-count 50\nseed 3\n\n[endpoints]\nx 1\ny 2\n\n[rule]\ntar\n"
        )
        directed = word.lower() == "true"
        expected = influence_oracle(
            sample_rr_sets(inverse_indegree_probabilities(replace(g, directed=directed)), 50, 3)
        )
        assert_same_values(expected, load_instance(tmp_path / "case.instance").oracle)

    def test_gadget_around_a_coverage_oracle_is_refused(self, tmp_path):
        inner = coverage_oracle(CoverageSpec(2, ((0,), (1,))))
        gadget = inapprox_gadget(inner, 3.0)
        assert gadget.oracle.serial == ("gadget", (3.0, inner.serial))
        with pytest.raises(ValueError, match="only around a modular oracle, not 'coverage'"):
            write_instance(
                tmp_path / "case.instance", gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR
            )
        assert list(tmp_path.iterdir()) == []


def _graphs(max_n, directed=False):
    """Graphs on up to ``max_n`` vertices with unit or drawn weights and, so a
    writer must drop them, drawn probabilities."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        ids = st.integers(0, n - 1)
        pair = st.tuples(ids, ids).filter(lambda e: e[0] != e[1])
        pairs = draw(st.lists(pair, max_size=16))
        size = dict(min_size=len(pairs), max_size=len(pairs))
        weights = draw(st.lists(st.sampled_from([1.0, 0.0, 2.5]) | st.floats(0, 1e6), **size))
        probabilities = draw(st.lists(st.floats(0, 1), **size))
        edges = [(u, v, w) for (u, v), w in zip(pairs, weights)]
        return WeightedGraph.build(n, edges, directed=directed, probabilities=probabilities)

    return build()


_REALS = st.floats(-1e6, 1e6, allow_nan=False)
_COVERS = st.integers(0, 8).flatmap(
    lambda items: st.builds(
        CoverageSpec,
        st.just(items),
        st.lists(st.lists(st.integers(0, items - 1)) if items else st.just([]), max_size=12),
        st.floats(0.01, 100),
    )
)
_TRIPLES = st.integers(3, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)),
    )
)
# one strategy per _KINDS row, each drawing oracles of at most 12 elements
KIND_ORACLES = {
    "coverage": _COVERS.map(coverage_oracle),
    "modular": st.lists(_REALS, max_size=12).map(modular_oracle),
    "cut": _graphs(12).map(cut_oracle),
    "incidence": _graphs(12).map(incidence_oracle),
    "shifted-incidence": _graphs(12).map(shifted_incidence_oracle),
    "nae": _TRIPLES.map(lambda t: nae_clause_oracle(CnfFormula.monotone3(*t))),
    "logdet": st.builds(make_synthetic_gram, st.integers(1, 8), seed=st.integers(0, 99)).map(
        logdet_oracle
    ),
    "influence": st.builds(
        sample_rr_sets, _graphs(12, directed=True), st.integers(1, 30), st.integers(-5, 2**70)
    ).map(influence_oracle),
    "gadget": st.builds(
        inapprox_gadget,
        st.lists(st.floats(0, 1e6), max_size=8).map(modular_oracle),
        st.floats(1e-3, 1e9),
    ).map(lambda inst: inst.oracle),
}


class TestEveryKindRoundTrips:
    def test_every_kind_has_a_strategy(self):
        assert set(KIND_ORACLES) == set(_KINDS)

    def test_readme_lists_each_kinds_directives(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        listed = {
            kind: directives
            for kinds, directives in re.findall(r"^  \| (`[a-z`, -]+`) \| (.+) \|$", readme, re.M)
            for kind in re.findall(r"`([a-z-]+)`", kinds)
        }
        listed.pop("kind")  # the header row
        assert listed == {
            kind: ", ".join(f"`{d}`" + "*" * (d in _REPEATABLE) for d in row[0].split())
            for kind, row in _KINDS.items()
        }

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_write_load_write(self, kind):
        """Write, load and write again: the same files byte for byte, the same
        name, and the same value on every mask to the last bit."""

        @settings(max_examples=15, deadline=None)
        @given(KIND_ORACLES[kind])
        def check(f):
            n = f.universe.n
            x, y = Subset(n, range(n)), Subset(n, [])
            with tempfile.TemporaryDirectory() as tmp:
                first, second = Path(tmp, "first"), Path(tmp, "second")
                first.mkdir()
                second.mkdir()
                write_instance(first / "case.instance", f, x, y, AdjacencyRule.TAR)
                back = load_instance(first / "case.instance").oracle
                write_instance(second / "case.instance", back, x, y, AdjacencyRule.TAR)
                texts = [
                    {q.name: q.read_bytes() for q in d.iterdir()} for d in (first, second)
                ]
            assert texts[0] == texts[1]
            assert back.serial[0] == kind and back.name == f.name
            masks = np.arange(1 << n)
            assert [v.hex() for v in back.evaluate_many(masks).tolist()] == [
                v.hex() for v in f.evaluate_many(masks).tolist()
            ]

        check()


# the [oracle] lines each kind's writer emitted before the kinds shared one
# table; write_instance adds the tail below
PINNED_ORACLE_LINES = {
    "coverage": "kind coverage\nn 3\nitems 3\ndivisor 2.0\ncover 1 2\ncover\ncover 3\n",
    "modular": "kind modular\nweights 1.5 -0.25 0.0\n",
    "cut": "kind cut\nn 3\nedge 1 2\nedge 2 3 2.5\n",
    "incidence": "kind incidence\nn 3\nedge 1 2\nedge 2 3 2.5\n",
    "shifted-incidence": "kind shifted-incidence\nn 3\nedge 1 2\nedge 2 3 2.5\n",
    "nae": "kind nae\nn 4\nclause 1 2 3\nclause 2 3 4\n",
    "logdet": "kind logdet\ngram-file case.gram\n",
    "influence": "kind influence\nrr-file case.rr\n",
    "gadget": "kind gadget\nupsilon 6.0\nweights 0.5 1.25\n",
}


class TestFormatIsPinned:
    GRAPH = WeightedGraph.build(3, [(0, 1), (1, 2, 2.5)], probabilities=[0.5, 0.25])
    ORACLES = {
        "coverage": lambda: coverage_oracle(CoverageSpec(3, ((0, 1), (), (2,)), divisor=2.0)),
        "modular": lambda: modular_oracle([1.5, -0.25, 0.0]),
        "cut": lambda: cut_oracle(TestFormatIsPinned.GRAPH),
        "incidence": lambda: incidence_oracle(TestFormatIsPinned.GRAPH),
        "shifted-incidence": lambda: shifted_incidence_oracle(TestFormatIsPinned.GRAPH),
        "nae": lambda: nae_clause_oracle(CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])),
        "logdet": lambda: logdet_oracle(GramMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))),
        "influence": lambda: influence_oracle(TestRrCollection().make()),
        "gadget": lambda: inapprox_gadget(modular_oracle([0.5, 1.25]), 6.0).oracle,
    }
    SIBLINGS = {
        "logdet": {"case.gram": "2\n2.0 0.5\n0.5 1.0\n"},
        "influence": {"case.rr": textwrap.dedent(TestRrCollection.TEXT)},
    }

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_text_is_pinned(self, tmp_path, kind):
        f = self.ORACLES[kind]()
        n = f.universe.n
        write_instance(
            tmp_path / "case.inst", f, Subset(n, [0]), Subset(n, [n - 1]), AdjacencyRule.TJAR,
            theta=0.5,
        )
        instance = (
            f"[oracle]\n{PINNED_ORACLE_LINES[kind]}\n[endpoints]\nx 1\ny {n}\n\n"
            "[rule]\ntjar\n\n[theta]\nvalue 0.5\n"
        )
        assert {q.name: q.read_text() for q in tmp_path.iterdir()} == {
            "case.inst": instance, **self.SIBLINGS.get(kind, {})
        }


_TAIL = "\n[endpoints]\nx 1\ny 2\n\n[rule]\ntar\n"


class TestParseErrorsNameTheLine:
    LOADERS = {
        "case.instance": load_instance,
        "seq.csv": lambda p: load_sequence_csv(p, 4),
        "g.tsv": load_edge_list,
        "given.tsv": lambda p: load_edge_list(p, probability_mode="given"),
        "f.cnf": load_cnf,
        "m.gram": load_gram,
        "s.rr": load_rr_collection,
    }

    @pytest.mark.parametrize(
        "name, content, line",
        [
            ("case.instance", "[oracle]\nkind modular\nweights 1 2 x\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind cut\nn abc\nedge 1 2\n" + _TAIL, 3),
            (
                "case.instance",
                "[oracle]\nkind coverage\nn 2\nitems 2\ndivisor half\ncover 1\ncover 2\n"
                + _TAIL,
                5,
            ),
            ("case.instance", "[oracle]\nkind gadget\nupsilon big\nweights 1 2\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 b\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2 heavy\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind nae\nn 3\nclause 1 2 z\n" + _TAIL, 4),
            (
                "case.instance",
                "[oracle]\nkind coverage\nn 2\nitems 2\ncover 1\ncover 2 9\n" + _TAIL,
                6,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\nx 1\ny q\n"
                "\n[rule]\ntar\n",
                7,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[theta]\nvalue abc\n",
                13,
            ),
            ("seq.csv", 'index,set,value\n0,"{1,2}",1.0\n1,"{1,x}",2.0\n', 3),
            ("seq.csv", 'index,set,value\n0,"{1,2}",1.0\n1,"{1,9}",2.0\n', 3),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 9\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind nae\nn 3\nclause 1 2 9\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 1\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2 -1\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind nae\nn 3\nclause 1 2 3 3\n" + _TAIL, 4),
            (
                "case.instance",
                "[oracle]\nkind coverage\nn 2\nitems 2\ndivisor 0\ncover 1\ncover 2\n"
                + _TAIL,
                5,
            ),
            ("g.tsv", "1 2\n% n abc\n", 2),
            ("g.tsv", "% n -1\n", 1),
            ("g.tsv", "1 2\n1 1\n", 2),
            ("g.tsv", "1 2\n2 3 -1\n", 2),
            ("g.tsv", "1 2\n2 3 nan\n", 2),
            ("given.tsv", "1 2 0.5\n2 3 1.5\n", 2),
            ("given.tsv", "1 2 0.5\n2 3\n", 2),
            ("f.cnf", "c x\np cnf x 1\n1 0\n", 2),
            ("f.cnf", "p cnf 2 1\n1\n-3 0\n", 3),
            ("f.cnf", "p cnf 2 2\n1 2 0\n", 1),
            ("m.gram", "2\n1.0 0.0\n0.0 nan\n", 3),
            ("s.rr", "3 1 x\n1\n", 1),
            ("s.rr", "% graph abc\n3 0 5\n", 2),
            ("s.rr", "3 2 5\n1\n", 1),
            ("s.rr", "3 2 5\n1\n2 4\n", 3),
            ("case.instance", "[oracle]\nkind modular\nweights 1 nan\n" + _TAIL, 3),
            (
                "case.instance",
                "[oracle]\nkind coverage\nn 2\nitems 2\ndivisor inf\ncover 1\ncover 2\n"
                + _TAIL,
                5,
            ),
            ("case.instance", "[oracle]\nkind gadget\nupsilon nan\nweights 1 2\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2 nan\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2 -inf\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2 3 4\n" + _TAIL, 4),
            (
                "case.instance",
                "[oracle]\nkind cut\nn 10000000000000000000000\nedge 1 2\n" + _TAIL,
                3,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[theta]\nvalue inf\n",
                13,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[theta]\nfrac nan\n",
                13,
            ),
            ("g.tsv", "1 2 inf\n", 1),
            ("given.tsv", "1 2 0.5\n2 3 nan\n", 2),
            ("s.rr", "3 1 0xz\n1\n", 1),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\nx 1\nx 2\ny 2\n"
                "\n[rule]\ntar\n",
                7,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\ny 2\nx 1\ny 1\n"
                "\n[rule]\ntar\n",
                8,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[theta]\nvalue 1\nnone\n",
                14,
            ),
            (
                "case.instance",
                "[oracle]\nkind coverage\nn 2\nitems 2\ndivsor 2\ncover 1\ncover 2\n"
                + _TAIL,
                5,
            ),
            ("case.instance", "[oracle]\nkind modular\nweights 1 2\nn 2\n" + _TAIL, 4),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2\nweights 1\n" + _TAIL, 5),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[rules]\ntj\n",
                12,
            ),
            ("case.instance", "[oracle]\nkind modular\nweights 1 2\n\n[typo]\n" + _TAIL, 5),
            (
                "case.instance",
                "[oracle]\nkind coverage\nn 2\nitems 2\ndivisor 2\ndivisor 4\ncover 1\n"
                "cover 2\n" + _TAIL,
                6,
            ),
            ("case.instance", "[oracle]\nkind modular\nkind cut\nweights 1 2\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind cut\nn 2\nedge 1 2\nn 3\n" + _TAIL, 5),
            (
                "case.instance",
                "[oracle]\nkind gadget\nupsilon 1\nweights 1 2\nupsilon 2\n" + _TAIL,
                5,
            ),
            (
                "case.instance",
                "[oracle]\nkind influence\nrr-file a.rr\nrr-file b.rr\n" + _TAIL,
                4,
            ),
            ("case.instance", "[oracle]\nkind modular\nweights 1 2\nweights 3 4\n" + _TAIL, 4),
            (
                "case.instance",
                "[oracle]\nkind gadget\nupsilon 1\nweights 1 2\nweights 3 4\n" + _TAIL,
                5,
            ),
            ("case.instance", "[oracle]\nkind gadget\nweights 1 2\n" + _TAIL, 0),
            ("case.instance", "[oracle]\nkind cut\nn -1\n" + _TAIL, 2),
            ("case.instance", "[oracle]\nkind nae\nn -3\n" + _TAIL, 2),
            ("case.instance", "[oracle]\nkind gadget\nupsilon -1\nweights 1 2\n" + _TAIL, 2),
            (
                "case.instance",
                "[oracle]\nkind influence\ngraph-file net.tsv\nrr-count 0\nseed 1\n" + _TAIL,
                2,
            ),
            (
                "case.instance",
                "[oracle]\nkind influence\ngraph-file net.tsv\nprobability bogus\n"
                "rr-count 5\nseed 1\n" + _TAIL,
                2,
            ),
            (
                "case.instance",
                "[oracle]\nkind influence\ngraph-file net.tsv\ndirected yes\nrr-count 5\n"
                "seed 1\n" + _TAIL,
                4,
            ),
            ("case.instance", "[oracle]\nkind logdet\ngram-file missing.gram\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind cut\ngraph-file missing.tsv\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind nae\ncnf-file missing.cnf\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind influence\nrr-file missing.rr\n" + _TAIL, 3),
            (
                "case.instance",
                "[oracle]\nkind influence\ngraph-file .\nrr-count 5\nseed 1\n" + _TAIL,
                3,
            ),
            ("case.instance", "[oracle]\nkind coverage\nn 3 4\nitems 2\n" + _TAIL, 3),
            ("case.instance", "[oracle]\nkind logdet\n" + _TAIL, 0),
            ("case.instance", "[oracle]\nkind coverage\nn 2\nitems 2\ncover 1\n" + _TAIL, 3),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\nx 1\n\n[rule]\ntar\n",
                0,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\nx 1\ny 2\n\n[rule]\ntar tj\n",
                10,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "\n[theta]\nvalue\n",
                13,
            ),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\nx 1\ny 1 2\n\n[rule]\ntj\n",
                10,
            ),
            ("case.instance", "[oracle]\nkind modulr\nweights 1 2\n" + _TAIL, 2),
            ("case.instance", "[oracle]\nkind modular\nweights 1 2\n" + _TAIL + "tj\n", 11),
            (
                "case.instance",
                "[oracle]\nkind modular\nweights 1 2\n\n[endpoints]\nx 1\ny 2\n\n[rule]\n",
                0,
            ),
        ],
        ids=[
            "weights", "n", "divisor", "upsilon", "edge-id", "edge-weight", "clause",
            "cover-range", "endpoint", "theta", "csv-id", "csv-range",
            "edge-range", "clause-range", "self-loop", "edge-sign", "clause-arity",
            "divisor-range",
            "edges-n", "edges-n-sign", "edges-self-loop", "edges-weight-sign",
            "edges-weight-nan", "edges-probability-range", "edges-probability-missing",
            "cnf-header", "cnf-literal-range", "cnf-clause-count", "gram-nan",
            "rr-seed", "rr-empty", "rr-count", "rr-vertex-range",
            "weights-nan", "divisor-inf", "upsilon-nan", "edge-weight-nan", "edge-weight-inf",
            "edge-arity", "n-past-maxsize", "theta-inf", "theta-frac-nan", "edges-weight-inf",
            "edges-probability-nan", "rr-seed-hex", "second-x", "second-y",
            "second-theta", "coverage-directive", "modular-directive", "cut-directive",
            "section-rules", "section-typo", "second-divisor", "second-kind", "second-n",
            "second-upsilon", "second-rr-file", "second-weights", "second-gadget-weights",
            "upsilon-missing",
            "cut-n-sign", "nae-n-sign", "upsilon-sign", "rr-count-zero", "probability-mode",
            "directed-word", "gram-file-missing", "graph-file-missing", "cnf-file-missing",
            "rr-file-missing", "graph-file-directory", "coverage-n-arity", "gram-file-absent",
            "cover-count", "endpoint-y-absent", "rule-arity", "theta-value-arity",
            "tj-endpoint-sizes", "unknown-kind", "rule-second-line", "rule-empty",
        ],
    )
    def test_message_carries_path_and_line(self, tmp_path, name, content, line):
        # the graph that influence instances name; the cases above it do not read it
        (tmp_path / "net.tsv").write_text("1 2\n")
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(InstanceParseError) as exc:
            self.LOADERS[name](p)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"{p}:{line}: ")

    def test_error_pickles_with_its_fields(self, tmp_path):
        p = tmp_path / "case.instance"
        p.write_text("[oracle]\nkind modular\nweights 1 x\n" + _TAIL)
        with pytest.raises(InstanceParseError) as exc:
            load_instance(p)
        twin = pickle.loads(pickle.dumps(exc.value))
        assert type(twin) is InstanceParseError
        assert (twin.path, twin.line, twin.message) == (str(p), 3, "bad number 'x'")
        assert str(twin) == str(exc.value) == f"{p}:3: bad number 'x'"

    @pytest.mark.parametrize("ids, bad", [("1 9", 9), ("0 2", 0)])
    def test_endpoint_id_is_named_as_written(self, tmp_path, ids, bad):
        p = tmp_path / "e.inst"
        p.write_text(
            f"[oracle]\nkind modular\nweights 1 2 3 4 5\n\n[endpoints]\ny 2\nx {ids}\n"
            "\n[rule]\ntar\n"
        )
        with pytest.raises(InstanceParseError) as exc:
            load_instance(p)
        assert str(exc.value) == f"{p}:7: element {bad} outside 1..5"


class TestSequenceCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "seq.csv"
        rows = [(0, Subset(4, [0, 1]), 1.0), (1, Subset(4, [0, 2]), 0.5)]
        write_sequence_csv(p, rows)
        assert p.read_text() == 'index,set,value\n0,"{1,2}",1.0\n1,"{1,3}",0.5\n'
        assert load_sequence_csv(p, 4) == ReconfigSequence([s for _, s, _ in rows])

    def test_load(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text('index,set,value\n0,"{1,2}",1.0\n1,"{1,3}",2.0\n')
        seq = load_sequence_csv(p, 4)
        assert seq == ReconfigSequence([Subset(4, [0, 1]), Subset(4, [0, 2])])

    def test_malformed(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("wrong,header,names\n")
        with pytest.raises(InstanceParseError):
            load_sequence_csv(p, 4)
        p.write_text("index,set,value\n")
        with pytest.raises(InstanceParseError):
            load_sequence_csv(p, 4)
