"""On-disk formats: edge lists, gram matrices, CNF, samples, and instances."""

import textwrap

import numpy as np
import pytest

from subreco import (
    AdjacencyRule,
    CnfFormula,
    CoverageSpec,
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
    write_instance_for,
)


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
        with pytest.raises(UniverseMismatchError):
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
        p.write_text("c comment\np cnf 3 2\n1 -2 0 3\n1 0\n")
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
            assert back.source_digest == rr.source_digest

    # the text written for make() before the sets were stored packed; a drift
    # in the format would still survive a save/load round trip
    TEXT = """\
        4 25 4
        % graph 9f7678b4fb48bb136ac560615d1bebe7c32b1555d2e165a65d3f40ecc5623285
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
            theta_kind="value", theta_param=0.5,
        )
        assert inst.x == Subset(3, [0]) and inst.y == Subset(3, [2])
        assert inst.rule is AdjacencyRule.TJ
        assert inst.resolve_theta() == 0.5
        assert_same_values(f, inst.oracle)

    def test_modular(self, tmp_path):
        f = modular_oracle([1.5, 0.0, 2.0])
        _, inst = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TAR
        )
        assert inst.resolve_theta() is None
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
            theta_kind="value", theta_param=2.0,
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

    def test_gadget_reads_the_first_weights_line(self, tmp_path):
        gadget = inapprox_gadget(modular_oracle([0.3, 0.2]), 1.5)
        p = tmp_path / "gadget.instance"
        write_instance(p, gadget.oracle, gadget.x, gadget.y, AdjacencyRule.TJAR)
        text = p.read_text()
        p.write_text(text.replace("\n\n[endpoints]", "\nweights 9.0 9.0\n\n[endpoints]", 1))
        assert_same_values(gadget.oracle, load_instance(p).oracle)

    def test_frac_theta_resolves_against_endpoints(self, tmp_path):
        f = modular_oracle([3.0, 1.0, 2.0])
        _, inst = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ,
            theta_kind="frac", theta_param=0.5,
        )
        # min(f(X), f(Y)) = 2
        assert inst.resolve_theta() == pytest.approx(1.0)

    def test_to_problem_instance_defaults(self, tmp_path):
        f = modular_oracle([3.0, 1.0, 2.0])
        _, parsed = self.roundtrip(
            tmp_path, f, Subset(3, [0]), Subset(3, [2]), AdjacencyRule.TJ,
            theta_kind="value", theta_param=1.5,
        )
        inst = parsed.to_problem_instance(parsed.resolve_theta())
        assert inst.theta == 1.5
        assert inst.cardinality_k == 1  # implied by the exchange rule
        override = parsed.to_problem_instance(theta=None)
        assert parsed.resolve_theta(theta_frac=0.5) == pytest.approx(1.0)
        assert parsed.resolve_theta(theta=0.25, theta_frac=0.5) == 0.25
        assert override.theta is None

    def test_write_instance_for(self, tmp_path):
        inst = ProblemInstance(
            modular_oracle([1.0, 2.0]),
            Subset(2, [0]),
            Subset(2, [1]),
            AdjacencyRule.TAR,
            theta=0.75,
        )
        p = tmp_path / "case.instance"
        write_instance_for(inst, p)
        spec = load_instance(p)
        back = spec.to_problem_instance(spec.resolve_theta())
        assert back.theta == 0.75
        assert back.x == inst.x and back.y == inst.y and back.rule is inst.rule

    def test_unwritable_oracle(self, tmp_path):
        from subreco import GroundSet, SetFunctionOracle

        f = SetFunctionOracle(lambda s: 0.0, GroundSet(2))
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
            "edge-arity", "theta-inf", "theta-frac-nan", "edges-weight-inf",
            "edges-probability-nan", "rr-seed-hex", "second-x", "second-y",
            "second-theta",
        ],
    )
    def test_message_carries_path_and_line(self, tmp_path, name, content, line):
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(InstanceParseError) as exc:
            self.LOADERS[name](p)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"{p}:{line}: ")


class TestSequenceCsv:
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
