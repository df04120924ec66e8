"""Instance constructions: hardness reductions and small counterexamples.

The reductions turn combinatorial reconfiguration problems (vertex cover,
not-all-equal satisfiability) into threshold reconfiguration over concrete
submodular oracles, preserving yes/no answers.  The ``obs5x`` constructors
build the small instances that separate the algorithms from each other and
from the optimum; their exact values are pinned down in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    AdjacencyRule,
    GroundSet,
    ProblemInstance,
    SetFunctionOracle,
    Subset,
)
from .oracles import (
    CnfFormula,
    CoverageSpec,
    WeightedGraph,
    coverage_oracle,
    cut_oracle,
    incidence_oracle,
    is_vertex_cover,
    nae_clause_oracle,
    shifted_incidence_oracle,
)


@dataclass(frozen=True)
class SatAssignment:
    """Truth assignment as a tuple of booleans indexed by variable id."""

    values: tuple[bool, ...]

    @classmethod
    def from_string(cls, text: str) -> "SatAssignment":
        """Parse strings like ``"TFT"`` or ``"101"``."""
        mapping = {"t": True, "1": True, "f": False, "0": False}
        try:
            return cls(tuple(mapping[c] for c in text.strip().lower()))
        except KeyError as exc:
            raise ValueError(f"bad assignment character {exc.args[0]!r}") from None

    def __len__(self) -> int:
        return len(self.values)

    def true_set(self) -> Subset:
        return Subset(len(self.values), (i for i, v in enumerate(self.values) if v))


@dataclass(frozen=True)
class VcReconfigInstance:
    """Two equal-size vertex covers of one graph, to be exchanged stepwise."""

    graph: WeightedGraph
    cover_x: Subset
    cover_y: Subset

    def __post_init__(self):
        if self.graph.directed:
            raise ValueError("vertex cover reconfiguration is over undirected graphs")
        for c in (self.cover_x, self.cover_y):
            if c.n != self.graph.n:
                raise ValueError("cover over wrong universe")
            if not is_vertex_cover(self.graph, c):
                raise ValueError(f"{c} is not a vertex cover")
        if len(self.cover_x) != len(self.cover_y):
            raise ValueError("covers must have equal size")


def vc_to_msreco(vc: VcReconfigInstance) -> ProblemInstance:
    """Vertex cover reconfiguration as fixed-size threshold reconfiguration.

    Under the edge-incidence oracle, a size-k set is feasible at threshold
    ``|E|`` exactly when it is a vertex cover, so token-jump sequences between
    the two covers correspond one-to-one.
    """
    oracle = incidence_oracle(vc.graph)
    return ProblemInstance(
        oracle,
        vc.cover_x,
        vc.cover_y,
        AdjacencyRule.TJ,
        theta=float(vc.graph.edge_count),
        cardinality_k=len(vc.cover_x),
    )


def minvc_to_usreco_tjar(vc: VcReconfigInstance) -> ProblemInstance:
    """Minimum vertex cover reconfiguration without the cardinality constraint.

    The shifted incidence oracle adds ``(n - |S|) / 2``, which penalizes both
    growing past size k (the shift drops faster than coverage can gain) and
    shrinking below it.  At threshold ``|E| - k/2 + n/2`` the feasible sets
    are exactly the size-k vertex covers, turning the unconstrained
    jump-or-add-remove walk into a cover-to-cover walk.  The endpoints are
    assumed to be minimum covers; only cover-ness is checked here.
    """
    oracle = shifted_incidence_oracle(vc.graph)
    k = len(vc.cover_x)
    theta = vc.graph.edge_count - k / 2.0 + vc.graph.n / 2.0
    return ProblemInstance(
        oracle,
        vc.cover_x,
        vc.cover_y,
        AdjacencyRule.TJAR,
        theta=theta,
    )


def nae3sat_to_usreco_tar(
    phi: CnfFormula, sx: SatAssignment, sy: SatAssignment
) -> ProblemInstance:
    """Not-all-equal satisfiability reconfiguration as threshold reconfiguration.

    For monotone exactly-3 formulas, the clause-splitting oracle reaches the
    clause count ``m`` exactly on not-all-equal satisfying true-sets, so
    single-variable flips (additions or removals) correspond step for step.
    """
    if not phi.monotone:
        raise ValueError("reduction needs a monotone formula of 3-variable clauses")
    for s in (sx, sy):
        if len(s) != phi.n_vars:
            raise ValueError("assignment length differs from variable count")
        if not phi.nae_satisfies(s.values):
            raise ValueError(f"assignment {s.values} does not nae-satisfy the formula")
    return ProblemInstance(
        nae_clause_oracle(phi),
        sx.true_set(),
        sy.true_set(),
        AdjacencyRule.TAR,
        theta=float(phi.m),
    )


def _formula_graph(phi: CnfFormula) -> tuple[WeightedGraph, list[tuple[int, ...]]]:
    """Graph whose maximum independent sets encode satisfying assignments.

    Vertices: one edge (two endpoints) per variable, then one clique vertex
    per clause literal.  Variable ``i`` owns endpoint ``2i`` (positive) and
    ``2i + 1`` (negative); clause vertices follow in clause order.  Each
    clause vertex is also wired to the variable endpoint of its opposite
    literal, so a maximum independent set must pick truth-consistent clause
    witnesses.
    """
    n_vars = phi.n_vars
    for clause in phi.clauses:
        if len(clause) > 3:
            raise ValueError("clauses must have at most 3 literals")
        if len({var for var, _ in clause}) != len(clause):
            raise ValueError("a variable appears twice in one clause")
    edges: list[tuple[int, int]] = [(2 * i, 2 * i + 1) for i in range(n_vars)]
    clause_vertices: list[tuple[int, ...]] = []
    next_vertex = 2 * n_vars
    for clause in phi.clauses:
        vs = tuple(range(next_vertex, next_vertex + len(clause)))
        next_vertex += len(clause)
        clause_vertices.append(vs)
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                edges.append((vs[a], vs[b]))
        for lit_index, (var, pos) in enumerate(clause):
            opposite = 2 * var + (1 if pos else 0)
            edges.append((vs[lit_index], opposite))
    graph = WeightedGraph.build(next_vertex, edges)
    return graph, clause_vertices


def _assignment_cover(
    phi: CnfFormula,
    clause_vertices: list[tuple[int, ...]],
    total_vertices: int,
    s: SatAssignment,
) -> Subset:
    independent = set()
    for i, value in enumerate(s.values):
        independent.add(2 * i if value else 2 * i + 1)
    for j, clause in enumerate(phi.clauses):
        witness = None
        for lit_index, (var, pos) in enumerate(clause):
            if s.values[var] == pos:
                witness = clause_vertices[j][lit_index]
                break
        assert witness is not None  # guaranteed by the satisfaction check
        independent.add(witness)
    return Subset(total_vertices, (v for v in range(total_vertices) if v not in independent))


def sat_reconfig_to_vc_reconfig(
    phi: CnfFormula, sx: SatAssignment, sy: SatAssignment
) -> VcReconfigInstance:
    """Satisfiability reconfiguration as vertex cover reconfiguration.

    Builds the formula graph and maps each satisfying assignment to the
    complement of its maximum independent set: the truth-matching variable
    endpoints plus, per clause, the witness vertex of its lowest-index
    satisfied literal.  Both covers have size ``|V| - m - n``.
    """
    for s in (sx, sy):
        if len(s) != phi.n_vars:
            raise ValueError("assignment length differs from variable count")
        if not phi.satisfies(s.values):
            raise ValueError(f"assignment {s.values} does not satisfy the formula")
    graph, clause_vertices = _formula_graph(phi)
    cover_x = _assignment_cover(phi, clause_vertices, graph.n, sx)
    cover_y = _assignment_cover(phi, clause_vertices, graph.n, sy)
    return VcReconfigInstance(graph, cover_x, cover_y)


def inapprox_gadget(f: SetFunctionOracle, upsilon: float) -> ProblemInstance:
    """Append a scaled 4-cycle cut to ``f`` so endpoint values dwarf the middle.

    The new universe adds elements ``n..n+3`` forming a complete bipartite
    graph between ``{n, n+1}`` and ``{n+2, n+3}`` with edge weight
    ``upsilon / 2``; the combined function is the cut of the gadget part plus
    ``f`` of the original part.  Both endpoints are gadget sides of value
    ``2 * upsilon + f({})``, while any set with a nonzero-cut gadget part
    scores at most ``upsilon`` from the gadget, creating the value bands
    ``{0, upsilon, 2 * upsilon}``.  Choose ``upsilon`` above the maximum of
    ``f`` for the bands to order as intended.  The instance walks under TJAR
    and carries no threshold.  Its ``serial`` is ``("gadget", (upsilon,
    f.serial))`` for any ``f``; the file writer decides which ``f`` it can hold.
    """
    if not 0 < upsilon < math.inf:
        raise ValueError(f"upsilon must be positive and finite, got {upsilon}")
    if not (f.claims_submodular and f.claims_nonnegative):
        raise ValueError("gadget wraps a nonnegative submodular oracle")
    n = f.universe.n
    total = n + 4
    inner_mask = (1 << n) - 1
    half = upsilon / 2.0
    # bipartite edges between gadget elements {n, n+1} and {n+2, n+3}
    gadget_edges = (
        (n, n + 2),
        (n, n + 3),
        (n + 1, n + 2),
        (n + 1, n + 3),
    )

    def fn(mask: int) -> float:
        crossing = sum(
            1 for u, v in gadget_edges if (mask >> u & 1) != (mask >> v & 1)
        )
        return half * crossing + f.evaluate(mask & inner_mask)

    oracle = SetFunctionOracle(
        fn,
        GroundSet(total),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name=f"gadget({f.name or 'f'})",
        serial=("gadget", (upsilon, f.serial)),
    )
    x = Subset(total, (n, n + 1))
    y = Subset(total, (n + 2, n + 3))
    return ProblemInstance(oracle, x, y, AdjacencyRule.TJAR)


def obs52_instance() -> ProblemInstance:
    """Size-2 coverage instance where passing outside X | Y is optimal.

    Five ground elements cover items of a 4-item universe (values divided
    by 4): two complementary pairs plus one element covering everything.
    Moving between the two pairs through the universal element keeps full
    coverage, while any direct exchange inside X | Y drops to 3/4.
    """
    spec = CoverageSpec(
        4,
        (
            (0, 1),
            (2, 3),
            (0, 2),
            (1, 3),
            (0, 1, 2, 3),
        ),
        divisor=4.0,
    )
    return ProblemInstance(
        coverage_oracle(spec),
        Subset(5, (0, 1)),
        Subset(5, (2, 3)),
        AdjacencyRule.TJ,
        cardinality_k=2,
    )


def obs54_instance(n: int) -> ProblemInstance:
    """Perfect-matching cut instance separating the two approximations.

    ``n`` must be a positive multiple of 4.  Vertices ``i`` and ``n/2 + i``
    are matched with weight ``1 / (i + 1)``; X is the left half, Y the right
    half.  Going through singletons keeps the heaviest edge cut (value 1),
    while the half-way set of any exchange walk cuts nothing (value 0).
    """
    if n <= 0 or n % 4:
        raise ValueError("n must be a positive multiple of 4")
    half = n // 2
    graph = WeightedGraph.build(
        n, [(i, half + i, 1.0 / (i + 1)) for i in range(half)]
    )
    return ProblemInstance(
        cut_oracle(graph),
        Subset(n, range(half)),
        Subset(n, range(half, n)),
        AdjacencyRule.TJAR,
    )


def obs55_instance() -> ProblemInstance:
    """Single-edge cut instance whose add-remove optimum is zero.

    Both endpoints are the two single vertices of one unit edge (value 1),
    but every add-remove walk passes through the empty set or the full pair
    (value 0).
    """
    graph = WeightedGraph.build(2, [(0, 1, 1.0)])
    return ProblemInstance(
        cut_oracle(graph),
        Subset(2, (0,)),
        Subset(2, (1,)),
        AdjacencyRule.TAR,
    )
