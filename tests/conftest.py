"""Shared builders and independent reference implementations.

The references here (breadth-first shortest path, widest-path bottleneck,
brute-force influence) are deliberately written without using the package's
solvers, so tests compare two independent computations.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from subreco import (
    AdjacencyRule,
    BudgetExceededError,
    CnfFormula,
    CoverageSpec,
    GramMatrix,
    GroundSet,
    SetFunctionOracle,
    Subset,
    WeightedGraph,
    coverage_oracle,
    cut_oracle,
    incidence_oracle,
    is_adjacent,
    logdet_oracle,
    make_synthetic_gram,
    modular_oracle,
    nae_clause_oracle,
    shifted_incidence_oracle,
)
from subreco.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def run_cli(argv, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run; ``argv`` may hold paths."""
    capsys.readouterr()
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# random oracle builders


def random_coverage_spec(rng: random.Random, n: int, items: int) -> CoverageSpec:
    covered = []
    for _ in range(n):
        size = rng.randint(0, items)
        covered.append(tuple(rng.sample(range(items), size)))
    return CoverageSpec(items, tuple(covered), divisor=rng.choice([1.0, 2.0, 4.0]))


def random_monotone_oracle(rng: random.Random, n: int) -> SetFunctionOracle:
    """Positive mixture of coverage functions: monotone submodular nonnegative."""
    parts = [
        (rng.uniform(0.5, 2.0), coverage_oracle(random_coverage_spec(rng, n, rng.randint(2, 10))))
        for _ in range(rng.randint(1, 3))
    ]

    def fn(mask: int) -> float:
        return sum(w * g.evaluate(mask) for w, g in parts)

    return SetFunctionOracle(
        fn,
        GroundSet(n),
        claims_monotone=True,
        claims_submodular=True,
        claims_nonnegative=True,
        name="coverage_mixture",
    )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> WeightedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.choice([1.0, 0.5, 2.0])))
    return WeightedGraph.build(n, edges)


def random_nonnegative_oracle(rng: random.Random, n: int) -> SetFunctionOracle:
    """Cut plus coverage mixture: submodular nonnegative, generally not monotone."""
    cut = cut_oracle(random_graph(rng, n))
    cover = coverage_oracle(random_coverage_spec(rng, n, rng.randint(2, 8)))
    w1, w2 = rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0)

    def fn(mask: int) -> float:
        return w1 * cut.evaluate(mask) + w2 * cover.evaluate(mask)

    return SetFunctionOracle(
        fn,
        GroundSet(n),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name="cut_plus_coverage",
    )


def random_subset(rng: random.Random, n: int, size: int) -> Subset:
    return Subset(n, rng.sample(range(n), size))


# ---------------------------------------------------------------------------
# graph families for the vertex cover reductions


def small_graph_family():
    """All 4-vertex graphs with an edge, then seeded random graphs up to n=8."""
    pool4 = list(combinations(range(4), 2))
    for mask in range(1, 1 << len(pool4)):
        yield WeightedGraph.build(4, [pool4[i] for i in range(6) if mask >> i & 1])
    rng = random.Random(808)
    for n in range(5, 9):
        pool = list(combinations(range(n), 2))
        for _ in range(3):
            while True:
                edges = [e for e in pool if rng.random() < 0.45]
                if edges:
                    break
            yield WeightedGraph.build(n, edges)


def covers_of_min_size(g):
    def is_cover(mask):
        return all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges)

    for size in range(g.n + 1):
        covers = [
            Subset(g.n, c)
            for c in combinations(range(g.n), size)
            if is_cover(sum(1 << e for e in c))
        ]
        if covers:
            return size, covers
    raise AssertionError("every graph is covered by its full vertex set")


def _relabelled(n: int, edges, seed: Optional[int]) -> WeightedGraph:
    """The graph on ``edges`` with its vertices renamed by a seeded shuffle."""
    label = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(label)
    return WeightedGraph.build(n, [(label[u], label[v]) for u, v in edges])


def grid_graph(rows: int, cols: int, seed: Optional[int] = None) -> WeightedGraph:
    """The ``rows`` x ``cols`` grid; ``seed`` shuffles the vertex ids."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return _relabelled(rows * cols, edges, seed)


def cycle_graph(length: int, seed: Optional[int] = None) -> WeightedGraph:
    """The cycle C_length; ``seed`` shuffles the vertex ids."""
    return _relabelled(length, [(i, (i + 1) % length) for i in range(length)], seed)


def colour_classes(g: WeightedGraph) -> tuple[Subset, Subset]:
    """The two sides of a connected bipartite graph, the side of vertex 0 first.

    On an even cycle or a grid both sides are minimum vertex covers, and
    neither can be exchanged into the other: no-instances of the paper's
    reduction from vertex cover reconfiguration.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    side = {0: 0}
    queue = [0]
    for u in queue:
        for v in adj[u]:
            if v not in side:
                side[v] = 1 - side[u]
                queue.append(v)
            elif side[v] == side[u]:
                raise ValueError("graph is not bipartite")
    if len(side) != g.n:
        raise ValueError("graph is not connected")
    return tuple(Subset(g.n, [u for u in side if side[u] == s]) for s in (0, 1))


BATCH_KINDS = ("modular", "cut", "coverage", "incidence", "shifted_incidence", "nae", "logdet")


def batch_kind_oracle(kind: str, seed: int, n: int) -> SetFunctionOracle:
    """A random oracle of one of the kinds with a batch form, from ``seed``."""
    rng = random.Random(seed)
    if kind == "modular":
        return modular_oracle([rng.uniform(-2.0, 2.0) for _ in range(n)])
    if kind == "coverage":
        items = rng.randint(0, 150)  # past 64 items the bitmaps take several words
        covered = tuple(
            tuple(rng.sample(range(items), rng.randint(0, min(items, 9)))) for _ in range(n)
        )
        return coverage_oracle(CoverageSpec(items, covered, rng.choice([1.0, 3.0, 0.7])))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    if kind == "cut":
        return cut_oracle(WeightedGraph.build(n, [(u, v, rng.uniform(0.1, 2.0)) for u, v in pairs]))
    if kind == "incidence":
        return incidence_oracle(WeightedGraph.build(n, pairs))
    if kind == "shifted_incidence":
        return shifted_incidence_oracle(WeightedGraph.build(n, pairs))
    if kind == "nae":
        clauses = [rng.sample(range(n), 3) for _ in range(rng.randint(0, 12))] if n >= 3 else []
        return nae_clause_oracle(CnfFormula.monotone3(n, clauses))
    if rng.random() < 0.5:
        return logdet_oracle(make_synthetic_gram(n, seed))
    # rank up to n: when below, singular submatrices, some factored and some refused
    b = np.random.default_rng(seed).normal(size=(n, rng.randint(1, n)))
    return logdet_oracle(GramMatrix(b @ b.T))


# ---------------------------------------------------------------------------
# independent references


def exact_influence(g: WeightedGraph, s: Subset) -> float:
    """Expected spread of S by enumerating all arc subsets (guarded at 20 arcs)."""
    if not g.directed or g.probabilities is None:
        raise ValueError("exact influence needs a directed graph with probabilities")
    if s.n != g.n:
        raise ValueError("seed set over wrong universe")
    m = len(g.edges)
    if m > 20:
        raise BudgetExceededError(f"exact influence refused for {m} > 20 arcs")
    total = 0.0
    seeds = list(s)
    for arc_mask in range(1 << m):
        prob = 1.0
        for i in range(m):
            p = g.probabilities[i]
            prob *= p if arc_mask >> i & 1 else 1.0 - p
        if prob == 0.0:
            continue
        adj: list[list[int]] = [[] for _ in range(g.n)]
        for i in range(m):
            if arc_mask >> i & 1:
                u, v = g.edges[i]
                adj[u].append(v)
        visited = set(seeds)
        queue = list(seeds)
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                if v not in visited:
                    visited.add(v)
                    queue.append(v)
        total += prob * len(visited)
    return total


def bfs_shortest_feasible(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    theta: float,
    slack: float = 1e-9,
    ground: Optional[Subset] = None,
):
    """Shortest feasible path length by plain breadth-first search, or None.

    Enumerates the whole lattice up front; independent of the package's
    search code (adjacency is re-derived from symmetric-difference counts).
    With ``ground``, states outside it count as infeasible.
    """
    n = x.n
    bound = theta - slack
    outside = 0 if ground is None else ~ground.mask
    feasible = [
        not m & outside and oracle.evaluate(Subset.from_mask(n, m)) >= bound
        for m in range(1 << n)
    ]
    if not feasible[x.mask] or not feasible[y.mask]:
        return None
    if x.mask == y.mask:
        return 0
    dist = {x.mask: 0}
    queue = [x.mask]
    qi = 0
    while qi < len(queue):
        mask = queue[qi]
        qi += 1
        s = Subset.from_mask(n, mask)
        for t_mask in range(1 << n):
            if t_mask in dist or not feasible[t_mask]:
                continue
            if is_adjacent(rule, s, Subset.from_mask(n, t_mask)):
                dist[t_mask] = dist[mask] + 1
                if t_mask == y.mask:
                    return dist[t_mask]
                queue.append(t_mask)
    return None


def widest_path_value(
    values: dict[int, float],
    rule: AdjacencyRule,
    n: int,
    x_mask: int,
    y_mask: int,
) -> float:
    """Max-min path value by a Dijkstra-style dynamic program.

    Independent reference for the threshold ascent of :mod:`subreco.exact`.
    """
    best = {x_mask: values[x_mask]}
    heap = [(-values[x_mask], x_mask)]
    while heap:
        neg, mask = heapq.heappop(heap)
        width = -neg
        if width < best.get(mask, float("-inf")):
            continue
        if mask == y_mask:
            return width
        s = Subset.from_mask(n, mask)
        for t_mask in values:
            if t_mask == mask:
                continue
            if not is_adjacent(rule, s, Subset.from_mask(n, t_mask)):
                continue
            cand = min(width, values[t_mask])
            if cand > best.get(t_mask, float("-inf")):
                best[t_mask] = cand
                heapq.heappush(heap, (-cand, t_mask))
    return best.get(y_mask, float("-inf"))
