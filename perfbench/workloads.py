"""The four benchmark workloads: seeded inputs, timed ops, gates and probes.

Each workload has a ``setup`` (timed as ``setup_s``: input generation and
file writing) and an ``ops`` step (untimed: reference values for the gates).
An op is the unit timed.  It calls only public subreco functions and returns
its oracle-call count, from ``oracle.calls`` snapshots, with its output.
``check`` is the op's correctness gate: it raises :class:`GateError` when
the output is wrong and returns a label for the query mix.  ``probe`` runs
only in the traced run, after the op, to split layers the op reaches only
from inside the library.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from subreco import (
    AdjacencyRule,
    AstarConfig,
    CnfFormula,
    CoverageSpec,
    ExperimentConfig,
    GramMatrix,
    ProblemInstance,
    ReconfigSequence,
    Subset,
    WeightedGraph,
    astar,
    build_value_table,
    check_monotone,
    check_submodular,
    coverage_oracle,
    cut_oracle,
    default_heuristic,
    incidence_oracle,
    influence_oracle,
    interchangeable_greedy,
    load_edge_list,
    load_gram,
    load_instance,
    logdet_oracle,
    make_synthetic_gram,
    modular_oracle,
    nae_clause_oracle,
    neighbors,
    optimal_value,
    run_experiment,
    sample_rr_sets,
    swap_reconfigure,
    total_curvature,
    validate_sequence,
    write_gram,
    write_instance,
)

ROOT = Path(__file__).resolve().parent.parent
KARATE = ROOT / "data" / "karate.tsv"
GRAM24 = ROOT / "data" / "gram24.txt"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# The seed whose lattice input is the bundled gram24 file, and from which
# the search workload's cut graphs are drawn for every seed.
DEFAULT_SEED = 0

TJ, TAR, TJAR = AdjacencyRule.TJ, AdjacencyRule.TAR, AdjacencyRule.TJAR


class GateError(Exception):
    """An op's output failed its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def derive(seed: int, tag: int, j: int = 0) -> int:
    """A 32-bit seed for input ``j`` of a workload, a pure function of its args."""
    return int(np.random.SeedSequence([seed, tag, j]).generate_state(1)[0])


def validate_at(tr, f, x, y, rule, theta, k, seq) -> None:
    with tr.span("core.validate_sequence", probe=True):
        verdict = validate_sequence(ProblemInstance(f, x, y, rule, theta, k), seq)
    require(verdict.ok, f"sequence fails validation at theta={theta}: {verdict.reason}")


def probe_neighbors(tr, rule, states) -> None:
    with tr.span("core.neighbors", probe=True) as rec:
        for s in states:
            neighbors(rule, s)
        rec["calls"] = len(states)


@dataclass
class Workload:
    setup: Callable[[int, Path], dict]
    ops: Callable[[dict, int], list]


# ---------------------------------------------------------------------------
# influence: the karate `solve swap --k 8` pipeline at 100k RR sets

RR_COUNT = 100_000
INFLUENCE_K = 8
INFLUENCE_OPS = 2
INFLUENCE_BAND = (20.0, 27.0)


@dataclass
class InfluenceOp:
    label: str
    rr_seed: int
    band: tuple[float, float] = INFLUENCE_BAND

    def run(self, tr):
        with tr.span("fileio.load_edge_list"):
            g = load_edge_list(KARATE, probability_mode="inverse-in-degree")
        with tr.span("oracles.sample_rr_sets") as rec:
            rr = sample_rr_sets(g, RR_COUNT, self.rr_seed)
        if tr.enabled:
            rec["samples"] = rr.count
            rec["members"] = sum(len(s) for s in rr.sets)
        with tr.span("oracles.influence_oracle"):
            f = tr.wrap(influence_oracle(rr))
        with tr.span("experiment.interchangeable_greedy"):
            x, y = interchangeable_greedy(f, INFLUENCE_K)
        with tr.span("experiment.run_experiment"):
            report = run_experiment(
                ExperimentConfig(
                    "swap", instance=ProblemInstance(f, x, y, TJ, None, INFLUENCE_K)
                )
            )
        return f.calls, (g, rr, f, x, y, report)

    def check(self, out, tr) -> str:
        _, _, f, x, y, report = out
        fx, fy = report.endpoint_values
        lo, hi = self.band
        require(lo <= fx <= hi and lo <= fy <= hi, f"f(X)={fx}, f(Y)={fy} outside {lo}..{hi}")
        require(report.length == INFLUENCE_K, f"walk length {report.length}, not {INFLUENCE_K}")
        kappa = total_curvature(f)
        floor = max(0.5, (1.0 - kappa) ** 2) * min(fx, fy)
        require(report.value >= floor - 1e-9, f"walk value {report.value} below {floor}")
        seq = ReconfigSequence([s for _, s, _ in report.rows])
        validate_at(tr, f, x, y, TJ, report.value, INFLUENCE_K, seq)
        return "ok"

    def probe(self, out, tr) -> None:
        _, _, f, x, y, _ = out
        with tr.span("algorithms.swap_reconfigure", probe=True):
            swap_reconfigure(f, x, y)

    def describe(self, out) -> dict:
        g, rr, *_ = out
        return {
            "n": g.n,
            "arcs": g.edge_count,
            "rr_sets": rr.count,
            "rr_mean_size": sum(len(s) for s in rr.sets) / rr.count,
        }


def influence_setup(seed: int, workdir: Path) -> dict:
    return {"rr_seeds": [derive(seed, 1, j) for j in range(INFLUENCE_OPS)]}


def influence_ops(inputs: dict, seed: int) -> list:
    return [InfluenceOp(f"rr{j}", s) for j, s in enumerate(inputs["rr_seeds"])]


# ---------------------------------------------------------------------------
# lattice: exact under TJAR on X | Y of the greedy endpoints of a gram matrix

LATTICE_N = 24
LATTICE_K = 6
LATTICE_INSTANCES = 4
NEIGHBOR_PROBES = 256


def bottleneck_reference(gram: GramMatrix, x: Subset, y: Subset) -> tuple[float, int]:
    """Optimal threshold and shortest length over subsets of X | Y, under TJAR.

    Written without subreco's solvers or oracles: log-determinants by
    batched ``slogdet``, the threshold by a widest-path Dijkstra from X, and
    the length by breadth-first search over states at that threshold.
    """
    elems = (x | y).members()
    m = len(elems)
    values = [0.0] * (1 << m)
    for size in range(1, m + 1):
        combos = list(combinations(range(m), size))
        idx = np.array([[elems[i] for i in c] for c in combos])
        sign, logabs = np.linalg.slogdet(gram.a[idx[:, :, None], idx[:, None, :]])
        for c, sg, la in zip(combos, sign, logabs):
            values[sum(1 << i for i in c)] = float(la) if sg > 0 else float("-inf")
    local = {e: i for i, e in enumerate(elems)}
    xl = sum(1 << local[e] for e in x)
    yl = sum(1 << local[e] for e in y)
    bits = [1 << i for i in range(m)]

    def adjacent(u: int):
        inside = [b for b in bits if u & b]
        outside = [b for b in bits if not u & b]
        for b in inside:
            yield u ^ b
        for b in outside:
            yield u | b
        for b in inside:
            for c in outside:
                yield u ^ b | c

    best = [float("-inf")] * (1 << m)
    best[xl] = values[xl]
    heap = [(-values[xl], xl)]
    while heap:
        neg, u = heapq.heappop(heap)
        if -neg < best[u]:
            continue
        if u == yl:
            break
        for v in adjacent(u):
            w = min(-neg, values[v])
            if w > best[v]:
                best[v] = w
                heapq.heappush(heap, (-w, v))
    theta = best[yl]

    depth = {xl: 0}
    frontier = [xl]
    while yl not in depth:
        nxt = []
        for u in frontier:
            for v in adjacent(u):
                if v not in depth and values[v] >= theta - 1e-9:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return theta, depth[yl]


@dataclass
class LatticeOp:
    label: str
    gram_path: Path
    x: Subset
    y: Subset
    value: float
    length: int

    def run(self, tr):
        with tr.span("fileio.load_gram"):
            gram = load_gram(self.gram_path)
        f = tr.wrap(logdet_oracle(gram))
        with tr.span("experiment.interchangeable_greedy"):
            x, y = interchangeable_greedy(f, LATTICE_K)
        with tr.span("experiment.run_experiment"):
            report = run_experiment(
                ExperimentConfig(
                    "exact", instance=ProblemInstance(f, x, y, TJAR), restriction=x | y
                )
            )
        return f.calls, (f, x, y, report)

    def check(self, out, tr) -> str:
        f, x, y, report = out
        require((x, y) == (self.x, self.y), f"greedy endpoints changed: {x}, {y}")
        require(
            abs(report.value - self.value) <= 1e-9,
            f"value {report.value!r}, independent bottleneck {self.value!r}",
        )
        require(report.length == self.length, f"length {report.length}, shortest {self.length}")
        seq = ReconfigSequence([s for _, s, _ in report.rows])
        validate_at(tr, f, x, y, TJAR, self.value, None, seq)
        return "ok"

    def probe(self, out, tr) -> None:
        f, x, y, _ = out
        with tr.span("exact.build_value_table", probe=True) as rec:
            table, summary = build_value_table(f, TJAR, restriction=x | y)
        rec["states"] = summary.states
        with tr.span("exact.optimal_value", probe=True):
            optimal_value(f, x, y, TJAR, restriction=x | y)
        masks = sorted(table)
        step = max(1, len(masks) // NEIGHBOR_PROBES)
        n = f.universe.n
        probe_neighbors(tr, TJAR, [Subset.from_mask(n, m) for m in masks[::step]])

    def describe(self, out) -> dict:
        f, x, y, _ = out
        return {"n": f.universe.n, "restricted": len(x | y), "states": 1 << len(x | y)}


def lattice_setup(seed: int, workdir: Path) -> dict:
    paths = []
    for j in range(LATTICE_INSTANCES):
        if seed == DEFAULT_SEED and j == 0:
            paths.append(GRAM24)
            continue
        path = workdir / f"gram{j}.txt"
        write_gram(path, make_synthetic_gram(LATTICE_N, seed if j == 0 else derive(seed, 2, j)))
        paths.append(path)
    return {"gram_paths": paths}


def lattice_ops(inputs: dict, seed: int) -> list:
    ops = []
    for j, path in enumerate(inputs["gram_paths"]):
        gram = load_gram(path)
        x, y = interchangeable_greedy(logdet_oracle(gram), LATTICE_K)
        value, length = bottleneck_reference(gram, x, y)
        ops.append(LatticeOp(f"gram{j}", path, x, y, value, length))
    return ops


# ---------------------------------------------------------------------------
# search: a threshold ladder of A* queries on cut graphs and on gram24

SEARCH_GRAPHS = 8
SEARCH_N = 24
SEARCH_P = 0.25
SEARCH_KS = (8, 10)
SEARCH_RULES = (TJ, TJAR)
GRAM_KS = (6, 8)
GRAM_RULES = (TJ, TAR, TJAR)
THETA_FRACS = (0.85, 0.90, 0.95, 0.99)
SEARCH_BUDGET = 20_000


@dataclass
class SearchOp:
    label: str
    f: object
    x: Subset
    y: Subset
    rule: AdjacencyRule
    theta: float
    expected: tuple[str, Optional[int]]

    @property
    def k(self) -> Optional[int]:
        return len(self.x) if self.rule is TJ else None

    def run(self, tr):
        f = tr.wrap(self.f)
        c0 = f.calls
        inst = ProblemInstance(f, self.x, self.y, self.rule, self.theta, self.k)
        with tr.span("algorithms.astar") as rec:
            res = astar(inst, AstarConfig(budget=SEARCH_BUDGET))
        rec["expansions"] = res.expansions
        rec["calls"] = res.oracle_calls
        rec["steps"] = res.sequence.length if res.sequence else 0
        return f.calls - c0, (f, res)

    def check(self, out, tr) -> str:
        f, res = out
        length = res.sequence.length if res.sequence else None
        require(
            (res.status, length) == self.expected,
            f"{self.label}: got {(res.status, length)}, reference {self.expected}",
        )
        if res.status != "found":
            return res.status
        validate_at(tr, f, self.x, self.y, self.rule, self.theta, self.k, res.sequence)
        lower = default_heuristic(self.rule, self.y)(self.x)
        return "direct" if length == lower else "detour"

    def probe(self, out, tr) -> None:
        _, res = out
        states = list(res.sequence) if res.sequence else [self.x, self.y]
        probe_neighbors(tr, self.rule, states)

    def describe(self, out) -> dict:
        return {"n": self.x.n}


def cut_graph(rng: np.random.Generator, n: int, p: float) -> WeightedGraph:
    return WeightedGraph.build(
        n,
        [
            (u, v, float(rng.uniform(0.5, 1.5)))
            for u, v in combinations(range(n), 2)
            if rng.random() < p
        ],
    )


def search_setup(seed: int, workdir: Path) -> dict:
    """Queries on gram24 and on eight cut graphs, the same for every seed.

    A* cost per query is heavy-tailed and depends on tie-breaks.  Fresh
    graphs per seed made one pass's oracle calls vary twofold between seeds,
    and relabelling fixed graphs still moved the 90th-percentile op time by
    about 30%, so the query set is fixed: this workload is the tail-latency
    guard, and the other three carry the seed dependence.
    """
    sources = [("gram24", logdet_oracle(load_gram(GRAM24)), GRAM_KS, GRAM_RULES)]
    for j in range(SEARCH_GRAPHS):
        g = cut_graph(np.random.default_rng(derive(DEFAULT_SEED, 3, j)), SEARCH_N, SEARCH_P)
        sources.append((f"cut{j}", cut_oracle(g), SEARCH_KS, SEARCH_RULES))
    queries = []
    for name, f, ks, rules in sources:
        for k in ks:
            x, y = interchangeable_greedy(f, k)
            v = min(f.evaluate(x), f.evaluate(y))
            for rule in rules:
                for frac in THETA_FRACS:
                    queries.append((f"{name}.k{k}.{rule.token}.{frac}", f, x, y, rule, frac * v))
    return {"queries": queries}


def search_ops(inputs: dict, seed: int) -> list:
    """Each query is gated on the (status, length) pinned in references.json."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return [
        SearchOp(label, f, x, y, rule, theta, tuple(refs[label]))
        for label, f, x, y, rule, theta in inputs["queries"]
    ]


# ---------------------------------------------------------------------------
# audit: load an instance file, then one exhaustive structural check

AUDIT_N = 14
AUDIT_KINDS = ("coverage", "cut", "incidence", "nae", "modular", "logdet")
NOT_MONOTONE = ("cut", "nae")
CURVATURE_KINDS = ("coverage", "incidence", "modular")
# Sizes are fixed and only the structure is drawn from the seed, because an
# evaluation's cost grows with edges, clauses and covered items.
AUDIT_EDGES = 28
AUDIT_CLAUSES = 30
AUDIT_ITEMS = 40
AUDIT_COVER = 5


def audit_pairs(rng: np.random.Generator) -> list[tuple[int, int]]:
    pairs = list(combinations(range(AUDIT_N), 2))
    return [pairs[i] for i in sorted(rng.choice(len(pairs), size=AUDIT_EDGES, replace=False))]


def audit_oracle(kind: str, rng: np.random.Generator, seed: int):
    n = AUDIT_N
    if kind == "coverage":
        covered = tuple(
            tuple(int(i) for i in rng.choice(AUDIT_ITEMS, size=AUDIT_COVER, replace=False))
            for _ in range(n)
        )
        return coverage_oracle(CoverageSpec(AUDIT_ITEMS, covered))
    if kind == "cut":
        pairs = audit_pairs(rng)
        return cut_oracle(WeightedGraph.build(n, [(u, v, rng.uniform(0.5, 1.5)) for u, v in pairs]))
    if kind == "incidence":
        return incidence_oracle(WeightedGraph.build(n, audit_pairs(rng)))
    if kind == "nae":
        clauses = [rng.choice(n, size=3, replace=False) for _ in range(AUDIT_CLAUSES)]
        return nae_clause_oracle(CnfFormula.monotone3(n, clauses))
    if kind == "modular":
        return modular_oracle(rng.uniform(0.1, 1.0, size=n))
    return logdet_oracle(make_synthetic_gram(n, derive(seed, 4, 1)))


@dataclass
class AuditOp:
    """``expected`` is the verdict's ``ok`` for a check, a range for curvature."""

    label: str
    path: Path
    check_name: str
    expected: object

    def run(self, tr):
        with tr.span("fileio.load_instance"):
            inst = load_instance(self.path)
        f = tr.wrap(inst.oracle)
        if self.check_name == "submodular":
            with tr.span("core.check_submodular"):
                result = check_submodular(f)
        elif self.check_name == "monotone":
            with tr.span("core.check_monotone"):
                result = check_monotone(f)
        else:
            with tr.span("core.total_curvature"):
                result = total_curvature(f)
        return f.calls, result

    def check(self, out, tr) -> str:
        if self.check_name == "curvature":
            low, high = self.expected
            require(low <= out <= high, f"{self.label}: curvature {out} outside [{low}, {high}]")
        else:
            require(out.ok == self.expected, f"{self.label}: verdict {out.ok}, expected {self.expected}")
        return "ok"

    def probe(self, out, tr) -> None:
        pass

    def describe(self, out) -> dict:
        return {"n": AUDIT_N, "states": 1 << AUDIT_N, "kinds": len(AUDIT_KINDS)}


def audit_setup(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(derive(seed, 4))
    x, y = Subset(AUDIT_N, (0, 1, 2)), Subset(AUDIT_N, (3, 4, 5))
    paths = {}
    for kind in AUDIT_KINDS:
        path = workdir / f"{kind}.inst"
        write_instance(path, audit_oracle(kind, rng, seed), x, y, TJ)
        paths[kind] = path
    return {"paths": paths}


def audit_ops(inputs: dict, seed: int) -> list:
    """Every kind is submodular; cut and nae are not monotone; modular has
    curvature 0 and the other monotone kinds curvature in [0, 1]."""
    ops = []
    for kind, path in inputs["paths"].items():
        ops.append(AuditOp(f"{kind}.submodular", path, "submodular", True))
        ops.append(AuditOp(f"{kind}.monotone", path, "monotone", kind not in NOT_MONOTONE))
        if kind in CURVATURE_KINDS:
            band = (0.0, 1e-9) if kind == "modular" else (0.0, 1.0)
            ops.append(AuditOp(f"{kind}.curvature", path, "curvature", band))
    return ops


WORKLOADS = {
    "influence": Workload(influence_setup, influence_ops),
    "lattice": Workload(lattice_setup, lattice_ops),
    "search": Workload(search_setup, search_ops),
    "audit": Workload(audit_setup, audit_ops),
}
