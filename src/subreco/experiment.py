"""Experiment orchestration: build instances, run one algorithm, report.

The runner keeps oracle-call accounting honest by snapshotting the counter
around each phase: setup (ingestion, endpoint construction, threshold
resolution), the algorithm itself, and the final per-step evaluation that
fills the CSV rows.  Reported counts are exact and reproducible because every
randomized ingredient takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .algorithms import (
    AstarConfig,
    _best_extension,
    astar,
    swap_reconfigure,
    tjar_reconfigure,
)
from .core import (
    VALUE_SLACK,
    AdjacencyRule,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    resolve_threshold,
    validate_sequence,
)
from .exact import optimal_sequence
from .fileio import load_edge_list, load_gram, load_instance, write_sequence_csv
from .oracles import GramMatrix, influence_oracle, logdet_oracle, sample_rr_sets

PathLike = Union[str, Path]


def interchangeable_greedy(
    f: SetFunctionOracle, k: int
) -> tuple[Subset, Subset]:
    """Grow two disjoint size-k sets by alternating greedy picks.

    Round ``i`` first extends X with the best element outside both partial
    sets, then extends Y with the best element outside both (including X's
    fresh pick).  Ties go to the smallest id.  Needs ``2k <= n``.
    """
    n = f.universe.n
    if not 0 <= k or 2 * k > n:
        raise ValueError(f"need 2k <= n to build disjoint endpoints, got k={k}, n={n}")
    everything = (1 << n) - 1
    x_mask = 0
    y_mask = 0
    for _ in range(k):
        e, _ = _best_extension(f, n, x_mask, everything & ~(x_mask | y_mask))
        x_mask |= 1 << e
        e, _ = _best_extension(f, n, y_mask, everything & ~(x_mask | y_mask))
        y_mask |= 1 << e
    return Subset.from_mask(n, x_mask), Subset.from_mask(n, y_mask)


def make_synthetic_gram(n: int, seed: int) -> GramMatrix:
    """Random symmetric matrix with eigenvalues spread evenly over [1.3, 3.0].

    The log-determinant objective on it is nonnegative and monotone, which
    keeps threshold search on such instances well behaved, while the
    off-diagonal structure still makes subset choice matter.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    # eigenvalues of at least 1 give every principal minor a determinant of at least 1
    eigs = np.linspace(1.3, 3.0, n)
    a = (q * eigs) @ q.T
    return GramMatrix((a + a.T) / 2.0)


@dataclass
class ExperimentConfig:
    """What to run and on what.

    Exactly one instance source applies: an in-memory instance, an instance
    file path, an edge list (influence experiment), or a gram matrix
    (determinant experiment).  The last two build endpoints with
    :func:`interchangeable_greedy` and require ``k``; the influence path also
    requires an explicit ``seed``.  ``restriction`` (ids of the ground set,
    for example a :class:`Subset`) confines the exact solver's lattice, and
    ``budget`` caps the A* expansions of ``astar``, or of all ``exact``'s searches.
    """

    algorithm: str
    instance: Optional[Union[ProblemInstance, str, Path]] = None
    graph_path: Optional[PathLike] = None
    gram_path: Optional[PathLike] = None
    directed: bool = False
    probability_mode: str = "inverse-in-degree"
    rr_count: int = 100_000
    seed: Optional[int] = None
    k: Optional[int] = None
    rule: Optional[AdjacencyRule] = None
    theta: Optional[float] = None
    theta_frac: Optional[float] = None
    out: Optional[PathLike] = None
    budget: Optional[int] = None
    restriction: Optional[Iterable[int]] = None


@dataclass
class Report:
    """Outcome of one run, including the per-phase oracle-call split."""

    algorithm: str
    rule: AdjacencyRule
    theta: Optional[float]
    status: str
    rows: list[tuple[int, Subset, float]]
    value: Optional[float]
    length: Optional[int]
    endpoint_values: tuple[float, float]
    calls_setup: int
    calls_algorithm: int
    calls_evaluation: int
    expansions: Optional[int] = None
    csv_path: Optional[Path] = None

    @property
    def calls_total(self) -> int:
        return self.calls_algorithm + self.calls_evaluation

    def summary(self) -> str:
        value = "-" if self.value is None else f"{self.value:.6g}"
        length = "-" if self.length is None else str(self.length)
        theta = "-" if self.theta is None else f"{self.theta:.6g}"
        return (
            f"algorithm={self.algorithm} rule={self.rule.token} status={self.status} "
            f"theta={theta} value={value} length={length} "
            f"calls_total={self.calls_total} calls_algorithm={self.calls_algorithm} "
            f"calls_evaluation={self.calls_evaluation}"
        )


def _resolve_instance(
    cfg: ExperimentConfig,
) -> tuple[ProblemInstance, tuple[Optional[float], Optional[float]]]:
    """The instance to run, and its source's own ``(theta, theta_frac)``."""
    if sum(s is not None for s in (cfg.instance, cfg.graph_path, cfg.gram_path)) != 1:
        raise ValueError("exactly one instance source must be set")

    if isinstance(cfg.instance, ProblemInstance):
        return cfg.instance, (cfg.instance.theta, None)
    if cfg.instance is not None:
        spec = load_instance(cfg.instance)
        return spec.to_problem_instance(None), (spec.theta, spec.theta_frac)

    if cfg.k is None:
        raise ValueError("endpoint construction needs k")

    if cfg.graph_path is not None:
        if cfg.seed is None:
            raise ValueError("influence experiments need an explicit seed")
        graph = load_edge_list(
            cfg.graph_path,
            directed=cfg.directed,
            probability_mode=cfg.probability_mode,
        )
        oracle = influence_oracle(sample_rr_sets(graph, cfg.rr_count, cfg.seed))
    else:
        oracle = logdet_oracle(load_gram(cfg.gram_path))

    x, y = interchangeable_greedy(oracle, cfg.k)  # run_experiment applies cfg.rule
    if cfg.graph_path is not None:
        return ProblemInstance(oracle, x, y, AdjacencyRule.TJ, None, cfg.k), (None, None)
    return ProblemInstance(oracle, x, y, AdjacencyRule.TJAR), (None, None)


def run_experiment(cfg: ExperimentConfig) -> Report:
    if cfg.algorithm not in ("swap", "tjar", "astar", "exact"):
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    source = cfg.instance
    # an oracle built during the run starts from zero calls
    calls_start = source.oracle.calls if isinstance(source, ProblemInstance) else 0
    instance, source_theta = _resolve_instance(cfg)
    if cfg.rule is not None and cfg.rule is not instance.rule:
        k = len(instance.x) if cfg.rule is AdjacencyRule.TJ else None
        instance = replace(instance, rule=cfg.rule, cardinality_k=k)
    # the rules under which each constructive walk is a valid sequence
    walk_rules = {"swap": ("tj", "tjar"), "tjar": ("tjar",)}.get(cfg.algorithm)
    if walk_rules and instance.rule.token not in walk_rules:
        raise ValueError(
            f"{cfg.algorithm} needs rule {' or '.join(walk_rules)}, "
            f"not {instance.rule.token}"
        )
    f = instance.oracle
    restriction = None if cfg.restriction is None else Subset(f.universe.n, cfg.restriction)

    fx = f.evaluate(instance.x)
    fy = f.evaluate(instance.y)
    theta = resolve_threshold(cfg.theta, cfg.theta_frac, source_theta, lambda: min(fx, fy))

    c0 = f.calls
    status = "ok"
    expansions = None
    value = None
    seq: Optional[ReconfigSequence] = None
    if cfg.algorithm == "swap":
        seq = swap_reconfigure(f, instance.x, instance.y)
    elif cfg.algorithm == "tjar":
        seq = tjar_reconfigure(f, instance.x, instance.y)
    elif cfg.algorithm == "astar":
        if theta is None:
            raise ValueError("astar needs --theta or --theta-frac")
        result = astar(replace(instance, theta=theta), AstarConfig(budget=cfg.budget))
        status = result.status
        seq = result.sequence
        expansions = result.expansions
    else:
        value, seq = optimal_sequence(
            f, instance.x, instance.y, instance.rule, restriction=restriction, budget=cfg.budget
        )
        # like astar: a set threshold above the optimum has no sequence
        status = "no_path" if theta is not None and value < theta - VALUE_SLACK else "found"
    c1 = f.calls

    rows: list[tuple[int, Subset, float]] = []
    length = None
    if seq is not None:
        for i, s in enumerate(seq):
            rows.append((i, s, f.evaluate(s)))
        value = min(r[2] for r in rows)
        length = seq.length
        verdict = validate_sequence(replace(instance, theta=None), seq)
        if not verdict:
            raise RuntimeError(f"algorithm produced an invalid sequence: {verdict.reason}")
    c2 = f.calls

    csv_path = None
    if cfg.out is not None and rows:
        csv_path = Path(cfg.out)
        write_sequence_csv(csv_path, rows)
    return Report(
        algorithm=cfg.algorithm,
        rule=instance.rule,
        theta=theta,
        status=status,
        rows=rows,
        value=value,
        length=length,
        endpoint_values=(fx, fy),
        calls_setup=c0 - calls_start,
        calls_algorithm=c1 - c0,
        calls_evaluation=c2 - c1,
        expansions=expansions,
        csv_path=csv_path,
    )
