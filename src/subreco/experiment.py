"""Experiment orchestration: run one algorithm on one instance, report.

:func:`run_experiment` takes an in-memory :class:`ProblemInstance`; reading
instance files and raw data, and writing the walk's CSV, is the CLI's job.
The runner keeps oracle-call accounting honest by snapshotting the counter
around each phase: set-up (threshold resolution), the algorithm itself, and
the final per-step evaluation that fills the report's rows.  The endpoint
values f(X) and f(Y) are the walk's first and last rows; set-up evaluates
them only for a fractional threshold or for a run that found no walk, and
then once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algorithms import AstarConfig, astar, swap_reconfigure, tjar_reconfigure
from .core import (
    VALUE_SLACK,
    AdjacencyRule,
    ProblemInstance,
    ReconfigSequence,
    Subset,
    resolve_threshold,
    validate_sequence,
)
from .exact import optimal_sequence
from .oracles import GramMatrix


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
    """One algorithm on one in-memory instance.

    ``rule`` overrides the instance's rule (TJ then fixes the size at |X|).
    ``theta``, else ``theta_frac`` times min(f(X), f(Y)), overrides the
    instance's own threshold.  ``budget`` caps the A* expansions of
    ``astar``, or of all ``exact``'s searches.  ``restriction`` confines
    ``exact``'s lattice to its subsets; the other algorithms refuse it.
    """

    algorithm: str
    instance: ProblemInstance
    rule: Optional[AdjacencyRule] = None
    theta: Optional[float] = None
    theta_frac: Optional[float] = None
    budget: Optional[int] = None
    restriction: Optional[Subset] = None


@dataclass
class Report:
    """Outcome of one run, including the per-phase oracle-call split.

    ``calls_setup`` counts only the calls :func:`run_experiment` makes
    outside the algorithm and the evaluation (f(X) and f(Y) for a fractional
    threshold or a run without a walk), never the calls that built the
    instance.
    """

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


def run_experiment(cfg: ExperimentConfig) -> Report:
    if cfg.algorithm not in ("swap", "tjar", "astar", "exact"):
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.restriction is not None and cfg.algorithm != "exact":
        raise ValueError(f"{cfg.algorithm} takes no restriction; only exact does")
    instance = cfg.instance
    calls_start = instance.oracle.calls
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

    @functools.cache  # f(X) and f(Y), evaluated when first asked for
    def endpoints() -> tuple[float, float]:
        return f.evaluate(instance.x), f.evaluate(instance.y)

    theta = resolve_threshold(cfg.theta, cfg.theta_frac, instance.theta, lambda: min(endpoints()))

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
            f, instance.x, instance.y, instance.rule, restriction=cfg.restriction, budget=cfg.budget
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
    # the walk starts at X and ends at Y; without one, f(X) and f(Y) are set-up calls
    fx, fy = (rows[0][2], rows[-1][2]) if rows else endpoints()
    return Report(
        algorithm=cfg.algorithm,
        rule=instance.rule,
        theta=theta,
        status=status,
        rows=rows,
        value=value,
        length=length,
        endpoint_values=(fx, fy),
        calls_setup=c0 - calls_start + f.calls - c2,
        calls_algorithm=c1 - c0,
        calls_evaluation=c2 - c1,
        expansions=expansions,
    )
