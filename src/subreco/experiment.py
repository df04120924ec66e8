"""Experiment orchestration: run one algorithm on one instance, report.

:func:`run_experiment` runs the in-memory :class:`ProblemInstance` it is
given, under its own rule and threshold; the CLI reads files and raw data,
applies the run options and writes the walk's CSV.  The runner calls the
oracle only in the algorithm and in the evaluation that fills the report's
rows, so ``calls_total`` counts every call of the run.
"""

from __future__ import annotations

import math
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
    """One algorithm on one in-memory instance, which carries its rule and
    threshold.  ``budget`` caps the A* expansions of ``astar``, or of all
    ``exact``'s searches.  ``restriction`` confines ``exact``'s lattice to
    its subsets; the other algorithms refuse it.
    """

    algorithm: str
    instance: ProblemInstance
    budget: Optional[int] = None
    restriction: Optional[Subset] = None


@dataclass
class Report:
    """Outcome of one run, with its oracle calls split between the algorithm
    and the evaluation.  ``endpoint_values`` is (f(X), f(Y)) from the walk's
    first and last rows, or None when the run found no walk.
    """

    algorithm: str
    rule: AdjacencyRule
    theta: Optional[float]
    status: str
    rows: list[tuple[int, Subset, float]]
    value: Optional[float]
    length: Optional[int]
    endpoint_values: Optional[tuple[float, float]]
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
    # the rules under which each constructive walk is a valid sequence
    walk_rules = {"swap": ("tj", "tjar"), "tjar": ("tjar",)}.get(cfg.algorithm)
    if walk_rules and instance.rule.token not in walk_rules:
        raise ValueError(
            f"{cfg.algorithm} needs rule {' or '.join(walk_rules)}, "
            f"not {instance.rule.token}"
        )
    theta = instance.theta
    if theta is not None and not math.isfinite(theta):
        raise ValueError(f"threshold must be finite, got theta={theta}")
    f = instance.oracle
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
        result = astar(instance, AstarConfig(budget=cfg.budget))
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
    return Report(
        algorithm=cfg.algorithm,
        rule=instance.rule,
        theta=theta,
        status=status,
        rows=rows,
        value=value,
        length=length,
        endpoint_values=(rows[0][2], rows[-1][2]) if rows else None,
        calls_algorithm=c1 - c0,
        calls_evaluation=c2 - c1,
        expansions=expansions,
    )
