"""Experiment orchestration: run one algorithm on one instance, report.

:func:`run_experiment` runs the in-memory :class:`ProblemInstance` it is
given, under the rule and threshold the instance checked when it was
built; files, raw data and the walk's CSV are the CLI's.  The runner calls
the oracle only in the algorithm and in the evaluation that fills the
report's rows, so ``calls_total`` counts every call of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algorithms import AstarConfig, astar, swap_reconfigure, tjar_reconfigure
from .core import (
    VALUE_SLACK,
    AdjacencyRule,
    ProblemInstance,
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
    ``exact``'s searches; ``swap`` and ``tjar`` refuse it.  ``restriction``
    confines ``exact``'s lattice to its subsets; the others refuse it.
    """

    algorithm: str
    instance: ProblemInstance
    budget: Optional[int] = None
    restriction: Optional[Subset] = None


@dataclass
class Report:
    """Outcome of one run, with its oracle calls split between the algorithm
    and the evaluation.  ``rows`` holds ``(index, set, f(set))`` for each
    step of the walk, or nothing when the run found none; ``value`` (the
    walk's minimum), ``length`` and ``endpoint_values`` (f(X), f(Y)) are
    read from the rows, and are None without them.
    """

    algorithm: str
    rule: AdjacencyRule
    theta: Optional[float]
    status: str
    rows: list[tuple[int, Subset, float]]
    calls_algorithm: int
    calls_evaluation: int
    expansions: Optional[int] = None

    @property
    def value(self) -> Optional[float]:
        return min(r[2] for r in self.rows) if self.rows else None

    @property
    def length(self) -> Optional[int]:
        return len(self.rows) - 1 if self.rows else None

    @property
    def endpoint_values(self) -> Optional[tuple[float, float]]:
        return (self.rows[0][2], self.rows[-1][2]) if self.rows else None

    @property
    def calls_total(self) -> int:
        return self.calls_algorithm + self.calls_evaluation

    def summary(self) -> str:
        value, length = (f"{self.value:.6g}", str(self.length)) if self.rows else ("-", "-")
        theta = "-" if self.theta is None else f"{self.theta:.6g}"
        return (
            f"algorithm={self.algorithm} rule={self.rule.token} status={self.status} "
            f"theta={theta} value={value} length={length} "
            f"calls_total={self.calls_total} calls_algorithm={self.calls_algorithm} "
            f"calls_evaluation={self.calls_evaluation}"
        )


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run ``cfg.algorithm`` on ``cfg.instance``: ``swap`` needs rule TJ or
    TJAR, ``tjar`` rule TJAR, and ``astar`` a threshold on the instance.
    ``swap`` and ``tjar`` walks are ``ok``, ``exact``'s ``found``; any walk
    whose minimum lies below ``theta - VALUE_SLACK`` is ``no_path``."""
    if cfg.algorithm not in ("swap", "tjar", "astar", "exact"):
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.restriction is not None and cfg.algorithm != "exact":
        raise ValueError(f"{cfg.algorithm} takes no restriction; only exact does")
    if cfg.budget is not None and cfg.algorithm in ("swap", "tjar"):
        raise ValueError(f"{cfg.algorithm} takes no budget; only astar and exact do")
    instance = cfg.instance
    # the rules under which each constructive walk is a valid sequence
    walk_rules = {"swap": ("tj", "tjar"), "tjar": ("tjar",)}.get(cfg.algorithm)
    if walk_rules and instance.rule.token not in walk_rules:
        raise ValueError(
            f"{cfg.algorithm} needs rule {' or '.join(walk_rules)}, "
            f"not {instance.rule.token}"
        )
    theta = instance.theta
    f = instance.oracle
    c0 = f.calls
    status = "ok"
    expansions = None
    if cfg.algorithm == "swap":
        seq = swap_reconfigure(f, instance.x, instance.y)
    elif cfg.algorithm == "tjar":
        seq = tjar_reconfigure(f, instance.x, instance.y)
    elif cfg.algorithm == "astar":
        result = astar(instance, AstarConfig(budget=cfg.budget))
        status = result.status
        seq = result.sequence
        expansions = result.expansions
    else:
        status = "found"
        seq = optimal_sequence(
            f, instance.x, instance.y, instance.rule, restriction=cfg.restriction, budget=cfg.budget
        )[1]
    c1 = f.calls

    rows = [(i, s, f.evaluate(s)) for i, s in enumerate(seq or ())]
    if seq is not None:
        verdict = validate_sequence(replace(instance, theta=None), seq)
        if not verdict:
            raise RuntimeError(f"algorithm produced an invalid sequence: {verdict.reason}")
    report = Report(cfg.algorithm, instance.rule, theta, status, rows, c1 - c0, f.calls - c1,
                    expansions)
    if rows and theta is not None and report.value < theta - VALUE_SLACK:
        report.status = "no_path"
    return report
