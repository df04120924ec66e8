"""Exact small-instance solvers over the explicit state graph.

This is the only module that may evaluate an oracle on an entire subset
lattice.  States are all subsets of the (optionally restricted) ground set,
or all fixed-size subsets for cardinality-constrained instances; a size guard
refuses enumerations beyond ``2^20`` states (``10^6`` for the fixed-size
slice).

The bottleneck solver answers the optimization form: the largest threshold
``theta`` for which a feasible sequence exists equals the value at which X
and Y first fall into one connected component when states are inserted in
decreasing value order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    VALUE_SLACK,
    neighbors,
)

FULL_LATTICE_LIMIT = 20
SLICE_LIMIT = 10**6


@dataclass(frozen=True)
class StateGraphSummary:
    """Provenance of an enumerated state graph, for reports and tests."""

    restriction: Subset
    rule: AdjacencyRule
    cardinality_k: Optional[int]
    states: int
    value_digest: str


def build_value_table(
    oracle: SetFunctionOracle,
    rule: AdjacencyRule,
    *,
    cardinality_k: Optional[int] = None,
    restriction: Optional[Subset] = None,
) -> tuple[dict[int, float], StateGraphSummary]:
    """Evaluate the oracle on every state; one call per state."""
    n = oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    if restriction.n != n:
        raise ValueError("restriction over wrong universe")
    elements = restriction.members()
    table: dict[int, float] = {}
    if cardinality_k is None:
        if len(elements) > FULL_LATTICE_LIMIT:
            raise BudgetExceededError(
                f"full lattice over {len(elements)} elements exceeds the guard"
            )
        r_mask = restriction.mask
        sub = r_mask
        while True:
            table[sub] = oracle.evaluate(Subset.from_mask(n, sub))
            if sub == 0:
                break
            sub = (sub - 1) & r_mask
    else:
        if not 0 <= cardinality_k <= len(elements):
            raise ValueError("cardinality outside the restricted ground set")
        if comb(len(elements), cardinality_k) > SLICE_LIMIT:
            raise BudgetExceededError("fixed-size state count exceeds the guard")
        for combo in combinations(elements, cardinality_k):
            mask = sum(1 << e for e in combo)
            table[mask] = oracle.evaluate(Subset.from_mask(n, mask))
    digest = hashlib.sha256()
    for mask in sorted(table):
        digest.update(f"{mask}:{table[mask]!r};".encode())
    summary = StateGraphSummary(
        restriction, rule, cardinality_k, len(table), digest.hexdigest()
    )
    return table, summary


def _check_endpoints(
    x: Subset,
    y: Subset,
    restriction: Subset,
    cardinality_k: Optional[int],
) -> None:
    if not x.issubset(restriction) or not y.issubset(restriction):
        raise ValueError("endpoints must lie inside the ground restriction")
    if cardinality_k is not None and (
        len(x) != cardinality_k or len(y) != cardinality_k
    ):
        raise ValueError("endpoints violate the cardinality constraint")


def _state_neighbors(rule: AdjacencyRule, s: Subset, table: dict[int, float]):
    for t in neighbors(rule, s):
        if t.mask in table:
            yield t


def reachable(
    instance: ProblemInstance,
    *,
    restriction: Optional[Subset] = None,
    value_slack: float = VALUE_SLACK,
) -> bool:
    """Is there a sequence whose every step satisfies ``f >= theta - slack``?

    Depth-first search over the feasible states.  Needs ``instance.theta``.
    """
    if instance.theta is None:
        raise ValueError("reachability needs a threshold")
    n = instance.oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    _check_endpoints(instance.x, instance.y, restriction, instance.cardinality_k)
    table, _ = build_value_table(
        instance.oracle,
        instance.rule,
        cardinality_k=instance.cardinality_k,
        restriction=restriction,
    )
    bound = instance.theta - value_slack
    x_mask, y_mask = instance.x.mask, instance.y.mask
    if table.get(x_mask, bound - 1) < bound or table.get(y_mask, bound - 1) < bound:
        return False
    if x_mask == y_mask:
        return True
    seen = {x_mask}
    frontier = [x_mask]
    while frontier:
        mask = frontier.pop()
        for t in _state_neighbors(instance.rule, Subset.from_mask(n, mask), table):
            t_mask = t.mask
            if t_mask in seen or table[t_mask] < bound:
                continue
            if t_mask == y_mask:
                return True
            seen.add(t_mask)
            frontier.append(t_mask)
    return False


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def add(self, a: int) -> None:
        self.parent[a] = a

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _bottleneck(
    table: dict[int, float],
    rule: AdjacencyRule,
    n: int,
    x_mask: int,
    y_mask: int,
) -> float:
    """Insert states in decreasing value order until X and Y connect.

    Ties are broken by ascending state id, though any tie order yields the
    same bottleneck value.  Returns the value of the last inserted state.
    """
    uf = _UnionFind()
    present: set[int] = set()
    for mask in sorted(table, key=lambda m: (-table[m], m)):
        uf.add(mask)
        present.add(mask)
        for t in _state_neighbors(rule, Subset.from_mask(n, mask), table):
            if t.mask in present:
                uf.union(mask, t.mask)
        if (
            x_mask in present
            and y_mask in present
            and uf.find(x_mask) == uf.find(y_mask)
        ):
            return table[mask]
    raise RuntimeError("endpoints never connected; table is inconsistent")


def optimal_value(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    cardinality_k: Optional[int] = None,
    restriction: Optional[Subset] = None,
) -> float:
    """Largest ``theta`` for which an all-feasible sequence from X to Y exists."""
    n = oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    _check_endpoints(x, y, restriction, cardinality_k)
    if x == y:
        return oracle.evaluate(x)
    table, _ = build_value_table(
        oracle, rule, cardinality_k=cardinality_k, restriction=restriction
    )
    return _bottleneck(table, rule, n, x.mask, y.mask)


def optimal_sequence(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    cardinality_k: Optional[int] = None,
    restriction: Optional[Subset] = None,
) -> tuple[float, ReconfigSequence]:
    """Optimal threshold plus a shortest sequence attaining it.

    The sequence is a breadth-first shortest path through the states whose
    value reaches the optimal threshold (compared exactly; the threshold is
    itself a table entry).
    """
    n = oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    _check_endpoints(x, y, restriction, cardinality_k)
    if x == y:
        return oracle.evaluate(x), ReconfigSequence([x])
    table, _ = build_value_table(
        oracle, rule, cardinality_k=cardinality_k, restriction=restriction
    )
    best = _bottleneck(table, rule, n, x.mask, y.mask)
    x_mask, y_mask = x.mask, y.mask
    parent: dict[int, int] = {x_mask: x_mask}
    queue = [x_mask]
    qi = 0
    while qi < len(queue):
        mask = queue[qi]
        qi += 1
        if mask == y_mask:
            break
        for t in _state_neighbors(rule, Subset.from_mask(n, mask), table):
            t_mask = t.mask
            if t_mask in parent or table[t_mask] < best:
                continue
            parent[t_mask] = mask
            queue.append(t_mask)
    if y_mask not in parent:
        raise RuntimeError("bottleneck value unreachable; solver inconsistency")
    chain = [y_mask]
    while chain[-1] != x_mask:
        chain.append(parent[chain[-1]])
    steps = [Subset.from_mask(n, m) for m in reversed(chain)]
    return best, ReconfigSequence(steps)
