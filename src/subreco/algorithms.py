"""Reconfiguration algorithms: greedy ordering, two approximations, and A*.

The two constructive algorithms trade generality for guarantees:

* :func:`swap_reconfigure` handles equal-size endpoints under the exchange
  rule, always finishes in ``|X - Y|`` steps, and its sequence value is at
  least ``max(1/2, (1 - kappa)^2)`` times ``min(f(X), f(Y))`` for monotone
  submodular ``f`` with total curvature ``kappa``.
* :func:`tjar_reconfigure` handles any nonempty endpoints when additions and
  removals are also allowed, and guarantees a ``1/n`` fraction of
  ``min(f(X), f(Y))`` for nonnegative submodular ``f``.

:func:`astar` finds a shortest sequence whose every step clears a threshold,
at exponential worst-case cost; it answers exactly or reports that its node
budget ran out.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    AdjacencyRule,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    VALUE_SLACK,
    neighbor_masks,
    residual,
)


@dataclass(frozen=True)
class GreedyTrace:
    """Result of a greedy run: pick order, prefix values, and call count."""

    elements: tuple[int, ...]
    prefix_values: tuple[float, ...]
    oracle_calls: int


def _best_extension(
    f: SetFunctionOracle, n: int, base_mask: int, candidates: int
) -> tuple[int, float]:
    """The candidate ``e`` with the largest ``f(base + e)``, and that value.

    Candidates are evaluated once each in ascending id order, and ties go to
    the smallest id.  ``candidates`` must be nonempty.
    """
    best_e = -1
    best_v = 0.0
    m = candidates
    while m:
        low = m & -m
        m ^= low
        v = f.evaluate(Subset.from_mask(n, base_mask | low))
        if best_e < 0 or v > best_v:
            best_e, best_v = low.bit_length() - 1, v
    return best_e, best_v


def greedy(f: SetFunctionOracle, ground: Subset, k: int) -> GreedyTrace:
    """Pick ``k`` elements of ``ground`` by largest value of the grown prefix.

    Step ``i`` evaluates every remaining candidate once, so the total cost is
    exactly ``sum_{i=1..k} (|ground| - i + 1)`` oracle calls.  Ties go to the
    smallest element id.  For submodular ``f`` the prefix marginals are
    nonincreasing.
    """
    if not 0 <= k <= len(ground):
        raise ValueError(f"cannot pick {k} elements from {len(ground)}")
    calls_before = f.calls
    chosen_mask = 0
    remaining = ground.mask
    elements: list[int] = []
    values: list[float] = []
    for _ in range(k):
        e, v = _best_extension(f, ground.n, chosen_mask, remaining)
        elements.append(e)
        values.append(v)
        chosen_mask |= 1 << e
        remaining ^= 1 << e
    return GreedyTrace(tuple(elements), tuple(values), f.calls - calls_before)


def swap_reconfigure(
    f: SetFunctionOracle, x: Subset, y: Subset
) -> ReconfigSequence:
    """Exchange-walk from X to Y through greedy orderings of both sides.

    The shared part ``R = X & Y`` stays put.  Both private parts are ordered
    greedily under the residual function on R, and step ``i`` keeps the first
    ``|X - R| - i`` elements of X's order plus the first ``i`` of Y's order.
    Consecutive steps differ by exactly one exchange and every step has size
    ``|X|``.
    """
    if x.n != f.universe.n or y.n != f.universe.n:
        raise ValueError("endpoints over wrong universe")
    if len(x) != len(y):
        raise ValueError(f"endpoint sizes differ: {len(x)} vs {len(y)}")
    shared = x & y
    x_only = x - shared
    y_only = y - shared
    k = len(x_only)
    if k == 0:
        return ReconfigSequence([x])
    res = residual(f, shared)
    order_x = greedy(res, x_only, k).elements
    order_y = greedy(res, y_only, k).elements
    n = x.n
    steps = []
    for i in range(k + 1):
        mask = shared.mask
        for e in order_x[: k - i]:
            mask |= 1 << e
        for e in order_y[:i]:
            mask |= 1 << e
        steps.append(Subset.from_mask(n, mask))
    return ReconfigSequence(steps)


def tjar_reconfigure(
    f: SetFunctionOracle, x: Subset, y: Subset
) -> ReconfigSequence:
    """Shrink X to its best greedy singleton, jump, and regrow Y.

    Both endpoints are ordered greedily under ``f`` itself; the sequence walks
    down X's prefixes, exchanges the two best singletons, and walks up Y's
    prefixes, with consecutive duplicates collapsed.  Needs nonempty
    endpoints and at most ``|X| + |Y|`` subsets.
    """
    if x.n != f.universe.n or y.n != f.universe.n:
        raise ValueError("endpoints over wrong universe")
    if len(x) == 0 or len(y) == 0:
        raise ValueError("endpoints must be nonempty")
    order_x = greedy(f, x, len(x)).elements
    order_y = greedy(f, y, len(y)).elements
    n = x.n
    prefixes_down = []
    mask = 0
    for e in order_x:
        mask |= 1 << e
        prefixes_down.append(mask)
    raw = [Subset.from_mask(n, m) for m in reversed(prefixes_down)]
    mask = 0
    for e in order_y:
        mask |= 1 << e
        raw.append(Subset.from_mask(n, mask))
    steps = [raw[0]]
    for s in raw[1:]:
        if s != steps[-1]:
            steps.append(s)
    return ReconfigSequence(steps)


def default_heuristic(
    rule: AdjacencyRule, y: Subset
) -> Callable[[Subset], float]:
    """Admissible, consistent step-count lower bounds towards Y.

    One exchange fixes one missing and one surplus element, one addition or
    removal fixes one side of the difference; the bounds count accordingly.
    """
    y_mask = y.mask

    if rule is AdjacencyRule.TJ:

        def h_tj(s: Subset) -> float:
            return ((s.mask & ~y_mask).bit_count() + (y_mask & ~s.mask).bit_count()) / 2

        return h_tj
    if rule is AdjacencyRule.TAR:

        def h_tar(s: Subset) -> float:
            return float((s.mask ^ y_mask).bit_count())

        return h_tar

    def h_tjar(s: Subset) -> float:
        return float(
            max((s.mask & ~y_mask).bit_count(), (y_mask & ~s.mask).bit_count())
        )

    return h_tjar


@dataclass
class AstarConfig:
    """Node-expansion ``budget`` for :func:`astar` (default ``2 ** min(n, 24)``)."""

    budget: Optional[int] = None


@dataclass(frozen=True)
class AstarResult:
    """Search outcome: ``found`` with a shortest sequence, ``no_path``, or
    ``inconclusive`` when the expansion budget ran out before an answer."""

    status: str
    sequence: Optional[ReconfigSequence]
    expansions: int
    oracle_calls: int

    def __bool__(self) -> bool:
        return self.status == "found"


def astar(instance: ProblemInstance, cfg: Optional[AstarConfig] = None) -> AstarResult:
    """Shortest threshold-feasible sequence from X to Y, by A*.

    Feasibility ``f(S) >= instance.theta - VALUE_SLACK`` is memoized per
    subset, so every distinct subset touched costs exactly one oracle call.
    The heuristic is the rule's bound from :func:`default_heuristic`.  The
    open list is a heap keyed by ``g + h`` with most-recent-first
    tie-breaking and lazy deletion: a state is pushed again whenever a
    shorter path to it appears, and a popped entry whose ``g`` is no longer
    the state's best is skipped.
    """
    if instance.theta is None:
        raise ValueError("astar needs a threshold")
    cfg = cfg or AstarConfig()
    f = instance.oracle
    n = f.universe.n
    rule = instance.rule
    h = default_heuristic(rule, instance.y)
    budget = cfg.budget if cfg.budget is not None else 1 << min(n, 24)
    bound = instance.theta - VALUE_SLACK
    calls_before = f.calls

    feasible_cache: dict[int, bool] = {}

    def feasible(mask: int) -> bool:
        v = feasible_cache.get(mask)
        if v is None:
            v = f.evaluate(Subset.from_mask(n, mask)) >= bound
            feasible_cache[mask] = v
        return v

    def result(status, seq, expansions):
        return AstarResult(status, seq, expansions, f.calls - calls_before)

    x_mask = instance.x.mask
    y_mask = instance.y.mask
    # a sequence always contains both endpoints, so either being infeasible
    # settles the answer without searching
    if not feasible(x_mask) or not feasible(y_mask):
        return result("no_path", None, 0)

    g_score: dict[int, int] = {x_mask: 0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int, int, int]] = [(h(instance.x), 0, 0, x_mask)]
    push_count = 0
    expansions = 0
    while heap:
        _, _, g, mask = heapq.heappop(heap)
        if g != g_score[mask]:
            continue  # superseded by a shorter path pushed later
        if expansions >= budget:
            return result("inconclusive", None, expansions)
        expansions += 1
        if mask == y_mask:
            chain = [mask]
            while chain[-1] != x_mask:
                chain.append(parent[chain[-1]])
            steps = [Subset.from_mask(n, m) for m in reversed(chain)]
            return result("found", ReconfigSequence(steps), expansions)
        for t in neighbor_masks(rule, n, mask):
            if g + 1 < g_score.get(t, math.inf) and feasible(t):
                g_score[t] = g + 1
                parent[t] = mask
                push_count += 1
                score = g + 1 + h(Subset.from_mask(n, t))
                heapq.heappush(heap, (score, -push_count, g + 1, t))
    return result("no_path", None, expansions)
