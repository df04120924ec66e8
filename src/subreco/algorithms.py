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
budget ran out.  Its loop, :func:`feasible_path`, is the package's one
thresholded walk search: :mod:`subreco.exact` runs it too.
"""

from __future__ import annotations

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
    _bits,
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
    f: SetFunctionOracle, base_mask: int, candidates: int, base_value: float, seen: dict
) -> tuple[int, float]:
    """The candidate ``e`` with the largest ``f(base + e)``, and that value.

    Ties go to the smallest id; ``candidates`` must be nonempty.
    ``base_value`` is ``f(base)``, nan if unknown.  ``seen`` maps each
    candidate this growing set evaluated to ``(mask, f(mask + e), f(mask +
    e) - f(mask))`` and takes what the step evaluates; a value at this base
    is not evaluated again.  If ``f`` claims submodularity, ``base_value``
    plus a gain at a smaller base bounds the value here, and the step is
    lazy: it evaluates the other candidates one at a time, by descending
    bound, then ascending id, until the next bound lies more than
    ``VALUE_SLACK * max(1, |best|)`` below the best value so far, or to the
    end once a value it evaluates is not finite.  So every candidate that
    might reach the best value is evaluated, the pick is the eager one, and
    a mask can raise only if the step reaches it.  Otherwise, or with a
    bound unknown or not finite, the masks ``base | e`` go to
    ``f.evaluate_many`` as one batch in ascending id order, so each costs
    one call and an error is the one evaluating them in that order raises.
    """
    ids = list(_bits(candidates))
    values = {e: seen[e][1] for e in ids if e in seen and seen[e][0] == base_mask}
    stale = [e for e in ids if e not in values]
    bound = {e: base_value + seen[e][2] for e in stale if e in seen}
    if f.claims_submodular and len(bound) == len(stale) and all(map(math.isfinite, bound.values())):
        top = max(values.values(), default=-math.inf)
        for e in sorted(stale, key=lambda e: (-bound[e], e)):
            if bound[e] < top - VALUE_SLACK * max(1.0, abs(top)):
                break
            v = values[e] = f.evaluate(base_mask | 1 << e)
            top = max(top, v) if math.isfinite(v) else math.nan
    elif stale:
        values.update(zip(stale, f.evaluate_many([base_mask | 1 << e for e in stale]).tolist()))
    seen.update((e, (base_mask, values[e], values[e] - base_value)) for e in stale if e in values)
    best_e, best_v = -1, 0.0
    for e in ids:
        if e in values and (best_e < 0 or values[e] > best_v):
            best_e, best_v = e, values[e]
    return best_e, best_v


def greedy(f: SetFunctionOracle, ground: Subset, k: int) -> GreedyTrace:
    """Pick ``k`` elements of ``ground`` by largest value of the grown prefix.

    Each step is a :func:`_best_extension`, so ties go to the smallest id.
    The empty set is not evaluated, so the first two steps evaluate every
    candidate.  If ``f`` claims submodularity the later ones are lazy, with
    the eager picks and at most as many calls, else the total is exactly
    ``sum_{i=1..k} (|ground| - i + 1)`` calls.  For submodular ``f`` the
    prefix marginals are nonincreasing.
    """
    if not 0 <= k <= len(ground):
        raise ValueError(f"cannot pick {k} elements from {len(ground)}")
    calls_before = f.calls
    chosen_mask = 0
    remaining = ground.mask
    elements: list[int] = []
    values: list[float] = []
    seen: dict = {}
    for _ in range(k):
        e, v = _best_extension(f, chosen_mask, remaining, values[-1] if values else math.nan, seen)
        elements.append(e)
        values.append(v)
        chosen_mask |= 1 << e
        remaining ^= 1 << e
    return GreedyTrace(tuple(elements), tuple(values), f.calls - calls_before)


def interchangeable_greedy(f: SetFunctionOracle, k: int) -> tuple[Subset, Subset]:
    """Grow two disjoint size-k sets by alternating greedy picks.

    Round ``i`` first extends X with the best element outside both partial
    sets, then extends Y with the best element outside both (including X's
    fresh pick), each pick a :func:`_best_extension`, so ties go to the
    smallest id.  Needs ``2k <= n``.  If ``f`` claims submodularity and
    ``k >= 2``, one call evaluates the empty set, every step after X's first
    is lazy, and Y's first takes X's first-step values (same empty base)
    and makes no call.  At ``n > 62`` ``evaluate_many`` has no batch form,
    so every step evaluates one mask at a time.
    """
    n = f.universe.n
    if not 0 <= k or 2 * k > n:
        raise ValueError(f"need 2k <= n to build disjoint endpoints, got k={k}, n={n}")
    everything = (1 << n) - 1
    x_mask = y_mask = 0
    x_value = y_value = f.evaluate(0) if f.claims_submodular and k >= 2 else math.nan
    x_seen, y_seen = {}, {}
    for i in range(k):
        e, x_value = _best_extension(f, x_mask, everything & ~(x_mask | y_mask), x_value, x_seen)
        x_mask |= 1 << e
        if i == 0 and f.claims_submodular:
            y_seen = dict(x_seen)
        e, y_value = _best_extension(f, y_mask, everything & ~(x_mask | y_mask), y_value, y_seen)
        y_mask |= 1 << e
    return Subset.from_mask(n, x_mask), Subset.from_mask(n, y_mask)


def _prefix_masks(order: tuple[int, ...]) -> list[int]:
    """Masks of the first 0, 1, ..., ``len(order)`` elements of ``order``."""
    masks = [0]
    for e in order:
        masks.append(masks[-1] | 1 << e)
    return masks


def swap_reconfigure(
    f: SetFunctionOracle, x: Subset, y: Subset
) -> ReconfigSequence:
    """Exchange-walk from X to Y through greedy orderings of both sides.

    The shared part ``R = X & Y`` stays put.  Both private parts are ordered
    by :func:`greedy` under the residual function on R, lazily if ``f``
    claims submodularity and with ``k(k+1)`` calls for ``k = |X - R|``
    otherwise, plus one for ``f(R)``.  Step ``i`` keeps the first ``k - i``
    elements of X's order plus the first ``i`` of Y's order.  Consecutive
    steps differ by exactly one exchange and every step has size ``|X|``.
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
    px = _prefix_masks(greedy(res, x_only, k).elements)
    py = _prefix_masks(greedy(res, y_only, k).elements)
    return ReconfigSequence(
        [Subset.from_mask(x.n, shared.mask | px[k - i] | py[i]) for i in range(k + 1)]
    )


def tjar_reconfigure(
    f: SetFunctionOracle, x: Subset, y: Subset
) -> ReconfigSequence:
    """Shrink X to its best greedy singleton, jump, and regrow Y.

    Both endpoints are ordered by :func:`greedy` under ``f`` itself, lazily
    if ``f`` claims submodularity; the sequence walks down X's prefixes,
    exchanges the two best singletons, and walks up Y's prefixes, with
    consecutive duplicates collapsed.  Needs nonempty endpoints and at most
    ``|X| + |Y|`` subsets.
    """
    if x.n != f.universe.n or y.n != f.universe.n:
        raise ValueError("endpoints over wrong universe")
    if len(x) == 0 or len(y) == 0:
        raise ValueError("endpoints must be nonempty")
    px = _prefix_masks(greedy(f, x, len(x)).elements)
    py = _prefix_masks(greedy(f, y, len(y)).elements)
    masks = px[:0:-1] + py[1:]
    return ReconfigSequence(
        [Subset.from_mask(x.n, m) for i, m in enumerate(masks) if i == 0 or m != masks[i - 1]]
    )


def step_bound(rule: AdjacencyRule, mask: int, y_mask: int) -> float:
    """Admissible, consistent lower bound on the steps from ``mask`` to Y.

    One exchange fixes one missing and one surplus element, one addition or
    removal fixes one side of the difference; the bounds count accordingly.
    """
    surplus = (mask & ~y_mask).bit_count()
    missing = (y_mask & ~mask).bit_count()
    if rule is AdjacencyRule.TJ:
        return (surplus + missing) / 2
    if rule is AdjacencyRule.TAR:
        return surplus + missing
    return max(surplus, missing)


def default_heuristic(rule: AdjacencyRule, y: Subset) -> Callable[[Subset], float]:
    """:func:`step_bound` towards Y, as a function of a subset."""
    return lambda s: float(step_bound(rule, s.mask, y.mask))


def feasible_path(
    rule: AdjacencyRule,
    ground: int,
    x_mask: int,
    y_mask: int,
    feasible: Callable[[int], bool],
    budget: int,
) -> tuple[str, Optional[list[int]], int]:
    """Shortest walk from X to Y through subsets of ``ground`` passing ``feasible``, by A*.

    ``ground`` is a mask holding X and Y, and the search never generates a
    state outside it (:func:`~subreco.core.neighbor_masks`).  Returns
    ``(status, masks, expansions)``: ``found`` with the walk's masks from X
    to Y, ``no_path``, or ``inconclusive`` when ``budget`` expansions ran
    out first.  ``feasible`` is asked about X, then Y (either failing
    settles ``no_path`` without searching), then about another state only
    when it is popped with its current step count ``g``; only passing pops
    count as expansions.  The open list is a monotone bucket queue: bucket
    ``2 * (g +`` :func:`step_bound` ``)`` is a stack of ``(parent, state,
    g)`` triples, each laid flat as three list items (a tuple per push
    costs memory), popped lowest bucket first and most recent push first.
    A triple is stale exactly when its ``g`` is no longer the state's best
    step count, since a shorter path pushed the state again later.  A push
    computes its bucket inline as ``2 * g + a * |T ^ Y| + c * abs(|T| -
    |Y|)``, with ``a = 2`` for TAR and 1 otherwise and ``c = 1`` for TJAR
    and 0 otherwise, which is ``2 * (g + step_bound(rule, T, Y))`` for
    every rule.  The bound is consistent, so no push lands below the
    current bucket, each state is popped with its current ``g`` at most
    once, and every walk found is shortest.
    """
    if not feasible(x_mask) or (y_mask != x_mask and not feasible(y_mask)):
        return "no_path", None, 0
    g_score: dict[int, int] = {x_mask: 0}
    parent: dict[int, int] = {}
    a = 2 if rule is AdjacencyRule.TAR else 1
    tjar = rule is AdjacencyRule.TJAR
    y_size = y_mask.bit_count()
    b = int(2 * step_bound(rule, x_mask, y_mask))
    buckets: list[list[int]] = [[] for _ in range(b)] + [[x_mask, x_mask, 0]]
    expansions = 0
    while b < len(buckets):
        stack = buckets[b]
        if not stack:
            b += 1
            continue
        g = stack.pop()
        mask = stack.pop()
        via = stack.pop()
        if g_score[mask] != g:
            continue  # superseded by a shorter path pushed later
        if mask != x_mask and mask != y_mask and not feasible(mask):
            continue
        if expansions >= budget:
            return "inconclusive", None, expansions
        expansions += 1
        parent[mask] = via
        if mask == y_mask:
            chain = [mask]
            while chain[-1] != x_mask:
                chain.append(parent[chain[-1]])
            return "found", chain[::-1], expansions
        g += 1
        for t in neighbor_masks(rule, ground, mask):
            if g < g_score.get(t, math.inf):
                g_score[t] = g
                tb = 2 * g + a * (t ^ y_mask).bit_count()
                if tjar:
                    tb += abs(t.bit_count() - y_size)
                while len(buckets) <= tb:
                    buckets.append([])
                buckets[tb] += (mask, t, g)
    return "no_path", None, expansions


def default_budget(n: int) -> int:
    """``2 ** min(n, 24)`` expansions: no search over at most 24 elements exhausts it."""
    return 1 << min(n, 24)


@dataclass
class AstarConfig:
    """Node-expansion ``budget`` for :func:`astar` (default :func:`default_budget`)."""

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

    Runs :func:`feasible_path` with feasibility ``f(S) >= instance.theta -
    VALUE_SLACK``.  There is no memo: the oracle calls are one per distinct
    endpoint plus one per other state popped with its current step count,
    and no subset is evaluated twice.  A budget of 0 expansions is
    inconclusive unless X or Y fails the threshold, which settles
    ``no_path`` without an expansion; a negative budget raises ``ValueError``.
    """
    if instance.theta is None:
        raise ValueError("astar needs a threshold")
    cfg = cfg or AstarConfig()
    f = instance.oracle
    n = f.universe.n
    budget = cfg.budget if cfg.budget is not None else default_budget(n)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    bound = instance.theta - VALUE_SLACK
    calls_before = f.calls

    def feasible(mask: int) -> bool:
        return f.evaluate(mask) >= bound

    status, masks, expansions = feasible_path(
        instance.rule, (1 << n) - 1, instance.x.mask, instance.y.mask, feasible, budget
    )
    seq = None
    if masks is not None:
        seq = ReconfigSequence([Subset.from_mask(n, m) for m in masks])
    return AstarResult(status, seq, expansions, f.calls - calls_before)
