"""The bottleneck optimum by threshold searches over A*.

The optimum is the largest threshold whose decision answer is yes, found by
searches of :func:`~subreco.algorithms.feasible_path`, as in Gabow and
Tarjan's reduction of bottleneck problems to threshold decisions.  No walk
beats ``top = min(f(X), f(Y))``, so an upper-bound round first asks for a
walk through states with ``f >= top``; a walk found is optimal, and a
shortest one at ``top``.  Otherwise a threshold ascent starts at ``v =
-inf``: each round asks for a walk through states with ``f > v``, a walk
found raises ``v`` to its smallest value, and a round without one proves
``v`` optimal, with the last walk found a shortest one at that optimum.
Every search stays inside the restriction's subsets, and under the exchange
rule (TJ) every state keeps ``|X|`` elements.  Of several shortest walks, a
round returns the one :func:`~subreco.algorithms.feasible_path` reaches
first, popping the deepest of equal scores first.  One ``mask -> value`` memo
and one expansion budget span all rounds, so no state costs more than one
oracle call.

:func:`build_value_table` tabulates a restricted lattice with a size guard;
no solver uses it, and it stays for tests and the benchmark probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
)
from .algorithms import default_budget, feasible_path

FULL_LATTICE_LIMIT = 20


@dataclass(frozen=True)
class StateGraphSummary:
    """Provenance of an enumerated state graph, for reports and tests."""

    restriction: Subset
    rule: AdjacencyRule
    states: int


def build_value_table(
    oracle: SetFunctionOracle,
    rule: AdjacencyRule,
    *,
    restriction: Optional[Subset] = None,
) -> tuple[dict[int, float], StateGraphSummary]:
    """Evaluate the oracle on every subset of the restriction through
    :meth:`~subreco.core.SetFunctionOracle.evaluate_many`; one call per state."""
    n = oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    if restriction.n != n:
        raise ValueError("restriction over wrong universe")
    if len(restriction) > FULL_LATTICE_LIMIT:
        raise BudgetExceededError(
            f"full lattice over {len(restriction)} elements exceeds the guard"
        )
    masks = [restriction.mask]
    while masks[-1]:
        masks.append((masks[-1] - 1) & restriction.mask)
    table = dict(zip(masks, oracle.evaluate_many(masks).tolist()))
    return table, StateGraphSummary(restriction, rule, len(table))


def _optimum(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    restriction: Optional[Subset],
    budget: Optional[int],
    walk: bool,
) -> tuple[float, Optional[list[int]]]:
    """The optimal threshold, and the masks of a shortest walk attaining it.

    The states are the subsets of the restriction (all ``n`` elements by
    default), which must hold X and Y, and each round's search generates no
    other; under TJ X and Y must have equal size (``ValueError`` otherwise).
    X == Y costs one evaluation and no search.  The upper-bound round at
    ``top`` runs first, except when ``top`` is ``-inf`` without ``walk``.
    When it fails, the ascent's last walk is a shortest one through the
    states above the previous ``v``, which hold it and every walk at the
    optimum, so it is shortest there too.  With ``walk``, an optimum of
    ``-inf`` costs one more search, for any walk.
    """
    n = oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    if not x.issubset(restriction) or not y.issubset(restriction):
        raise ValueError("endpoints must lie inside the ground restriction")
    if rule is AdjacencyRule.TJ and len(y) != len(x):
        raise ValueError(f"TJ endpoints must have equal size, got {len(x)} and {len(y)}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if x == y:
        return oracle.evaluate(x), [x.mask]
    memo: dict[int, float] = {}
    spent = 0

    def value(mask: int) -> float:
        if mask not in memo:
            memo[mask] = oracle.evaluate(mask)
        return memo[mask]

    def search(feasible) -> Optional[list[int]]:
        nonlocal spent
        left = default_budget(n) if budget is None else budget - spent
        status, chain, expansions = feasible_path(
            rule, restriction.mask, x.mask, y.mask, feasible, left
        )
        spent += expansions
        if status == "inconclusive":
            raise BudgetExceededError(f"search gave up after {spent} expansions")
        return chain

    top = min(value(x.mask), value(y.mask))
    if top == -math.inf and not walk:
        return top, None
    chain = search(lambda m: value(m) >= top)
    if chain is not None:
        return top, chain
    v = -math.inf  # no walk reaches top, so only a failing round ends the ascent
    while (found := search(lambda m: value(m) > v)) is not None:
        chain, v = found, min(memo[m] for m in found)
    if chain is None and walk:
        chain = search(lambda m: value(m) >= v)
    return v, chain


def optimal_value(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    restriction: Optional[Subset] = None,
    budget: Optional[int] = None,
) -> float:
    """Largest ``theta`` for which an all-feasible sequence from X to Y exists.

    One A* search first asks for a walk with every value at least
    ``min(f(X), f(Y))``, which no walk can beat.  Only when it finds none
    does a threshold ascent follow: each round is an A* search for a walk
    with every value above the best found so far, until a round finds none.
    A memo shared by the rounds evaluates X, Y and the states the searches
    pop, each at most once.  Under TJ every set of the walk has ``|X|``
    elements, and X and Y must have equal size.  ``budget`` caps the
    expansions of all rounds together; running out raises
    ``BudgetExceededError``, and a negative budget raises ``ValueError``.
    Without one, each round gets :func:`~subreco.algorithms.default_budget`.
    """
    return _optimum(oracle, x, y, rule, restriction, budget, walk=False)[0]


def optimal_sequence(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    restriction: Optional[Subset] = None,
    budget: Optional[int] = None,
) -> tuple[float, ReconfigSequence]:
    """Optimal threshold plus a shortest sequence attaining it.

    The sequence is the last walk the searches of :func:`optimal_value`
    found, at the same oracle calls and expansions.  When the optimum is
    ``-inf`` one more search, spending from the same ``budget``, finds a
    shortest walk.
    """
    best, chain = _optimum(oracle, x, y, rule, restriction, budget, walk=True)
    if chain is None:
        raise RuntimeError(f"no walk at the bottleneck value {best}; solver inconsistency")
    n = oracle.universe.n
    return best, ReconfigSequence([Subset.from_mask(n, m) for m in chain])
