"""Exact solvers: reachability and the bottleneck optimum, both by A*.

:func:`reachable` answers the decision form for one threshold with A*, so it
evaluates only the states the search pops and tabulates nothing.

The optimum is the largest threshold whose decision answer is yes, found by
threshold ascent over the same search (:func:`~subreco.algorithms.feasible_path`),
as in Gabow and Tarjan's reduction of bottleneck problems to threshold
decisions.  Starting at ``v = -inf``, each round asks for a walk from X to Y
through states of the restriction with ``f > v``; a walk found raises ``v``
to its smallest value, and a round without one proves ``v`` optimal.  Under
the exchange rule (TJ) every state keeps ``|X|`` elements.  One ``mask ->
value`` memo spans all rounds, so no state costs more than one oracle call,
and one expansion budget spans all rounds and the sequence pass.

:func:`build_value_table` tabulates a whole lattice or TJ slice with a size
guard; no solver uses it, and it stays for tests and the benchmark probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    _value_table,
)
from .algorithms import astar, feasible_path

FULL_LATTICE_LIMIT = 20
SLICE_LIMIT = 10**6


@dataclass(frozen=True)
class StateGraphSummary:
    """Provenance of an enumerated state graph, for reports and tests."""

    restriction: Subset
    rule: AdjacencyRule
    cardinality_k: Optional[int]
    states: int


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
    if cardinality_k is None:
        if len(elements) > FULL_LATTICE_LIMIT:
            raise BudgetExceededError(
                f"full lattice over {len(elements)} elements exceeds the guard"
            )
        masks = [restriction.mask]
        while masks[-1]:
            masks.append((masks[-1] - 1) & restriction.mask)
    else:
        if not 0 <= cardinality_k <= len(elements):
            raise ValueError("cardinality outside the restricted ground set")
        if math.comb(len(elements), cardinality_k) > SLICE_LIMIT:
            raise BudgetExceededError("fixed-size state count exceeds the guard")
        masks = [sum(1 << e for e in c) for c in combinations(elements, cardinality_k)]
    table = dict(zip(masks, _value_table(oracle, masks)))
    return table, StateGraphSummary(restriction, rule, cardinality_k, len(table))


def reachable(instance: ProblemInstance) -> bool:
    """Is there a sequence whose every step satisfies ``f >= theta - VALUE_SLACK``?

    This is :func:`~subreco.algorithms.astar` with its default budget: it
    evaluates only the states the search pops, so there is no size guard.
    Raises ``BudgetExceededError`` when the budget runs out before an answer.
    Needs ``instance.theta``.
    """
    result = astar(instance)
    if result.status == "inconclusive":
        raise BudgetExceededError(f"search gave up after {result.expansions} expansions")
    return result.status == "found"


def _optimum(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    restriction: Optional[Subset],
    budget: Optional[int],
    walk: bool,
) -> tuple[float, Optional[list[int]]]:
    """The optimal threshold, and with ``walk`` the masks of a walk attaining it.

    The states are the subsets of the restriction (all ``n`` elements by
    default), which must hold X and Y; under TJ X and Y must have equal size
    (``ValueError`` otherwise).  X == Y costs one evaluation and no search.
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
    outside = ~restriction.mask
    spent = 0

    def value(mask: int) -> float:
        if mask not in memo:
            memo[mask] = oracle.evaluate(Subset.from_mask(n, mask))
        return memo[mask]

    def search(passes) -> Optional[list[int]]:
        nonlocal spent
        left = 1 << min(n, 24) if budget is None else budget - spent
        status, chain, expansions = feasible_path(
            rule, n, x.mask, y.mask, lambda m: not m & outside and passes(value(m)), left
        )
        spent += expansions
        if status == "inconclusive":
            raise BudgetExceededError(f"search gave up after {spent} expansions")
        return chain

    v = -math.inf
    while v < min(value(x.mask), value(y.mask)):
        chain = search(lambda t: t > v)
        if chain is None:
            break
        v = min(memo[m] for m in chain)
    return v, search(lambda t: t >= v) if walk else None


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

    Found by threshold ascent: each round is an A* search for a walk with
    every value above the best found so far, until a round finds none or the
    walk reaches ``min(f(X), f(Y))``.  A memo shared by the rounds evaluates
    X, Y and the states the searches pop, each at most once.  Under TJ every
    set of the walk has ``|X|`` elements, and X and Y must have equal size.
    ``budget`` caps the expansions of all rounds together; running out raises
    ``BudgetExceededError``, and a negative budget raises ``ValueError``.
    Without one, each round gets :func:`~subreco.algorithms.astar`'s default
    of ``2 ** min(n, 24)``, which no search over at most 24 elements exhausts.
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

    After the ascent of :func:`optimal_value`, one more A* pass
    (:func:`~subreco.algorithms.feasible_path`, with its tie order) finds the
    shortest walk through the states whose value reaches the optimum,
    compared exactly: the optimum is itself a state's value.  The pass reads
    the ascent's memo and spends from the same ``budget``.
    """
    best, chain = _optimum(oracle, x, y, rule, restriction, budget, walk=True)
    if chain is None:
        raise RuntimeError(f"no walk at the bottleneck value {best}; solver inconsistency")
    n = oracle.universe.n
    return best, ReconfigSequence([Subset.from_mask(n, m) for m in chain])
