"""Exact solvers: reachability by A*, and the bottleneck optimum over the lattice.

:func:`reachable` answers the decision form for one threshold with A*, so it
evaluates only the states the search pops and tabulates nothing.

The optimum tabulates.  Every whole-lattice evaluation, here and in the
exhaustive structural checks of :mod:`subreco.core`, goes through
``core._value_table``; this module picks the states and their order.
States are all subsets of the (optionally restricted) ground set in
descending mask order, or, under the exchange rule (TJ), the subsets of size
``|X|`` in combinations order; a size guard refuses enumerations beyond
``2^20`` states (``10^6`` for the fixed-size slice).

The bottleneck solver answers the optimization form: the largest threshold
``theta`` for which a feasible sequence exists equals the value at which X
and Y first fall into one connected component when states are inserted in
decreasing value order.  Its sequence is the same A* walk through the
table's states that reach that value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    _value_table,
    neighbor_masks,
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
        if comb(len(elements), cardinality_k) > SLICE_LIMIT:
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


def _bottleneck(
    table: dict[int, float],
    rule: AdjacencyRule,
    n: int,
    x_mask: int,
    y_mask: int,
) -> float:
    """Insert states in decreasing value order until X and Y connect.

    Connectivity is a union-find forest over the inserted states.  Ties are
    broken by ascending state id, though any tie order yields the same
    bottleneck value.  Returns the value of the last inserted state.
    """
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for mask in sorted(table, key=lambda m: (-table[m], m)):
        parent[mask] = mask
        for t in neighbor_masks(rule, n, mask):
            if t in parent:
                parent[find(mask)] = find(t)
        if x_mask in parent and y_mask in parent and find(x_mask) == find(y_mask):
            return table[mask]
    raise RuntimeError("endpoints never connected; table is inconsistent")


def _optimum(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    restriction: Optional[Subset],
) -> tuple[float, Optional[dict[int, float]]]:
    """The optimal threshold and the value table it came from.

    The table covers the restriction (all ``n`` elements by default), which
    must hold X and Y; under TJ it is the slice of sets with ``|X|`` elements,
    and ``|Y| != |X|`` raises ``ValueError``.  X == Y costs one evaluation and
    no table (the table is None).
    """
    n = oracle.universe.n
    if restriction is None:
        restriction = Subset.full(n)
    if not x.issubset(restriction) or not y.issubset(restriction):
        raise ValueError("endpoints must lie inside the ground restriction")
    k = len(x) if rule is AdjacencyRule.TJ else None
    if k is not None and len(y) != k:
        raise ValueError(f"TJ endpoints must have equal size, got {len(x)} and {len(y)}")
    if x == y:
        return oracle.evaluate(x), None
    table, _ = build_value_table(oracle, rule, cardinality_k=k, restriction=restriction)
    return _bottleneck(table, rule, n, x.mask, y.mask), table


def optimal_value(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    restriction: Optional[Subset] = None,
) -> float:
    """Largest ``theta`` for which an all-feasible sequence from X to Y exists.

    Under TJ every set of the walk has ``|X|`` elements, so only that slice of
    the lattice is evaluated, and X and Y must have equal size.
    """
    return _optimum(oracle, x, y, rule, restriction)[0]


def optimal_sequence(
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    restriction: Optional[Subset] = None,
) -> tuple[float, ReconfigSequence]:
    """Optimal threshold plus a shortest sequence attaining it.

    The sequence is A*'s shortest walk (:func:`~subreco.algorithms.feasible_path`,
    with its tie order) through the tabulated states whose value reaches the
    optimal threshold, compared exactly: the threshold is itself a table entry.
    The states, and under TJ the size rule, are those of :func:`optimal_value`.
    """
    best, table = _optimum(oracle, x, y, rule, restriction)
    if table is None:
        return best, ReconfigSequence([x])
    n = oracle.universe.n
    status, chain, _ = feasible_path(
        rule, n, x.mask, y.mask, lambda t: t in table and table[t] >= best, len(table)
    )
    if chain is None:
        raise RuntimeError(f"bottleneck value {status}; solver inconsistency")
    return best, ReconfigSequence([Subset.from_mask(n, m) for m in chain])
