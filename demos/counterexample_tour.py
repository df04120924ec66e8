"""
Three small instances where walks and optima disagree
=====================================================

Each built-in instance is small enough to solve exactly, so the gap
between what a walk heuristic achieves and what is actually attainable
can be printed side by side.
"""

from subreco import (
    AdjacencyRule,
    ProblemInstance,
    astar,
    format_ids_1indexed,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    optimal_value,
    swap_reconfigure,
    tjar_reconfigure,
)


def walk_value(f, seq):
    return min(f.evaluate(s) for s in seq)


def pretty(seq):
    return " -> ".join(format_ids_1indexed(s) for s in seq)


# -- a detour through a fifth element beats every direct exchange -----------
# Two complementary coverage pairs are the endpoints; a universal element
# outside their union keeps full coverage mid-walk, but any exchange that
# stays inside the union must drop an item.

inst = obs52_instance()
f, x, y = inst.oracle, inst.x, inst.y
print("coverage detour instance")
print(f"  optimal value, free ground set: "
      f"{optimal_value(f, x, y, AdjacencyRule.TJ)}")
print(f"  optimal value, restricted to X | Y: "
      f"{optimal_value(f, x, y, AdjacencyRule.TJ, restriction=x | y)}")
seq = swap_reconfigure(f, x, y)
print(f"  greedy exchange walk: {pretty(seq)} value {walk_value(f, seq)}")

# -- a weighted matching separates the two walk strategies ------------------
# Vertices i and i + n/2 are matched with weight 1/(i+1); the endpoints are
# the two sides.  Shrinking to a singleton keeps the heaviest edge cut the
# whole way, while same-size exchanges must pass a set that cuts nothing.

inst = obs54_instance(8)
f, x, y = inst.oracle, inst.x, inst.y
print("\nweighted matching instance, n=8")
print(f"  add-remove walk value: {walk_value(f, tjar_reconfigure(f, x, y))}")
print(f"  exchange walk value:   {walk_value(f, swap_reconfigure(f, x, y))}")

# -- a single edge forces every add-remove walk through value zero ----------
# Both endpoints cut the one unit edge, but moving between them must pass
# the empty set or the full pair, and both cut nothing.

inst = obs55_instance()
f, x, y = inst.oracle, inst.x, inst.y
print("\nsingle-edge instance")
print(f"  endpoint values: {f.evaluate(x)}, {f.evaluate(y)}")
print(f"  optimal value:   {optimal_value(f, x, y, AdjacencyRule.TAR)}")

res = astar(ProblemInstance(f, x, y, AdjacencyRule.TAR, 0.5))
print(f"  search at threshold 0.5: {res.status}")
res = astar(ProblemInstance(f, x, y, AdjacencyRule.TAR, 0.0))
print(f"  search at threshold 0.0: {res.status}, {pretty(res.sequence)}")
