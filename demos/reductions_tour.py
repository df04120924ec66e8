"""
Reconfiguration problems encoded as threshold instances
=======================================================

Cover walks, not-all-equal satisfiability walks, and a value-band gadget
all become plain threshold reconfiguration over a suitable oracle; this
tour builds each one on a tiny input and inspects the result.
"""

from itertools import combinations

from subreco import (
    CnfFormula,
    SatAssignment,
    Subset,
    VcReconfigInstance,
    WeightedGraph,
    format_ids_1indexed,
    inapprox_gadget,
    minvc_to_usreco_tjar,
    modular_oracle,
    nae3sat_to_usreco_tar,
    optimal_sequence,
    reachable,
    vc_to_msreco,
)

# -- cover-to-cover walks on a 4-vertex path --------------------------------
# {2,3} and {1,3} are minimum covers of the path 1-2-3-4.  Under the
# edge-incidence oracle a size-2 set is feasible at threshold |E| exactly
# when it covers, so the cover walk is an ordinary exchange walk.

path = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3)])
covers = VcReconfigInstance(path, Subset(4, (1, 2)), Subset(4, (0, 2)))
inst = vc_to_msreco(covers)
print(f"fixed-size cover instance: threshold {inst.theta}, "
      f"reachable: {reachable(inst)}")
value, seq = optimal_sequence(inst.oracle, inst.x, inst.y, inst.rule)
print("  walk: " + " -> ".join(format_ids_1indexed(s) for s in seq))

# The unconstrained variant shifts the oracle by (n - |S|) / 2 so that
# exactly the size-2 covers clear the threshold; nothing else does.
shifted = minvc_to_usreco_tjar(covers)
feasible = [
    format_ids_1indexed(Subset(4, c))
    for r in range(5)
    for c in combinations(range(4), r)
    if shifted.oracle.evaluate(Subset(4, c)) >= shifted.theta
]
print(f"add-remove cover instance: threshold {shifted.theta}, "
      f"feasible sets {' '.join(feasible)}")

# -- not-all-equal clauses as a threshold on true-sets ----------------------
# A clause counts toward the objective when its three variables are neither
# all true nor all false, so threshold m keeps every step NAE-satisfying.

phi = CnfFormula.monotone3(4, [(0, 1, 2), (1, 2, 3)])
nae = nae3sat_to_usreco_tar(
    phi, SatAssignment.from_string("1100"), SatAssignment.from_string("0110")
)
print(f"\nclause instance: threshold {nae.theta}, reachable: {reachable(nae)}")

# -- value bands from a scaled 4-cycle --------------------------------------
# Wrapping an oracle with a bipartite cut whose weight dwarfs it creates
# three bands; walks between the two gadget sides must leave the top band,
# which caps how well any strategy can do relative to the endpoints.

inner = modular_oracle([0.4, 0.7])
gadget = inapprox_gadget(inner, upsilon=3.0)
print("\ngadget band per subset size of the crossing:")
for members, note in [
    ((2, 3), "one side, top band"),
    ((2, 4), "split pair, middle band"),
    ((2,), "single gadget element, middle band"),
    ((0, 1), "inner elements only, bottom band"),
]:
    s = Subset(6, members)
    print(f"  g({format_ids_1indexed(s)}) = {gadget.oracle.evaluate(s):.2f}  ({note})")
