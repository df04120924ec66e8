"""
Influence spread on the karate club network
===========================================

End-to-end pipeline: read an edge list, assign independent-cascade
probabilities, estimate spread with reverse-reachable sets, build two
disjoint seed sets greedily, and walk between them one exchange at a time.
"""

from pathlib import Path

from subreco import (
    AdjacencyRule,
    ExperimentConfig,
    ProblemInstance,
    format_ids_1indexed,
    influence_oracle,
    interchangeable_greedy,
    load_edge_list,
    run_experiment,
    sample_rr_sets,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "karate.tsv"
K = 8

# Undirected club edges become opposite arc pairs; each arc (u, v) fires
# with probability 1 / indegree(v).  Each RR sample reads its own block of a
# Philox stream keyed by the seed, so the numbers below reproduce exactly.
graph = load_edge_list(DATA, probability_mode="inverse-in-degree")
f = influence_oracle(sample_rr_sets(graph, 100_000, seed=7))
x, y = interchangeable_greedy(f, K)

# The same run as `subreco solve swap --graph data/karate.tsv --seed 7 --k 8`,
# which prints the same summary line.
instance = ProblemInstance(f, x, y, AdjacencyRule.TJ, None, K)
report = run_experiment(ExperimentConfig(algorithm="swap", instance=instance))

fx, fy = report.endpoint_values
print(report.summary())
print(f"\nendpoint spreads: f(X) = {fx:.5f}, f(Y) = {fy:.5f}")
print(f"start X: {format_ids_1indexed(report.rows[0][1])}")
print(f"end   Y: {format_ids_1indexed(report.rows[-1][1])}")

# The walk exchanges one seed per step, so its whole cost is transparent:
# the greedy construction pays at most k(k+1)+1 oracle calls (fewer here,
# as the influence oracle claims submodularity and greedy steps are lazy)
# and the value column is one evaluation per row.
print(f"\nwalk of {len(report.rows)} seed sets, worst spread {report.value:.5f} "
      f"({100 * report.value / min(fx, fy):.1f}% of the weaker endpoint)")
print("step values:", " ".join(f"{v:.2f}" for _, _, v in report.rows))
print(f"oracle calls: {report.calls_algorithm} to build the walk, "
      f"{report.calls_evaluation} to report it")
