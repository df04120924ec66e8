"""Spans around the benchmark's calls into subreco, kept in memory.

A span records name, start, end, parent span, op id and whether it belongs
to a probe (a call the traced run adds after an op to split a layer the op
only reaches from inside the library).  Oracle evaluations are too many to
record one span each, so a timing oracle adds each evaluation's duration to
the enclosing span's child time and to per-kind totals instead.  A span's
self time is its duration minus its child time.

``NULL`` stands in when tracing is off: its spans record nothing and it
leaves oracles unwrapped, so untraced runs time the library alone.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from subreco import SetFunctionOracle


class NullTracer:
    enabled = False
    pass_id = op_id = None

    def span(self, name: str, probe: bool = False):
        return nullcontext({})

    def wrap(self, oracle: SetFunctionOracle) -> SetFunctionOracle:
        return oracle


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self.pass_id: int | None = None
        self.eval_s: dict[str, float] = defaultdict(float)
        self.eval_n: dict[str, int] = defaultdict(int)
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time the enclosed calls; the yielded dict takes extra counts."""
        parent = self._stack[-1] if self._stack else None
        rec = {
            "name": name,
            "op": self.op_id,
            "pass": self.pass_id,
            "parent": None if parent is None else parent["id"],
            "probe": probe or (parent is not None and parent["probe"]),
            "id": len(self.spans),
            "child_s": 0.0,
            "eval_s": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]

    def wrap(self, oracle: SetFunctionOracle) -> SetFunctionOracle:
        """Same function and claims, with each evaluation timed."""
        kind = oracle.name
        inner = oracle.evaluate
        stack = self._stack

        def timed(s):
            t0 = perf_counter()
            value = inner(s)
            dt = perf_counter() - t0
            self.eval_s[kind] += dt
            self.eval_n[kind] += 1
            if stack:
                stack[-1]["child_s"] += dt
                stack[-1]["eval_s"] += dt
            return value

        return SetFunctionOracle(
            timed,
            oracle.universe,
            claims_monotone=oracle.claims_monotone,
            claims_submodular=oracle.claims_submodular,
            claims_nonnegative=oracle.claims_nonnegative,
            name=oracle.name,
            serial=oracle.serial,
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


# The oracle kinds reported per evaluation, by SetFunctionOracle.name.
ORACLE_KINDS = {
    "influence": "influence",
    "logdet": "logdet",
    "cut": "cut",
    "coverage": "coverage",
    "incidence": "incidence",
    "nae": "nae_clauses",
    "modular": "modular",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run; 0 where a layer never ran.

    ``*.s`` and ``*.build_s`` are mean inclusive seconds per call,
    ``*.us`` mean microseconds per call, and ``.self_s`` is per call with
    child spans and oracle evaluations taken out.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    for rec in tracer.spans:
        by_name[rec["name"]].append(rec)

    def mean_s(name: str) -> float:
        recs = by_name.get(name, [])
        return statistics.fmean(duration(r) for r in recs) if recs else 0.0

    def total(name: str, key: str) -> float:
        return sum(r.get(key, 0) for r in by_name.get(name, []))

    def per_op_s(name: str) -> dict[tuple, float]:
        return {(r["pass"], r["op"]): duration(r) for r in by_name.get(name, [])}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    rr_s = sum(duration(r) for r in by_name.get("oracles.sample_rr_sets", []))
    samples = total("oracles.sample_rr_sets", "samples")
    m["oracles.sample_rr_sets.s"] = mean_s("oracles.sample_rr_sets")
    m["oracles.sample_rr_sets.samples_per_s"] = ratio(samples, rr_s)
    m["oracles.rr_set_size.mean"] = ratio(
        total("oracles.sample_rr_sets", "members"), samples
    )
    m["oracles.influence_oracle.build_s"] = mean_s("oracles.influence_oracle")

    for metric_kind, oracle_name in ORACLE_KINDS.items():
        m[f"oracles.evaluate.us.{metric_kind}"] = 1e6 * ratio(
            tracer.eval_s.get(oracle_name, 0.0), tracer.eval_n.get(oracle_name, 0)
        )
    ops = by_name.get("op", [])
    m["oracles.evaluate.share"] = ratio(
        sum(r["eval_s"] for r in tracer.spans if not r["probe"]),
        sum(duration(r) for r in ops),
    )

    m["core.neighbors.us"] = 1e6 * ratio(
        sum(duration(r) for r in by_name.get("core.neighbors", [])),
        total("core.neighbors", "calls"),
    )

    # exact's phases: the probes repeat the op's table build and bottleneck
    # search, so the op's own exact run minus the optimal_value probe is the
    # shortest-path search (plus run_experiment's few row evaluations).
    table = per_op_s("exact.build_value_table")
    optimum = per_op_s("exact.optimal_value")
    exact_run = {
        (r["pass"], r["op"]): duration(r)
        for r in by_name.get("experiment.run_experiment", [])
        if (r["pass"], r["op"]) in optimum
    }
    keys = sorted(optimum)
    m["exact.build_value_table.s"] = mean_s("exact.build_value_table")
    m["exact.bottleneck.s"] = (
        statistics.fmean(optimum[k] - table[k] for k in keys) if keys else 0.0
    )
    m["exact.path.s"] = (
        statistics.fmean(exact_run[k] - optimum[k] for k in keys) if keys else 0.0
    )
    m["exact.states"] = ratio(
        total("exact.build_value_table", "states"),
        len(by_name.get("exact.build_value_table", [])),
    )

    astar_s = sum(duration(r) for r in by_name.get("algorithms.astar", []))
    expansions = total("algorithms.astar", "expansions")
    passes = {r["pass"] for r in by_name.get("algorithms.astar", [])}
    m["algorithms.astar.expansions"] = ratio(expansions, len(passes))
    m["algorithms.astar.expansions_per_s"] = ratio(expansions, astar_s)
    m["algorithms.astar.calls_per_expansion"] = ratio(
        total("algorithms.astar", "calls"), expansions
    )
    m["algorithms.astar.useful_ratio"] = ratio(
        total("algorithms.astar", "steps"), expansions
    )

    for name in (
        "core.check_submodular",
        "core.check_monotone",
        "core.total_curvature",
        "core.validate_sequence",
        "fileio.load_instance",
        "fileio.load_edge_list",
        "fileio.load_gram",
        "experiment.interchangeable_greedy",
        "algorithms.swap_reconfigure",
    ):
        m[f"{name}.s"] = mean_s(name)
    runs = by_name.get("experiment.run_experiment", [])
    m["experiment.run_experiment.self_s"] = (
        statistics.fmean(duration(r) - r["child_s"] for r in runs) if runs else 0.0
    )
    return m
