"""Run one workload in this process and print its raw result as JSON.

Started by run.py in a child process of its own, with BLAS pinned to one
thread and ``src`` on the path.  One client, one thread, closed loop: each op
starts when the previous one (and its correctness gate) has finished.

The run sets the workload up several times and keeps the median, runs one
warm-up op, then repeats passes over the op list until ``--seconds`` would be
exceeded (at least one pass).  A calibration loop timed around every op
scales its time to the reference machine speed, and each op's figure is the
median over passes (see README.md for why).  With ``--trace 1`` untraced and
traced passes alternate, so the traced per-layer numbers and the tracing
overhead come from the same process; spans are written under ``.perfbench/``
at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# The calibration loop's time at the reference speed.  On the two-core
# machine this benchmark was written on, the loop took 1.0 ms in the fast
# phases of its load and about twice that in the slow ones.
CAL_ITERS = 12_000
CAL_REF_S = 0.001


def run_op(op, tr, tally: Counter):
    """Time one op, then gate it (and probe it when traced).

    Returns (seconds, oracle calls, mix label, output), or None when the op
    raised.  An op that fails its gate keeps its time, with label "failed".
    """
    tally["attempted"] += 1
    try:
        with tr.span("op"):
            t0 = perf_counter()
            calls, out = op.run(tr)
            seconds = perf_counter() - t0
    except Exception:  # one bad op must not end the run; it counts as failed
        report_failure(op, tally)
        return None
    try:
        label = op.check(out, tr)
        if tr.enabled:
            op.probe(out, tr)
    except Exception:
        report_failure(op, tally)
        label = "failed"
    return seconds, calls, label, out


def report_failure(op, tally: Counter) -> None:
    print(f"op {op.label} failed:", file=sys.stderr)
    traceback.print_exc()
    tally["failed"] += 1


def calibrate() -> float:
    """Seconds taken by a fixed loop of small-integer arithmetic.

    The loop creates no containers, so it never triggers the garbage
    collector and its time depends on the machine's current speed only,
    not on what the program has left on the heap.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc = (acc * 31 + i) & 0xFFFFF
    return perf_counter() - t0


def run_pass(ops, tr, pass_id: int, tally: Counter) -> dict:
    """Per op id (ops that raised left out): measured seconds, and seconds at
    the reference speed; plus oracle calls and mix labels."""
    raw, scaled, calls, labels = {}, {}, 0, Counter()
    tr.pass_id = pass_id
    before = calibrate()
    for op_id, op in enumerate(ops):
        tr.op_id = op_id
        done = run_op(op, tr, tally)
        after = calibrate()
        if done is None:
            labels["failed"] += 1
        else:
            seconds, op_calls, label, _ = done
            raw[op_id] = seconds
            scaled[op_id] = seconds * CAL_REF_S * 2 / (before + after)
            calls += op_calls
            labels[label] += 1
        before = after
    return {"raw": raw, "scaled": scaled, "calls": calls, "labels": labels}


def op_medians(passes: list[dict], key: str) -> list[float]:
    by_op: dict[int, list[float]] = {}
    for p in passes:
        for op_id, seconds in p[key].items():
            by_op.setdefault(op_id, []).append(seconds)
    return [statistics.median(v) for _, v in sorted(by_op.items())]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    # importing subreco (and numpy under it) is part of set-up time
    t0 = perf_counter()
    import tracing
    import workloads

    import_s = perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inputs = wl.setup(args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        ops = wl.ops(inputs, args.seed)

        tally = Counter()
        descriptors = {"ops_per_pass": len(ops)}
        warm = run_op(ops[0], tracing.NULL, tally)
        if warm is not None:
            descriptors.update(ops[0].describe(warm[3]))

        tracer = tracing.Tracer() if args.trace else None
        schedule = [tracing.NULL] + ([tracer] if tracer else [])
        passes = [[] for _ in schedule]
        costs = []
        deadline = perf_counter() + args.seconds
        i = 0
        while True:
            tr = schedule[i % len(schedule)]
            t0 = perf_counter()
            passes[i % len(schedule)].append(run_pass(ops, tr, i, tally))
            costs.append(perf_counter() - t0)
            i += 1
            if i >= len(schedule) and perf_counter() + statistics.median(costs) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = passes[0]
    for label, count in sorted(plain[0]["labels"].items()):
        descriptors[f"mix.{label}"] = count
    times = op_medians(plain, "scaled")
    if not times:
        print("every timed op raised; no metrics to report", file=sys.stderr)
        return 1
    descriptors["raw_wall_s"] = sum(op_medians(plain, "raw"))
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.p90": p90(times),
            "oracle_calls": statistics.median(p["calls"] for p in plain),
        }
        trace_file = None
    else:
        metrics = tracing.layer_metrics(tracer)
        traced = op_medians(passes[1], "scaled")
        metrics["trace.overhead_ratio"] = sum(traced) / sum(times) - 1.0
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        trace_file = str(trace_file.relative_to(ROOT))
    descriptors["passes"] = len(plain)
    descriptors["ops_timed"] = sum(len(p["raw"]) for p in plain)
    print(
        json.dumps(
            {
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": metrics,
                "inputs": descriptors,
                "trace_file": trace_file,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
