"""subreco benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a plain checkout: no install is needed.  The workload runs in a
child process (perfbench/harness.py) with ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread; its peak resident memory is read here once it exits.
With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list, with
``--trace 1`` its ``per_layer`` list.  Every metric is printed with its name
and unit, after the input descriptors, and the last line of standard output
is the JSON result.  The exit code is non-zero, and no result is printed,
when the checkout lacks the library or its data, or the run breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
REQUIRED = ("src/subreco/__init__.py", "data/karate.tsv", "data/gram24.txt")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return fail(f"checkout lacks {', '.join(missing)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable,
        str(HERE / "harness.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        return fail(f"workload {args.workload} exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = raw["metrics"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child is the workload
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        return fail(f"workload {args.workload} did not report {', '.join(absent)}")

    for name, value in raw["inputs"].items():
        print(f"input {name} = {value}")
    if raw["trace_file"]:
        print(f"spans written to {raw['trace_file']}")
    print(f"failed_ratio = {raw['failed'] / raw['attempted']:.6g} ({raw['failed']} of {raw['attempted']} ops)")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
