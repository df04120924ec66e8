"""Tests of the benchmark itself; they are not part of the Tier-1 suite.

    python3 -m pytest perfbench/test_perfbench.py

The first test runs every workload once per mode (about a minute on two
cores); the rest check that each workload's gate fails an op whose expected
value is wrong.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from subreco import interchangeable_greedy, load_gram, logdet_oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for m in SPEC[section]:
        printed = f"{m['name']} = "
        assert any(line.startswith(printed) for line in proc.stdout.splitlines())
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def ops_for(name: str, tmp_path: Path) -> list:
    wl = workloads.WORKLOADS[name]
    return wl.ops(wl.setup(workloads.DEFAULT_SEED, tmp_path), workloads.DEFAULT_SEED)


def failures(op) -> int:
    tally = Counter()
    harness.run_op(op, tracing.NULL, tally)
    assert tally["attempted"] == 1
    return tally["failed"]


def test_influence_gate_fails_an_endpoint_band_that_excludes_the_estimate(tmp_path):
    op = ops_for("influence", tmp_path)[0]
    assert failures(op) == 0
    assert failures(replace(op, band=(30.0, 40.0))) == 1


def test_lattice_gate_fails_a_wrong_bottleneck_value(tmp_path):
    op = ops_for("lattice", tmp_path)[0]
    # the independent reference reproduces the exact solver on gram24, at
    # the workload's k = 6 and at the k = 7 of the 14-element instance
    assert op.value == pytest.approx(4.811933749758116, abs=1e-9)
    assert op.length == 6
    gram = load_gram(workloads.GRAM24)
    x, y = interchangeable_greedy(logdet_oracle(gram), 7)
    value, length = workloads.bottleneck_reference(gram, x, y)
    assert value == pytest.approx(5.5554618942224145, abs=1e-9)
    assert length == 7
    assert failures(op) == 0
    assert failures(replace(op, value=op.value + 1e-6)) == 1
    assert failures(replace(op, length=op.length - 1)) == 1


def test_search_gate_fails_a_wrong_reference(tmp_path):
    op = ops_for("search", tmp_path)[0]
    status, length = op.expected
    assert failures(op) == 0
    assert failures(replace(op, expected=(status, length + 1))) == 1
    assert failures(replace(op, expected=("no_path", None))) == 1


def test_audit_gate_fails_a_wrong_verdict(tmp_path):
    ops = {op.label: op for op in ops_for("audit", tmp_path)}
    for label in ("cut.monotone", "logdet.submodular", "modular.curvature"):
        assert failures(ops[label]) == 0
    assert failures(replace(ops["cut.monotone"], expected=True)) == 1
    assert failures(replace(ops["logdet.submodular"], expected=False)) == 1
    assert failures(replace(ops["modular.curvature"], expected=(0.5, 1.0))) == 1


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
