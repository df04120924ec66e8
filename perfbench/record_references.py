"""Record the search workload's pinned (status, length) references.

Runs every A* query of the search workload, whose queries are the same
for every seed, and writes ``references.json`` next to this file.
Re-record only when a change to subreco is meant to change search outcomes,
and say so where the change is described.

    PYTHONPATH=src python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import tracing
import workloads


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.search_setup(workloads.DEFAULT_SEED, Path(tmp))
    refs = {}
    for query in inputs["queries"]:
        op = workloads.SearchOp(*query, expected=None)
        _, (_, res) = op.run(tracing.NULL)
        refs[op.label] = [res.status, res.sequence.length if res.sequence else None]
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
