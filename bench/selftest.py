"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload for a fraction of a second and checks that:
- BENCHMARK.json names exactly the metrics and units the code reports;
- every workload reports every end-to-end metric, and its own named
  figures, with their units, and no operation fails on the current code;
- the traced run reports every per-layer metric with its unit;
- a wrong result injected through the check path is counted as failed.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def units_of(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def main() -> int:
    if run.missing_sources():
        print("error: run from a softaura checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(run.ROOT / "src"))
    from layers import METRICS

    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != METRICS:
        problems.append("BENCHMARK.json per_layer differs from layers.METRICS")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        result = run.run_workload(workload, seed=0, seconds=0.2, trace=False, min_ops=2)
        if units_of(result["metrics"]) != run.END_TO_END:
            problems.append(f"{workload}: end-to-end metrics {sorted(result['metrics'])}")
        if units_of(result["named"]) != run.NAMED[workload]:
            problems.append(f"{workload}: named figures {sorted(result['named'])}")
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} operations failed")

    traced = run.run_workload("space-queries", seed=0, seconds=0.5, trace=True)
    if units_of(traced["metrics"]) != {name: unit for name, (unit, _) in METRICS.items()}:
        problems.append("traced run: per-layer metrics differ from layers.METRICS")

    def inject(ops):
        honest = ops[0].call
        ops[0].call = lambda cycle: honest(cycle).complement()

    injected = run.run_workload("space-queries", seed=0, seconds=0.2, trace=False, tamper=inject)
    if injected["failed"] < 1 or injected["failed_share"] <= 0 or injected["correct"]:
        problems.append(f"injected wrong result not counted: failed={injected['failed']}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
