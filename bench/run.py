"""End-to-end and per-layer benchmark for softaura.

Run from the root of a checkout:

    python3 bench/run.py --workload <cli|law-suite|space-queries|deciders|all>
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client (see workloads.py).  With
`--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs the per-layer probe (layers.py) under spans and prints the per-layer
metrics, the exact work counts and the tracing overhead.

Every workload reports the same end-to-end metrics: ops_per_s, op_ms_p50
and op_ms_p90 (an operation is one CLI request, one law-suite call, one
query or one decider call), setup_s (importing softaura and building the
inputs, median over fresh processes) and peak_rss_mb (for the CLI, the
peak of its child processes).  Times are scaled to a reference machine
speed (calibration.py); the raw wall-clock figures and each workload's own
names for its figures (cli_ms_p50, suite_spaces_per_s, ...) are printed
beside them, with failed_share and the count of CapExceeded raised.

Every result is checked against the oracles (checks.py); wrong results,
nonzero exits and exceptions count as failed operations.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A result file with provenance, and for traced runs a
span file, is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli", "law-suite", "space-queries", "deciders")

#: End-to-end metrics, reported by every workload: name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Each workload's own names for its end-to-end figures, printed beside them.
NAMED = {
    "cli": {"cli_ms_p50": "ms", "cli_ms_p90": "ms"},
    "law-suite": {"suite_spaces_per_s": "1/s", "scan_mappings_per_s": "1/s"},
    "space-queries": {"queries_per_s": "1/s"},
    "deciders": {"deciders_per_s": "1/s"},
}
SETUP_PROBES = 5
SETUP_REFERENCES = 4
MIN_CLI_REQUESTS = 100
SHOWN_TRACEBACKS = 3


def missing_sources() -> list[str]:
    needed = [ROOT / "src" / "softaura" / "__init__.py", ROOT / "tests" / "fixtures"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


# -- the timed loop ------------------------------------------------------------------


class Tally:
    """Counts and per-operation times of one loop; times are kept in compact arrays."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cap_exceeded = 0
        self.op_index = array("I")
        self.raw = array("d")  # wall seconds per operation
        self.scaled = array("d")  # the same at the calibration's reference speed
        self.elapsed = 0.0  # wall seconds in operations and their checks
        self.scaled_elapsed = 0.0
        self.references: list[float] = []

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.cap_exceeded += other.cap_exceeded


def run_loop(ops, seconds: float, tracer, whole_cycles: bool, calibrator, min_ops: int = 0) -> Tally:
    """Cycle through `ops` for `seconds` (and at least `min_ops` operations).

    With whole_cycles the loop also ends on a cycle boundary, so every run
    measures the same mix of operations.  Every `calibrator.every` seconds
    the reference task is timed (outside the operations) and the stretch
    since the previous one is scaled to the reference speed.
    """
    from softaura import CapExceeded

    tally = Tally()
    first_reference = len(calibrator.times)
    deadline = time.perf_counter() + seconds
    next_calibration = time.perf_counter() + calibrator.every
    stretch_start = 0
    stretch = 0.0
    i = cycle = 0
    while True:
        op = ops[i]
        begin = time.perf_counter()
        with tracer.span(op.layer, request=tally.attempted, op=op.label):
            try:
                result = op.call(cycle)
                elapsed = time.perf_counter() - begin
                ok = op.check(result)
            except CapExceeded:
                elapsed, ok = time.perf_counter() - begin, False
                tally.cap_exceeded += 1
            except Exception:
                elapsed, ok = time.perf_counter() - begin, False
                if tally.failed < SHOWN_TRACEBACKS:
                    print(f"operation {op.layer} {op.label} raised:", file=sys.stderr)
                    traceback.print_exc()
        tally.attempted += 1
        tally.failed += not ok
        tally.op_index.append(i)
        tally.raw.append(elapsed)
        i += 1
        if i == len(ops):
            i, cycle = 0, cycle + 1
        now = time.perf_counter()
        stretch += now - begin
        done = now >= deadline and tally.attempted >= min_ops and (i == 0 or not whole_cycles)
        if done or now >= next_calibration:
            factor = calibrator.factor()
            tally.scaled.extend(raw * factor for raw in tally.raw[stretch_start:])
            tally.elapsed += stretch
            tally.scaled_elapsed += stretch * factor
            stretch_start, stretch = len(tally.raw), 0.0
            next_calibration = time.perf_counter() + calibrator.every
        if done:
            break
    tally.references = calibrator.times[first_reference:]
    return tally


# -- set-up ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Import softaura and build the workload's inputs: raw and scaled seconds.

    The calibration is imported and run afterwards, so the modules it shares
    with softaura are paid for by the set-up.  Modules this script has
    already imported (json, subprocess, ...) are not counted.
    """
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    raw = time.perf_counter() - start
    from calibration import Calibrator

    calibrator = Calibrator()
    factors = [calibrator.factor() for _ in range(SETUP_REFERENCES)]
    return raw, raw * factors[-1]


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times from fresh processes; the first, which compiles bytecode, is dropped."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        times.append(tuple(json.loads(out.strip().splitlines()[-1])))
    return times[1:]


def prepare(workload: str, seed: int, workdir: Path):
    """Inputs, checked operations, whether the loop ends on cycle boundaries, and the child runner."""
    import workloads as w

    inputs = w.build(workload, seed)
    if workload == "cli":
        runner = w.ChildRunner(ROOT, workdir)
        return w.cli_ops(runner, w.cli_requests(ROOT, workdir, inputs), seed), False, runner
    if workload == "law-suite":
        return w.law_suite_ops(seed), True, None
    if workload == "space-queries":
        return w.space_query_ops(inputs), True, None
    return w.decider_ops(inputs), True, None


# -- metrics ----------------------------------------------------------------------------


def percentile_ms(seconds: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(seconds, n=100, method="inclusive")[q - 1]


def figures(workload: str, ops, tally: Tally, setup, peak_kb: int, scaled: bool) -> tuple[dict, dict]:
    """End-to-end figures and the workload's named ones, scaled to the reference speed or raw."""
    durations = tally.scaled if scaled else tally.raw
    e2e = {
        "ops_per_s": tally.attempted / (tally.scaled_elapsed if scaled else tally.elapsed),
        "op_ms_p50": percentile_ms(durations, 50),
        "op_ms_p90": percentile_ms(durations, 90),
        "setup_s": statistics.median(times[1 if scaled else 0] for times in setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    if workload == "cli":
        named = {"cli_ms_p50": e2e["op_ms_p50"], "cli_ms_p90": e2e["op_ms_p90"]}
    elif workload == "law-suite":
        from checks import SCAN_MAPPINGS
        from workloads import SUITE_CHUNK

        def durations_of(layer):
            return [d for i, d in zip(tally.op_index, durations) if ops[i].layer == layer]

        suite = durations_of("harness.run_law_suite")
        scans = durations_of("harness.decomposition_mapping_scan")
        named = {
            "suite_spaces_per_s": SUITE_CHUNK * len(suite) / sum(suite),
            "scan_mappings_per_s": SCAN_MAPPINGS * len(scans) / sum(scans),
        }
    elif workload == "space-queries":
        named = {"queries_per_s": e2e["ops_per_s"]}
    else:
        named = {"deciders_per_s": e2e["ops_per_s"]}
    return e2e, named


def size_sweep(per_layer: dict) -> dict:
    from workloads import QUERY_SIZES, SEPARATION_SIZES

    kernels = {
        f"n{n}": {
            name: per_layer[f"{prefix}.n{n}"]
            for name, prefix in (
                ("space.build_ms", "space.build_ms"),
                ("closure_us", "operators.closure_us"),
                ("interior_us", "operators.interior_us"),
                ("kuratowski_us", "operators.kuratowski_us"),
                ("classify_cech_us", "genopen.classify_us.cech"),
                ("classify_kuratowski_us", "genopen.classify_us.kuratowski"),
                ("approx_us", "rough.approx_us"),
            )
        }
        for n in QUERY_SIZES
    }
    deciders = {
        f"n{n}": {
            "separation_report_ms": per_layer[f"separation.report_ms.n{n}"],
            "alexandrov_ms": per_layer[f"operators.alexandrov_ms.n{n}"],
        }
        for n in SEPARATION_SIZES
    }
    return {"kernels": kernels, "separation": deciders}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def provenance(seed: int, seconds: float, trace: int, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": samples,
    }


# -- one workload -------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, min_ops: int | None = None, tamper=None) -> dict:
    """Run one workload; `tamper(ops)` may alter the operations before the loop."""
    from calibration import INTERPRETER_REFERENCE_S, Calibrator, interpreter_seconds
    from layers import METRICS, Probe
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    off = Tracer(False)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup = [] if trace else measure_setup(workload, seed)
        ops, whole_cycles, runner = prepare(workload, seed, Path(tmp))
        # The benchmark's own inputs and expected values are long-lived; keep
        # them out of the collector's way so it times only the program's garbage.
        gc.collect()
        gc.freeze()
        if tamper is not None:
            tamper(ops)
        if workload == "cli":
            calibrator = Calibrator(lambda: interpreter_seconds(runner.env), INTERPRETER_REFERENCE_S, every=0.0)
            min_ops = MIN_CLI_REQUESTS if min_ops is None else min_ops
        else:
            calibrator = Calibrator()
        # warm-up: one full cycle in-process, two requests for the CLI; checked and counted
        totals = run_loop(ops[:2] if workload == "cli" else ops, 0, off, True, calibrator)
        result = {"workload": workload}
        if not trace:
            tally = run_loop(ops, seconds, off, whole_cycles, calibrator, min_ops or 0)
            peak_kb = runner.peak_rss_kb if runner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            e2e, named = figures(workload, ops, tally, setup, peak_kb, scaled=True)
            metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
            result["named"] = {name: (named[name], unit) for name, unit in NAMED[workload].items()}
            raw_e2e, raw_named = figures(workload, ops, tally, setup, peak_kb, scaled=False)
            result["raw"] = {**raw_e2e, **raw_named}
            result["calibration_ms"] = {
                "median": 1e3 * statistics.median(tally.references),
                "min": 1e3 * min(tally.references),
                "max": 1e3 * max(tally.references),
            }
            samples = {"operations": tally.attempted, "setup_probes": len(setup), "ops_per_cycle": len(ops)}
        else:
            tracer = Tracer(True)
            start = time.perf_counter()
            probe = Probe(ROOT, tracer, seed)
            per_layer = probe.run()
            loop_seconds = max(seconds - (time.perf_counter() - start), seconds / 4) / 2
            plain = run_loop(ops, loop_seconds, off, whole_cycles, calibrator)
            tally = run_loop(ops, loop_seconds, tracer, whole_cycles, calibrator)
            per_layer["trace.overhead_ratio"] = (tally.scaled_elapsed / tally.attempted) / (
                plain.scaled_elapsed / plain.attempted
            )
            per_layer["trace.spans"] = len(tracer.spans)
            metrics = {name: (per_layer[name], unit) for name, (unit, _) in METRICS.items()}
            result["size_sweep"] = size_sweep(per_layer)
            totals.add(plain)
            totals.attempted += probe.checked
            totals.failed += probe.failed
            samples = {
                "operations": plain.attempted + tally.attempted,
                "probe_checks": probe.checked,
                "spans": len(tracer.spans),
                "ops_per_cycle": len(ops),
            }
            tracer.write(OUT / f"{workload}-seed{seed}-spans.json")
    totals.add(tally)
    result.update(
        {
            "correct": totals.failed == 0,
            "attempted": totals.attempted,
            "failed": totals.failed,
            "failed_share": totals.failed / totals.attempted,
            "cap_exceeded": totals.cap_exceeded,
            "metrics": metrics,
            "provenance": provenance(seed, seconds, int(trace), samples),
        }
    )
    return result


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    prov = result["provenance"]
    print(
        f"workload {result['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
        f"python {prov['python']}  cpu {prov['cpu']} x{prov['nproc']}  samples {prov['samples']}"
    )
    rows = dict(result["metrics"])
    rows.update(result.get("named", {}))
    units = {**END_TO_END, **NAMED[result["workload"]]}
    rows.update({f"raw.{name}": (value, units[name]) for name, value in result.get("raw", {}).items()})
    rows["failed_share"] = (result["failed_share"], "1")
    rows["cap_exceeded"] = (result["cap_exceeded"], "count")
    for name, (value, unit) in rows.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for table, by_n in result.get("size_sweep", {}).items():
        columns = list(next(iter(by_n.values())))
        print(f"  size sweep: {table}")
        print("    " + f"{'n':>4}" + "".join(f"{c:>24}" for c in columns))
        for n, row in by_n.items():
            print("    " + f"{n[1:]:>4}" + "".join(f"{row[c]:>24.6g}" for c in columns))
    with open(OUT / f"{result['workload']}-seed{prov['seed']}-trace{prov['trace']}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line), flush=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"error: run from a softaura checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
