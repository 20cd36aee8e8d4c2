"""Size sweep of the law suite's pair laws, one space shape at a time.

    python tools/sweep_pairs.py LABEL=SRC [LABEL=SRC ...] [--spaces 3]
        [--repeat 3] [--rounds 3] [--suite-rounds 3] [--out BENCH_pairs.json]

Each SRC is the `src` directory of a softaura checkout, so a parent commit
and a change can be swept by the same script.  For each shape 2x2, 3x2,
2x4, 4x2, 3x3, 6x2 and 4x3, --spaces fixed seeded discrete spaces go
through `run_law_suite` one space per call: the sampled family of one space
over bounds n x m, for the first seeds from 1 up that draw the shape n x m.
Per space the script records the best seconds of --repeat such calls and
the pair evaluations, counted as the pairs handed to the harness's `_pair_row`
(2^nm (2^nm + 1) / 2 for the scan of every pair, m 2^n (2^n + 1) / 2 for
the pairs of single-slice sets, plus any full scans a space falls back on).

Every round runs one fresh child process per checkout, and the checkouts'
order alternates between rounds, so drift hits them alike.  A shape's row
keeps each round's mean seconds per space and their median.  With
--suite-rounds K (0 to skip) the exhaustive 3x2 suite,
`run_law_suite(SpaceFamilySpec(3, 2))`, is timed K times per checkout in
the same alternating way, with the sha256 of its report; the same child
then times `decomposition_mapping_scan()` at its defaults, the best of
SCAN_REPEAT calls, with the sha256 of the result's repr.

Rows are merged into the --out JSON under their labels, replacing earlier
rows of the same label.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SHAPES = ((2, 2), (3, 2), (2, 4), (4, 2), (3, 3), (6, 2), (4, 3))
# mapping scans per suite child, the best one kept
SCAN_REPEAT = 5


def shape_seeds(n: int, m: int, count: int) -> list[int]:
    """The first `count` seeds from 1 up whose one-space family over n x m draws the shape n x m."""
    from softaura import SpaceFamilySpec, iter_family_spaces

    seeds = []
    seed = 0
    while len(seeds) < count:
        seed += 1
        spec = SpaceFamilySpec(n, m, scope_mode="sampled", seed=seed, sample_count=1)
        ((shape_n, shape_m, _), _), = iter_family_spaces(spec)
        if (shape_n, shape_m) == (n, m):
            seeds.append(seed)
    return seeds


def measure_shapes(spaces: int, repeat: int) -> list[dict]:
    from softaura import SpaceFamilySpec, harness, run_law_suite

    pairs = [0]
    real_row = harness._pair_row

    def counting_row(t, g, hs, hit):
        pairs[0] += len(hs)
        real_row(t, g, hs, hit)

    harness._pair_row = counting_row
    fallbacks = [0]
    real_slice = getattr(harness, "_slice_alpha_meets", None)
    if real_slice is not None:

        def counting_slice(t, laws):
            counts = real_slice(t, laws)
            fallbacks[0] += counts is None
            return counts

        harness._slice_alpha_meets = counting_slice

    rows = []
    for n, m in SHAPES:
        seconds, evaluations, fell_back = [], [], []
        seeds = shape_seeds(n, m, spaces)
        for seed in seeds:
            spec = SpaceFamilySpec(n, m, scope_mode="sampled", seed=seed, sample_count=1)
            best = None
            for _ in range(repeat):
                pairs[0] = fallbacks[0] = 0
                start = time.perf_counter()
                result = run_law_suite(spec)
                took = time.perf_counter() - start
                best = took if best is None else min(best, took)
                if result.total_failures:
                    raise AssertionError(f"law failures on the {n}x{m} space of seed {seed}")
            seconds.append(best)
            evaluations.append(pairs[0])
            fell_back.append(fallbacks[0] if real_slice is not None else None)
        rows.append(
            {
                "shape": f"{n}x{m}",
                "seeds": seeds,
                "seconds_per_space": statistics.fmean(seconds),
                "pair_evaluations": evaluations,
                "fallbacks": fell_back,
            }
        )
    return rows


def measure_suite() -> dict:
    from softaura import SpaceFamilySpec, decomposition_mapping_scan, run_law_suite

    start = time.perf_counter()
    data = run_law_suite(SpaceFamilySpec(3, 2)).to_json_bytes()
    out = {"seconds": time.perf_counter() - start, "sha256": hashlib.sha256(data).hexdigest()}
    scans = []
    for _ in range(SCAN_REPEAT):
        start = time.perf_counter()
        result = decomposition_mapping_scan()
        scans.append(time.perf_counter() - start)
    out["scan_seconds"] = min(scans)
    out["scan_sha256"] = hashlib.sha256(repr(result).encode("utf-8")).hexdigest()
    return out


def child(src: Path, what: str, spaces: int, repeat: int) -> dict | list:
    argv = [sys.executable, __file__, "--child", what, "--spaces", str(spaces), "--repeat", str(repeat), f"child={src}"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", help="LABEL=SRC, the src directory of a checkout to time")
    parser.add_argument("--spaces", type=int, default=3, help="spaces per shape")
    parser.add_argument("--repeat", type=int, default=3, help="calls per space, the best one kept")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--suite-rounds", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    parser.add_argument("--child", choices=["shapes", "suite"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.spaces, args.repeat, args.rounds) < 1 or args.suite_rounds < 0:
        parser.error("--spaces, --repeat and --rounds must be at least 1, --suite-rounds at least 0")
    sides = {}
    for side in args.sides:
        label, sep, src = side.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=SRC, got {side!r}")
        sides[label] = Path(src).resolve()

    if args.child:
        sys.path.insert(0, str(sides["child"]))
        out = measure_shapes(args.spaces, args.repeat) if args.child == "shapes" else measure_suite()
        json.dump(out, sys.stdout)
        return 0

    labels = list(sides)
    shapes = {label: [] for label in labels}
    suites = {label: [] for label in labels}
    for r in range(max(args.rounds, args.suite_rounds)):
        order = labels if r % 2 == 0 else labels[::-1]
        for label in order:
            if r < args.rounds:
                shapes[label].append(child(sides[label], "shapes", args.spaces, args.repeat))
                print(f"round {r + 1} {label}: shapes done", file=sys.stderr)
            if r < args.suite_rounds:
                suites[label].append(child(sides[label], "suite", args.spaces, args.repeat))
                last = suites[label][-1]
                print(
                    f"round {r + 1} {label}: 3x2 suite {last['seconds']:.2f} s, scan {last['scan_seconds']:.3f} s",
                    file=sys.stderr,
                )

    doc = {"rows": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["workload"] = (
        "run_law_suite on one seeded discrete space per call, per shape; pair evaluations are "
        "the pairs handed to _pair_row; rounds alternate the checkouts' order"
    )
    for label in labels:
        rounds = shapes[label]
        rows = []
        for k in range(len(SHAPES)):
            per_round = [run[k]["seconds_per_space"] for run in rounds]
            first = rounds[0][k]
            rows.append(
                {
                    "shape": first["shape"],
                    "seeds": first["seeds"],
                    "seconds_per_space": round(statistics.median(per_round), 6),
                    "seconds_per_space_rounds": [round(s, 6) for s in per_round],
                    "pair_evaluations_per_space": first["pair_evaluations"],
                    "fallbacks": first["fallbacks"],
                }
            )
        suite = suites[label]
        doc["rows"][label] = {
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "rounds": args.rounds,
            "spaces_per_shape": args.spaces,
            "repeat": args.repeat,
            "shapes": rows,
            "exhaustive_3x2": {
                "seconds": [round(s["seconds"], 3) for s in suite],
                "median_s": round(statistics.median(s["seconds"] for s in suite), 3) if suite else None,
                "sha256": sorted({s["sha256"] for s in suite}),
            },
            "mapping_scan": {
                "scan_repeat": SCAN_REPEAT,
                "seconds": [round(s["scan_seconds"], 4) for s in suite],
                "median_s": round(statistics.median(s["scan_seconds"] for s in suite), 4) if suite else None,
                "sha256": sorted({s["scan_sha256"] for s in suite}),
            },
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
