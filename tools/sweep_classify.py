"""Size sweep of `classify` under both closure kinds, on chain and sparse scopes.

    python tools/sweep_classify.py LABEL=SRC [LABEL=SRC ...] [--sets 32]
        [--repeat 5] [--rounds 11] [--out BENCH_classify.json]

Each SRC is the `src` directory of a softaura checkout, so a parent commit
and a change can be swept by the same script.  For n in 4, 8, 16, 32 and
64, two seeded spaces of n points and 3 parameters are built over the
discrete topology: chain scopes (x -> {x, its successor} along a random
order per parameter, so a fixpoint closure can take about n steps) and
sparse scopes (x plus two random points).  Each space gets --sets seeded
soft sets, each slice a random sample of 0 to n points.  For each space and
closure kind (cech, kuratowski), one pass classifies every set once; the
row keeps the best of --repeat passes, in microseconds per `classify` call,
and the number of true flags over the pass, which the checkouts must agree
on.

Every round runs one fresh child process per checkout, and the checkouts'
order alternates between rounds, so drift on the machine hits them alike.
Each row keeps every round's figure and their median.  Rows are merged
into the --out JSON under their labels, replacing earlier rows of the same
label.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (4, 8, 16, 32, 64)
SHAPES = ("chain", "sparse")
KINDS = ("cech", "kuratowski")
PARAMS = 3
SEED = 1


def scope_table(n: int, shape: str, rng: random.Random) -> tuple[list, list, dict]:
    universe = [f"x{i + 1}" for i in range(n)]
    params = [f"e{j + 1}" for j in range(PARAMS)]
    scope = {x: {} for x in universe}
    for e in params:
        order = universe[:]
        rng.shuffle(order)
        for i, x in enumerate(order):
            if shape == "chain":
                scope[x][e] = order[i:i + 2]
            else:
                scope[x][e] = [x] + rng.sample(universe, 2)
    return universe, params, scope


def measure(sets: int, repeat: int) -> list[dict]:
    from softaura import classify, make_soft_set, make_space

    rows = []
    for n in SIZES:
        for shape in SHAPES:
            rng = random.Random(f"{SEED}-{n}-{shape}")
            universe, params, scope = scope_table(n, shape, rng)
            space = make_space(universe, params, scope)
            gs = [
                make_soft_set(space.context, {e: rng.sample(universe, rng.randint(0, n)) for e in params})
                for _ in range(sets)
            ]
            for kind in KINDS:
                best = None
                for _ in range(repeat):
                    start = time.perf_counter()
                    profiles = [classify(space, g, kind) for g in gs]
                    took = time.perf_counter() - start
                    best = took if best is None else min(best, took)
                flags = sum(
                    p.a_open + p.alpha_open + p.semi_open + p.pre_open + p.b_open + p.beta_open
                    for p in profiles
                )
                rows.append(
                    {"n": n, "shape": shape, "kind": kind, "us_per_call": 1e6 * best / sets, "true_flags": flags}
                )
    return rows


def child(src: Path, sets: int, repeat: int) -> list[dict]:
    argv = [sys.executable, __file__, "--child", "--sets", str(sets), "--repeat", str(repeat), f"child={src}"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", help="LABEL=SRC, the src directory of a checkout to time")
    parser.add_argument("--sets", type=int, default=32, help="soft sets per space")
    parser.add_argument("--repeat", type=int, default=5, help="passes per space and kind, the best one kept")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--out", type=Path, default=Path("BENCH_classify.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.sets, args.repeat, args.rounds) < 1:
        parser.error("--sets, --repeat and --rounds must be at least 1")
    sides = {}
    for side in args.sides:
        label, sep, src = side.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=SRC, got {side!r}")
        sides[label] = Path(src).resolve()

    if args.child:
        sys.path.insert(0, str(sides["child"]))
        json.dump(measure(args.sets, args.repeat), sys.stdout)
        return 0

    labels = list(sides)
    rounds = {label: [] for label in labels}
    for r in range(args.rounds):
        for label in labels if r % 2 == 0 else labels[::-1]:
            rounds[label].append(child(sides[label], args.sets, args.repeat))
            total = sum(row["us_per_call"] for row in rounds[label][-1])
            print(f"round {r + 1} {label}: {total:.1f} us summed over rows", file=sys.stderr)

    first = rounds[labels[0]][0]
    for label in labels:
        for run in rounds[label]:
            if [row["true_flags"] for row in run] != [row["true_flags"] for row in first]:
                raise SystemExit(f"{label} classifies differently from {labels[0]}")

    doc = {"rows": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["workload"] = (
        f"classify of {args.sets} seeded soft sets per space, n points x {PARAMS} parameters, chain and "
        "sparse scopes, both closure kinds; best pass of --repeat in us per call; rounds alternate "
        "the checkouts' order"
    )
    for label in labels:
        rows = []
        for k, row in enumerate(first):
            per_round = [run[k]["us_per_call"] for run in rounds[label]]
            rows.append(
                {
                    "n": row["n"],
                    "shape": row["shape"],
                    "kind": row["kind"],
                    "us_per_call": round(statistics.median(per_round), 2),
                    "us_per_call_rounds": [round(us, 2) for us in per_round],
                    "true_flags": row["true_flags"],
                }
            )
        doc["rows"][label] = {
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "rounds": args.rounds,
            "sets_per_space": args.sets,
            "repeat": args.repeat,
            "sizes": rows,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
