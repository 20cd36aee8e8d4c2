"""Size sweep of the continuity deciders on singleton-scope identities.

    python tools/sweep_continuity.py LABEL=SRC [LABEL=SRC ...] [--max-n 64]
        [--repeat 3] [--rounds 3] [--cli-n 19] [--out BENCH_continuity.json]

Each SRC is the `src` directory of a softaura checkout, so a parent commit
and a change can be swept by the same script.  For every n in 8, 10, 12,
14, 16, 20, 24, 32, 48, 64 up to --max-n, and for 1 and 4 parameters, the
space of n points whose every scope slice is the point's singleton is
built over the discrete topology, and `continuity_profile` of its identity
is timed in process for each target family (aura, kuratowski, ambient) and
closure kind (cech, kuratowski): the best of --repeat runs, each
1-parameter and 4-parameter row also giving the total over all six family
and kind pairs.

With --cli-n N (0 to skip) the script also times
`python -m softaura continuity` processes on the identity of 3 and of N
such points with one parameter at the default cap, next to a bare
`python -c pass` start: the best of --repeat interleaved runs each, and
the time each command spends after interpreter start.

Every round sweeps each checkout once, in process in a fresh child and
then through the CLI, and the checkouts' order alternates between rounds,
so drift on the machine hits them alike.  Each figure is the median over
the rounds.  Rows are merged into the --out JSON under their labels,
replacing earlier rows of the same label.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = (8, 10, 12, 14, 16, 20, 24, 32, 48, 64)
PARAM_COUNTS = (1, 4)
FAMILIES = ("aura", "kuratowski", "ambient")
KINDS = ("cech", "kuratowski")


def singleton_doc(n: int, m: int) -> dict:
    names = [f"x{i + 1}" for i in range(n)]
    params = [f"e{j + 1}" for j in range(m)]
    return {
        "universe": names,
        "parameters": params,
        "topology": {"kind": "discrete"},
        "scope": {x: {e: [x] for e in params} for x in names},
    }


def sweep_in_process(max_n: int, repeat: int) -> list[dict]:
    from softaura import continuity_profile, identity_mapping, make_space

    rows = []
    for n in (s for s in SIZES if s <= max_n):
        for m in PARAM_COUNTS:
            doc = singleton_doc(n, m)
            mapping = identity_mapping(make_space(doc["universe"], doc["parameters"], doc["scope"]))
            for family in FAMILIES:
                for kind in KINDS:
                    best = None
                    for _ in range(repeat):
                        start = time.perf_counter()
                        profile = continuity_profile(mapping, kind=kind, target_family=family)
                        took = time.perf_counter() - start
                        best = took if best is None else min(best, took)
                    if not profile.continuous:
                        raise AssertionError(f"identity reported discontinuous at n={n}, m={m}")
                    rows.append(
                        {"n": n, "params": m, "family": family, "kind": kind, "seconds": round(best, 6)}
                    )
            print(
                f"n={n:2d} params={m}: all pairs {sum(r['seconds'] for r in rows[-6:]):.4f} s",
                file=sys.stderr,
            )
    return rows


def time_process(argv: list[str], env: dict) -> tuple[float, int]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True)
    return time.perf_counter() - start, proc.returncode


def sweep_cli(src: Path, n: int, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SOFTAURA_CAP", None)
    sizes = sorted({3, n})
    with tempfile.TemporaryDirectory() as tmp:
        commands = {"bare": [sys.executable, "-c", "pass"]}
        for size in sizes:
            (Path(tmp) / f"space{size}.json").write_text(json.dumps(singleton_doc(size, 1)), encoding="utf-8")
            mapping = {
                "source": {"ref": f"space{size}.json"},
                "target": {"ref": f"space{size}.json"},
                "pointMap": {f"x{i + 1}": f"x{i + 1}" for i in range(size)},
                "paramMap": {"e1": "e1"},
            }
            path = Path(tmp) / f"map{size}.json"
            path.write_text(json.dumps(mapping), encoding="utf-8")
            commands[size] = [sys.executable, "-m", "softaura", "continuity", str(path)]
        best: dict = {}
        for _ in range(repeat):  # interleaved, so drift hits every command alike
            for key, argv in commands.items():
                took, code = time_process(argv, env)
                if code != 0:
                    raise AssertionError(f"{argv} exited {code}")
                best[key] = min(best.get(key, took), took)
    return {
        "interpreter_s": round(best["bare"], 6),
        "command_s": {str(size): round(best[size], 6) for size in sizes},
        "after_start_s": {str(size): round(best[size] - best["bare"], 6) for size in sizes},
    }


def child(src: Path, max_n: int, repeat: int) -> list[dict]:
    argv = [sys.executable, __file__, "--child", "--max-n", str(max_n), "--repeat", str(repeat), f"child={src}"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def median_of(rounds: list[dict]) -> dict:
    """The CLI figures of one checkout, each the median over the rounds."""
    out = {"interpreter_s": round(statistics.median(r["interpreter_s"] for r in rounds), 6)}
    for key in ("command_s", "after_start_s"):
        out[key] = {size: round(statistics.median(r[key][size] for r in rounds), 6) for size in rounds[0][key]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", help="LABEL=SRC, the src directory of a checkout to time")
    parser.add_argument("--max-n", type=int, default=64)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--cli-n", type=int, default=19)
    parser.add_argument("--out", type=Path, default=Path("BENCH_continuity.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.repeat, args.rounds) < 1:
        parser.error("--repeat and --rounds must be at least 1")
    sides = {}
    for side in args.sides:
        label, sep, src = side.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=SRC, got {side!r}")
        sides[label] = Path(src).resolve()

    if args.child:
        sys.path.insert(0, str(sides["child"]))
        json.dump(sweep_in_process(args.max_n, args.repeat), sys.stdout)
        return 0

    labels = list(sides)
    profiles = {label: [] for label in labels}
    clis = {label: [] for label in labels}
    for r in range(args.rounds):
        for label in labels if r % 2 == 0 else labels[::-1]:
            print(f"round {r + 1} {label}", file=sys.stderr)
            profiles[label].append(child(sides[label], args.max_n, args.repeat))
            if args.cli_n > 0:
                clis[label].append(sweep_cli(sides[label], args.cli_n, args.repeat))

    doc = {"rows": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["workload"] = (
        "continuity_profile of the identity on n singleton-scope points over the discrete "
        "topology, best of repeats, per target family and closure kind"
    )
    for label in labels:
        rows = [
            dict(row, seconds=round(statistics.median(run[k]["seconds"] for run in profiles[label]), 6))
            for k, row in enumerate(profiles[label][0])
        ]
        doc["rows"][label] = {
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "repeat": args.repeat,
            "rounds": args.rounds,
            "profiles": rows,
            "cli": median_of(clis[label]) if clis[label] else None,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
