"""Size sweep of the continuity deciders on singleton-scope identities.

    python tools/sweep_continuity.py SRC --label NAME [--max-n 64] [--repeat 3]
        [--cli-n 19] [--out BENCH_continuity.json]

SRC is the `src` directory of the softaura checkout to time, so two
checkouts (say a parent commit and a change) can be swept by the same
script.  For every n in 8, 10, 12, 14, 16, 20, 24, 32, 48, 64 up to
--max-n, and for 1 and 4 parameters, the space of n points whose every
scope slice is the point's singleton is built over the discrete topology,
and `continuity_profile` of its identity is timed in process for each
target family (aura, kuratowski, ambient) and closure kind (cech,
kuratowski): the best of --repeat runs, each 1-parameter and 4-parameter
row also giving the total over all six family and kind pairs.

With --cli-n N (0 to skip) the script also times
`python -m softaura continuity` processes on the identity of 3 and of N
such points with one parameter at the default cap, next to a bare
`python -c pass` start: the best of --repeat interleaved runs each, and
the time each command spends after interpreter start.

Rows are merged into the --out JSON under --label, replacing earlier rows
of the same label.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="src directory of the checkout to time")
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--max-n", type=int, default=64)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--cli-n", type=int, default=19)
    parser.add_argument("--out", type=Path, default=Path("BENCH_continuity.json"))
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    rows = sweep_in_process(args.max_n, args.repeat)
    cli = sweep_cli(src, args.cli_n, args.repeat) if args.cli_n > 0 else None

    doc = {"rows": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["workload"] = (
        "continuity_profile of the identity on n singleton-scope points over the discrete "
        "topology, best of repeats, per target family and closure kind"
    )
    doc["rows"][args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "repeat": args.repeat,
        "profiles": rows,
        "cli": cli,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
