"""Start-up cost of each CLI subcommand, against a bare interpreter start.

    python tools/sweep_startup.py LABEL=SRC [LABEL=SRC ...] [--repeat 21]
        [--out BENCH_startup.json]

Each SRC is the `src` directory of a softaura checkout, so a parent commit
and a change are timed by the same script in one run.  The commands are a
bare `python -c pass`, a process that only imports `softaura.cli`, and one
`python -m softaura` process per subcommand on the test fixtures:
validate, approx, classify under both closure kinds, axioms, continuity
and a 2x2 suite.  Each round starts every command once per checkout, the
checkouts one right after the other, and their order alternates between
rounds, so drift on the machine hits every checkout and command alike.
For every command a checkout's row keeps the median and quartiles of the
process wall time; the import process also reports the time
`import softaura.cli` takes inside it.  One further run per subcommand
and checkout lists the modules it loads beyond those a bare interpreter
has.

Children inherit the environment, PYTHONDONTWRITEBYTECODE included (the
rows record it), with PYTHONPATH set to SRC.  Rows are merged into the
--out JSON under their labels, replacing earlier rows of the same label.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

SUBCOMMANDS = {
    "validate": ["validate", "monitoring.json"],
    "approx": ["approx", "monitoring.json", "--target", "G"],
    "classify-cech": ["classify", "chain_space.json", "--set", "mixed", "--closure", "cech"],
    "classify-kuratowski": ["classify", "chain_space.json", "--set", "mixed", "--closure", "kuratowski"],
    "axioms": ["axioms", "two_point_space.json"],
    "continuity": ["continuity", "chain_endo_mapping.json"],
    "suite": ["suite", "--max-universe", "2", "--max-params", "2"],
}

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import softaura.cli; "
    "print(time.perf_counter() - t)"
)

# Runs `main` on argv after noting the modules a bare start has, then
# prints its exit code and the modules the run added.
LOADED_CODE = """\
import contextlib, io, json, sys
bare = set(sys.modules)
from softaura.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(set(sys.modules) - bare)]))
"""


def argv_of(sub: str) -> list[str]:
    """The subcommand's arguments, with fixture names made absolute."""
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in SUBCOMMANDS[sub]]


def run(argv: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return took, proc.stdout


def spread(samples: list[float]) -> dict:
    """Median and quartiles in milliseconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(median * 1e3, 3), "q1_ms": round(q1 * 1e3, 3), "q3_ms": round(q3 * 1e3, 3)}


def measure(sides: dict[str, Path], repeat: int) -> dict[str, dict]:
    envs = {}
    for label, src in sides.items():
        envs[label] = dict(os.environ, PYTHONPATH=str(src))
        envs[label].pop("SOFTAURA_CAP", None)
    commands = {"bare": [sys.executable, "-c", "pass"], "import": [sys.executable, "-c", IMPORT_CODE]}
    for sub in SUBCOMMANDS:
        commands[sub] = [sys.executable, "-m", "softaura", *argv_of(sub)]
    labels = list(sides)
    walls = {label: {key: [] for key in commands} for label in labels}
    imports: dict[str, list[float]] = {label: [] for label in labels}
    for i in range(repeat):
        order = labels if i % 2 == 0 else labels[::-1]
        for key, argv in commands.items():
            for label in order:
                took, out = run(argv, envs[label])
                walls[label][key].append(took)
                if key == "import":
                    imports[label].append(float(out))
        print(f"round {i + 1}/{repeat}", file=sys.stderr)

    rows = {}
    for label in labels:
        loaded = {}
        for sub in SUBCOMMANDS:
            _, out = run([sys.executable, "-c", LOADED_CODE, *argv_of(sub)], envs[label])
            rc, modules = json.loads(out)
            if rc != 0:
                raise AssertionError(f"{sub} returned {rc} under {label}")
            loaded[sub] = modules
        bare = statistics.median(walls[label]["bare"])
        rows[label] = {
            "wall": {key: spread(samples) for key, samples in walls[label].items()},
            "after_start_ms": {
                key: round((statistics.median(samples) - bare) * 1e3, 3)
                for key, samples in walls[label].items() if key != "bare"
            },
            "import_softaura_cli": spread(imports[label]),
            "modules_loaded": loaded,
        }
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", help="LABEL=SRC, the src directory of a checkout to time")
    parser.add_argument("--repeat", type=int, default=21)
    parser.add_argument("--out", type=Path, default=Path("BENCH_startup.json"))
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2")
    sides = {}
    for side in args.sides:
        label, sep, src = side.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=SRC, got {side!r}")
        sides[label] = Path(src).resolve()

    rows = measure(sides, args.repeat)
    doc = {"rows": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["workload"] = (
        "process wall time of each softaura CLI subcommand on the test fixtures and of a bare "
        "interpreter start, rounds interleaving the checkouts; median and quartiles in ms"
    )
    for label, row in rows.items():
        doc["rows"][label] = {
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "repeat": args.repeat,
            **row,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
