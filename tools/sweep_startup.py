"""Start-up cost of each CLI subcommand, against a bare interpreter start.

    python tools/sweep_startup.py SRC --label NAME [--repeat 21]
        [--out BENCH_startup.json]

SRC is the `src` directory of the softaura checkout to time, so two
checkouts (say a parent commit and a change) can be measured by the same
script.  Each round starts, one after another, a bare `python -c pass`, a
process that only imports `softaura.cli`, and one `python -m softaura`
process per subcommand on the test fixtures: validate, approx, classify
under both closure kinds, axioms, continuity and a 2x2 suite.  Rounds are
interleaved, so drift on the machine hits every command alike.  For every
command the row keeps the median and quartiles of the process wall time;
the import process also reports the time `import softaura.cli` takes
inside it.  One further run per subcommand lists the modules it loads
beyond those a bare interpreter has.

Children inherit the environment, PYTHONDONTWRITEBYTECODE included (the
row records it), with PYTHONPATH set to SRC.  Rows are merged into the
--out JSON under --label, replacing earlier rows of the same label.
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


def measure(src: Path, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SOFTAURA_CAP", None)
    commands = {"bare": [sys.executable, "-c", "pass"], "import": [sys.executable, "-c", IMPORT_CODE]}
    for sub in SUBCOMMANDS:
        commands[sub] = [sys.executable, "-m", "softaura", *argv_of(sub)]
    walls: dict[str, list[float]] = {key: [] for key in commands}
    imports: list[float] = []
    for i in range(repeat):
        for key, argv in commands.items():
            took, out = run(argv, env)
            walls[key].append(took)
            if key == "import":
                imports.append(float(out))
        print(f"round {i + 1}/{repeat}", file=sys.stderr)

    loaded = {}
    for sub in SUBCOMMANDS:
        _, out = run([sys.executable, "-c", LOADED_CODE, *argv_of(sub)], env)
        rc, modules = json.loads(out)
        if rc != 0:
            raise AssertionError(f"{sub} returned {rc}")
        loaded[sub] = modules
    bare = statistics.median(walls["bare"])
    return {
        "wall": {key: spread(samples) for key, samples in walls.items()},
        "after_start_ms": {
            key: round((statistics.median(samples) - bare) * 1e3, 3)
            for key, samples in walls.items() if key != "bare"
        },
        "import_softaura_cli": spread(imports),
        "modules_loaded": loaded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="src directory of the checkout to time")
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--repeat", type=int, default=21)
    parser.add_argument("--out", type=Path, default=Path("BENCH_startup.json"))
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2")

    row = measure(args.src.resolve(), args.repeat)
    doc = {"rows": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["workload"] = (
        "process wall time of each softaura CLI subcommand on the test fixtures and of a bare "
        "interpreter start, interleaved rounds; median and quartiles in ms"
    )
    doc["rows"][args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "repeat": args.repeat,
        **row,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
