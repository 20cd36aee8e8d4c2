"""Interleaved before/after sweeps of softaura checkouts, each into a BENCH_*.json file.

    python tools/sweep.py SWEEP LABEL=SRC [LABEL=SRC ...] [options] [--out BENCH_<SWEEP>.json]

Each SRC is the `src` directory of a softaura checkout, so a parent commit
and a change are measured by the same code in one run.  Every round runs
each checkout once, in a fresh child process that puts SRC first on
sys.path, runs the sweep's measure function and prints its JSON.  The
checkouts' order alternates between rounds, so drift on the machine hits
them alike.  Each checkout's row, with the median over the rounds, is
merged into --out under its label, replacing an earlier row of that label.
Standard library only.

startup [--repeat 21]: process wall time of a bare `python -c pass`, of a
    process that only imports `softaura.cli` (it also reports the import's
    own time), and of `python -m softaura` on the test fixtures for each
    subcommand (classify under both closure kinds, suite on 2x2).  Each
    round runs every command for every checkout back to back, each right
    after a bare start of its own; rows keep median and quartiles in ms
    (the bare row over every bare start), each command's median over rounds
    of its wall minus the bare start just before it, its least wall minus
    the least of those bare starts, and the modules each subcommand loads
    beyond a bare start.  Processes inherit the environment (rows record
    PYTHONDONTWRITEBYTECODE), with PYTHONPATH=SRC and SOFTAURA_CAP unset.
pairs [--spaces 3] [--repeat 3] [--rounds 3] [--suite-rounds 3]: for each
    shape in PAIR_SHAPES, `run_law_suite` on --spaces one-space sampled
    families (the first seeds that draw the shape), best of --repeat calls,
    with the median and the least over rounds of the seconds per space
    and the pairs handed to the harness's `_pair_row`: 2^nm (2^nm + 1) / 2
    for a scan of every pair, m 2^n (2^n + 1) / 2 for single-slice pairs,
    plus any full scans a space falls back on (`fallbacks` marks a space
    handed more than its single-slice pairs).  The first --suite-rounds
    rounds (0 to skip) also time, in a further child, the exhaustive 3x2
    suite and then `decomposition_mapping_scan()` (best of SCAN_REPEAT),
    each with its median and least over rounds, and the sha256 of the
    report and of the scan result's repr.
classify [--sets 32] [--repeat 5] [--rounds 11]: `classify` under both
    closure kinds on --sets seeded soft sets of two seeded discrete spaces
    of n points and 3 parameters, n in CLASSIFY_SIZES: chain scopes (x and
    its successor along a random order per parameter) and sparse scopes (x
    plus two random points).  Best of --repeat passes in us per call, with
    the true flags, which every checkout and round must agree on.
continuity [--max-n 64] [--repeat 3] [--rounds 3] [--cli-n 19]:
    `continuity_profile` of the identity on n singleton-scope points over
    the discrete topology, n in CONTINUITY_SIZES up to --max-n, 1 and 4
    parameters, per target family and closure kind, best of --repeat.
    With --cli-n N (0 to skip) each round then times `python -m softaura
    continuity` on the identities of 3 and N such points, one parameter,
    interleaved with a bare start: best of --repeat each.
bench [--workload law-suite] [--seed 1] [--pairs 5] [--out BENCH_e2e.json]:
    the end-to-end benchmark, `bench/run.py` of the checkout whose root is
    SRC's parent at its own run length, once per checkout and seed (seeds
    --seed up to --seed + --pairs - 1, one seed per round).  Rows, keyed
    WORKLOAD/LABEL, hold each run's metrics, failures and whether it ran
    first, and the median and quartiles of each metric; every label after
    the first also holds, per metric, its wins over the first label's run
    of the same seed (BENCHMARK.json says which direction is better) and
    its median over the first label's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MACHINE = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
ROOT = Path(__file__).resolve().parent.parent

# -- the shared runner -------------------------------------------------------


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method); one sample is all three."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def median(samples, digits: int) -> float:
    return round(quartiles(list(samples))[1], digits)


def best_of(repeat: int, call) -> tuple[float, object]:
    """The least wall seconds over `repeat` calls of call(), and the last call's result."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best, result


def over_rounds(
    rounds: list[list[dict]], key: str, digits: int, keep_rounds: bool = True, least: bool = False
) -> list[dict]:
    """The first round's rows with `key` the median over the rounds, then, with `least`, the least
    figure as `{key}_min` and, with keep_rounds, every round's figure."""
    out = []
    for k, first in enumerate(rounds[0]):
        figures = [got[k][key] for got in rounds]
        row = {}
        for name, value in first.items():
            row[name] = median(figures, digits) if name == key else value
            if name == key and least:
                row[f"{key}_min"] = round(min(figures), digits)
            if name == key and keep_rounds:
                row[f"{key}_rounds"] = [round(f, digits) for f in figures]
        out.append(row)
    return out


def run(argv: list[str], env: dict | None = None, cwd: Path | None = None) -> tuple[float, str]:
    """Wall seconds and stdout of a process, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return took, proc.stdout


def child(sweep: str, src: Path, **options):
    """What MEASURES[sweep](**options) returns in a fresh process with SRC first on sys.path."""
    return json.loads(run([sys.executable, __file__, "--child", sweep, str(src), json.dumps(options)])[1])


def cli_env(src: Path) -> dict:
    """The environment of a `python -m softaura` process on the checkout at SRC."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SOFTAURA_CAP", None)
    return env


def interleave(labels: list[str], rounds: int, run_round) -> dict[str, list]:
    """Each label's result per round; run_round(r, order) measures the checkouts in `order`.

    run_round returns {label: result}; the order reverses every round.
    """
    got: dict[str, list] = {label: [] for label in labels}
    for r in range(rounds):
        order = labels if r % 2 == 0 else labels[::-1]
        for label, result in run_round(r, order).items():
            got[label].append(result)
        print(f"round {r + 1}/{rounds} done ({', '.join(order)})", file=sys.stderr)
    return got


def merge(out: Path, workload: str, rows: dict[str, dict]) -> None:
    """Write each label's row into the JSON at `out`, keeping the other labels' rows."""
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"rows": {}}
    doc["workload"] = workload
    for label, row in rows.items():
        doc["rows"][label] = {"machine": MACHINE, **row}
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# -- startup -----------------------------------------------------------------

FIXTURES = ROOT / "tests" / "fixtures"

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


def in_ms(samples: list[float]) -> dict:
    q1, mid, q3 = quartiles(samples)
    return {"median_ms": round(mid * 1e3, 3), "q1_ms": round(q1 * 1e3, 3), "q3_ms": round(q3 * 1e3, 3)}


def after_start_ms(walls: dict[str, list[float]], bares: dict[str, list[float]]) -> dict[str, float]:
    """Per command, the median over rounds of its wall seconds minus the bare start run just before it, in ms.

    `bares[key]` holds, per round, the bare start paired with command key.
    Each pair runs back to back, so drift cancels in each difference, which
    a difference of the two medians, or of a bare start run a second
    earlier, would keep.
    """
    return {
        key: round(quartiles([w - b for w, b in zip(samples, bares[key])])[1] * 1e3, 3)
        for key, samples in walls.items()
    }


def least_after_start_ms(walls: dict[str, list[float]], bares: dict[str, list[float]]) -> dict[str, float]:
    """Per command, its least wall seconds over rounds minus the least of the bare starts paired with it, in ms.

    A slow spell over a few rounds still moves the median difference, but
    not either least, which each come from a fast round.  The least of the
    differences would pick the round whose bare start ran slowest, and can
    read below zero.
    """
    return {key: round((min(samples) - min(bares[key])) * 1e3, 3) for key, samples in walls.items()}


def sweep_startup(args, sides: dict[str, Path]) -> tuple[str, dict[str, dict]]:
    envs = {label: cli_env(src) for label, src in sides.items()}
    argvs = {
        sub: [str(FIXTURES / a) if a.endswith(".json") else a for a in argv] for sub, argv in SUBCOMMANDS.items()
    }
    bare = [sys.executable, "-c", "pass"]
    commands = {"import": [sys.executable, "-c", IMPORT_CODE]}
    commands.update({sub: [sys.executable, "-m", "softaura", *argv] for sub, argv in argvs.items()})

    def run_round(r, order):
        got = {label: {} for label in order}
        for key, argv in commands.items():
            for label in order:
                got[label][f"bare {key}"] = run(bare, envs[label])
                got[label][key] = run(argv, envs[label])
        return got

    rows = {}
    for label, runs in interleave(list(sides), args.repeat, run_round).items():
        walls = {key: [got[key][0] for got in runs] for key in commands}
        bares = {key: [got[f"bare {key}"][0] for got in runs] for key in commands}
        loaded = {}
        for sub, argv in argvs.items():
            rc, modules = json.loads(run([sys.executable, "-c", LOADED_CODE, *argv], envs[label])[1])
            if rc != 0:
                raise SystemExit(f"{sub} returned {rc} under {label}")
            loaded[sub] = modules
        rows[label] = {
            "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "repeat": args.repeat,
            "wall": {"bare": in_ms([b for samples in bares.values() for b in samples])}
            | {key: in_ms(samples) for key, samples in walls.items()},
            "after_start_ms": after_start_ms(walls, bares),
            "after_start_min_ms": least_after_start_ms(walls, bares),
            "import_softaura_cli": in_ms([float(got["import"][1]) for got in runs]),
            "modules_loaded": loaded,
        }
    return (
        "process wall time of each softaura CLI subcommand on the test fixtures and of a bare "
        "interpreter start, rounds interleaving the checkouts; median and quartiles in ms",
        rows,
    )


# -- pairs -------------------------------------------------------------------

PAIR_SHAPES = ((2, 2), (3, 2), (2, 4), (4, 2), (3, 3), (6, 2), (4, 3))
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


def measure_pairs(part: str, spaces: int, repeat: int) -> list[dict] | dict:
    from softaura import SpaceFamilySpec, decomposition_mapping_scan, harness, run_law_suite

    if part == "suite":
        seconds, result = best_of(1, lambda: run_law_suite(SpaceFamilySpec(3, 2)))
        scan_seconds, scan = best_of(SCAN_REPEAT, decomposition_mapping_scan)
        return {
            "seconds": seconds,
            "sha256": hashlib.sha256(result.to_json_bytes()).hexdigest(),
            "scan_seconds": scan_seconds,
            "scan_sha256": hashlib.sha256(repr(scan).encode("utf-8")).hexdigest(),
        }

    pairs = [0]
    real_row = harness._pair_row

    def counting_row(t, g, hs, hit):
        pairs[0] += len(hs)
        real_row(t, g, hs, hit)

    harness._pair_row = counting_row

    def one_space(spec):
        pairs[0] = 0
        return run_law_suite(spec)

    rows = []
    for n, m in PAIR_SHAPES:
        seconds, evaluations, fell_back = [], [], []
        seeds = shape_seeds(n, m, spaces)
        for seed in seeds:
            spec = SpaceFamilySpec(n, m, scope_mode="sampled", seed=seed, sample_count=1)
            best, result = best_of(repeat, lambda: one_space(spec))
            if result.total_failures:
                raise AssertionError(f"law failures on the {n}x{m} space of seed {seed}")
            seconds.append(best)
            evaluations.append(pairs[0])
            # a space decided slice by slice is handed its single-slice pairs alone
            fell_back.append(int(pairs[0] > m * 2**n * (2**n + 1) // 2))
        rows.append(
            {
                "shape": f"{n}x{m}",
                "seeds": seeds,
                "seconds_per_space": statistics.fmean(seconds),
                "pair_evaluations_per_space": evaluations,
                "fallbacks": fell_back,
            }
        )
    return rows


def sweep_pairs(args, sides: dict[str, Path]) -> tuple[str, dict[str, dict]]:
    def run_round(r, order):
        parts = [part for part, rounds in (("shapes", args.rounds), ("suite", args.suite_rounds)) if r < rounds]
        return {
            label: {part: child("pairs", sides[label], part=part, spaces=args.spaces, repeat=args.repeat) for part in parts}
            for label in order
        }

    rows = {}
    for label, runs in interleave(list(sides), max(args.rounds, args.suite_rounds), run_round).items():
        shapes = [got["shapes"] for got in runs if "shapes" in got]
        suite = [got["suite"] for got in runs if "suite" in got]
        rows[label] = {
            "rounds": args.rounds,
            "spaces_per_shape": args.spaces,
            "repeat": args.repeat,
            "shapes": over_rounds(shapes, "seconds_per_space", 6, least=True),
            "exhaustive_3x2": {
                "seconds": [round(s["seconds"], 3) for s in suite],
                "median_s": median((s["seconds"] for s in suite), 3) if suite else None,
                "min_s": round(min(s["seconds"] for s in suite), 3) if suite else None,
                "sha256": sorted({s["sha256"] for s in suite}),
            },
            "mapping_scan": {
                "scan_repeat": SCAN_REPEAT,
                "seconds": [round(s["scan_seconds"], 4) for s in suite],
                "median_s": median((s["scan_seconds"] for s in suite), 4) if suite else None,
                "min_s": round(min(s["scan_seconds"] for s in suite), 4) if suite else None,
                "sha256": sorted({s["scan_sha256"] for s in suite}),
            },
        }
    return (
        "run_law_suite on one seeded discrete space per call, per shape; pair evaluations are "
        "the pairs handed to _pair_row; rounds alternate the checkouts' order",
        rows,
    )


# -- classify ----------------------------------------------------------------

CLASSIFY_SIZES = (4, 8, 16, 32, 64)
CLASSIFY_PARAMS = 3


def scope_table(n: int, shape: str, rng: random.Random) -> tuple[list, list, dict]:
    universe = [f"x{i + 1}" for i in range(n)]
    params = [f"e{j + 1}" for j in range(CLASSIFY_PARAMS)]
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


def measure_classify(sets: int, repeat: int) -> list[dict]:
    from softaura import classify, make_soft_set, make_space

    rows = []
    for n in CLASSIFY_SIZES:
        for shape in ("chain", "sparse"):
            rng = random.Random(f"1-{n}-{shape}")
            universe, params, scope = scope_table(n, shape, rng)
            space = make_space(universe, params, scope)
            gs = [
                make_soft_set(space.context, {e: rng.sample(universe, rng.randint(0, n)) for e in params})
                for _ in range(sets)
            ]
            for kind in ("cech", "kuratowski"):
                best, profiles = best_of(repeat, lambda: [classify(space, g, kind) for g in gs])
                flags = sum(
                    p.a_open + p.alpha_open + p.semi_open + p.pre_open + p.b_open + p.beta_open
                    for p in profiles
                )
                rows.append(
                    {"n": n, "shape": shape, "kind": kind, "us_per_call": 1e6 * best / sets, "true_flags": flags}
                )
    return rows


def sweep_classify(args, sides: dict[str, Path]) -> tuple[str, dict[str, dict]]:
    def run_round(r, order):
        return {label: child("classify", sides[label], sets=args.sets, repeat=args.repeat) for label in order}

    labels = list(sides)
    runs = interleave(labels, args.rounds, run_round)
    first = runs[labels[0]][0]
    for label in labels:
        for got in runs[label]:
            if [row["true_flags"] for row in got] != [row["true_flags"] for row in first]:
                raise SystemExit(f"{label} classifies differently from {labels[0]}")
    rows = {
        label: {"rounds": args.rounds, "sets_per_space": args.sets, "repeat": args.repeat,
                "sizes": over_rounds(runs[label], "us_per_call", 2)}
        for label in labels
    }
    return (
        f"classify of {args.sets} seeded soft sets per space, n points x {CLASSIFY_PARAMS} parameters, chain and "
        "sparse scopes, both closure kinds; best pass of --repeat in us per call; rounds alternate "
        "the checkouts' order",
        rows,
    )


# -- continuity --------------------------------------------------------------

CONTINUITY_SIZES = (8, 10, 12, 14, 16, 20, 24, 32, 48, 64)


def singleton_doc(n: int, m: int) -> dict:
    names = [f"x{i + 1}" for i in range(n)]
    params = [f"e{j + 1}" for j in range(m)]
    return {
        "universe": names,
        "parameters": params,
        "topology": {"kind": "discrete"},
        "scope": {x: {e: [x] for e in params} for x in names},
    }


def measure_continuity(max_n: int, repeat: int) -> list[dict]:
    from softaura import continuity_profile, identity_mapping, make_space

    rows = []
    for n in (s for s in CONTINUITY_SIZES if s <= max_n):
        for m in (1, 4):
            doc = singleton_doc(n, m)
            mapping = identity_mapping(make_space(doc["universe"], doc["parameters"], doc["scope"]))
            for family in ("aura", "kuratowski", "ambient"):
                for kind in ("cech", "kuratowski"):
                    best, profile = best_of(
                        repeat, lambda: continuity_profile(mapping, kind=kind, target_family=family)
                    )
                    if not profile.continuous:
                        raise AssertionError(f"identity reported discontinuous at n={n}, m={m}")
                    rows.append({"n": n, "params": m, "family": family, "kind": kind, "seconds": round(best, 6)})
    return rows


def continuity_cli(src: Path, n: int, repeat: int) -> dict:
    """Best process seconds of `softaura continuity` on identities of 3 and n points, and of a bare start."""
    env = cli_env(src)
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
                took = run(argv, env)[0]
                best[key] = min(best.get(key, took), took)
    return {
        "interpreter_s": round(best["bare"], 6),
        "command_s": {str(size): round(best[size], 6) for size in sizes},
        "after_start_s": {str(size): round(best[size] - best["bare"], 6) for size in sizes},
    }


def sweep_continuity(args, sides: dict[str, Path]) -> tuple[str, dict[str, dict]]:
    def run_round(r, order):
        return {
            label: (
                child("continuity", sides[label], max_n=args.max_n, repeat=args.repeat),
                continuity_cli(sides[label], args.cli_n, args.repeat) if args.cli_n > 0 else None,
            )
            for label in order
        }

    rows = {}
    for label, runs in interleave(list(sides), args.rounds, run_round).items():
        clis = [got[1] for got in runs if got[1] is not None]
        cli = None
        if clis:
            cli = {"interpreter_s": median((c["interpreter_s"] for c in clis), 6)}
            for key in ("command_s", "after_start_s"):
                cli[key] = {size: median((c[key][size] for c in clis), 6) for size in clis[0][key]}
        rows[label] = {
            "repeat": args.repeat,
            "rounds": args.rounds,
            "profiles": over_rounds([got[0] for got in runs], "seconds", 6, keep_rounds=False),
            "cli": cli,
        }
    return (
        "continuity_profile of the identity on n singleton-scope points over the discrete "
        "topology, best of repeats, per target family and closure kind",
        rows,
    )


# -- bench -------------------------------------------------------------------


def better_directions() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json with the direction that is better ("higher" or "lower")."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in doc["end_to_end"]}


def bench_line(root: Path, workload: str, seed: int) -> dict:
    """The JSON result line (the last line of stdout) of `bench/run.py` in the checkout at `root`."""
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return json.loads(run(argv, env, cwd=root)[1].strip().splitlines()[-1])


def e2e_rows(workload: str, seeds: list[int], runs: dict[str, list], better: dict[str, str]) -> dict[str, dict]:
    """Rows of the bench sweep, keyed WORKLOAD/LABEL.

    runs[label] holds per seed (line, ran_first), line the JSON result line
    of that label's run.  Each label after the first is compared with the
    first, seed by seed, on the metrics of `better`.
    """
    rows = {}
    for label, got in runs.items():
        per_run = [
            {
                "seed": seed,
                "ran_first": first,
                "attempted": line["attempted"],
                "failed": line["failed"],
                "metrics": {name: metric["value"] for name, metric in line["metrics"].items()},
            }
            for seed, (line, first) in zip(seeds, got)
        ]
        spread = {name: quartiles([r["metrics"][name] for r in per_run]) for name in per_run[0]["metrics"]}
        q1, mid, q3 = ({name: q[k] for name, q in spread.items()} for k in range(3))
        rows[label] = {
            "workload": workload, "seeds": seeds, "runs": per_run,
            "q1": q1, "median": mid, "q3": q3,
        }
    base, *others = rows
    for label in others:
        pairs = list(zip(rows[label]["runs"], rows[base]["runs"]))
        wins = {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            wins[name] = sum(sign * (r["metrics"][name] - b["metrics"][name]) > 0 for r, b in pairs)
        medians, base_medians = rows[label]["median"], rows[base]["median"]
        rows[label]["against"] = {
            "base": base,
            "pairs": len(pairs),
            "wins": wins,
            "median_ratio": {name: round(medians[name] / base_medians[name], 4) for name in better},
        }
    return {f"{workload}/{label}": row for label, row in rows.items()}


def sweep_bench(args, sides: dict[str, Path]) -> tuple[str, dict[str, dict]]:
    seeds = list(range(args.seed, args.seed + args.pairs))

    def run_round(r, order):
        return {
            label: (bench_line(sides[label].parent, args.workload, seeds[r]), label == order[0])
            for label in order
        }

    runs = interleave(list(sides), args.pairs, run_round)
    return (
        "bench/run.py end-to-end metrics of each checkout at its default run length, one run per seed, "
        "the checkouts' order reversed every seed; medians and quartiles over the seeds, wins counted "
        "seed by seed against the first label",
        e2e_rows(args.workload, seeds, runs, better_directions()),
    )


# -- command line ------------------------------------------------------------

MEASURES = {"pairs": measure_pairs, "classify": measure_classify, "continuity": measure_continuity}

# per sweep: the function that runs it and its options, each with its default and least value (None: any)
SWEEPS = {
    "startup": (sweep_startup, {"repeat": (21, 2)}),
    "pairs": (sweep_pairs, {"spaces": (3, 1), "repeat": (3, 1), "rounds": (3, 1), "suite-rounds": (3, 0)}),
    "classify": (sweep_classify, {"sets": (32, 1), "repeat": (5, 1), "rounds": (11, 1)}),
    "continuity": (sweep_continuity, {"max-n": (64, None), "repeat": (3, 1), "rounds": (3, 1), "cli-n": (19, None)}),
    "bench": (sweep_bench, {"workload": ("law-suite", None), "seed": (1, 0), "pairs": (5, 1)}),
}
# the BENCH file of a sweep, where it is not BENCH_<sweep>.json
OUT_STEMS = {"bench": "e2e"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _, sweep, src, options = argv
        sys.path.insert(0, src)
        json.dump(MEASURES[sweep](**json.loads(options)), sys.stdout)
        return 0

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="sweep", required=True)
    for name, (_, options) in SWEEPS.items():
        sub = commands.add_parser(name)
        sub.add_argument("sides", nargs="+", help="LABEL=SRC, the src directory of a checkout to time")
        for option, (default, _) in options.items():
            sub.add_argument(f"--{option}", type=type(default), default=default)
        sub.add_argument("--out", type=Path, default=Path(f"BENCH_{OUT_STEMS.get(name, name)}.json"))
    args = parser.parse_args(argv)
    sweep, options = SWEEPS[args.sweep]
    for option, (_, least) in options.items():
        if least is not None and getattr(args, option.replace("-", "_")) < least:
            parser.error(f"--{option} must be at least {least}")
    sides = {}
    for side in args.sides:
        label, sep, src = side.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=SRC, got {side!r}")
        sides[label] = Path(src).resolve()

    merge(args.out, *sweep(args, sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
