"""tools/sweep.py runs each quick sweep end to end and writes rows shaped like the committed BENCH files.

Its start-up figures are checked on synthetic wall times.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the smallest settings of each sweep; startup is left out (several seconds even at --repeat 2)
QUICK = {
    "classify": ["--sets", "1", "--repeat", "1", "--rounds", "1"],
    "continuity": ["--max-n", "8", "--cli-n", "0", "--repeat", "1", "--rounds", "1"],
    "pairs": ["--spaces", "1", "--suite-rounds", "0", "--repeat", "1", "--rounds", "1"],
}


def key_tree(value):
    """Dict keys all the way down; a list stands for its first item, anything else for None."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return key_tree(value[0]) if value else None
    return None


@pytest.mark.parametrize("sweep", sorted(QUICK))
def test_quick_sweep_matches_committed_schema(sweep, tmp_path):
    committed = json.loads((ROOT / f"BENCH_{sweep}.json").read_text(encoding="utf-8"))
    out = tmp_path / "out.json"
    # an earlier row of label a is replaced, the other rows are kept
    out.write_text(json.dumps({"rows": dict(committed["rows"], a={"stale": True})}), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"), sweep, f"a={SRC}", f"b={SRC}", *QUICK[sweep], "--out", str(out)],
        check=True, capture_output=True, cwd=tmp_path,
    )
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc["rows"]) == [*committed["rows"], "a", "b"]
    assert {label: doc["rows"][label] for label in committed["rows"]} == committed["rows"]
    expected = key_tree(committed["rows"]["change"])
    if sweep == "continuity":
        # --cli-n 0 skips the CLI timings
        expected = dict(expected, cli=None)
    for label in "ab":
        assert key_tree(doc["rows"][label]) == expected


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_after_start_is_the_median_of_per_round_differences():
    # seconds per round; round 2 ran on a slow machine throughout, and in
    # round 3 the bare start paired with validate ran during a slow spell
    walls = {
        "validate": [0.100, 0.122, 0.072],
        "suite": [0.080, 0.130, 0.082],
    }
    bares = {
        "validate": [0.050, 0.100, 0.062],
        "suite": [0.050, 0.100, 0.052],
    }
    after = load_sweep().after_start_ms(walls, bares)
    # per-round differences 50, 22, 10 and 30, 30, 30 ms, each from the bare
    # start run just before the command; the difference of the medians
    # would read validate 100 - 62 = 38 ms
    assert after == {"validate": 22.0, "suite": 30.0}


def test_least_after_start_is_the_least_wall_minus_the_least_paired_bare_start():
    # the same canned rounds: the least validate wall (72 ms, round 3) less
    # the least bare start paired with validate (50 ms, round 1); the least
    # per-round difference, 10 ms, is round 3's, where the bare start ran
    # during a slow spell, and would read low
    walls = {"validate": [0.100, 0.122, 0.072], "suite": [0.080, 0.130, 0.082]}
    bares = {"validate": [0.050, 0.100, 0.062], "suite": [0.050, 0.100, 0.052]}
    assert load_sweep().least_after_start_ms(walls, bares) == {"validate": 22.0, "suite": 30.0}
    # each command takes only its own paired bare starts
    bares["suite"] = [0.060, 0.100, 0.052]
    assert load_sweep().least_after_start_ms(walls, bares) == {"validate": 22.0, "suite": 28.0}


def test_least_over_rounds_beside_the_median():
    # a bimodal figure: the median follows how many rounds ran slow, the least does not
    rounds = [[{"shape": "2x2", "s": s}] for s in (0.57, 1.0, 1.01, 0.58, 0.99)]
    (row,) = load_sweep().over_rounds(rounds, "s", 3, least=True)
    assert row == {"shape": "2x2", "s": 0.99, "s_min": 0.57, "s_rounds": [0.57, 1.0, 1.01, 0.58, 0.99]}


def bench_line(ops, p50, rss, failed=0):
    """A canned `bench/run.py` result line."""
    metrics = {"ops_per_s": (ops, "1/s"), "op_ms_p50": (p50, "ms"), "peak_rss_mb": (rss, "MB")}
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def test_bench_rows_from_canned_result_lines(tmp_path):
    sweep = load_sweep()
    better = {"ops_per_s": "higher", "op_ms_p50": "lower", "peak_rss_mb": "lower"}
    seeds = [7, 8, 9, 10]
    runs = {
        "parent": [(bench_line(40, 20, 21.0), True), (bench_line(44, 18, 21.0), False),
                   (bench_line(42, 19, 21.0), True), (bench_line(41, 19.5, 21.0), False)],
        "change": [(bench_line(45, 17, 21.2), False), (bench_line(43, 18.5, 21.0), True),
                   (bench_line(46, 17, 20.9), False), (bench_line(47, 16, 21.1, failed=1), True)],
    }
    rows = sweep.e2e_rows("law-suite", seeds, runs, better)
    assert list(rows) == ["law-suite/parent", "law-suite/change"]
    parent, change = rows.values()
    assert "against" not in parent
    assert [r["seed"] for r in change["runs"]] == seeds
    assert [r["ran_first"] for r in parent["runs"]] == [True, False, True, False]
    assert change["runs"][3] == {
        "seed": 10, "ran_first": True, "attempted": 100, "failed": 1,
        "metrics": {"ops_per_s": 47, "op_ms_p50": 16, "peak_rss_mb": 21.1},
    }
    # inclusive quartiles of the parent's 40, 41, 42, 44: IQR 42.5 - 40.75
    assert (parent["q1"]["ops_per_s"], parent["median"]["ops_per_s"], parent["q3"]["ops_per_s"]) == (40.75, 41.5, 42.5)
    assert change["median"]["ops_per_s"] == 45.5
    # seed by seed: ops 45>40, 43<44, 46>42, 47>41; p50 lower 3 times; rss lower once, tied once
    assert change["against"] == {
        "base": "parent",
        "pairs": 4,
        "wins": {"ops_per_s": 3, "op_ms_p50": 3, "peak_rss_mb": 1},
        "median_ratio": {"ops_per_s": round(45.5 / 41.5, 4), "op_ms_p50": round(17 / 19.25, 4), "peak_rss_mb": round(21.05 / 21.0, 4)},
    }
    # rows merge into the BENCH file under their keys, keeping other rows
    out = tmp_path / "BENCH_e2e.json"
    out.write_text(json.dumps({"rows": {"deciders/parent": {"kept": True}}}), encoding="utf-8")
    sweep.merge(out, "e2e", rows)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc["rows"]) == ["deciders/parent", "law-suite/parent", "law-suite/change"]
    assert doc["rows"]["law-suite/change"]["against"]["wins"]["ops_per_s"] == 3


def test_committed_e2e_rows_match_the_bench_row_schema():
    doc = json.loads((ROOT / "BENCH_e2e.json").read_text(encoding="utf-8"))
    better = load_sweep().better_directions()
    for key, row in doc["rows"].items():
        workload, label = key.split("/")
        assert row["workload"] == workload
        assert len(row["runs"]) == len(row["seeds"]) == len(set(row["seeds"]))
        for key_name in ("q1", "median", "q3"):
            assert set(row[key_name]) == set(better)
        if "against" in row:
            assert row["against"]["pairs"] == len(row["seeds"])
            assert set(row["against"]["wins"]) == set(better)
