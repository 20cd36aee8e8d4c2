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
    # seconds per round; round 2 ran on a slow machine throughout
    walls = {
        "bare": [0.050, 0.100, 0.052],
        "validate": [0.100, 0.122, 0.072],
        "suite": [0.080, 0.130, 0.082],
    }
    after = load_sweep().after_start_ms(walls)
    # per-round differences 50, 22, 20 and 30, 30, 30 ms; the difference of
    # the medians would read validate 100 - 52 = 48 ms
    assert after == {"validate": 22.0, "suite": 30.0}
