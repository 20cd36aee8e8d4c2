"""The walkthroughs under demos/ run as documented, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import softaura

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

CONTINUITY_DEMO = """\
collapsing the chain onto its sink:
  sink [cech]: continuous=True alpha=True semi=True pre=True beta=True

identity on the chain, by target family:
  target family aura      : continuous=True
  target family kuratowski: continuous=True
  target family ambient   : continuous=False
  the ambient family is strictly harder to be continuous against

alpha versus semi-and-pre for the folding mapping:
  decomposition holds under kuratowski: True
  decomposition holds under cech: False (witness ('y1',))

closure characterization of continuity:
  sink satisfies the kuratowski inclusion test: True
  sink satisfies the cech inclusion test: True
  with the fixed-point closure this test is exactly continuity;
  with the one-step closure only the forward direction holds
"""


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(Path(softaura.__file__).resolve().parent.parent)
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path_env},
        timeout=300,
    )


def test_every_demo_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_continuity_demo_output():
    proc = run_demo(next(p for p in DEMOS if p.name == "04_continuity.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == CONTINUITY_DEMO
