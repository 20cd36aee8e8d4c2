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

SEPARATION_DEMO = """\
two-point space with overlapping scopes:
  t0: True
  t1: False  (witness: PairWitness(x='x1', y='x2', param='e2'))
  t2: False  (witness: PairWitness(x='x1', y='x2', param='e1'))
  regular: False  (witness: RegularityWitness(point='x1', param='e1', closed_set=SoftSet(e1={x2}, e2={x1, x2})))
  t3: False
  x1's scope at e2 swallows x2, so points cannot be told apart

three points with singleton scopes:
  t0: True
  t1: True
  t2: True
  regular: True
  t3: True

T1 via the singleton-scope characterization:
  two-point: False
  tight: True
"""

#: Demos whose stdout is pinned byte for byte.
PINNED_OUTPUT = {
    "04_continuity.py": CONTINUITY_DEMO,
    "05_separation_axioms.py": SEPARATION_DEMO,
}


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
    for name, expected in PINNED_OUTPUT.items():
        proc = run_demo(next(p for p in DEMOS if p.name == name))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected, name
