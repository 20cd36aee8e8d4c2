"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of the same code drifts by tens of percent
over tens of seconds, far more than the changes the benchmark must detect.
A fixed reference task that never calls softaura is timed between
operations, and each stretch of the workload is scaled by
reference / (mean of the two reference times around it), which turns wall
seconds into seconds at a fixed reference speed.  The machine's slow spells
are short, so the measurements right before and after a stretch track it
better than a longer window does.  Raw wall-clock figures
are kept beside the scaled ones in the result file.

Two reference tasks, each chosen because it tracks its workload closely:
- in-process workloads: a pure-Python kernel that allocates small objects,
  hashes tuples, fills sets and dicts and runs a spread of library code
  (sorting, json, fractions, dataclasses), the mix the program spends its
  time on;
- the CLI workload: starting a bare interpreter (`python -c pass`), since a
  request's cost is mostly process start, import and bytecode loading.
  It is timed between every two requests, so each request is scaled by
  the starts right around it.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

#: Reference times that define the reference speed (about their medians
#: inside the benchmark loops on a 2-vCPU Intel Xeon VM with Python 3.11).
KERNEL_REFERENCE_S = 0.004
INTERPRETER_REFERENCE_S = 0.07


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


@dataclass(frozen=True)
class _Record:
    a: int
    b: tuple


_DOC = {f"k{i}": {"v": list(range(i % 9)), "s": "x" * (i % 5)} for i in range(60)}


def _kernel() -> int:
    rng = random.Random(7)
    seen = set()
    table = {}
    for i in range(1500):
        key = (i & 63, rng.getrandbits(8))
        table[key] = _Cell(key, i)
        seen.add(frozenset(key))
    records = [_Record(rng.getrandbits(6), (i & 7, i >> 3)) for i in range(300)]
    ordered = sorted(set(records), key=lambda r: (r.b, r.a))
    total = sum(Fraction(r.a + 1, r.b[0] + 1) for r in records[:60])
    text = " ".join(f"{r.a}:{r.b[0]}" for r in ordered[:100])
    doc = json.loads(json.dumps(_DOC))
    triples = list(itertools.combinations(range(12), 3))
    return len(seen) + len(table) + total.denominator + len(text) + len(doc) + len(triples)


def kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def interpreter_seconds(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


class Calibrator:
    """Scales stretches of wall time to the reference speed of one reference task."""

    def __init__(self, task=kernel_seconds, reference: float = KERNEL_REFERENCE_S, every: float = 0.2):
        self.task = task
        self.reference = reference
        self.every = every  # seconds of workload between reference runs
        task()  # the first run warms caches and the interpreter's specialisation
        self.times = [task()]

    def factor(self) -> float:
        """Run the reference task now; the scale factor for the stretch just ended."""
        self.times.append(self.task())
        return self.reference / ((self.times[-2] + self.times[-1]) / 2)
