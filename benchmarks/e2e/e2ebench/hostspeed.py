"""How fast the host is, measured while the benchmark runs.

The sandbox is a few cores of a shared host.  In spells that last from a
second to many minutes everything on it runs up to 1.6x slower - CPU time
per unit of work, not only wall time - so a timing taken there says more
about the spell than about the program, and two runs of one commit differ
by a quarter.  Taking the fastest of a few repetitions survives the short
spells, nothing inside a run survives the long ones.

So a child process does one fixed unit of pure-Python work every
``PERIOD_S`` for as long as the run lasts (6 % of one core) and writes down
the CPU time each unit took.  The *speed factor* of an interval is the mean
unit time inside it over ``REFERENCE_S``, the unit's time on the seed
machine at its fastest; the harness divides every timing by the factor of
the interval it was taken in.  Reported times are therefore times at
reference speed, and the factor itself is printed beside them.

The unit uses nothing of the program under test: no change to the program
moves the yardstick.  Per-layer (traced) metrics are not scaled.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional

PERIOD_S = 0.05
#: CPU seconds one unit takes on the seed machine when nothing else slows it
#: (the 5th percentile over 20 minutes of samples).
REFERENCE_S = 0.00315


def unit() -> int:
    """Fixed work with the program's own instruction mix: dict and string
    churn, a sort with a Python key, a set, a round trip through C code."""
    table = {}
    for index in range(6000):
        key = "m%d" % index
        table[key] = (index, key)
    ordered = sorted(table.values(), key=lambda pair: -pair[0])
    json.loads(json.dumps(ordered[:600]))
    return len(set(table))


def _sample(path: str) -> None:
    """Until killed, or until the harness that started this process is gone."""
    harness = os.getppid()
    with open(path, "w", encoding="ascii") as out:
        due = time.monotonic()
        while os.getppid() == harness:
            began = time.thread_time()
            unit()
            out.write(f"{time.monotonic():.6f} {time.thread_time() - began:.6f}\n")
            out.flush()
            due = max(due + PERIOD_S, time.monotonic())
            time.sleep(max(0.0, due - time.monotonic()))


class HostSpeed:
    """Runs the sampler as a child for the length of a ``with`` block."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._child: Optional[subprocess.Popen] = None
        self._times: List[float] = []
        self._units: List[float] = []

    def __enter__(self) -> "HostSpeed":
        self._child = subprocess.Popen([sys.executable, __file__, self._path])
        deadline = time.monotonic() + 10.0
        while not self._times:  # the first interval asked about starts now
            if self._child.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the host-speed sampler did not start")
            time.sleep(0.01)
            try:
                self._load()
            except OSError:
                pass  # not created yet
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._child is not None
        self._child.kill()
        self._child.wait()

    def _load(self) -> None:
        times, units = [], []
        with open(self._path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.endswith("\n"):  # the last line may be half written
                    when, cpu = line.split()
                    times.append(float(when))
                    units.append(float(cpu))
        self._times, self._units = times, units

    def factor(self, t0: float, t1: float) -> float:
        """Mean unit time over ``[t0, t1]`` (``time.monotonic`` clock) over
        the reference; above 1 when the host is slower than the seed machine
        at its fastest.  An interval shorter than the sampling period takes
        the samples on either side of it."""
        if not self._times or self._times[-1] < t1:
            self._load()
        low = bisect.bisect_left(self._times, t0)
        high = bisect.bisect_right(self._times, t1)
        inside = self._units[low:high] or self._units[max(0, low - 1):low + 1]
        if not inside:
            raise RuntimeError("the host-speed sampler has written no sample")
        return statistics.fmean(inside) / REFERENCE_S


if __name__ == "__main__":
    _sample(sys.argv[1])
