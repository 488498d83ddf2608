"""A fixed pure-Python workload that gauges how fast the machine runs right now.

On a shared host the speed of one vCPU changes by up to a factor of two
within seconds, as other tenants load the core it shares.  Pure-Python code
of every kind slows down together.  So the benchmark runs this probe next to
every timed step and divides each measured time by the probe's current
slowdown against ``NOMINAL_S``.  A reported time is the time the step would
take while the probe takes ``NOMINAL_S``; the raw wall times are printed
beside them.  The probe does not call the package, so a change to the
package cannot move it.

A cold-eval step is a fresh process, whose time goes to process start, file
reads and shared-library loading more than to running Python code, and the
host's slow states move those by a different factor.  Its steps are scaled
by ``cold_probe`` instead: a fresh interpreter that imports numpy, which
does that same kind of work without the package.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

# Time of one probe at the nominal speed: roughly its median on a 2.1 GHz
# Xeon vCPU in the host's common, slower state.
NOMINAL_S = 5e-4
# Time of one cold probe at the nominal speed, on the same machine.
NOMINAL_COLD_S = 0.14


def probe() -> float:
    """Seconds taken by a fixed mix of float arithmetic, calls, tuple and
    dict traffic and string formatting."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for j in range(200):
        a, b = 1.0, 0.0
        for k in range(1, 12):
            a, b = (k * 0.5 + 1.0) * a + b, a
        table[j & 15] = f"{a / (b + 1.0):.12g}"
        acc += len(table[j & 15])
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - start


def cold_probe() -> float:
    """Seconds taken by a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def slowdowns(probes: List[float], nominal_s: float = NOMINAL_S,
              window: int = 5) -> List[float]:
    """Slowdown for each step between consecutive probes: the mean of the
    two probes around it over ``nominal_s``, then a running median over
    ``window`` steps to damp the noise of single probes."""
    raw = [(a + b) / 2 / nominal_s for a, b in zip(probes, probes[1:])]
    half = window // 2
    return [statistics.median(raw[max(0, i - half):i + half + 1]) for i in range(len(raw))]
