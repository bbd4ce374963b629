"""Gauging the host's speed while a measured process runs.

On a shared host a CPU runs up to about 1.5 times slower for spells that last
from a fraction of a second to minutes, so a wall time taken in a slow spell
cannot be compared with one taken in a fast spell.  The slowdown is per CPU:
a probe on the other CPU does not follow it.  So the benchmark pins itself
and every process it starts to one CPU, and while a measured process runs, a
Sampler thread beside it times a short fixed kernel every PERIOD_S seconds.
scale() turns the process's wall time into the wall time it would have taken
with the host at the reference speed: each probe says how fast the CPU ran
around it, and the process did ``REFERENCE_S / probe`` reference-seconds of
work per second there.

A probe is timed in its own thread's CPU time, so the time the measured
process holds the CPU while the probe waits does not count, and it is timed
after an untimed run of the kernel, so that the caches the measured process
has used are refilled first and its memory behaviour barely moves the probe.
The kernel is the benchmark's own code and does not call latprune, so a
change to the program moves the scaled times as it moves the raw ones.  Its
mix (small numpy array operations, dict updates, sorting short lists in the
interpreter) slows down in a slow spell by about as much as the solver does.
The probes take about 4 % of the CPU from the measured process.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.05  # time between probes
PROBE_ITERATIONS = 60
# About the median probe time on an idle CPU of a 2-vCPU Intel Xeon host
# (Python 3.11, numpy 2.4); scaled times are in seconds at this speed.
REFERENCE_S = 0.0010

_BASE = np.random.default_rng(12345).random((8, 8, 8))


def kernel(iterations: int = PROBE_ITERATIONS) -> float:
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(iterations):
        s = _BASE * (1.0 + i * 1e-3) - _BASE.sum(axis=2, keepdims=True) * 0.1
        arg = np.argmax(s, axis=0)
        j = int(np.argmax(s.max(axis=0).ravel()))
        key = (j, int(arg.flat[j]) + i % 17)
        table[key] = table.get(key, 0.0) + float(s.flat[j])
        total += sum(sorted(table.values())[:8])
    return total


def probe() -> float:
    """CPU time of one kernel run in this thread, in seconds, timed after an
    untimed run that warms the caches the measured process has used."""
    kernel()
    t = time.thread_time()
    kernel()
    return time.thread_time() - t


class Sampler:
    """Probes every PERIOD_S seconds in a background thread, from start()
    until stop(); `probes` holds one taken at each end as well."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.probes.append(probe())

    def start(self) -> None:
        probe()  # the first probe in a fresh interpreter reads slow
        self.probes.append(probe())
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.probes.append(probe())


def scale(wall: float, probes: list[float]) -> float:
    """`wall` at the reference speed, given the probes taken while it ran."""
    return wall * sum(REFERENCE_S / p for p in probes) / len(probes)
