"""Host-speed probe: how fast the host runs a fixed piece of Python now.

A shared 2-vCPU host changes speed by up to 1.7x every few seconds (a
fixed pure-Python loop alternates between about 11 and 18 ms), and a
run may spend all its time in a slow stretch.  Timing the probe beside
the program and scaling each measured time by ``REFERENCE_PROBE_S /
probe cost`` (:func:`stats.rescale`) reports host time as it would read
on a host where the probe takes :data:`REFERENCE_PROBE_S`: the program's
own cost stays, the host's current speed drops out.
"""

from __future__ import annotations

import time

#: The probe's cost on the reference host (a fast stretch of a 2-vCPU
#: x86-64 VM under CPython 3.11).  Scaled times read in reference seconds.
REFERENCE_PROBE_S = 0.00035
#: Repetitions per probe; the cheapest one counts.
REPS = 3


def _work() -> float:
    # Float arithmetic, calls and a small dict: the mix the controller runs.
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(2000):
        acc += abs(i * 0.5 - acc * 1e-3) ** 0.5
        table[i & 31] = acc
    return acc + len(table)


def probe() -> float:
    """The probe's cheapest cost over :data:`REPS` tries, in seconds."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


class Speedometer:
    """Probes taken at most every ``every_s`` seconds, with their stamps."""

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        self.stamps: list[float] = []
        self.costs: list[float] = []

    def take(self) -> None:
        self.stamps.append(time.perf_counter())
        self.costs.append(probe())

    def tick(self) -> None:
        """Probe if the last probe is older than ``every_s``."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= self.every_s:
            self.take()
