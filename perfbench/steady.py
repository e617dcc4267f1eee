"""Step timing that holds steady on a shared, contended machine.

On a shared virtual machine, work outside the machine can make each virtual
CPU take up to about twice as long, for seconds or minutes at a time.
Two things keep that out of the numbers:

- Before a step starts, :class:`SteadyTimer` times a short fixed piece of
  reference work on every CPU the process may use and pins the process to
  the fastest.  The workload still runs on one CPU at a time.
- The step's wall time is then scaled by the reference work's speed, timed
  just before and just after the step on that CPU, to *reference seconds*:
  the time the step would take on a CPU that does the reference work in
  ``REFERENCE_WORK_S``.  That constant is the work's time on an uncontended
  CPU of the machine the baseline was measured on, so there a reference
  second is about a wall second.

Contention slows memory-bound work more than arithmetic: in one heavy
stretch, interpreter arithmetic ran 1.5 times slower than uncontended, dict
lookups 2.4 times and small numpy calls 1.9 times.  The reference work
therefore mixes all three, in about equal parts of its time, as clusterlm
does.

An inactive timer reports plain wall seconds and does neither, which keeps
its own work out of the spans of a traced run.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

REFERENCE_WORK_S = 0.8e-3
ARITHMETIC_STEPS = 6000
TABLE_SIZE = 50_000  # entries; the table outgrows a CPU's private caches
LOOKUPS = 3000
NUMPY_CALLS = 60
SAMPLES = 3


class ReferenceWork:
    """Interpreter arithmetic, random dict lookups and small numpy calls."""

    def __init__(self):
        rng = random.Random(0)
        self.table = {i: i for i in range(TABLE_SIZE)}
        self.keys = [rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]
        self.ids = np.array([rng.randrange(100) for _ in range(300)])
        self.weights = np.arange(300, dtype=np.float64)

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(ARITHMETIC_STEPS):
            acc += i * i
        table = self.table
        for key in self.keys:
            acc += table[key]
        for _ in range(NUMPY_CALLS):
            profile = np.bincount(self.ids, weights=self.weights, minlength=100)
            acc += int((profile == 1).sum())
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Shortest of a few timings of the reference work."""
        return min(self._once() for _ in range(SAMPLES))


class SteadyTimer:
    """Times steps in reference seconds on the least contended CPU."""

    def __init__(self, active: bool = True):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.active = active
        self.reference = ReferenceWork()
        self.overhead_s = 0.0  # wall seconds spent timing the reference work

    def _pin_fastest(self) -> float:
        """Pin to the CPU with the fastest reference work; returns its time."""
        timings = []
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            timings.append((self.reference.seconds(), cpu))
        work_s, cpu = min(timings)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        return work_s

    def start(self) -> tuple[float | None, float]:
        """Begin a step; pass the returned token to :meth:`stop`."""
        if not self.active:
            return None, time.perf_counter()
        c0 = time.perf_counter()
        work_before = self._pin_fastest()
        t0 = time.perf_counter()
        self.overhead_s += t0 - c0
        return work_before, t0

    def stop(self, token: tuple[float | None, float]) -> tuple[float, float]:
        """End a step; returns its (reference seconds, wall seconds)."""
        t1 = time.perf_counter()
        work_before, t0 = token
        wall = t1 - t0
        if work_before is None:
            return wall, wall
        work_after = self.reference.seconds()
        self.overhead_s += time.perf_counter() - t1
        return self.scale(wall, work_before, work_after), wall

    def scale(self, wall_s: float, work_before: float, work_after: float) -> float:
        """Wall seconds to reference seconds, given the reference work's time
        just before and just after."""
        return wall_s * REFERENCE_WORK_S * 2.0 / (work_before + work_after)

    def release(self) -> None:
        if self.active and len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)
