"""Reference work that tracks how fast the shared machine runs right now.

A shared virtual machine (measured on 2 vCPUs of an Intel Xeon) can change
speed by up to 2x from one second to the next, because neighbours share its
cores.  The program and a
fixed piece of reference work slow down together.  So times are scaled to a
*reference machine*: one on which the reference work takes exactly
``IMPORT_REF_S`` or ``COMPUTE_REF_S``.  None of the reference work touches
offloadsim, so a change to the program cannot move it.

- The import reference is a fresh interpreter importing numpy and a few
  stdlib modules.  Like the program's set-up, it is dominated by loading
  extension modules and running module bodies.  ``run.py`` runs it before and
  after every set-up probe and CLI invocation.
- The compute reference is a short pure-Python loop with float maths,
  small-object attribute access, calls and dict traffic, like a trip.  A job
  runs it between units of its work, so each unit is scaled by the machine
  speed measured right next to it.  The collector is paused while it runs
  and it allocates no containers per step, so the program's heap cannot
  change its time.
"""

from __future__ import annotations

import gc
import time

IMPORT_PROBE = "import numpy, json, decimal, argparse, dataclasses"
IMPORT_REF_S = 0.15
COMPUTE_REF_S = 0.005


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


_POINTS = [_Point(i * 0.5, 1.0 / (i + 1)) for i in range(64)]


def _compute_kernel() -> float:
    table = dict.fromkeys(range(1024), 0.0)
    acc = 0.0
    for i in range(10000):
        x = _POINTS[i & 63].at((i % 97) * 0.5) + 1.0
        acc += x / (1.0 + x)
        table[i & 1023] = acc
        if i % 7 == 0:
            acc = max(acc, x) - min(acc, x) * 0.001
    return acc


def compute_seconds() -> float:
    """Seconds one run of the compute reference takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _compute_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Work time of one job, scaled unit by unit to the reference machine.

    Each unit is scaled by the mean of the compute reference runs just
    before and just after it; the reference runs themselves are not work.
    """

    def __init__(self) -> None:
        self.last = compute_seconds()
        self.reference_s = self.last  # time spent on the reference itself
        self.scaled_s = 0.0
        self.raw_s = 0.0

    def add(self, seconds: float) -> float:
        """Record one unit's raw seconds; returns the scale applied to it."""
        now = compute_seconds()
        scale = COMPUTE_REF_S / ((self.last + now) / 2)
        self.last = now
        self.reference_s += now
        self.raw_s += seconds
        self.scaled_s += seconds * scale
        return scale
