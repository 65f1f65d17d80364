"""The host's speed, measured with a fixed calibration loop.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x for tens of seconds at a time, as other guests load the cores, caches
and memory they share (no steal time shows: CPU time inflates with wall
time).  Taking the least or the median time over a run does not undo a
slowdown that lasts the whole run, so the worker runs this loop between
ops and scales each op's time by how much slower the loop ran around it
than it does on a quiet host:

    scaled = measured * CAL_REF_S / (mean of the loop times before and after)

The loop uses only the standard library, with the kind of work hlf does
(dicts with tuple keys, Fractions, small ints), a small working set that is
freed every round, and the cyclic collector off, so nothing hlf builds or
leaves behind changes its cost; a change to hlf cannot move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Seconds the loop takes on a quiet host where the benchmark was defined
# (Python 3.11, Intel Xeon vCPU).  It only sets the unit: scaled times are
# seconds on a host as fast as that one was when quiet.
CAL_REF_S = 0.020
ROUNDS = 8

# op time between two calibrations; ops in between share their scale
CAL_EVERY_S = 0.3


def _loop(rounds=ROUNDS):
    s = 0
    for r in range(rounds):
        d = {}
        for i in range(2000):
            d[(i % 97, i // 97, r)] = Fraction(i + r, 1 + i % 13)
        for k, v in d.items():
            s += v.numerator * k[0]
    return s


def calibrate():
    """Seconds the loop takes now."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


def warm():
    """A fresh process's first rounds run slower while the interpreter
    specialises the loop's bytecode; run it once, untimed."""
    _loop(1)


class Scaler:
    """Scales the records of a closed loop in chunks of about CAL_EVERY_S
    of op time, each by the calibrations at its two ends."""

    def __init__(self):
        warm()
        self.before = calibrate()
        self.chunk = []
        self.since = 0.0
        self.samples = [self.before]

    def add(self, rec):
        self.chunk.append(rec)
        self.since += rec["s"]
        if self.since >= CAL_EVERY_S:
            self.flush()

    def flush(self):
        if not self.chunk:
            return
        after = calibrate()
        self.samples.append(after)
        cal = (self.before + after) / 2
        for rec in self.chunk:
            rec["wall_s"] = rec["s"]
            rec["s"] = rec["s"] * CAL_REF_S / cal
            rec["cal_s"] = cal
        self.before, self.chunk, self.since = after, [], 0.0


def setup_scale():
    """Scale for a set-up time that just ended: CAL_REF_S over the mean of
    two calibrations made right after it."""
    warm()
    return CAL_REF_S / ((calibrate() + calibrate()) / 2)
