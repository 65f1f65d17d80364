"""Shared fixtures and helpers."""

import math
import signal
import time
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """`with deadline(s):` fails unless the block finishes within s
    seconds.  SIGALRM interrupts a runaway at the next whole second, so a
    regression to exponential time fails fast instead of stalling the
    suite."""
    @contextmanager
    def within(seconds):
        def stop(signum, frame):
            raise TimeoutError("still running after %.2f s" % seconds)
        old = signal.signal(signal.SIGALRM, stop)
        signal.alarm(math.ceil(seconds))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        elapsed = time.perf_counter() - t0
        assert elapsed < seconds, "took %.3f s, allowed %.2f s" % (elapsed, seconds)
    return within


def same_element(x, y):
    """The same entries in the same order: later builds iterate these
    dicts."""
    return (list(x.num.items()) == list(y.num.items())
            and list(x.den.items()) == list(y.den.items())
            and repr(x) == repr(y))


def dense(pairs, start, zero, stop=None):
    """The digits of a stream of (level, digit) pairs from level start on,
    as a list with zero at every level the stream skips: up to stop, or
    through the last pair without one.  Oracles written against a digit
    per level read this."""
    out = []
    for i, d in pairs:
        out += [zero] * (i - start - len(out))
        out.append(d)
    if stop is not None:
        out += [zero] * (stop - start - len(out))
    return out
