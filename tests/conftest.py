"""Shared fixtures and helpers."""

import math
import signal
import time
from contextlib import contextmanager

import pytest

from hlf.elements import Element


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


def _put(out, k, c):
    """out[k] += c; a key that cancels is deleted and comes back at the
    end if a later term brings it back, the rule of hlf.elements.lp_sum."""
    s = out[k] + c if k in out else c
    if s.is_zero():
        out.pop(k, None)
    else:
        out[k] = s


class SparsePoly:
    """Reference polynomial: terms keyed by sorted (name, exponent) pairs
    and multiplied by merging the pairs.  It shares no code with
    hlf.points.Poly and is blind to any variable order, so Poly's results,
    read off with `of`, are checked against it; its sums keep terms in
    the order Poly's do, and its powers square and multiply."""

    def __init__(self, field, terms):
        self.field = field
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def of(cls, p):
        """A Poly read off its names and exponent tuples."""
        return cls(p.field, {
            tuple(sorted((n, e) for n, e in zip(p.names, key) if e)): c
            for key, c in p.terms.items()})

    @classmethod
    def var(cls, field, name, e=1):
        return cls(field, {((name, e),): Element.one(field)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _put(out, k, c)
        return SparsePoly(self.field, out)

    def __sub__(self, other):
        return self + SparsePoly(self.field,
                                 {k: -c for k, c in other.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                exps = dict(k1)
                for n, e in k2:
                    exps[n] = exps.get(n, 0) + e
                _put(out, tuple(sorted((n, e) for n, e in exps.items() if e)),
                     c1 * c2)
        return SparsePoly(self.field, out)

    def __pow__(self, k):
        out, x = SparsePoly(self.field, {(): Element.one(self.field)}), self
        while k:
            if k & 1:
                out = out * x
            k >>= 1
            x = x * x
        return out

    def __eq__(self, other):
        return self.terms == other.terms

    def split_var(self, name):
        out = {}
        for key, c in self.terms.items():
            rest = tuple((n, e) for n, e in key if n != name)
            out.setdefault(dict(key).get(name, 0), {})[rest] = c
        return {e: SparsePoly(self.field, t) for e, t in out.items()}

    def evaluate(self, env, lift=lambda c: c):
        """The sum from zero, every variable raised to its power."""
        total = lift(Element.zero(self.field))
        for key, c in self.terms.items():
            v = lift(c)
            for n, e in key:
                v = v * env[n] ** e
            total = total + v
        return total

    def substitute(self, repl):
        """repl's SparsePolys plugged in; every other variable stays."""
        env = {n: repl.get(n, SparsePoly.var(self.field, n))
               for key in self.terms for n, _ in key}
        return self.evaluate(env, lambda c: SparsePoly(self.field, {(): c}))

    def text(self):
        """Terms by number of variables, then by their pairs."""
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            c = self.terms[key]
            vs = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in key)
            cs = repr(c)
            if any(ch in cs for ch in " +-/") and not cs.startswith("("):
                cs = "(%s)" % cs
            parts.append(cs if not vs else vs if c.is_one()
                         else "%s*%s" % (cs, vs))
        return " + ".join(parts) or "0"

    __repr__ = text
