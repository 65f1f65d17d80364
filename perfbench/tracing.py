"""Spans around hlf's public functions and methods, recorded from outside
the program.

`install` rebinds each wrapped function on every hlf module namespace that
holds it, and each wrapped method on its class, so calls made inside hlf go
through the wrapper too.  A span carries its name, start, end, parent span
and op id.  Spans stay in memory (the first `span_cap` of them; later ones
are counted in `dropped`) and are written out at the end.  Calls and self
time (a span's duration minus the time its child spans cover) are kept for
every span, kept or dropped.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

HLF_MODULES = ("coeff", "elements", "fields", "parsing", "sequences",
               "valuation", "expansion", "opens", "convergence", "points",
               "weil", "checks", "cli")


class Tracer:
    def __init__(self, span_cap=200_000):
        self.on = True
        self.op = -1
        self.stats = {}        # span name -> [calls, self seconds]
        self.counts = {}       # extra counter name -> number
        self.root_self = {}    # span name -> self seconds of each root span
        self.spans = []        # [name, start, end, parent index, op id]
        self.span_cap = span_cap
        self.dropped = 0
        self._stack = []       # [child seconds, span index] per open span

    def unwind(self):
        """Forget open spans after an op was cut off mid-call."""
        del self._stack[:]

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, name_of=None, after=None):
        """fn under a span called `name`, or name_of(args) per call; after
        (tracer, args, result) may add counters."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        stats = self.stats

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            nm = name if name_of is None else name_of(args)
            parent = stack[-1][1] if stack else -1
            if len(spans) < self.span_cap:
                idx = len(spans)
                rec = [nm, 0.0, 0.0, parent, self.op]
                spans.append(rec)
            else:
                idx, rec = -1, None
                self.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st = stats.get(nm)
                if st is None:
                    st = stats[nm] = [0, 0.0]
                st[0] += 1
                st[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_self.setdefault(nm, []).append(dur - frame[0])
                if rec is not None:
                    rec[1] = t0
                    rec[2] = t1
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


# --- what is wrapped ------------------------------------------------------------

def _expand_name(args):
    kind = type(args[0].field).__name__
    if kind == "SeriesExt":
        return "expansion.expand_t"
    return "expansion.expand_p.mixed" if kind == "MixedExt" \
        else "expansion.expand_p.qp"


def _count_digits(tr, args, result):
    tr.count(_expand_name(args) + ".digits", args[1])


def _count_yes(tr, args, result):
    if result:
        tr.count("opens.contains.yes")


def _count_checked(name):
    def after(tr, args, result):
        if result:
            tr.count(name + ".true")
    return after


def _count_verdict(tr, args, result):
    tr.count("convergence.verdicts")
    if result.kind == "UNKNOWN":
        tr.count("convergence.unknown")


def _functions(m):
    """(module, function name, span name, after) for plain functions."""
    return [
        (m["fields"], "parse_field", "parsing.parse_field", None),
        (m["parsing"], "parse_element", "parsing.parse_element", None),
        (m["sequences"], "parse_family", "sequences.parse_family", None),
        (m["valuation"], "rank_valuation", "valuation.rank_valuation", None),
        (m["expansion"], "canonical_fraction", "expansion.canonical_fraction",
         None),
        (m["expansion"], "residue", "expansion.residue", None),
        (m["expansion"], "lift", "expansion.lift", None),
        (m["opens"], "intersect_open", "opens.intersect", None),
        (m["opens"], "residue_image", "opens.residue_image", None),
        (m["opens"], "subgroup_escape_witness", "opens.witness", None),
        (m["opens"], "product_escape_witness", "opens.witness", None),
        (m["convergence"], "converges", "convergence.converges",
         _count_verdict),
        (m["convergence"], "unit_converges", "convergence.unit_converges",
         _count_verdict),
        (m["points"], "point_seq_converges", "points.point_seq_converges",
         None),
        (m["points"], "member_points", "points.member_points", None),
        (m["weil"], "weil_restrict", "weil.weil_restrict", None),
        (m["weil"], "sext_converges", "weil.sext_converges", None),
        (m["checks"], "run_suite", "checks.run_suite", None),
        (m["cli"], "main", "cli.main", None),
    ]


def _methods(m):
    """(class, attribute, span name, after) for methods; aliases such as
    __rmul__ = __mul__ are rebound along with the attribute."""
    op, cv = m["opens"], m["convergence"]
    out = [
        (m["coeff"].FqElem, "__mul__", "coeff.fq_mul", None),
        (m["coeff"].FqElem, "inverse", "coeff.fq_inverse", None),
        (m["elements"].Element, "make", "elements.make", None),
        (m["elements"].Element, "__mul__", "elements.mul", None),
        (m["elements"].Element, "__add__", "elements.add", None),
        (m["elements"].Element, "inverse", "elements.inverse", None),
        (m["sequences"].SeqFamily, "evaluate", "sequences.evaluate", None),
        (op.EscapeWitness, "checked", "opens.witness_checked",
         _count_checked("opens.witness_checked")),
        (cv.DivergenceWitness, "checked", "convergence.witness_checked",
         None),
    ]
    for cls in (op.FullOpen, op.ZeroOpen, op.BallOpen, op.LevelsOpen):
        out.append((cls, "contains", "opens.contains", _count_yes))
    for cls in (cv.ZeroCert, cv.SlopeCert, cv.LevelsCert, cv.PairCert):
        out.append((cls, "entry_index", "convergence.entry_index", None))
    return out


def install(tracer):
    """Wrap every listed function and method."""
    mods = {name: importlib.import_module("hlf." + name)
            for name in HLF_MODULES}
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "hlf" or key.startswith("hlf.")]

    def rebind(owners, orig, wrapper):
        for ns in owners:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapper)

    exp = mods["expansion"]
    rebind(namespaces, exp.expand,
           tracer.wrap(None, exp.expand, name_of=_expand_name,
                       after=_count_digits))
    for mod, fname, span, after in _functions(mods):
        orig = getattr(mod, fname)
        rebind(namespaces, orig, tracer.wrap(span, orig, after=after))
    for cls, attr, span, after in _methods(mods):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(span, raw.__func__, after=after))
        else:
            wrapped = tracer.wrap(span, raw, after=after)
        rebind([cls], raw, wrapped)
