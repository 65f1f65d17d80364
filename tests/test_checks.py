"""The seeded suites run green and reproduce themselves."""

import functools
import hashlib
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

from hlf import checks
from hlf.checks import SUITES, run_all, run_suite
from hlf.elements import Element, lp_add
from hlf.errors import HlfError, OutOfRangeError
from hlf.fields import parse_field
from hlf.valuation import monomial_parts


def test_every_suite_is_green_at_small_battery():
    for name in SUITES:
        rep = run_suite(name, seed=7, battery=12)
        assert rep["ok"], rep
        assert rep["suite"] == name
        for c in rep["checks"]:
            assert c["failed"] == 0 and c["failures"] == []


def test_reports_are_reproducible():
    a = run_all(seed=3, battery=8)
    b = run_all(seed=3, battery=8)
    assert a == b
    assert a["ok"]


def test_suites_report_the_same_alone_or_together():
    # per suite rngs are derived from the suite name, so a single suite
    # run matches its slice of the full run
    full = run_all(seed=5, battery=8)
    for entry in full["suites"]:
        assert entry == run_suite(entry["suite"], seed=5, battery=8)


def test_counts_scale_with_the_battery():
    small = run_suite("axioms", seed=1, battery=4)
    big = run_suite("axioms", seed=1, battery=8)
    for a, b in zip(small["checks"], big["checks"]):
        assert a["name"] == b["name"]
        assert 0 < a["count"] < b["count"]


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("battery", [0, -3])
def test_a_battery_below_one_is_refused(battery):
    for call in (lambda: run_suite("axioms", battery=battery),
                 lambda: run_all(battery=battery)):
        with pytest.raises(OutOfRangeError) as err:
            call()
        assert isinstance(err.value, HlfError)
        assert str(err.value) == \
            "battery size must be at least 1, not %d" % battery


@pytest.mark.parametrize("seed", range(4))
def test_every_check_runs_at_battery_one(seed):
    # battery // 2 and battery // 3 used to give eight checks no draw at
    # battery 1, each still reporting ok
    for rep in run_all(seed=seed, battery=1)["suites"]:
        for c in rep["checks"]:
            assert c["count"] >= 1, (rep["suite"], c)


# Each memoised pool decision of checks.py, the checks whose draws look it
# up, and the decision functions it calls for one key, with how often.  The
# closed-immersion and unit-reading checks share the hyperbola verdict.
POOL_DECISIONS = {
    "product_kind": (("products of convergent pairs converge",),
                     {"product_continuity_check": 1}),
    "route_kinds": (("unit routes agree",), {"unit_converges": 2}),
    "mirror_kind": (("mirror families converge only when constant",),
                    {"seq_closed_check_C": 1}),
    "product_kinds": (("product verdict is the factor conjunction",),
                      {"converges": 2, "point_seq_converges": 1}),
    "ambient_kind": (("closed immersions preserve the verdict",),
                     {"point_seq_converges": 1}),
    "hyperbola_kind": (("closed immersions preserve the verdict",
                        "the two unit readings agree"),
                       {"point_seq_converges": 1}),
    "base_change_kinds": (("base change preserves convergence",),
                          {"point_seq_converges": 2, "converges": 1}),
    "unit_kind": (("the two unit readings agree",), {"unit_converges": 1}),
    "encode_kinds": (("verdicts agree under encode",),
                     {"sext_converges": 1, "point_seq_converges": 1}),
}
DECISIONS = ("product_continuity_check", "unit_converges",
             "seq_closed_check_C", "converges", "point_seq_converges",
             "sext_converges")


def _counted_run(monkeypatch, name, seed, battery):
    """run_suite with every pool lookup recorded by key and every decision
    call counted under the lookup that made it."""
    lookups, calls, inside = Counter(), Counter(), []

    def recording_cache(decide):
        memo = functools.cache(decide)

        def lookup(*key):
            lookups[decide.__name__, key] += 1
            inside.append(decide.__name__)
            try:
                return memo(*key)
            finally:
                inside.pop()
        return lookup

    def counted(fname, real):
        def call(*args, **kw):
            calls[inside[-1] if inside else None, fname] += 1
            return real(*args, **kw)
        return call

    monkeypatch.setattr(checks, "functools",
                        types.SimpleNamespace(cache=recording_cache))
    for fname in DECISIONS:
        monkeypatch.setattr(checks, fname, counted(fname, getattr(checks, fname)))
    try:
        rep = run_suite(name, seed=seed, battery=battery)
    finally:
        monkeypatch.undo()
    return rep, lookups, calls


@pytest.mark.parametrize("name", ["topology", "counterexamples", "points",
                                  "weil"])
def test_each_pool_draw_is_decided_once_per_run(name, monkeypatch):
    battery = 60
    rep, lookups, calls = _counted_run(monkeypatch, name, 11, battery)
    assert rep == run_suite(name, seed=11, battery=battery)
    counts = {c["name"]: c["count"] for c in rep["checks"]}
    seen = {fn for fn, _ in lookups}
    assert seen == {fn for fn, (drawn_by, _) in POOL_DECISIONS.items()
                    if counts.keys() & set(drawn_by)}
    repeats = 0
    for fn in seen:
        drawn_by, per_key = POOL_DECISIONS[fn]
        draws = sum(k for (f, _), k in lookups.items() if f == fn)
        keys = sum(1 for f, _ in lookups if f == fn)
        # every draw is still looked up and counted ...
        per_draw = 2 if fn == "base_change_kinds" else 1
        assert draws * per_draw == sum(counts[c] for c in drawn_by)
        # ... but each distinct key is decided exactly once
        for dec in DECISIONS:
            assert calls[fn, dec] == per_key.get(dec, 0) * keys, (fn, dec)
        repeats += draws - keys
    assert repeats > 0
    # nothing is kept from one run to the next
    again = _counted_run(monkeypatch, name, 11, battery)
    assert again[1:] == (lookups, calls)


def test_the_weil_suite_restricts_each_scheme_once(monkeypatch):
    restricted = []
    real = checks.weil_restrict
    monkeypatch.setattr(checks, "weil_restrict",
                        lambda Y: restricted.append(Y) or real(Y))
    rep = run_suite("weil", seed=4, battery=10)
    monkeypatch.undo()
    assert rep == run_suite("weil", seed=4, battery=10)
    assert len(restricted) == 3
    assert len({id(Y) for Y in restricted}) == 3


# --- the random material against the generator it replaced -------------------

def _ref_random_coeff(rng, field):
    if field.fq() is not None:
        return rng.randrange(1, field.char())
    return Fraction(rng.randrange(1, 10), rng.choice((1, 2)))


def _ref_random_term(rng, field, v):
    exps, m = monomial_parts(field, v)
    return {exps: field.coerce_coeff(_ref_random_coeff(rng, field)) * m}


def _ref_random_element(rng, field, span=3, terms=3):
    """The generator that built each term as coerce_coeff(c) * p^e and
    summed the terms with lp_add; kept as the reference for the draws and
    the entries of the check material."""
    nv = len(field.params())
    out = {}
    for _ in range(rng.randrange(1, terms + 1)):
        v = tuple(rng.randrange(-span, span + 1) for _ in range(nv))
        out = lp_add(out, _ref_random_term(rng, field, v))
    return Element.make(field, out) if out else Element.one(field)


def _ref_random_integral(rng, field):
    nv = len(field.params())
    out = {}
    for _ in range(rng.randrange(1, 3)):
        v = tuple(rng.randrange(-2, 3) for _ in range(nv - 1)) \
            + (rng.randrange(0, 3),)
        out = lp_add(out, _ref_random_term(rng, field, v))
    return Element.make(field, out)


MATERIAL_FIELDS = ("Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}", "Q((t))",
                   "Fq(4;w^2+w+1)((u))((t))", "Fq(5)((u))", "Fq(3)((t))",
                   "Qp(3)",
                   # the coefficient lies in [1, 2): a draw of width one
                   "Fq(2)((t))")
# the variants the suites and tests draw
MATERIAL_BUILDS = (
    ("element", lambda rng, f: checks._random_element(rng, f),
     lambda rng, f: _ref_random_element(rng, f)),
    ("member", lambda rng, f: checks._random_element(rng, f, span=2, terms=2),
     lambda rng, f: _ref_random_element(rng, f, span=2, terms=2)),
    ("span4", lambda rng, f: checks._random_element(rng, f, span=4),
     lambda rng, f: _ref_random_element(rng, f, span=4)),
    # every valuation slot of width one
    ("span0", lambda rng, f: checks._random_element(rng, f, span=0),
     lambda rng, f: _ref_random_element(rng, f, span=0)),
    ("integral", checks._random_integral, _ref_random_integral),
    # enough terms on few keys that a key cancels and comes back
    ("crowded", lambda rng, f: checks._random_element(rng, f, span=1, terms=6),
     lambda rng, f: _ref_random_element(rng, f, span=1, terms=6)),
)


@pytest.mark.parametrize("text", MATERIAL_FIELDS)
def test_random_material_matches_the_reference_generator(text):
    field = parse_field(text)
    entries = lambda lp: [(k, type(c), c) for k, c in lp.items()]
    fq = field.fq()
    for name, build, ref in MATERIAL_BUILDS:
        new_rng, old_rng = random.Random(name + text), random.Random(name + text)
        for _ in range(1000):
            got, want = build(new_rng, field), ref(old_rng, field)
            assert entries(got.num) == entries(want.num), (name, want)
            assert entries(got.den) == entries(want.den), (name, want)
            assert repr(got) == repr(want)
            assert new_rng.getstate() == old_rng.getstate()
            # no FqElem of another field object
            if fq is not None:
                assert all(c.field is fq for c in got.num.values())


# sha256 of the reprs of 200 _random_element draws from random.Random(0),
# joined by newlines; the draws feed every suite, so a change here is a
# change to every seeded report
RANDOM_ELEMENT_SHA256 = {
    "Fq(5)((u))((t))":
        "1c1dabd285c9d2a2c435cf51c43c9537d7eaf7c1bb8841d2c33a421abd3d8282",
    "Qp(3)((t))":
        "4a0c5bbe2ae0c341e86e0a96c033d7cb34fa6814961939141625794b23b95d13",
    "Qp(3){{t}}":
        "6dda9ddc257f9434b5b2cf3d994fee3af60982c2c847a3507bb126805f1a82db",
    "Q((t))":
        "3e145a86e14a493322c09a531115e665cfc1fac788673ecde6e49a835ddf192a",
    "Fq(4;w^2+w+1)((t))":
        "5ed2c5b082b806b81e4004ef82086b53272b27ba53b6394456c10e5d911a92ea",
}


@pytest.mark.parametrize("text", sorted(RANDOM_ELEMENT_SHA256))
def test_random_element_draws_are_pinned(text):
    field, rng = parse_field(text), random.Random(0)
    text_out = "\n".join(repr(checks._random_element(rng, field))
                         for _ in range(200))
    assert hashlib.sha256(text_out.encode()).hexdigest() \
        == RANDOM_ELEMENT_SHA256[text]
