"""Basic opens: membership, scaling, the meet of nested deep balls,
witnesses, serialization."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from conftest import dense

from hlf import opens as opens_module
from hlf.checks import _random_element
from hlf.elements import Element
from hlf.errors import (UnsupportedFieldError, UnsupportedOpenError,
                        UnsupportedScalarError)
from hlf.expansion import digits, expand
from hlf.fields import QpBase, parse_field
from hlf.opens import (_SHARED_MAX, AffineRule, BallOpen, ConstRule, FullOpen,
                       FullRule, LevelsOpen, PeriodicRule, QuadraticRule,
                       ZeroOpen, admitted_depth,
                       ball_at, deep_ball, deep_depth,
                       first_nonneg,
                       intersect_open,
                       open_from_data, product_escape_witness, random_open,
                       rejection_depth, residue_image, scale_open,
                       subgroup_escape_witness, subgroup_shaped)
from hlf.parsing import parse_element
from hlf.valuation import in_integer_ring, monomial_with_valuation

F5UT = parse_field("Fq(5)((u))((t))")
F5U = parse_field("Fq(5)((u))")
Q3T = parse_field("Qp(3)((t))")
Q3M = parse_field("Qp(3){{t}}")
FIELDS = (F5UT, Q3T, Q3M)


def e(field, text):
    return parse_element(field, text)


SCALARS = {F5UT: ["u^2", "t^-1", "3*u^-1*t", "u*t^2", "2*t^-2"],
           Q3T: ["3^2", "t^-1", "3^-1*t", "-t^2"],
           Q3M: ["3*t", "t^-2", "-3^2", "3^-1*t^3"]}
ELEMS = {F5UT: ["u", "t", "u^-3*t^2", "1+u", "u^2/(1+t)", "4*u^-1",
                "t^3/(u - t)", "u^-1*t^-1", "u^4*t^-2"],
         Q3T: ["3", "t", "3^-2*t", "1+3*t", "t^2/(1-t)", "2", "3^3*t^-1",
               "3^-1*t^-2"],
         Q3M: ["t", "3", "t^-1", "1+t", "3*t^-2", "2+t", "3^2*t^-1",
               "t^4*3^-1"]}


def test_deep_ball_membership():
    B = deep_ball(F5UT, 2)
    assert not B.contains(e(F5UT, "u*t"))
    assert B.contains(e(F5UT, "u^5*t"))
    assert B.contains(e(F5UT, "u^2*t"))
    assert B.contains(e(F5UT, "t^3"))
    assert B.contains(e(F5UT, "t^2"))
    assert B.contains(e(F5UT, "0"))


def test_mixed_deep_ball_membership():
    B = deep_ball(Q3M, 1)
    assert B.contains(e(Q3M, "3*t"))
    assert B.contains(e(Q3M, "t"))
    assert B.contains(e(Q3M, "3"))
    assert not B.contains(e(Q3M, "1"))
    assert not B.contains(e(Q3M, "2 + t"))


def test_membership_returns_at_the_first_failing_level(deadline):
    # u^-1 fails at level -1; nothing below the cutoff 10^5 is expanded
    B = ball_at(F5U, 10 ** 5)
    with deadline(0.1):
        assert not B.contains(e(F5U, "u^-1"))
        # and a polynomial's digits end after its top term
        assert not B.contains(e(F5U, "u^99999 + u^-3"))


def _rand_fraction(rng, F):
    """num/(1 + d), num and d sums of monomials whose top valuations lie in
    [-3, 3] and [0, 2]."""
    nv = len(F.params())
    def poly(n, lo, hi):
        out = Element.zero(F)
        for _ in range(n):
            v = tuple(rng.randint(-2, 2) for _ in range(nv - 1)) \
                + (rng.randint(lo, hi),)
            c = rng.randrange(1, F.char()) if F.fq() is not None \
                else Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2)))
            out = out + Element.from_coeff(F, c) * monomial_with_valuation(F, v)
        return out
    num, den = poly(rng.randint(1, 3), -3, 3), Element.one(F) + poly(rng.randint(0, 2), 0, 2)
    return num if den.is_zero() else num / den


@pytest.mark.parametrize("text", ["Fq(5)((u))((t))", "Qp(3)((t))",
                                  "Qp(3){{t}}", "Fq(3)((v))((u))((t))"])
def test_membership_matches_the_full_expansion(text):
    F = parse_field(text)
    rng = random.Random(text)
    seen = {True: 0, False: 0}
    for _ in range(60):
        U = random_open(rng, F)
        if not isinstance(U, LevelsOpen):
            continue
        for _ in range(5):
            x = _rand_fraction(rng, F)
            if x.is_zero():
                continue
            i0 = x.val_vector()[-1]
            jet = expand(x, U.cutoff - i0)
            want = all(U.level(i).contains(jet.coeff(i))
                       for i in range(i0, U.cutoff))
            assert U.contains(x) == want, (U, x)
            seen[want] += 1
    assert min(seen.values()) > 10


def _digit_path(U, x):
    """Membership read level by level off the digit stream, the reference
    for every shortcut."""
    if x.is_zero():
        return True
    i0 = x.val_vector()[-1]
    stream = dense(digits(x, U.cutoff), i0, Element.zero(U.field.residue()))
    return all(U.level(i).contains(d) for i, d in enumerate(stream, i0))


def _rand_mixed(rng, F, p):
    """num/den over Qp{{t}} with den's dominant monomial 1 at t^0 and
    p-divisible terms at negative t-exponents, so den is no unit of
    Zp[[t]] about half the time."""
    def lp(n, lo, hi, neg):
        out = {}
        for _ in range(n):
            k = rng.randint(lo, hi)
            c = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 1, 2))) \
                * Fraction(p) ** rng.randint(-2, 2)
            out[(k,)] = out.get((k,), 0) + (c * p if neg and k < 0 else c)
        return out
    den = lp(rng.randint(0, 3), -2, 3, True)
    den[(0,)] = den.get((0,), 0) + 1
    num = {k: c for k, c in lp(rng.randint(1, 4), -3, 4, False).items() if c}
    den = {k: c for k, c in den.items() if c}
    return Element.make(F, num, den) if num and den else None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_staircase_matches_the_digit_path(p):
    F = parse_field("Qp(%d){{t}}" % p)
    rng = random.Random("staircase %d" % p)
    fixed = [e(F, s % {"p": p}) for s in (
        "(%(p)d*t^-2 + t)/(1 + %(p)d*t^-1)", "t^3/(1 + %(p)d*t^-2)",
        "(t + %(p)d^2*t^-1)/(1 - %(p)d*t^-1 + t^2)", "%(p)d^-1*(1 + t)/(1 - t)",
        "t*(1 + %(p)d*t^-1)/((1 + %(p)d*t^-1)*(1 - t))")]
    seen = {True: 0, False: 0}
    for _ in range(400):
        U = random_open(rng, F) if rng.random() < 0.6 \
            else deep_ball(F, rng.randint(-1, 5))
        if not isinstance(U, LevelsOpen):
            continue
        for x in fixed + [_rand_mixed(rng, F, p) for _ in range(4)]:
            if x is None:
                continue
            want = _digit_path(U, x)
            assert U.contains(x) == want, (U, x)
            seen[want] += 1
    assert min(seen.values()) > 200, seen


@pytest.mark.parametrize("d", [40, 80])
def test_deep_mixed_balls_are_decided_quickly(d, deadline):
    B = deep_ball(Q3M, d)
    with deadline(1.0):
        # a unit denominator of Zp[[t]]: in exactly when t^d divides
        assert B.contains(e(Q3M, "t^%d*(1 + t)/(1 - 3*t - t^2)" % d))
        assert not B.contains(e(Q3M, "t^%d*(1 + t)/(1 - 3*t - t^2)" % (d - 1)))
        # a denominator with a p-divisible part below t^0 spreads the tail
        # over every level: 3^d clears all d of them, 3^(d-1) leaves the last
        assert B.contains(e(Q3M, "t^%d + 3^%d*t^-5/(1 + 3*t^-1)" % (d, d)))
        assert not B.contains(
            e(Q3M, "t^%d + 3^%d*t^-5/(1 + 3*t^-1)" % (d, d - 1)))


def test_staircase_rejects_at_the_first_level_without_paying_for_the_rest(deadline):
    x = e(Q3M, "3^-5*t^-1*(1 + t)/(1 - 3*t - t^2)")
    y = e(Q3M, "3^-300*(1 + t)/(1 - 3*t - t^2)")
    # the quadratic tail asks depth 300^2 at y's top level
    U = LevelsOpen(Q3M, 0, {}, QuadraticRule(1, 0, 0))
    with deadline(0.5):
        assert not deep_ball(Q3M, 10 ** 6).contains(x)
    with deadline(0.5):
        assert not U.contains(y)
    # with a p-divisible part below t^0 the precision grows from one level
    z = e(Q3M, "3^-5*t^-1*(1 + t)/(1 + 3*t^-1)")
    with deadline(0.5):
        assert not deep_ball(Q3M, 10 ** 4).contains(z)


@pytest.mark.parametrize("den", ["1 + 3*t^-1", "(1 + 3*t^-1)*(1 + t)"])
def test_staircase_cancels_a_common_factor_first(den, deadline):
    # make keeps the factor 1 + 3t^-1 on both sides; uncancelled, the
    # p-divisible part below t^0 would pass every round of the precision
    # doubling up to the cutoff, while the digit stream ends at once
    x = e(Q3M, "t^%d*(1 + 3*t^-1)/(%s)" % (10 ** 6, den))
    assert min(k for (k,) in x.den) < 0
    B = deep_ball(Q3M, 10 ** 6)
    with deadline(0.5):
        assert B.contains(x)
    assert _digit_path(B, x)
    y = x * e(Q3M, "t^-1")
    with deadline(0.5):
        assert not B.contains(y)
    assert not _digit_path(B, y)


def test_membership_reads_no_level_past_the_last_constraint(deadline):
    # levels 3 .. 10^7 - 1 are full: nothing past level 2 is expanded
    U = LevelsOpen(F5UT, 10 ** 7, {0: ball_at(F5U, 0), 2: ball_at(F5U, 0)},
                   FullRule())
    with deadline(0.5):
        assert U.contains(e(F5UT, "1/(1 - t)"))
        assert not U.contains(e(F5UT, "u^-1/(1 - t)"))
    # top = 2: the denominator's term at t^100000 is never read
    F = parse_field("Fq(25;w^2+w+2)((u))((t))")
    B = F.residue()
    V = LevelsOpen(F, 10 ** 7, {0: ball_at(B, 0), 1: ball_at(B, 0)}, FullRule())
    with deadline(0.5):
        assert V.contains(e(F, "(1 + u*t)/(1 - u^2*t^100000)"))
        assert not V.contains(e(F, "(1 + u^-1*t)/(1 - u^2*t^100000)"))


def _item_one_open(c):
    # levels 0 and 2 pinned, every level below under a quadratic tail
    return LevelsOpen(F5UT, c, {0: ball_at(F5U, 1), 2: ball_at(F5U, 0)},
                      QuadraticRule(1, 0, 1))


def test_a_laurent_polynomial_is_read_at_its_terms_below_top():
    U = _item_one_open(10 ** 6)
    read = []
    level = U.level
    U.level = lambda i: read.append(i) or level(i)
    # level -40 is the deep ball of depth 40^2 + 1, level -3 of depth 10
    assert U.contains(e(F5UT, "u^2000*t^-40 + u^12*t^-3 + u + u^2*t^2"
                              " + u^-5*t^3 + t^7 + u^-1*t^900"))
    assert read == [-40, -3, 0, 2]
    read.clear()
    assert not U.contains(e(F5UT, "u^2000*t^-40 + u^9*t^-3 + t^2"))
    assert read == [-40, -3]
    read.clear()
    # a monomial denominator is normalized away first
    assert U.contains(e(F5UT, "(u^2000*t^-38 + u^12*t^-1 + t^9)/(u^-1*t^2)"))
    assert read == [-40, -3]


@pytest.mark.parametrize("c", [10 ** 5, 10 ** 19])
def test_the_mirror_witness_pays_no_level_between_its_terms(c, deadline):
    U = _item_one_open(c)
    with deadline(0.5):
        w = subgroup_escape_witness(U)
        assert w.checked()
    assert [fact for fact, _ in w.claims][-1] == "mirror sum in U"


def test_ball_at_legality():
    assert ball_at(Q3T.residue(), 2).contains(e(Q3T.residue(), "3^2"))
    assert ball_at(F5UT.residue(), 2).contains(e(F5UT.residue(), "u^3"))
    with pytest.raises(UnsupportedFieldError):
        ball_at(F5UT, 1)
    with pytest.raises(UnsupportedFieldError):
        ball_at(Q3M, 1)


def test_depth_probes():
    L = ball_at(F5UT.residue(), 3)
    assert rejection_depth(L) == 3
    assert admitted_depth(L) == 3
    assert rejection_depth(deep_ball(F5UT, 2).level(0)) == 2
    assert rejection_depth(FullOpen(F5UT.residue())) is None
    assert admitted_depth(FullOpen(F5UT.residue())) == 0


def test_admitted_depth_reads_the_descriptor():
    # u^600 is in the ball, six hundred levels past any fixed probe count
    assert admitted_depth(ball_at(F5U, 600)) == 600
    assert admitted_depth(ball_at(F5U, -4)) == -4
    base = F5U.residue()
    cyc = LevelsOpen(F5U, 9, {8: ZeroOpen(base)},
                     PeriodicRule([ZeroOpen(base)] * 5 + [FullOpen(base)]))
    # below the floor 8 the cycle's one full slot falls on levels 2 and -4;
    # the search starts at 0
    assert admitted_depth(cyc) == 2
    assert cyc.contains(e(F5U, "u^2")) and cyc.contains(e(F5U, "u^-4"))
    assert not any(cyc.contains(e(F5U, "u^%d" % d)) for d in (-3, 0, 1, 3, 8))
    U = LevelsOpen(F5UT, 2, {}, ConstRule(ball_at(F5U, 600)))
    w = subgroup_escape_witness(U)
    assert w is not None and w.checked()


def test_rejection_depth_sees_a_long_period():
    base = F5U.residue()
    W = LevelsOpen(F5U, 0, {}, PeriodicRule([FullOpen(base)] * 70
                                            + [ZeroOpen(base)]))
    assert rejection_depth(W) == -70
    assert not W.contains(e(F5U, "u^-71"))
    assert W.contains(e(F5U, "u^-70"))


def test_window_membership():
    base = F5UT.residue()
    U = LevelsOpen(F5UT, 2, {0: ball_at(base, 1)}, FullRule())
    assert U.contains(e(F5UT, "u + t"))
    assert not U.contains(e(F5UT, "1 + t"))
    assert U.contains(e(F5UT, "u^-9*t^-1"))
    assert U.contains(e(F5UT, "t^2/(1+u)"))


def test_affine_rule_membership():
    U = LevelsOpen(F5UT, 0, {}, AffineRule(-1, 0))
    # level i below 0 requires depth -i, so u^2*t^-2 is on the boundary
    assert U.contains(e(F5UT, "u^2*t^-2"))
    assert not U.contains(e(F5UT, "u*t^-2"))
    assert U.contains(e(F5UT, "t^3"))


def test_scale_property_battery():
    rng = random.Random(11)
    checked = 0
    for f in FIELDS:
        for _ in range(40):
            U = random_open(rng, f)
            for ys in SCALARS[f]:
                y = e(f, ys)
                try:
                    Us = scale_open(U, y)
                except UnsupportedScalarError:
                    continue
                for xs in ELEMS[f]:
                    x = e(f, xs)
                    assert Us.contains(y * x) == U.contains(x)
                    checked += 1
    assert checked > 2000


def test_scale_rejects_non_monomial():
    with pytest.raises(UnsupportedScalarError):
        scale_open(deep_ball(F5UT, 1), e(F5UT, "1 + t"))


def _sinking_loop(qa, qb, qc, start):
    # the walk from the vertex that first_nonneg replaced in convergence
    n = max(start, math.ceil(Fraction(qb, 2 * qa)))
    while qa * n * n - qb * n + qc <= 0:
        n += 1
    return n


def test_first_nonneg_matches_the_search_loops():
    for qa in range(1, 5):
        for qb in range(-12, 13):
            for qc in range(-30, 31):
                for start in range(-3, 6):
                    assert (first_nonneg(qa, -qb, qc - 1, start)
                            == _sinking_loop(qa, qb, qc, start))


def test_first_nonneg_on_large_coefficients():
    rng = random.Random(3)
    for _ in range(300):
        c2 = rng.randint(1, 10 ** 6)
        c1 = rng.randint(-10 ** 20, 10 ** 20)
        c0 = -rng.randint(0, 10 ** 40)
        n = first_nonneg(c2, c1, c0)
        assert c2 * n * n + c1 * n + c0 >= 0
        past_vertex = n - 1 >= max(1, -(c1 // (2 * c2)))
        assert not past_vertex or c2 * (n - 1) ** 2 + c1 * (n - 1) + c0 < 0
    assert first_nonneg(1, 0, -(10 ** 40 + 1)) == 10 ** 20 + 1


def test_intersection_window_is_bounded():
    # the meet spells out no window: it reads no level at all
    t0 = time.perf_counter()
    for U, V in [(ball_at(F5U, 2000), ball_at(F5U, 0)),
                 (deep_ball(F5UT, -3), deep_ball(F5UT, 10 ** 9)),
                 (deep_ball(Q3M, 1), deep_ball(Q3M, 1)),
                 (BallOpen(Q3T.residue(), 5), BallOpen(Q3T.residue(), -2))]:
        deeper = U if deep_depth(U) >= deep_depth(V) else V
        assert intersect_open(U, V) == deeper == intersect_open(V, U)
    quad = LevelsOpen(F5UT, 0, {}, QuadraticRule(1, 0, 0))
    for f, U in [(F5UT, quad), (F5U, ball_at(F5U, 3)),
                 (Q3T, LevelsOpen(Q3T, 1, {}, FullRule()))]:
        assert intersect_open(U, FullOpen(f)) is U
        assert intersect_open(FullOpen(f), U) is U
    base = F5U.residue()
    assert intersect_open(ZeroOpen(base), FullOpen(base)) == ZeroOpen(base)
    assert intersect_open(FullOpen(base), ZeroOpen(base)) == ZeroOpen(base)
    with pytest.raises(UnsupportedOpenError, match="cannot intersect"):
        intersect_open(quad, LevelsOpen(F5UT, 0, {}, AffineRule(-3, 1)))
    with pytest.raises(UnsupportedOpenError, match="cannot intersect"):
        intersect_open(quad, deep_ball(F5UT, 10 ** 14))
    assert time.perf_counter() - t0 < 0.5


def test_json_round_trip_battery():
    rng = random.Random(5)
    for f in FIELDS:
        for _ in range(120):
            U = random_open(rng, f)
            data = json.loads(json.dumps(U.to_data()))
            V = open_from_data(f, data)
            assert V == U
            assert V.to_data() == U.to_data()


def test_subgroup_escape_witness_pairs():
    # the smallest mirror pair for a constant depth descriptor sits at the
    # cutoff on one side and at that depth on the other
    U = LevelsOpen(F5UT, cutoff=2, window={},
                   below=ConstRule(ball_at(F5UT.residue(), 7)))
    w = subgroup_escape_witness(U)
    assert [str(e) for e in w.elems[:2]] == ["u^7*t^-2", "u^-7*t^2"]
    assert dict(w.claims)["mirror sum in U"]
    for U in (FullOpen(F5UT), deep_ball(F5UT, 0)):
        w = subgroup_escape_witness(U)
        assert [str(e) for e in w.elems[:2]] == ["u*t^-1", "u^-1*t"]
        assert w.checked()
    # level -1 admits u^d only from d = 20 on
    base = F5U.residue()
    window = {i: ZeroOpen(base) for i in range(1, 20)}
    window[0] = FullOpen(base)
    lev = LevelsOpen(F5U, 20, window, ConstRule(ZeroOpen(base)))
    U = LevelsOpen(F5UT, 1, {}, ConstRule(lev))
    w = subgroup_escape_witness(U)
    assert [str(x) for x in w.elems[:2]] == ["u^20*t^-1", "u^-20*t"]
    assert w.checked()


def test_subgroup_escape_witness_battery():
    rng = random.Random(17)
    for f in (F5UT, Q3M):
        for _ in range(150):
            U = random_open(rng, f)
            w = subgroup_escape_witness(U)
            assert w is not None
            assert w.checked()
            assert not in_integer_ring(w.elems[0], 1)
            assert not in_integer_ring(w.elems[2], 1)


def test_product_escape_witness():
    for f in FIELDS:
        B = deep_ball(f, 2)
        w = product_escape_witness(FullOpen(f), FullOpen(f), B)
        assert w is not None and w.checked()
        x, y = w.elems
        assert not B.contains(x * y)


def test_product_escape_witness_battery():
    rng = random.Random(29)
    found = 0
    for f in FIELDS:
        for _ in range(60):
            V1 = random_open(rng, f)
            V2 = random_open(rng, f)
            W = random_open(rng, f)
            w = product_escape_witness(V1, V2, W)
            if w is not None:
                assert w.checked()
                found += 1
    assert found > 100


def test_product_escape_witness_below_a_long_window():
    """Level -1 rejects u^2 under 70 full window levels, beyond a fixed
    scan from the cutoff."""
    full = FullOpen(F5UT)
    W = LevelsOpen(F5UT, 70, {i: FullOpen(F5U) for i in range(70)},
                   ConstRule(ball_at(F5U, 3)))
    w = product_escape_witness(full, full, W)
    assert w is not None and w.checked()
    assert repr(w) == "product-escape(u^2, t^-1)"


def test_product_escape_witness_at_the_first_quadratic_level():
    # depth d^2 - 1 leaves level d = 1 full, so the first rejecting level
    # lies past the window plus one period
    F4 = parse_field("Fq(3)((v))((u))((t))")
    full = FullOpen(F4)
    w = product_escape_witness(full, full,
                               LevelsOpen(F4, 0, {}, QuadraticRule(1, 0, -1)))
    assert w.checked() and repr(w) == "product-escape(v^2, t^-2)"
    # the scale v^-4*u^2 shifts the v component by -4: depth d^2 - 5 must
    # reach 5, first at d = 4
    F5 = parse_field("Fq(3)((w))((v))((u))((t))")
    base = F5.residue()
    W = LevelsOpen(F5, 0, {}, QuadraticRule(1, 0, -5,
                                            e(base, "v^-4*u^2")))
    assert [rejection_depth(W.level(-d)) is None for d in range(1, 5)] \
        == [True, True, True, False]
    w = product_escape_witness(FullOpen(F5), FullOpen(F5), W)
    assert w.checked() and w.elems[1] == e(F5, "t^-4")


def test_product_escape_none_when_cofinally_full():
    W = LevelsOpen(F5UT, 2, {}, FullRule())
    assert product_escape_witness(FullOpen(F5UT), FullOpen(F5UT), W) is None


def test_subgroup_shaped():
    base = Q3M.residue()
    assert subgroup_shaped(deep_ball(F5UT, 1))
    assert subgroup_shaped(LevelsOpen(F5UT, 2,
                                      {1: ball_at(F5UT.residue(), 3)},
                                      ConstRule(ball_at(F5UT.residue(), 0))))
    rising = LevelsOpen(Q3M, 2, {0: ball_at(base, 0), 1: ball_at(base, 1)},
                        ConstRule(ball_at(base, 1)))
    falling = LevelsOpen(Q3M, 2, {0: ball_at(base, 2), 1: ball_at(base, 1)},
                         ConstRule(ball_at(base, 2)))
    assert not subgroup_shaped(rising)
    assert subgroup_shaped(falling)
    xs = [e(Q3M, s) for s in ["t", "2*t", "3", "1+t", "2", "3*t^-1", "t^2",
                              "2+t", "1+2*t"]]
    for a in xs:
        for b in xs:
            if falling.contains(a) and falling.contains(b):
                assert falling.contains(a + b)


def test_subgroup_shaped_sees_a_long_period():
    # the cycle's one deep entry sits ten levels below the floor, past a
    # fixed eight-level probe; x is in U while x + x is not
    base = Q3M.residue()
    U = LevelsOpen(Q3M, 0, {},
                   PeriodicRule([ball_at(base, 0)] * 9 + [ball_at(base, 5)]))
    x = e(Q3M, "2*3^-11")
    assert U.contains(x) and not U.contains(x + x)
    assert not subgroup_shaped(U)


def test_residue_image():
    img = residue_image(deep_ball(F5UT, 2))
    assert not img.is_full()
    assert img.contains(e(F5UT.residue(), "u^2"))
    assert not img.contains(e(F5UT.residue(), "u"))
    assert residue_image(deep_ball(F5UT, 0)).is_full()
    assert residue_image(FullOpen(Q3M)).is_full()
    assert isinstance(residue_image(deep_ball(Q3T, 3)), type(ball_at(Q3T.residue(), 3)))


def test_periodic_rule_round_trip():
    base = F5UT.residue()
    U = LevelsOpen(F5UT, 1, {},
                   PeriodicRule([ball_at(base, 2), FullOpen(base)]))
    V = open_from_data(F5UT, json.loads(json.dumps(U.to_data())))
    assert V == U
    # alternating pattern: level 0 constrained, level -1 free
    assert not U.contains(e(F5UT, "u"))
    assert U.contains(e(F5UT, "u^2"))
    assert U.contains(e(F5UT, "u^-5*t^-1"))
    assert not U.contains(e(F5UT, "u^-5*t^-2"))


# --- shared balls -----------------------------------------------------------

def _direct_deep_ball(field, depth):
    """deep_ball(field, depth) built afresh, sharing nothing."""
    if field.dim == 0:
        return ZeroOpen(field)
    if isinstance(field, QpBase):
        return BallOpen(field, depth)
    return LevelsOpen(field, depth, {},
                      ConstRule(_direct_deep_ball(field.residue(), depth)))


def _direct_ball_at(field, depth):
    if isinstance(field, QpBase):
        return BallOpen(field, depth)
    return LevelsOpen(field, depth, {}, ConstRule(ZeroOpen(field.residue())))


def test_each_ball_is_one_shared_object():
    for f in FIELDS + (F5U, Q3M.residue()):
        for d in (-2, 0, 3):
            assert deep_ball(f, d) is deep_ball(f, d)
    for f in (F5U, Q3M.residue()):
        assert ball_at(f, 2) is ball_at(f, 2)
        assert ball_at(f, 2) is not ball_at(f, 3)
    # equal but distinct descriptors share one ball
    twin = parse_field("Fq(5)((u))((t))")
    assert twin is not F5UT and twin == F5UT
    assert deep_ball(twin, 4) is deep_ball(F5UT, 4)
    assert ball_at(parse_field("Fq(5)((u))"), 1) is ball_at(F5U, 1)
    # rule levels hand out the shared balls
    assert AffineRule(1, 0).at(F5U, 2, 0) is ball_at(F5U, 2)
    assert QuadraticRule(1, 0, 0).at(Q3M.residue(), -2, 0) \
        is deep_ball(Q3M.residue(), 4)
    assert deep_ball(F5UT, 4).below.entry is deep_ball(F5U, 4)


def test_shared_balls_stay_within_their_bound():
    for ctor in (deep_ball, ball_at):
        assert ctor.cache_info().maxsize == _SHARED_MAX
        for d in range(_SHARED_MAX + 20):
            B = ctor(F5U, 10_000 + d)
            assert B.cutoff == 10_000 + d
            assert ctor.cache_info().currsize <= _SHARED_MAX
        # an evicted key is built again, equal to what it was
        assert ctor(F5U, 10_000) == _direct_ball_at(F5U, 10_000)


def test_a_refused_ball_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(UnsupportedFieldError):
            ball_at(F5UT, 1)
        with pytest.raises(UnsupportedFieldError):
            ball_at(Q3T, 0)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_shared_balls_answer_as_fresh_ones(field):
    rng = random.Random("shared %r" % field)
    pairs = []
    for f in (field, field.residue()):
        for _ in range(4):
            d = rng.randint(-3, 5)
            pairs.append((deep_ball(f, d), _direct_deep_ball(f, d)))
            if f.dim == 1 or (f.dim == 2 and f.residue().dim == 0):
                pairs.append((ball_at(f, d), _direct_ball_at(f, d)))
    for shared, fresh in pairs:
        f = shared.field
        # ask the shared ball twice, the second time from its caches
        for _ in range(2):
            assert shared.to_data() == fresh.to_data() and shared == fresh
            assert subgroup_shaped(shared) == subgroup_shaped(fresh)
            assert residue_image(shared) == residue_image(fresh)
            for _ in range(6):
                x = _random_element(rng, f, span=4)
                assert shared.contains(x) == fresh.contains(x), (shared, x)


def test_subgroup_shape_is_decided_once_per_open(monkeypatch):
    probed = []
    real = opens_module._probe
    monkeypatch.setattr(opens_module, "_probe",
                        lambda U: probed.append(U) or real(U))
    base = Q3M.residue()
    U = LevelsOpen(Q3M, 2, {0: ball_at(base, 2), 1: ball_at(base, 1)},
                   ConstRule(ball_at(base, 2)))
    assert subgroup_shaped(U)
    walked = [V for V in probed if V is U]
    assert 1 <= len(walked) <= 2  # the shape and the staircase floor
    for _ in range(3):
        assert subgroup_shaped(U)
        assert subgroup_escape_witness(U).checked()
    assert [V for V in probed if V is U] == walked
    # a shared ball and every shared level below it: walked at most once
    B = deep_ball(Q3M, 7)
    subgroup_shaped(B)
    del probed[:]
    assert subgroup_shaped(B) and subgroup_shaped(deep_ball(Q3M, 7))
    assert probed == []
