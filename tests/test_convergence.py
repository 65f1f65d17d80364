"""Convergence verdicts: certificates enter, witnesses avoid, unknowns abstain."""

import hashlib
import json
import random

import pytest

from hlf.cli import main
from hlf.errors import HlfError, PrecisionExhaustedError
from hlf.convergence import (CONVERGES, DIVERGES, UNKNOWN, RankOneBall,
                             converges, unit_converges)
from hlf.fields import parse_field
from hlf.opens import FullRule, LevelsOpen, ball_at, deep_ball, random_open
from hlf.parsing import parse_element
from hlf.sequences import parse_family

F5UT = parse_field("Fq(5)((u))((t))")
F5U = F5UT.residue()
Q3T = parse_field("Qp(3)((t))")
Q3M = parse_field("Qp(3){{t}}")


def assert_entry_tight(fam, U, n0, slack=3):
    for n in range(n0, n0 + slack + 1):
        assert U.contains(fam.evaluate(n))
    assert not U.contains(fam.evaluate(n0 - 1))


def assert_avoided(fam, w, extra=12):
    assert w.checked()
    for n in range(w.start, w.start + extra):
        assert not w.target.contains(fam.evaluate(n))


# --- certificates with hand checked entry indices ----------------------------


def test_zero_family():
    v = converges(parse_family(F5UT, "t^n - t^(n)"))
    assert v.kind == CONVERGES
    assert v.certificate.entry_index(deep_ball(F5UT, 100)) == 0


def test_slope_certificate_is_tight():
    fam = parse_family(F5UT, "t^(n)")
    v = converges(fam)
    assert v.kind == CONVERGES
    n0 = v.certificate.entry_index(deep_ball(F5UT, 3))
    assert n0 == 3
    assert_entry_tight(fam, deep_ball(F5UT, 3), n0)


def test_window_level_below_zero():
    fam = parse_family(F5UT, "u^(n)*t^-1")
    v = converges(fam)
    assert v.kind == CONVERGES
    U = LevelsOpen(F5UT, 0, {-1: ball_at(F5U, 4)}, FullRule())
    n0 = v.certificate.entry_index(U)
    assert n0 == 4
    assert_entry_tight(fam, U, n0)


def test_level_recursion_over_qp():
    fam = parse_family(Q3T, "3^(n)")
    v = converges(fam)
    assert v.kind == CONVERGES
    n0 = v.certificate.entry_index(deep_ball(Q3T, 3))
    assert n0 == 3
    assert_entry_tight(fam, deep_ball(Q3T, 3), n0)


def test_mixed_digit_stream_certificate():
    fam = parse_family(Q3M, "t^(n)/2")
    v = converges(fam)
    assert v.kind == CONVERGES
    assert v.certificate.tail == "periodic"
    n0 = v.certificate.entry_index(deep_ball(Q3M, 3))
    assert n0 == 3
    assert_entry_tight(fam, deep_ball(Q3M, 3), n0)


def test_mixed_carries_stay_exact():
    # two carry streams meet only where the t-monomials collide, so past
    # the collision bound the level families are the digits themselves
    fam = parse_family(Q3M, "t^(n)/2 + t^(2*n)/4")
    v = converges(fam)
    assert v.kind == CONVERGES
    n0 = v.certificate.entry_index(deep_ball(Q3M, 4))
    assert n0 == 4
    assert_entry_tight(fam, deep_ball(Q3M, 4), n0)


def test_transient_digits_are_waited_out():
    fam = parse_family(F5UT, "u^(n)*t^-1 + t^(n)")
    v = converges(fam)
    assert v.kind == CONVERGES
    U = LevelsOpen(F5UT, 2, {-1: deep_ball(F5U, 5), 1: deep_ball(F5U, 1)},
                   FullRule())
    n0 = v.certificate.entry_index(U)
    assert n0 == 5
    assert_entry_tight(fam, U, n0)
    # at n=1 the moving term still sits inside the constrained window
    assert not U.contains(fam.evaluate(1))


def test_flat_denominator_divides_each_level():
    fam = parse_family(F5UT, "u^(n)*t^-1/(1+u)")
    v = converges(fam)
    assert v.kind == CONVERGES
    U = LevelsOpen(F5UT, 0, {-1: ball_at(F5U, 4)}, FullRule())
    n0 = v.certificate.entry_index(U)
    assert n0 == 4
    assert_entry_tight(fam, U, n0)


def test_geometric_tail_series():
    fam = parse_family(F5UT, "u^(n)/(1 - t*u^(n))")
    v = converges(fam)
    assert v.kind == CONVERGES
    assert v.certificate.tail == "open"
    n0 = v.certificate.entry_index(deep_ball(F5UT, 3))
    assert n0 == 3
    assert_entry_tight(fam, deep_ball(F5UT, 3), n0)


def test_geometric_tail_mixed():
    fam = parse_family(Q3M, "t^(n)/(1 - 3*t^(n))")
    v = converges(fam)
    assert v.kind == CONVERGES
    assert v.certificate.tail == "open"
    n0 = v.certificate.entry_index(deep_ball(Q3M, 3))
    assert n0 == 3
    assert_entry_tight(fam, deep_ball(Q3M, 3), n0)


def test_limit_subtraction():
    fam = parse_family(F5UT, "t^(n) + t")
    v = converges(fam, limit=parse_element(F5UT, "t"))
    assert v.kind == CONVERGES
    assert v.certificate.entry_index(deep_ball(F5UT, 2)) == 2


# --- witnesses ---------------------------------------------------------------


def test_sinking_family_is_defeated():
    fam = parse_family(F5UT, "t^(-n)")
    v = converges(fam)
    assert v.kind == DIVERGES
    assert_avoided(fam, v.witness)


@pytest.mark.parametrize("k", [2, 3])
def test_sinking_mixed_family_is_defeated_fast(k, deadline):
    # the witness samples members 2n or 3n levels below its open; those
    # members fail at their first digit, which is all membership expands
    fam = parse_family(Q3M, "3^(-%d*n)*(1+t)/(1-t-3*t^2)" % k)
    with deadline(1.0):
        v = converges(fam)
        assert v.kind == DIVERGES and v.witness.checked()


def test_level_escape_is_lifted():
    fam = parse_family(F5UT, "u^(-n)*t^2")
    v = converges(fam)
    assert v.kind == DIVERGES
    assert v.witness.target.cutoff == 3
    assert_avoided(fam, v.witness)


def test_qp_escape_inside_a_level():
    fam = parse_family(Q3T, "3^(-n)")
    v = converges(fam)
    assert v.kind == DIVERGES
    assert_avoided(fam, v.witness)


def test_constant_stays_away_from_zero():
    fam = parse_family(Q3M, "1/2")
    v = converges(fam)
    assert v.kind == DIVERGES
    assert_avoided(fam, v.witness)
    fam2 = parse_family(Q3T, "3^(n) + 1")
    v2 = converges(fam2)
    assert v2.kind == DIVERGES
    assert_avoided(fam2, v2.witness)


def test_geometric_tail_escape():
    fam = parse_family(F5UT, "1/(1 - t*u^(-n)) - 1")
    v = converges(fam)
    assert v.kind == DIVERGES
    assert_avoided(fam, v.witness)


# --- the two topologies differ ------------------------------------------------


def test_valuation_topology_disagrees():
    # u^n*t^-1 enters every level open yet its top valuation never rises
    fam = parse_family(F5UT, "u^(n)*t^-1")
    assert converges(fam).kind == CONVERGES
    v = converges(fam, topology="valuation")
    assert v.kind == DIVERGES
    assert isinstance(v.witness.target, RankOneBall)
    assert_avoided(fam, v.witness)
    # and the p-adic ladder climbs every Qp level without moving in t
    fam2 = parse_family(Q3T, "3^(n)")
    assert converges(fam2).kind == CONVERGES
    assert converges(fam2, topology="valuation").kind == DIVERGES


def test_valuation_topology_certificate():
    fam = parse_family(F5UT, "t^(n)")
    v = converges(fam, topology="valuation")
    assert v.kind == CONVERGES
    assert v.certificate.entry_index(RankOneBall(F5UT, 7)) == 7
    n0 = v.certificate.entry_index(RankOneBall(F5UT, 4))
    ball = RankOneBall(F5UT, 4)
    assert ball.contains(fam.evaluate(n0))
    assert not ball.contains(fam.evaluate(n0 - 1))


# --- units and inversion ------------------------------------------------------


def test_unit_convergence_two_sided():
    fam = parse_family(F5UT, "1 + u^-1*t^(n)")
    v = unit_converges(fam, 1)
    assert v.kind == CONVERGES
    assert v.certificate.kind == "two-sided"
    n0 = v.certificate.entry_index(deep_ball(F5UT, 3))
    ratio = fam / parse_family(F5UT, "1") - parse_family(F5UT, "1")
    assert deep_ball(F5UT, 3).contains(ratio.evaluate(n0))


def test_inversion_is_not_sequentially_continuous():
    fam = parse_family(F5UT, "1 + t^-1*u^(n)")
    assert converges(fam, limit=1).kind == CONVERGES
    v = unit_converges(fam, 1)
    assert v.kind == DIVERGES
    assert v.witness.note.startswith("inverse ratio:")
    assert v.witness.target.cutoff == 1
    inv = parse_family(F5UT, "1") / fam - parse_family(F5UT, "1")
    assert_avoided(inv, v.witness)


# --- the verdict texts, pinned --------------------------------------------------

_SAMPLES = [[1, True], [2, True], [3, True], [5, True], [8, True]]
_CONST_ZERO = {"rule": "const", "open": {"kind": "zero"}}


def _escape_at(i, cutoff):
    """The level open a lifted "level i digit escapes" witness avoids."""
    inner = {"kind": "levels", "cutoff": cutoff, "window": {},
             "below": _CONST_ZERO}
    return {"kind": "levels", "cutoff": i + 1, "window": {str(i): inner},
            "below": {"rule": "full"}}


def _diverges(target, note):
    return {"verdict": DIVERGES, "witness": {
        "target": target, "start": 1, "samples": _SAMPLES, "note": note}}


# (argv of the CLI, the verdict's to_data(), the CLI answer lines): the
# rank one slope decision under both topologies, and the three nested
# verdict labels
VERDICT_TEXTS = [
    (["converge", "--field", "Fq(5)((u))((t))", "--seq", "t^(-1)*u^(n)",
      "--topology", "valuation"],
     _diverges({"kind": "rank-one-ball", "depth": 0},
               "top valuation stays below 0"),
     "DIVERGES\nwitness: avoids v_top>=0 past n=1 "
     "(top valuation stays below 0)"),
    (["converge", "--field", "Fq(5)((t))", "--seq", "t^(-n)"],
     _diverges({"kind": "levels", "cutoff": 0, "window": {},
                "below": _CONST_ZERO}, "valuation stays below 0"),
     "DIVERGES\nwitness: avoids levels(cutoff=0, below=const) past n=1 "
     "(valuation stays below 0)"),
    (["converge", "--field", "Qp(3)", "--seq", "3^(-n)"],
     _diverges({"kind": "ball", "depth": 0}, "valuation stays below 0"),
     "DIVERGES\nwitness: avoids p^0*Zp past n=1 (valuation stays below 0)"),
    (["units", "--field", "Qp(3){{t}}", "--seq", "2 + t^(n)", "--limit", "2"],
     {"verdict": UNKNOWN,
      "reason": "inverse ratio: denominator with a unit tail along p"},
     "UNKNOWN\nreason: inverse ratio: denominator with a unit tail along p"),
    (["units", "--field", "Fq(5)((u))((t))", "--seq", "t^(n)*u + t^(n)",
      "--limit", "u + 1"],
     _diverges(_escape_at(0, 1), "direct ratio: level 0 digit escapes"),
     "DIVERGES\nwitness: avoids levels(cutoff=1, 0:levels(cutoff=1, "
     "below=const), below=full) past n=1 (direct ratio: level 0 digit "
     "escapes)"),
    (["units", "--field", "Fq(5)((u))((t))", "--seq", "1 + t^(-1)*u^(n)",
      "--limit", "1"],
     _diverges(_escape_at(0, 1), "inverse ratio: level 0 digit escapes"),
     "DIVERGES\nwitness: avoids levels(cutoff=1, 0:levels(cutoff=1, "
     "below=const), below=full) past n=1 (inverse ratio: level 0 digit "
     "escapes)"),
    (["units", "--field", "Fq(5)((u))((t))", "--seq", "1 + u^(-n)*t",
      "--limit", "1", "--topology", "parshin"],
     _diverges(_escape_at(1, 0), "principal part: level 1 digit escapes"),
     "DIVERGES\nwitness: avoids levels(cutoff=2, 1:levels(cutoff=0, "
     "below=const), below=full) past n=1 (principal part: level 1 digit "
     "escapes)"),
]


@pytest.mark.parametrize("argv,data,lines", VERDICT_TEXTS,
                         ids=[" ".join(c[0][:5:4]) for c in VERDICT_TEXTS])
def test_verdict_texts_are_pinned(argv, data, lines, capsys):
    opts = dict(zip(argv[1::2], argv[2::2]))
    F = parse_field(opts["--field"])
    fam = parse_family(F, opts["--seq"])
    topo = opts.get("--topology", "higher")
    if argv[0] == "converge":
        v = converges(fam, topology=topo)
    else:
        v = unit_converges(fam, parse_element(F, opts["--limit"]),
                           route="decomposition" if topo == "parshin"
                           else "ratio")
    assert v.to_data() == data
    assert v.kind != DIVERGES or v.witness.checked()
    assert main(argv) == 0
    assert capsys.readouterr().out == lines + "\n"


# --- the digit period along p is bounded --------------------------------------


def test_a_long_digit_period_is_refused(deadline, capsys):
    # 3 has order 998244352 mod 998244353, so the digits of the coefficient
    # repeat only after that many levels; the walk stops at the bound
    with deadline(2):
        assert main(["converge", "--field", "Qp(3){{t}}",
                     "--seq", "1/998244353*t^(n)"]) == 2
    assert capsys.readouterr().err == (
        "error: the p-adic digits of 1/998244353 do not repeat within 4096 "
        "levels\n")


def test_the_digit_period_bound_is_exact():
    # 3 has order 4096 mod 2^14.  The digits of -1/2^14 repeat from the
    # first, so 4096 of them are walked and decided; those of 1/2^14 repeat
    # after one more, and the walk is refused
    v = converges(parse_family(Q3M, "-t^(n)/16384"))
    assert v.kind == CONVERGES and v.certificate.slices.period == 4096
    with pytest.raises(PrecisionExhaustedError,
                       match="of 1/16384 do not repeat within 4096 levels"):
        converges(parse_family(Q3M, "t^(n)/16384"))


def test_a_long_joint_digit_period_is_refused():
    # 1/4096 repeats every 1024 digits and 1/11 every 5: together every 5120
    with pytest.raises(PrecisionExhaustedError, match=(
            "of 1/4096, 1/11 repeat together only every 5120 levels, past "
            "the bound 4096")):
        converges(parse_family(Q3M, "t^(n)/4096 + t^(2*n)/11"))


# --- honest abstention --------------------------------------------------------


def test_unknown_routes_claim_nothing():
    v = converges(parse_family(Q3M, "1/(2+t)"))
    assert v.kind == UNKNOWN
    assert v.certificate is None and v.witness is None
    assert "along p" in v.reason
    v2 = converges(parse_family(F5UT, "1/(1 + u + t*u^(n))"))
    assert v2.kind == UNKNOWN
    assert "single climbing term" in v2.reason


def test_unknown_propagates_from_a_level():
    F3 = parse_field("Fq(5)((v))((u))((t))")
    v = converges(parse_family(F3, "1/(1-t)"))
    assert v.kind == UNKNOWN
    assert "rank two residue" in v.reason
    v2 = converges(parse_family(F3, "t*v^(n)/(1 + v + u*v^(n))"))
    assert v2.kind == UNKNOWN
    assert v2.reason.startswith("level 1:")


# --- serialization ------------------------------------------------------------


def test_verdicts_serialize():
    cases = [
        converges(parse_family(F5UT, "t^(n)")),
        converges(parse_family(F5UT, "u^(n)*t^-1")),
        converges(parse_family(F5UT, "t^(-n)")),
        converges(parse_family(Q3M, "1/(2+t)")),
        unit_converges(parse_family(F5UT, "1 + u^-1*t^(n)"), 1),
    ]
    for v in cases:
        data = json.loads(json.dumps(v.to_data()))
        assert data["verdict"] == v.kind
        if v.kind == CONVERGES:
            assert "certificate" in data
        if v.kind == DIVERGES:
            assert all(ok for _, ok in data["witness"]["samples"])
        if v.kind == UNKNOWN:
            assert data["reason"]


# --- randomized soundness -----------------------------------------------------


CONVERGENT = [
    (F5UT, "t^(n)"),
    (F5UT, "u^(n)*t^-1"),
    (F5UT, "u^(n)/(1 - t*u^(n))"),
    (Q3T, "3^(n)"),
    (Q3M, "t^(n)/2"),
    (Q3M, "t^(n)/2 + t^(2*n)/4"),
]


@pytest.mark.parametrize("field,text", CONVERGENT)
def test_certificate_enters_random_opens(field, text):
    rng = random.Random(hash(text) & 0xffff)
    fam = parse_family(field, text)
    cert = converges(fam).certificate
    for _ in range(30):
        U = random_open(rng, field)
        n0 = cert.entry_index(U)
        for n in (n0, n0 + 1, n0 + 3, n0 + 6):
            assert U.contains(fam.evaluate(n))


# the field, its lower letter and its other letter in a drawn term: over
# Qp(3){{t}} either letter may be the lower one
LEVEL_DRAWS = [("Fq(5)((u))((t))", "u", "t"), ("Qp(3)((t))", "3", "t"),
               ("Qp(3){{t}}", "3", "t"), ("Qp(3){{t}}", "t", "3")]
# sha256 over 2000 seeded families: each text, its verdict's to_data() and
# its entry indices into three seeded opens, the last a deep ball
LEVEL_VERDICTS_SHA256 = \
    "98819435dd8bded6112cea33abde8a10937ac06258dad8a65bec8ba502a89bc5"


def _level_term(rng, lower, other):
    # the other letter's slope is mostly 0, so most families reach the
    # level route and its tails
    return "%s %d*%s^(%d*n%+d)*%s^(%d*n%+d)" % (
        rng.choice("+-"), rng.choice((1, 2, 4)), lower, rng.randint(-2, 2),
        rng.randint(-2, 2), other, rng.choice((0, 0, 0, 1, -1)),
        rng.randint(-2, 3))


def test_level_verdicts_are_pinned(deadline):
    rng = random.Random(0)
    fields = {text: parse_field(text) for text, _, _ in LEVEL_DRAWS}
    h = hashlib.sha256()
    with deadline(20):
        for _ in range(2000):
            text, lower, other = rng.choice(LEVEL_DRAWS)
            F = fields[text]
            num = " ".join(_level_term(rng, lower, other)
                           for _ in range(rng.randint(1, 2)))
            seq = "0 " + num
            if rng.random() < 0.8:
                seq = "(%s)/(1 %s)" % (seq, " ".join(
                    _level_term(rng, lower, other)
                    for _ in range(rng.choice((1, 1, 2)))))
            opens = [random_open(rng, F), random_open(rng, F),
                     deep_ball(F, rng.randint(2, 9))]
            out = [text, seq]
            try:
                v = converges(parse_family(F, seq))
                out.append(v.to_data())
                if v.kind == CONVERGES:
                    out += [v.certificate.entry_index(U) for U in opens]
                    out.append(v.to_data())
            except HlfError as e:
                out.append("%s: %s" % (type(e).__name__, e))
            h.update(json.dumps(out, sort_keys=True, default=str).encode())
    assert h.hexdigest() == LEVEL_VERDICTS_SHA256


# --- multiplication, mirror sums, unit routes ---------------------------------

def test_product_continuity_on_verified_factors():
    from hlf.convergence import product_continuity_check
    f = parse_family(F5UT, "2 + u*t^(n)")
    g = parse_family(F5UT, "u^(-1)*t^(n)")
    x = parse_element(F5UT, "2")
    y = parse_element(F5UT, "0")
    v = product_continuity_check(f, x, g, y)
    assert v.kind == CONVERGES
    # the expanded product really settles into a deep ball
    U = deep_ball(F5UT, 4)
    n0 = v.certificate.entry_index(U)
    prod = f * g
    assert U.contains(prod.evaluate(n0) - x * y)


def test_product_continuity_rejects_unverified_factor():
    from hlf.convergence import product_continuity_check
    from hlf.errors import UnsupportedFamilyError
    f = parse_family(F5UT, "t^(-n)")
    g = parse_family(F5UT, "t^(n)")
    zero = parse_element(F5UT, "0")
    with pytest.raises(UnsupportedFamilyError):
        product_continuity_check(f, zero, g, zero)


def test_mirror_sum_with_constant_parameters_converges():
    from hlf.convergence import seq_closed_check_C
    fam = parse_family(F5UT, "u^(-2)*t^(3) + u^(2)*t^(-3)")
    v = seq_closed_check_C(fam)
    assert v.kind == CONVERGES


def test_mirror_sum_with_moving_parameters_escapes():
    from hlf.convergence import seq_closed_check_C
    # a(n) = n: defeated against 0 and against its own first value, so the
    # set of mirror sums is sequentially closed on this fragment
    fam = parse_family(F5UT, "u^(-1)*t^(n) + u^(1)*t^(-n)")
    v = seq_closed_check_C(fam)
    assert v.kind == DIVERGES
    assert v.witness.checked()


def test_mirror_shape_is_enforced():
    from hlf.convergence import seq_closed_check_C
    from hlf.errors import UnsupportedFamilyError
    for text in ("t^(n)", "u^(-1)*t^(n) + u*t^(-n) + 1"):
        with pytest.raises(UnsupportedFamilyError):
            seq_closed_check_C(parse_family(F5UT, text))
    with pytest.raises(UnsupportedFamilyError):
        seq_closed_check_C(parse_family(Q3T, "3^(-1)*t^(n) + 3*t^(-n)"))


DECOMPOSED = [
    (F5UT, "1 + u*t^(n)", "1", CONVERGES),
    (F5UT, "u^(-n)*t^(n)", "0", None),
    (F5UT, "2 + u^(2)*t^(n)", "2", CONVERGES),
    (F5UT, "1 + t^(-1)*u^(n)", "1", DIVERGES),
    (F5UT, "t^(n)*u + t^(n)", "u + 1", DIVERGES),
    (Q3T, "3^(n) + 1", "1", CONVERGES),
    (Q3T, "1 + 3^(-n)*t", "1", DIVERGES),
    (Q3M, "1 + t^(-1)*3^(n)", "1", CONVERGES),
    (Q3M, "t^(-n) + 1", "1", DIVERGES),
]


@pytest.mark.parametrize("field,text,limit,want", DECOMPOSED)
def test_unit_routes_agree(field, text, limit, want):
    fam = parse_family(field, text)
    to = parse_element(field, limit)
    if want is None:
        # a zero limit is outside the unit group on either route
        from hlf.errors import ZeroElementError
        with pytest.raises(ZeroElementError):
            unit_converges(fam, to)
        return
    a = unit_converges(fam, to)
    b = unit_converges(fam, to, route="decomposition")
    assert a.kind == b.kind == want
    if want == DIVERGES:
        assert b.witness is None or b.witness.checked()
        assert b.witness is not None or "principal" in b.reason


def test_wild_unit_fails_on_the_discrete_summand():
    # ratio - 1 = t^-1 u^n has top valuation -1 for every n, so the ratio
    # never becomes principal: the witness is the maximal ideal v > 0
    fam = parse_family(F5UT, "1 + t^(-1)*u^(n)")
    one = parse_element(F5UT, "1")
    v = unit_converges(fam, one, route="decomposition")
    assert v.kind == DIVERGES
    assert v.witness is not None and v.witness.checked()
    assert "principal unit" in v.witness.note
    data = v.to_data()
    assert data["witness"]["target"] == {"kind": "max-ideal"}
    # a sinking top component is negative only from its zero on: t^(3-n)
    # lies in v > 0 at n = 1, 2, so the witness starts past n = 3
    v = unit_converges(parse_family(F5UT, "1 + t^(-n+3)"), one,
                       route="decomposition")
    assert v.kind == DIVERGES and v.witness.checked()
    assert v.witness.start == 4


def test_unit_route_name_is_validated():
    fam = parse_family(F5UT, "1 + u*t^(n)")
    one = parse_element(F5UT, "1")
    with pytest.raises(ValueError):
        unit_converges(fam, one, route="nope")
