"""End to end acceptance battery.

One test per criterion, in order, each with its stated counts and time
budget.  Generators are seeded so the battery is reproducible; every
verdict is re-verified against concrete membership or arithmetic in the
test body rather than trusted.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hlf import checks
from hlf.checks import (_CONV_POOL, _digit_member, _mirror_family,
                        _random_element, _random_integral,
                        _random_subgroup_open, _sample_open_member)
from hlf.convergence import (CONVERGES, DIVERGES, RankOneBall, converges,
                             product_continuity_check, seq_closed_check_C,
                             unit_converges)
from hlf.elements import Element
from hlf.expansion import lift, residue
from hlf.fields import parse_field
from hlf.opens import (FullOpen, LevelsOpen, deep_ball,
                       product_escape_witness, random_open, residue_image,
                       subgroup_escape_witness, subgroup_shaped)
from hlf.parsing import parse_element
from hlf.points import (AffinePresentation, BaseRing, NO, Point,
                        PointSeqFamily, RingMorphism, YES,
                        base_change, member_points,
                        point_seq_converges, product_presentation)
from hlf.sequences import AffineForm, SeqFamily, parse_family
from hlf.valuation import in_integer_ring, rank_valuation
from hlf.weil import (MonogenicExt, ScalarExtPresentation, SExtFamily,
                      sext_converges, weil_restrict)

F5UT = parse_field("Fq(5)((u))((t))")
F5U = F5UT.residue()
Q3T = parse_field("Qp(3)((t))")
Q3M = parse_field("Qp(3){{t}}")
FIELDS = (F5UT, Q3T, Q3M)


def inv_lex_min(a, b):
    return a if tuple(reversed(a)) <= tuple(reversed(b)) else b


def test_criterion_01_valuation_axioms():
    t0 = time.perf_counter()
    pairs = 0
    for field in FIELDS:
        rng = random.Random("c1:%s" % field)
        for _ in range(500):
            x = _random_element(rng, field)
            y = _random_element(rng, field)
            vx, vy = rank_valuation(x), rank_valuation(y)
            assert rank_valuation(x * y) == tuple(
                a + b for a, b in zip(vx, vy))
            s = x + y
            if not s.is_zero():
                vs, lo = rank_valuation(s), inv_lex_min(vx, vy)
                assert tuple(reversed(vs)) >= tuple(reversed(lo))
                if vx != vy:
                    assert vs == lo
            pairs += 1
    assert pairs == 1500
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_residue_lift_sections():
    for field in FIELDS:
        rf = field.residue()
        rng = random.Random("c2:%s" % field)
        for _ in range(200):
            ybar = _random_element(rng, rf)
            x = lift(field, ybar)
            assert residue(x) == ybar


def test_criterion_03_residue_image_is_the_zero_level():
    for field in (F5UT, Q3M):
        rng = random.Random("c3:%s" % field)
        for _ in range(100):
            U = random_open(rng, field)
            img = residue_image(U)
            if isinstance(U, FullOpen):
                assert img == FullOpen(field.residue())
            else:
                assert isinstance(U, LevelsOpen)
                assert img == U.level(0)
            got, attempts = 0, 0
            while got < 50 and attempts < 250:
                attempts += 1
                x = _digit_member(rng, U)
                if x is None:
                    continue
                assert U.contains(x)
                assert img.contains(residue(x))
                got += 1
            assert got == 50
            for _ in range(10):
                ybar = _sample_open_member(rng, img)
                x = _digit_member(rng, U, at_zero=ybar)
                assert x is not None and U.contains(x)
                assert residue(x) == ybar


def test_criterion_04_flagship_families():
    t0 = time.perf_counter()
    fam = parse_family(F5UT, "t^(-1)*u^(n)")
    zero = Element.zero(F5UT)

    v = converges(fam, limit=zero)
    assert v.kind == CONVERGES
    rng = random.Random("c4")
    used, attempts = 0, 0
    while used < 1000 and attempts < 8000:
        attempts += 1
        U = random_open(rng, F5UT)
        if not U.contains(zero):
            continue
        n0 = v.certificate.entry_index(U)
        assert U.contains(fam.evaluate(n0))
        assert U.contains(fam.evaluate(n0 + 3))
        used += 1
    assert used == 1000

    w = converges(fam, limit=zero, topology="valuation")
    assert w.kind == DIVERGES and w.witness.checked()
    assert isinstance(w.witness.target, RankOneBall)
    for n in range(w.witness.start, w.witness.start + 12):
        assert not w.witness.target.contains(fam.evaluate(n))

    both = parse_family(F5UT, "u^(-n)*t^(n)")
    vh = converges(both, limit=zero)
    vv = converges(both, limit=zero, topology="valuation")
    assert vh.kind == CONVERGES and vv.kind == CONVERGES
    ball = RankOneBall(F5UT, 6)
    assert ball.contains(both.evaluate(vv.certificate.entry_index(ball)))

    away = parse_family(F5UT, "t^(-n)*u^(n)")
    va = converges(away, limit=zero)
    assert va.kind == DIVERGES and va.witness.checked()
    for n in range(va.witness.start, va.witness.start + 8):
        assert not va.witness.target.contains(away.evaluate(n))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_product_continuity():
    rng = random.Random("c5")
    done = 0
    while done < 100:
        field = FIELDS[done % 3]
        (ft, lt), (gt, ht) = (rng.choice(_CONV_POOL[str(field)]),
                              rng.choice(_CONV_POOL[str(field)]))
        f, g = parse_family(field, ft), parse_family(field, gt)
        x, y = parse_element(field, lt), parse_element(field, ht)
        v = product_continuity_check(f, x, g, y)
        assert v.kind == CONVERGES, (ft, gt)
        done += 1
    assert done == 100


def test_criterion_06_product_escape_witnesses():
    for field in (F5UT, Q3M):
        rng = random.Random("c6:%s" % field)
        W = deep_ball(field, 2)
        for _ in range(10):
            V1, V2 = random_open(rng, field), random_open(rng, field)
            w = product_escape_witness(V1, V2, W)
            assert w is not None and w.checked()
            x, y = w.elems
            assert V1.contains(x) and V2.contains(y)
            assert not W.contains(x * y)


def test_criterion_07_subgroup_escape_and_mirror_closedness():
    done = 0
    for field in (F5UT, Q3M):
        rng = random.Random("c7:%s" % field)
        for _ in range(25):
            U = _random_subgroup_open(rng, field)
            assert subgroup_shaped(U)
            w = subgroup_escape_witness(U)
            assert w is not None and w.checked()
            xm, xp, s = w.elems
            assert U.contains(xm) and U.contains(xp)
            assert not in_integer_ring(s, 1)
            assert dict(w.claims)["mirror sum in U"] and U.contains(s)
            done += 1
    assert done == 50

    rng = random.Random("c7:mirror")
    forms = [AffineForm(0, 1), AffineForm(0, 2), AffineForm(0, 4),
             AffineForm(1, 0), AffineForm(1, 2), AffineForm(2, 1)]
    for _ in range(50):
        a, c = rng.choice(forms), rng.choice(forms)
        fam = _mirror_family(F5UT, a, c)
        v = seq_closed_check_C(fam)
        if a.a == 0 and c.a == 0:
            assert v.kind == CONVERGES
            # the limit is the first value, itself a mirror sum
            U = deep_ball(F5UT, 5)
            n0 = v.certificate.entry_index(U)
            assert U.contains(fam.evaluate(n0) - fam.evaluate(0))
        else:
            assert v.kind == DIVERGES
            assert v.witness.checked()


def _unit_cases(rng):
    cases = []
    for i in range(80):
        field = FIELDS[i % 3]
        c = rng.randrange(1, 5)
        a, b, j = rng.randrange(1, 3), rng.randrange(0, 3), rng.randrange(-2, 3)
        tail = "%d*n+%d" % (a, b) if b else "%d*n" % a
        if field is F5UT:
            text = "%d + u^%d*t^(%s)" % (c, j, tail)
        elif field is Q3T:
            text = "%d + 3^(%s)*t^(%s)" % (c, tail, tail)
        else:
            text = "%d + 3^(%s)*t^%d" % (c, tail, j)
        cases.append((field, text, "%d" % c, CONVERGES, False))
    for i in range(20):
        a, j = rng.randrange(1, 3), rng.randrange(1, 3)
        shape = i % 4
        if shape == 0:
            case = (F5UT, "1 + u^(%d*n)*t^(-%d*n)" % (a, a))
        elif shape == 1:
            case = (F5UT, "1 + t^-1*u^(%d*n)" % a)
        elif shape == 2:
            case = (Q3T, "1 + 3^(-%d*n)*t^%d" % (a, j))
        else:
            case = (Q3M, "1 + t^(-%d*n)*3^%d" % (a, j))
        cases.append(case + ("1", DIVERGES, True))
    return cases


def test_criterion_08_unit_routes_agree():
    rng = random.Random("c8")
    cases = _unit_cases(rng)
    assert len(cases) == 100
    assert sum(1 for c in cases if c[4]) == 20
    for field, text, limit, want, moving in cases:
        fam = parse_family(field, text)
        to = parse_element(field, limit)
        a = unit_converges(fam, to)
        b = unit_converges(fam, to, route="decomposition")
        assert a.kind == b.kind == want, text
        if moving:
            # pa holds the slope of a p power exponent, so nonzero moves
            def moves(e):
                return not isinstance(e, int) and not e.is_const()
            assert any(moves(f) for t in fam.num for f in t.exps.values()) \
                or any(bool(t.pa) for t in fam.num)


def test_criterion_09_rational_point_functoriality():
    F, rng = F5UT, random.Random("c9")
    R0 = BaseRing(F, 0)
    pool = [("t^(n)", "0"), ("u^(n)*t", "0"), ("2 + u*t^(n)", "2"),
            ("t^(-n)*u^(n)", "0"), ("u^(-n)*t^2", "0"),
            ("1 + t^(-1)*u^(n)", "1")]
    prod = product_presentation(AffinePresentation(R0, ("X",), []),
                                AffinePresentation(R0, ("Y",), []))
    for _ in range(50):
        (fx, lx), (fy, ly) = rng.choice(pool), rng.choice(pool)
        famx, famy = parse_family(F, fx), parse_family(F, fy)
        Lx, Ly = parse_element(F, lx), parse_element(F, ly)
        kinds = (converges(famx, limit=Lx).kind, converges(famy, limit=Ly).kind)
        want = DIVERGES if DIVERGES in kinds else CONVERGES
        v = point_seq_converges(prod,
                                PointSeqFamily((famx, famy), Point((Lx, Ly))))
        assert v.kind == want, (fx, fy)

    hyp = AffinePresentation(R0, ("X", "Y"), ["X*Y - 1"])
    amb = AffinePresentation(R0, ("X", "Y"), [])
    gm = [("2 + t^(n)", "2"), ("1 + u*t^(n)", "1"),
          ("u^-1 + t^(2*n)", "u^-1"), ("1 + t^(-1)*u^(n)", "1"),
          ("3 + u^(n)*t", "3")]
    for _ in range(50):
        yt, lt = rng.choice(gm)
        y = parse_family(F, yt)
        L = parse_element(F, lt)
        fam = PointSeqFamily((y, SeqFamily(F, y.den, y.num)),
                             Point((L, L.inverse())))
        assert point_seq_converges(amb, fam).kind \
            == point_seq_converges(hyp, fam).kind, yt

    O2, O1 = BaseRing(F, 2), BaseRing(F, 1)
    X2 = AffinePresentation(O2, ("X",), [])
    incl = base_change(RingMorphism.inclusion(O2, O1), X2)
    Xup = incl.target
    ipool = [("t^(n)", "0"), ("u*t^(n)", "0"), ("u^2 + u*t^(2*n)", "u^2"),
             ("1 + u^(n)*t", "1"), ("u^(n) + t^(n)", "0")]
    for _ in range(25):
        ft, lt = rng.choice(ipool)
        fam = parse_family(F, ft)
        pf = PointSeqFamily((fam,), Point((parse_element(F, lt),)))
        assert point_seq_converges(X2, pf).kind == CONVERGES
        assert point_seq_converges(
            Xup, incl.family(pf)).kind == CONVERGES, ft
    rho = base_change(RingMorphism.residue_map(O1),
                      AffinePresentation(O1, ("X",), []))
    Xdown = rho.target
    for _ in range(25):
        x = _random_integral(rng, F)
        y = rho.point(Point((x,)))
        assert y.coords[0] == residue(x)
        assert member_points(Xdown, y.coords) == YES

    for _ in range(30):
        yt, lt = rng.choice(gm)
        y = parse_family(F, yt)
        L = parse_element(F, lt)
        fam = PointSeqFamily((y, SeqFamily(F, y.den, y.num)),
                             Point((L, L.inverse())))
        assert point_seq_converges(hyp, fam).kind \
            == unit_converges(y, L).kind, yt


def test_criterion_10_weil_restriction():
    F, rng = F5UT, random.Random("c10")
    R = BaseRing(F, 0)
    S = MonogenicExt(R, "theta", "theta^2 - u")
    Y = ScalarExtPresentation(S, ("Y",), ["Y^2 - theta"])
    W = weil_restrict(Y)
    for _ in range(100):
        a, b = _random_element(rng, F), _random_element(rng, F)
        s = S.scalar((a, b))
        x = W.encode((s,))
        assert x.coords == (a, b)
        assert S.reduce(W.decode(x)[0] - s).is_zero()

    from hlf.points import parse_poly
    subst = {"Y": parse_poly(F, W.presentation.variables + ("theta",),
                             "Y0 + Y1*theta")}
    want = []
    for g in Y.gens:
        comps = S.reduce(g.substitute(subst)).split_var("theta")
        want.extend(comps[k] for k in range(S.deg) if k in comps)
    assert W.presentation.gens == want

    amb = AffinePresentation(R, ("Y0", "Y1"), [])
    zero = Element.zero(F)
    pool = [("t^(n)", "u*t^(2*n)"), ("t^(n)", "t^(-n)"), ("0", "u^(-n)*t^2"),
            ("u^(n)*t^-1", "t^(n)"), ("t^(2*n+1)", "0"),
            ("u^(-n)*t^(n)", "t^(n)")]
    for _ in range(30):
        c0, c1 = rng.choice(pool)
        comps = (parse_family(F, c0), parse_family(F, c1))
        vS = sext_converges([SExtFamily(S, comps, (zero, zero))])
        vR = point_seq_converges(amb,
                                 PointSeqFamily(comps, Point((zero, zero))))
        assert vS.kind == vR.kind, (c0, c1)


def test_criterion_11_reduction_of_models():
    rng = random.Random("c11")
    R1 = BaseRing(F5UT, 1)
    rho = RingMorphism.residue_map(R1)
    A1 = AffinePresentation(R1, ("X",), [])
    A1bar = base_change(rho, A1).target
    for _ in range(30):
        ybar = _random_element(rng, F5U)
        assert member_points(A1bar, (ybar,)) == YES
        x = lift(F5UT, ybar)
        assert R1.contains(x)
        assert member_points(A1, (x,)) == YES
        assert base_change(rho, A1).point(Point((x,))).coords[0] == ybar

    # X^2 = u forces an even bottom valuation on a square against the odd
    # valuation of u, on the special fiber and on the model alike, so both
    # point sets are empty and reduction is trivially onto
    C = AffinePresentation(R1, ("X",), ["X^2 - u"])
    Cbar = base_change(rho, C).target
    for _ in range(30):
        cbar = _random_element(rng, F5U)
        assert member_points(Cbar, (cbar,)) == NO
        assert member_points(C, (lift(F5UT, cbar),)) == NO

    # the flat companion X*Y = u is nonempty, so lifting is exercised for real
    H = AffinePresentation(R1, ("X", "Y"), ["X*Y - u"])
    Hbar = base_change(rho, H).target
    ubar, uelt = parse_element(F5U, "u"), parse_element(F5UT, "u")
    for _ in range(30):
        xbar = _random_element(rng, F5U)
        ybar = ubar / xbar
        assert member_points(Hbar, (xbar, ybar)) == YES
        X = lift(F5UT, xbar)
        Y = uelt / X
        assert member_points(H, (X, Y)) == YES
        assert base_change(rho, H).point(Point((X, Y))).coords == (xbar, ybar)

    for _ in range(50):
        U = random_open(rng, F5UT)
        img = residue_image(U)
        if isinstance(U, FullOpen):
            assert img == FullOpen(F5U)
        else:
            assert img == U.level(0)
        x = _digit_member(rng, U)
        if x is not None:
            assert img.contains(residue(x))


# sha256 of the `hlf check --seed 0` report; a change to it is a change to
# the seeded checks or to a verdict, never a refactor
CHECK_SEED0_SHA256 = "1c650c1f44c765bb851f31828c3c007eb2c6afdb25f6c7d93c4eade8dfc71c82"


def test_criterion_12_check_run_is_reproducible():
    t0 = time.perf_counter()
    # the CLI of this tree, never an installed copy
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "hlf.cli", "check", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == CHECK_SEED0_SHA256
    rep = json.loads(first.stdout)
    assert rep["ok"] and len(rep["suites"]) == 5
    assert time.perf_counter() - t0 < 60.0


# sha256 of the `hlf check --seed 1` and `--seed 2` reports, built in
# process exactly as the CLI prints them
CHECK_SHA256 = {
    1: "569e3963f7141a0343d46f4062f754cda9c6abf2ed155be853b6045f02634d36",
    2: "c95e5478b5445342713ecec021c380164375863c15cab6b76adeaae6a04e3860"}


@pytest.mark.parametrize("seed", sorted(CHECK_SHA256))
def test_criterion_12_seeded_reports_are_pinned(seed):
    text = json.dumps(checks.run_all(seed, 100), indent=2, sort_keys=True)
    assert hashlib.sha256((text + "\n").encode()).hexdigest() \
        == CHECK_SHA256[seed]
