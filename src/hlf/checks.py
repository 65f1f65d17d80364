"""Seeded check suites behind the command line runner.

Every suite draws its own generator from the seed and the suite name, so a
suite reports the same bytes whether it runs alone or inside the full run.
Reports carry counts and failures only; wall time stays on stderr so
identical seeds give identical reports.

Eight checks draw their cases with replacement from small fixed pools, so
one run draws the same case many times.  Each such loop decides a drawn case
through memos keyed by the pool entries (functools.cache on a function
defined inside the suite), so they live for one run_suite call only.  The
closed-immersion and unit-reading loops both draw from _GM_POOL and share
the memo of the hyperbola verdict.  The invariant that makes this safe: a
decision draws nothing from the generator.  Every draw happens in the loop
body before the lookup, so the generator's sequence, the counts and the
report bytes do not depend on whether a case was decided or looked up.  A
memo keeps verdict kinds, not Verdict objects: unit_converges rewrites the
note of a witness it takes from an inner decision, so a shared Verdict
could change under a later reader.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from operator import add

from .convergence import (CONVERGES, DIVERGES, converges,
                          product_continuity_check, seq_closed_check_C,
                          unit_converges)
from .elements import Element, lp_sum
from .errors import (OutOfRangeError, UnsupportedFamilyError,
                     UnsupportedOpenError)
from .expansion import lift, residue
from .fields import parse_field
from .opens import (AffineRule, ConstRule, FullOpen, LevelsOpen, ZeroOpen,
                    admitted_depth, ball_at, bottom_monomial, deep_ball,
                    product_escape_witness, random_open, residue_image,
                    subgroup_escape_witness, subgroup_shaped)
from .parsing import parse_element
from .points import (AffinePresentation, BaseRing, Point, PointSeqFamily,
                     PointVerdict, RingMorphism, YES, base_change,
                     member_points, point_seq_converges, product_presentation)
from .sequences import AffineForm, SeqFamily, Term, parse_family
from .valuation import monomial_with_valuation, rank_valuation
from .weil import (MonogenicExt, ScalarExtPresentation, SExtFamily,
                   sext_converges, weil_restrict)

SUITES = ("axioms", "topology", "counterexamples", "points", "weil")

FIELD_TEXTS = ("Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}")


def _record(checks, name, count, failures):
    checks.append({"name": name, "count": count, "failed": len(failures),
                   "failures": failures[:8]})


# --- random material ----------------------------------------------------------

def _random_lp(rng, field, count, lows, widths):
    """`count` terms summed into one Laurent polynomial by lp_sum.  Each
    term draws its valuation vector, slot i in [lows[i], lows[i] +
    widths[i]), then a nonzero coefficient: over F_q a residue in [1, p),
    the field's own FqElem, else n/d with n in [1, 10) and d in (1, 2),
    times the power of p that the p-adic slot drew.

    Every value below m is getrandbits(m.bit_length()), drawn again while
    it is >= m: the rule by which Random.randrange and Random.choice use
    the generator, so the values, their order and the generator's final
    state are theirs.  A width of one still reads bits until it gets 0."""
    bits = rng.getrandbits
    slots = [(lo, w, w.bit_length()) for lo, w in zip(lows, widths)]
    fq, k, p = field.fq(), field.padic_slot, field.prime()
    if fq is not None:
        residues, cw = fq.residues, fq.p - 1
        cb = cw.bit_length()
    terms = []
    for _ in range(count):
        v = []
        for lo, w, b in slots:
            r = bits(b)
            while r >= w:
                r = bits(b)
            v.append(lo + r)
        if fq is not None:
            r = bits(cb)
            while r >= cw:
                r = bits(cb)
            terms.append((tuple(v), residues[1 + r]))
            continue
        # n = randrange(1, 10), d = choice((1, 2))
        n = bits(4)
        while n >= 9:
            n = bits(4)
        d = bits(2)
        while d >= 2:
            d = bits(2)
        n, d = n + 1, d + 1
        if k is not None:
            e = v.pop(k)
            if e > 0:
                n *= p ** e
            elif e < 0:
                d *= p ** -e
        terms.append((tuple(v), Fraction(n, d)))
    return lp_sum(terms)


def _random_element(rng, field, span=3, terms=3):
    nv = len(field.params())
    out = _random_lp(rng, field, rng.randrange(1, terms + 1),
                     (-span,) * nv, (2 * span + 1,) * nv)
    return Element.make(field, out) if out else Element.one(field)


def _random_integral(rng, field):
    # nonnegative top valuation, lower slots unrestricted
    nv = len(field.params())
    return Element.make(field, _random_lp(
        rng, field, rng.randrange(1, 3), (-2,) * (nv - 1) + (0,),
        (5,) * (nv - 1) + (3,)))


def _sample_open_member(rng, U):
    """A member of U over U's own field, nonzero where U permits one."""
    if isinstance(U, ZeroOpen):
        return Element.zero(U.field)
    if U.is_full():
        return _random_element(rng, U.field, span=2, terms=2)
    return bottom_monomial(U.field, admitted_depth(U))


def _digit_member(rng, U, at_zero=None):
    """Integral member of a basic open, built digit by digit along the top
    parameter; the level 0 digit can be pinned.  None when the shape blocks
    the construction."""
    f = U.field
    if isinstance(U, FullOpen):
        return lift(f, at_zero) if at_zero is not None \
            else _random_integral(rng, f)
    if not isinstance(U, LevelsOpen):
        return None
    # an integral member has zero digits below level 0, which every open
    # admits
    nv = len(f.params())
    x = Element.zero(f)
    hi = max(U.cutoff, 1 if at_zero is not None else 0)
    for i in range(0, hi):
        lev = U.level(i)
        if i == 0 and at_zero is not None:
            d = at_zero
        elif rng.random() < 0.5:
            continue
        else:
            try:
                d = _sample_open_member(rng, lev)
            except UnsupportedOpenError:
                return None
        if d.is_zero():
            continue
        x = x + lift(f, d) * monomial_with_valuation(
            f, (0,) * (nv - 1) + (i,))
    return x


def _random_subgroup_open(rng, field):
    """Levelwise ball descriptor with a depth profile nonincreasing in the
    level, so the shape analysis certifies the group structure along a
    mixed top as well."""
    base = field.residue()
    cutoff = rng.randint(0, 3)
    k = rng.randint(1, 3)
    depths = sorted(rng.randint(0, 5) for _ in range(k))
    window = {}
    for j, i in enumerate(range(cutoff - k, cutoff)):
        window[i] = ball_at(base, depths[k - 1 - j])
    d0 = max(depths[-1], rng.randint(0, 6))
    lo = cutoff - k
    if rng.random() < 0.5:
        below = ConstRule(ball_at(base, d0))
    else:
        s = rng.randint(1, 2)
        below = AffineRule(-s, d0 + s * (lo - 1))
    return LevelsOpen(field, cutoff, window, below)


# --- axioms -------------------------------------------------------------------

def _axiom_checks(rng, battery):
    checks = []
    pairs = battery * 5
    add_fail, ultra_fail = [], []
    for text in FIELD_TEXTS:
        f = parse_field(text)
        for _ in range(pairs):
            x, y = _random_element(rng, f), _random_element(rng, f)
            vx, vy = rank_valuation(x), rank_valuation(y)
            got = rank_valuation(x * y)
            want = tuple(map(add, vx, vy))
            if got != want:
                add_fail.append("%s: v(xy)=%r but v(x)+v(y)=%r"
                                % (text, got, want))
            s = x + y
            if s.is_zero():
                continue
            kx, ky = vx[::-1], vy[::-1]
            ks = rank_valuation(s)[::-1]
            if ks < min(kx, ky) or (kx != ky and ks != min(kx, ky)):
                ultra_fail.append("%s: v(x+y)=%r against %r and %r"
                                  % (text, ks, kx, ky))
    _record(checks, "product valuation is additive", pairs * 3, add_fail)
    _record(checks, "ultrametric inequality", pairs * 3, ultra_fail)

    draws = battery * 2
    sect_fail = []
    for text in FIELD_TEXTS:
        f = parse_field(text)
        rf = f.residue()
        for _ in range(draws):
            ybar = _random_element(rng, rf)
            if residue(lift(f, ybar)) != ybar:
                sect_fail.append("%s: residue of lift moved %s" % (text, ybar))
    _record(checks, "residue of lift is the identity", draws * 3, sect_fail)
    return checks


# --- topology -----------------------------------------------------------------

def _residue_image_checks(rng, battery, checks):
    fwd_fail, bwd_fail = [], []
    fwd_n = bwd_n = 0
    for text in FIELD_TEXTS:
        f = parse_field(text)
        made = 0
        for _ in range(battery * 4):
            if made >= battery:
                break
            U = random_open(rng, f)
            x = _digit_member(rng, U)
            if x is None:
                continue
            made += 1
            fwd_n += 1
            if not U.contains(x):
                fwd_fail.append("%s: built member %s rejected by %r"
                                % (text, x, U))
                continue
            if not residue_image(U).contains(residue(x)):
                fwd_fail.append("%s: residue of %s left the image open"
                                % (text, x))
        made = 0
        for _ in range(battery * 4):
            if made >= battery:
                break
            U = random_open(rng, f)
            try:
                ybar = _sample_open_member(rng, residue_image(U))
            except UnsupportedOpenError:
                continue
            x = _digit_member(rng, U, at_zero=ybar)
            if x is None:
                continue
            made += 1
            bwd_n += 1
            if not U.contains(x):
                bwd_fail.append("%s: no preimage found for %s in %r"
                                % (text, ybar, U))
            elif residue(x) != ybar:
                bwd_fail.append("%s: preimage residue moved off %s"
                                % (text, ybar))
    _record(checks, "members map into the residue image", fwd_n, fwd_fail)
    _record(checks, "residue image points admit members above", bwd_n, bwd_fail)


def _flagship_checks(rng, battery, checks):
    f = parse_field("Fq(5)((u))((t))")
    fails = []
    fam1 = parse_family(f, "t^(-1)*u^(n)")
    v1 = converges(fam1)
    if v1.kind != CONVERGES:
        fails.append("t^(-1)*u^(n) lost its higher verdict: %s" % v1.kind)
    else:
        for _ in range(battery):
            U = random_open(rng, f)
            try:
                n0 = v1.certificate.entry_index(U)
            except (UnsupportedOpenError, UnsupportedFamilyError) as err:
                fails.append("no entry index for %r: %s" % (U, err))
                continue
            for n in (n0, n0 + 3):
                if not U.contains(fam1.evaluate(n)):
                    fails.append("t^(-1)*u^(n) escaped %r at n=%d"
                                 % (U, n))
    vv = converges(fam1, topology="valuation")
    if vv.kind != DIVERGES or not vv.witness.checked():
        fails.append("t^(-1)*u^(n) should diverge in the valuation topology")
    for text, topo in (("u^(-n)*t^(n)", "higher"), ("u^(-n)*t^(n)", "valuation")):
        v = converges(parse_family(f, text), topology=topo)
        if v.kind != CONVERGES:
            fails.append("%s should converge in the %s topology" % (text, topo))
    v3 = converges(parse_family(f, "t^(-n)*u^(n)"))
    if v3.kind != DIVERGES or not v3.witness.checked():
        fails.append("t^(-n)*u^(n) kept its higher verdict")
    else:
        fam3 = parse_family(f, "t^(-n)*u^(n)")
        for n in range(v3.witness.start, v3.witness.start + 8):
            if v3.witness.target.contains(fam3.evaluate(n)):
                fails.append("defeating descriptor admits n=%d" % n)
    _record(checks, "the four convergence phenomena", battery + 4, fails)


_CONV_POOL = {
    "Fq(5)((u))((t))": [("t^(n)", "0"), ("u^(n)*t", "0"), ("2 + u*t^(n)", "2"),
                        ("u^(-1)*t^(n)", "0"), ("3*u^2", "3*u^2"),
                        ("u^(n)*t^-1", "0"), ("1 + u^(2*n)*t^(n)", "1")],
    "Qp(3)((t))": [("t^(n)", "0"), ("1 + 3*t^(n)", "1"), ("2*t^2", "2*t^2"),
                   ("9*t^(n)", "0"), ("t^(2*n+1)", "0")],
    "Qp(3){{t}}": [("t^(n)", "0"), ("2 + t^(n)", "2"), ("3*t^(n)", "0"),
                   ("t^2", "t^2"), ("1 + t^(3*n)", "1")],
}

_UNIT_POOL = {
    "Fq(5)((u))((t))": [("1 + u*t^(n)", "1", CONVERGES),
                        ("2 + t^(2*n)", "2", CONVERGES),
                        ("u^(n) + 1", "1", CONVERGES),
                        ("3*u^-1 + u^(n)", "3*u^-1", CONVERGES),
                        ("u^-2*t + t^(n)", "u^-2*t", CONVERGES),
                        ("1 + t^(-1)*u^(n)", "1", DIVERGES),
                        ("1 + u^(-n)*t", "1", DIVERGES),
                        ("t^(n)*u + t^(n)", "u + 1", DIVERGES)],
    "Qp(3)((t))": [("1 + 3*t^(n)", "1", CONVERGES),
                   ("t^(n) + 2", "2", CONVERGES),
                   ("3^(n) + 1", "1", CONVERGES),
                   ("1 + 3^(-n)*t", "1", DIVERGES),
                   ("t^(-n)*3^(n) + 1", "1", DIVERGES)],
    "Qp(3){{t}}": [("1 + t^(n)*3", "1", CONVERGES),
                   ("2 + 3^(n)", "2", CONVERGES),
                   ("1 + t^(-1)*3^(n)", "1", CONVERGES),
                   ("1 + t^(-n)*3", "1", DIVERGES),
                   ("t^(-n) + 1", "1", DIVERGES)],
}


def _topology_checks(rng, battery):
    checks = []
    _residue_image_checks(rng, battery, checks)
    _flagship_checks(rng, battery, checks)

    @functools.cache
    def product_kind(text, ft, xt, gt, yt):
        f = parse_field(text)
        return product_continuity_check(
            parse_family(f, ft), parse_element(f, xt),
            parse_family(f, gt), parse_element(f, yt)).kind

    fails = []
    for _ in range(battery):
        text = rng.choice(FIELD_TEXTS)
        (ft, xt), (gt, yt) = rng.choice(_CONV_POOL[text]), \
            rng.choice(_CONV_POOL[text])
        kind = product_kind(text, ft, xt, gt, yt)
        if kind != CONVERGES:
            fails.append("%s: (%s)*(%s) came back %s" % (text, ft, gt, kind))
    _record(checks, "products of convergent pairs converge", battery, fails)

    @functools.cache
    def route_kinds(text, ft, lt):
        f = parse_field(text)
        fam, L = parse_family(f, ft), parse_element(f, lt)
        return (unit_converges(fam, L).kind,
                unit_converges(fam, L, route="decomposition").kind)

    fails = []
    for _ in range(battery):
        text = rng.choice(FIELD_TEXTS)
        ft, lt, want = rng.choice(_UNIT_POOL[text])
        a, b = route_kinds(text, ft, lt)
        if a != b:
            fails.append("%s: %s routes split %s / %s" % (text, ft, a, b))
        elif a != want:
            fails.append("%s: %s -> %s expected %s, both routes said %s"
                         % (text, ft, lt, want, a))
    _record(checks, "unit routes agree", battery, fails)
    return checks


# --- counterexamples ----------------------------------------------------------

def _mirror_family(field, a, c):
    un, tn = field.params()[0], field.params()[-1]
    one = field.coeff_one()
    return SeqFamily(field, [
        Term(one, {tn: a, un: AffineForm(-c.a, -c.b)}),
        Term(one, {tn: AffineForm(-a.a, -a.b), un: c})])


def _counterexample_checks(rng, battery):
    checks = []
    f5 = parse_field("Fq(5)((u))((t))")
    q3m = parse_field("Qp(3){{t}}")

    fails = []
    n = max(battery // 2, 1)
    for _ in range(n):
        field = rng.choice((f5, q3m))
        U = _random_subgroup_open(rng, field)
        if not subgroup_shaped(U):
            fails.append("%r not certified as a subgroup" % U)
            continue
        w = subgroup_escape_witness(U)
        if w is None or not w.checked():
            fails.append("no checked witness for %r" % U)
            continue
        if "mirror sum in U" not in dict(w.claims):
            fails.append("witness for %r dropped the sum claim" % U)
    _record(checks, "mirror pairs escape every integral subgroup", n, fails)

    @functools.cache
    def mirror_kind(a, c):
        return seq_closed_check_C(_mirror_family(f5, a, c)).kind

    fails = []
    forms = [AffineForm(0, 1), AffineForm(0, 2), AffineForm(0, 4),
             AffineForm(1, 0), AffineForm(1, 2), AffineForm(2, 1)]
    for _ in range(n):
        a, c = rng.choice(forms), rng.choice(forms)
        kind = mirror_kind(a, c)
        want = CONVERGES if a.a == 0 and c.a == 0 else DIVERGES
        if kind != want:
            fails.append("a=%s c=%s came back %s" % (a, c, kind))
    _record(checks, "mirror families converge only when constant", n, fails)

    fails = []
    n = max(battery // 5, 1)
    for _ in range(n):
        field = rng.choice((f5, q3m))
        V1, V2 = random_open(rng, field), random_open(rng, field)
        W = deep_ball(field, 2)
        w = product_escape_witness(V1, V2, W)
        if w is None or not w.checked():
            fails.append("no product witness against the deep ball for %r, %r"
                         % (V1, V2))
    _record(checks, "multiplication escapes the proper target", n, fails)

    fails = []
    y = parse_family(f5, "1 + t^(-1)*u^(n)")
    inv = parse_family(f5, "(1)/(1 + t^(-1)*u^(n))")
    one = parse_element(f5, "1")
    for label, got, want in (
            ("the family converges", converges(y, limit=one).kind, CONVERGES),
            ("its inverse diverges", converges(inv, limit=one).kind, DIVERGES),
            ("ratio route refuses it", unit_converges(y, one).kind, DIVERGES),
            ("decomposition route refuses it",
             unit_converges(y, one, route="decomposition").kind, DIVERGES)):
        if got != want:
            fails.append("%s: got %s" % (label, got))
    _record(checks, "inversion is not sequentially continuous", 4, fails)
    return checks


# --- points -------------------------------------------------------------------

def _residue_family(fam):
    """Pointwise residue of a denominator free integral family whose terms
    carry constant top exponents; terms with positive top exponent drop."""
    f = fam.field
    tn = f.params()[-1]
    terms = []
    for t in fam.num:
        if tn not in t.exps:
            terms.append(Term(t.coeff,
                              {k: v for k, v in t.exps.items() if k != tn}))
    return SeqFamily(f.residue(), terms)


_POINT_POOL = [("t^(n)", "0"), ("u^(n)*t", "0"), ("2 + u*t^(n)", "2"),
               ("t^(-n)*u^(n)", "0"), ("u^(-n)*t^2", "0"),
               ("1 + t^(-1)*u^(n)", "1")]

_GM_POOL = [("2 + t^(n)", "2"), ("1 + u*t^(n)", "1"),
            ("u^-1 + t^(2*n)", "u^-1"), ("1 + t^(-1)*u^(n)", "1"),
            ("3 + u^(n)*t", "3")]


def _points_checks(rng, battery):
    checks = []
    F = parse_field("Fq(5)((u))((t))")
    R0 = BaseRing(F, 0)
    n, n3 = max(battery // 2, 1), max(battery // 3, 1)

    prod = product_presentation(AffinePresentation(R0, ("X",), []),
                                AffinePresentation(R0, ("Y",), []))

    @functools.cache
    def product_kinds(fx, lx, fy, ly):
        famx, famy = parse_family(F, fx), parse_family(F, fy)
        Lx, Ly = parse_element(F, lx), parse_element(F, ly)
        want = PointVerdict.conjoin([converges(famx, limit=Lx),
                                     converges(famy, limit=Ly)]).kind
        v = point_seq_converges(prod, PointSeqFamily((famx, famy),
                                                     Point((Lx, Ly))))
        return want, v.kind

    fails = []
    for _ in range(n):
        (fx, lx), (fy, ly) = rng.choice(_POINT_POOL), rng.choice(_POINT_POOL)
        want, kind = product_kinds(fx, lx, fy, ly)
        if kind != want:
            fails.append("(%s, %s) came back %s not %s" % (fx, fy, kind, want))
    _record(checks, "product verdict is the factor conjunction", n, fails)

    hyp = AffinePresentation(R0, ("X", "Y"), ["X*Y - 1"])
    amb = AffinePresentation(R0, ("X", "Y"), [])

    def unit_point(yt, lt):
        """(y, L, the point family (y, 1/y) -> (L, 1/L)) of a _GM_POOL entry."""
        y = parse_family(F, yt)
        L = parse_element(F, lt)
        return y, L, PointSeqFamily((y, SeqFamily(F, y.den, y.num)),
                                    Point((L, L.inverse())))

    # parsed once for the three memos below; the hyperbola verdict serves
    # both the immersion and the unit readings
    units = {entry: unit_point(*entry) for entry in _GM_POOL}

    @functools.cache
    def ambient_kind(yt, lt):
        return point_seq_converges(amb, units[yt, lt][2]).kind

    @functools.cache
    def hyperbola_kind(yt, lt):
        return point_seq_converges(hyp, units[yt, lt][2]).kind

    fails = []
    for _ in range(n):
        yt, lt = rng.choice(_GM_POOL)
        va, vh = ambient_kind(yt, lt), hyperbola_kind(yt, lt)
        if va != vh:
            fails.append("%s: closed immersion split %s / %s" % (yt, vh, va))
    _record(checks, "closed immersions preserve the verdict", n, fails)

    O2, O1 = BaseRing(F, 2), BaseRing(F, 1)
    X2 = AffinePresentation(O2, ("X",), [])
    incl = base_change(RingMorphism.inclusion(O2, O1), X2)
    ipool = [("t^(n)", "0"), ("u*t^(n)", "0"), ("u^2 + u*t^(2*n)", "u^2"),
             ("1 + u^(n)*t", "1"), ("u^(n) + t^(n)", "0")]

    @functools.cache
    def base_change_kinds(ft, lt):
        fam = parse_family(F, ft)
        L = parse_element(F, lt)
        pf = PointSeqFamily((fam,), Point((L,)))
        return (point_seq_converges(X2, pf).kind,
                point_seq_converges(incl.target, incl.family(pf)).kind,
                converges(_residue_family(fam), limit=residue(L)).kind)

    fails = []
    for _ in range(n):
        ft, lt = rng.choice(ipool)
        v2, v1, vr = base_change_kinds(ft, lt)
        if not (v2 == v1 == CONVERGES):
            fails.append("%s: inclusion moved the verdict %s -> %s"
                         % (ft, v2, v1))
        if vr != CONVERGES:
            fails.append("%s: residue family diverged" % ft)
    _record(checks, "base change preserves convergence", n * 2, fails)

    rho = base_change(RingMorphism.residue_map(O1),
                      AffinePresentation(O1, ("X",), []))
    fails = []
    for _ in range(n):
        x = _random_integral(rng, F)
        y = rho.point(Point((x,)))
        if y.coords[0] != residue(x):
            fails.append("residue point of %s moved" % x)
        elif member_points(rho.target, y.coords) != YES:
            fails.append("residue point of %s not on the fiber" % x)
    _record(checks, "the reduction of a point is its residue", n, fails)

    @functools.cache
    def unit_kind(yt, lt):
        y, L, _ = units[yt, lt]
        return unit_converges(y, L).kind

    fails = []
    for _ in range(n3):
        yt, lt = rng.choice(_GM_POOL)
        vh, vu = hyperbola_kind(yt, lt), unit_kind(yt, lt)
        if vh != vu:
            fails.append("%s: unit scheme and unit topology split %s / %s"
                         % (yt, vh, vu))
    _record(checks, "the two unit readings agree", n3, fails)
    return checks


# --- scalar extension ---------------------------------------------------------

_WEIL_POOL = [("t^(n)", "u*t^(2*n)"), ("t^(n)", "t^(-n)"), ("0", "u^(-n)*t^2"),
              ("u^(n)*t^-1", "t^(n)"), ("t^(2*n+1)", "0"),
              ("u^(-n)*t^(n)", "t^(n)")]


def _weil_checks(rng, battery):
    checks = []
    F = parse_field("Fq(5)((u))((t))")
    R = BaseRing(F, 0)
    S = MonogenicExt(R, "theta", "theta^2 - u")
    Y = ScalarExtPresentation(S, ("Y",), ["Y^2 - theta"])
    W = weil_restrict(Y)

    fails = []
    for _ in range(battery):
        a, b = _random_element(rng, F), _random_element(rng, F)
        s = S.scalar((a, b))
        x = W.encode((s,))
        if x.coords != (a, b):
            fails.append("encode moved (%s, %s)" % (a, b))
        elif not S.reduce(W.decode(x)[0] - s).is_zero():
            fails.append("decode moved (%s, %s)" % (a, b))
    _record(checks, "encode and decode are mutually inverse", battery, fails)

    fails = []
    count = 0
    Y3 = ScalarExtPresentation(
        MonogenicExt(R, "w", "w^3 - t*w - u"), ("Y", "Z"),
        ["Y^3 - w*Y + u", "Z*Y - w"])
    from .points import parse_poly
    for pres, Wp in ((Y, W), (Y3, weil_restrict(Y3))):
        ext = pres.ext
        names = Wp.presentation.variables + (ext.theta,)
        subst = {}
        for vname in pres.variables:
            text = " + ".join("%s%d*%s^%d" % (vname, k, ext.theta, k)
                              for k in range(ext.deg))
            subst[vname] = parse_poly(F, names, text)
        # the restricted generators are the nonzero theta-components of
        # the substituted source generators, in order
        rest = list(Wp.presentation.gens)
        for g in pres.gens:
            count += 1
            comps = ext.reduce(g.substitute(subst, names)).split_var(ext.theta)
            want = [comps[k] for k in range(ext.deg) if k in comps]
            if rest[:len(want)] != want:
                fails.append("restriction of %s is not its components"
                             % g.text())
            rest = rest[len(want):]
        if rest:
            fails.append("%d restricted generators left over" % len(rest))
    _record(checks, "the restricted ideal resubstitutes to zero", count, fails)

    Y2 = ScalarExtPresentation(S, ("Y",), ["Y^2 - theta^2"])
    W2 = weil_restrict(Y2)
    fails = []
    n = max(battery // 5, 1)
    onb = [("0", "1"), ("0", "4")]
    for _ in range(n):
        if rng.random() < 0.5:
            at, bt = rng.choice(onb)
            a, b = parse_element(F, at), parse_element(F, bt)
        else:
            a, b = _random_element(rng, F), _random_element(rng, F)
        s = S.scalar((a, b))
        here = Y2.member((s,))
        there = member_points(W2.presentation, W2.encode((s,)).coords)
        if here != there:
            fails.append("membership split %s / %s at (%s, %s)"
                         % (here, there, a, b))
    _record(checks, "membership agrees across the restriction", n, fails)

    amb = AffinePresentation(R, ("Y0", "Y1"), [])
    zero = Element.zero(F)

    @functools.cache
    def encode_kinds(c0, c1):
        comps = (parse_family(F, c0), parse_family(F, c1))
        return (sext_converges([SExtFamily(S, comps, (zero, zero))]).kind,
                point_seq_converges(amb, PointSeqFamily(
                    comps, Point((zero, zero)))).kind)

    fails = []
    n3 = max(battery // 3, 1)
    for _ in range(n3):
        c0, c1 = rng.choice(_WEIL_POOL)
        vS, vR = encode_kinds(c0, c1)
        if vS != vR:
            fails.append("(%s, %s): verdicts split %s / %s"
                         % (c0, c1, vS, vR))
    _record(checks, "verdicts agree under encode", n3, fails)
    return checks


# --- entry points -------------------------------------------------------------

_SUITE_FNS = {"axioms": _axiom_checks, "topology": _topology_checks,
              "counterexamples": _counterexample_checks,
              "points": _points_checks, "weil": _weil_checks}


def run_suite(name, seed=0, battery=100):
    if name not in _SUITE_FNS:
        raise ValueError("unknown check suite %r" % name)
    if battery < 1:
        raise OutOfRangeError("battery size must be at least 1, not %d"
                              % battery)
    rng = random.Random("%s:%d" % (name, seed))
    checks = _SUITE_FNS[name](rng, battery)
    return {"suite": name, "seed": seed, "battery": battery, "checks": checks,
            "ok": all(c["failed"] == 0 for c in checks)}


def run_all(seed=0, battery=100):
    return combine(seed, battery, [run_suite(name, seed, battery) for name in SUITES])


def combine(seed, battery, suites):
    """The run_all report over the reports of every suite, in SUITES order."""
    return {"seed": seed, "battery": battery, "suites": suites,
            "ok": all(s["ok"] for s in suites)}
