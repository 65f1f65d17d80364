"""Seeded inputs for the three workloads, each with an answer that does not
come from the code being timed.

Nothing here imports hlf.  Query answers follow from how each input is
built (a valuation chosen by construction, a verdict rule for monomial
families, a point placed on or off a curve).  The only answers not derived
this way are the first lines of `weil`, which print the restricted
presentation; WEIL_FIRST_LINES holds them as recorded from the program.
The witness queries are checked on their elements, not on the "checked"
line the program prints about itself.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

F5 = "Fq(5)((u))((t))"
Q3T = "Qp(3)((t))"
MIX = "Qp(3){{t}}"
FIELDS = (F5, Q3T, MIX)

QUERY_KINDS = ("valuation", "member", "converge", "units", "points-member",
               "points-map", "points-converge", "weil", "witness-subgroup",
               "witness-product")

SUITE_NAMES = ("axioms", "topology", "counterexamples", "points", "weil")


# --- sizes --------------------------------------------------------------------

class Sizes:
    """Input sizes of one run; `smoke` shrinks every workload to a few
    seconds while keeping every code path."""

    def __init__(self, smoke=False):
        self.battery = 4 if smoke else 100
        self.queries = 40 if smoke else 1000
        # {size: ops per pass}.  Expansion along p over Qp(3){{t}} and
        # deep_ball(Qp(3){{t}}, d) grow ~3x per digit at the commit that
        # defined the benchmark: 6 digits take ~20 ms, 8 ~0.15 s, 9 ~0.4 s
        # and 10 ~1.2 s.  Of the 33 ops of a pass, 11 take under 0.12 s,
        # 10 sit near 0.15 s, 11 near 0.3-0.45 s and one near 1.2 s, so the
        # median falls inside the 8-digit group and the tail rank (10
        # samples beyond) at the foot of the 9-digit group.
        self.p_digits = {2: 1, 4: 1} if smoke else {6: 4, 8: 5, 9: 5, 10: 1}
        self.ball_depths = {2: 1, 4: 1} if smoke else {6: 4, 8: 5, 9: 5}
        # expansion along t grows slowly; hundreds of digits for contrast
        self.t_digits_f5 = {10: 1, 20: 1} if smoke else {100: 1, 200: 1}
        self.t_digits_q3 = {10: 1, 20: 1} if smoke else {400: 1, 800: 1}

    def to_data(self):
        return {"battery": self.battery, "queries": self.queries,
                "p_digits": self.p_digits,
                "ball_depths": self.ball_depths,
                "t_digits": {F5: self.t_digits_f5, Q3T: self.t_digits_q3}}


# --- suites -------------------------------------------------------------------

def suite_seed(seed, round_no):
    """Check-suite seed of one pass; every pass draws fresh material."""
    return seed * 1000 + round_no


# --- text of monomials and families -------------------------------------------

def _sgn(c):
    return "+ %s" % c if not str(c).startswith("-") else "- %s" % str(c)[1:]


def _coeff_text(c):
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _affine_text(alpha, a):
    if alpha == 0:
        return "(%d)" % a
    lead = {1: "n", -1: "-n"}.get(alpha, "%d*n" % alpha)
    if a == 0:
        return "(%s)" % lead
    return "(%s%s%d)" % (lead, "+" if a > 0 else "-", abs(a))


class Mono:
    """coeff * u^a * t^b with the coefficient already holding any power
    of 3 (a is 0 outside Fq(5)((u))((t))).  The valuation vector and the
    printed form follow the field's conventions, bottom slot first."""

    def __init__(self, field, coeff, a, b):
        self.field = field
        self.coeff = coeff if field == F5 else Fraction(coeff)
        self.a = a
        self.b = b

    def e3(self):
        """3-adic valuation of the coefficient (0 over Fq(5))."""
        if self.field == F5:
            return 0
        c, e = self.coeff, 0
        num, den = c.numerator, c.denominator
        while num % 3 == 0:
            num //= 3
            e += 1
        while den % 3 == 0:
            den //= 3
            e -= 1
        return e

    def valuation(self):
        if self.field == F5:
            return (self.a, self.b)
        if self.field == Q3T:
            return (self.e3(), self.b)
        return (self.b, self.e3())

    def inverse(self):
        if self.field == F5:
            return Mono(F5, pow(self.coeff, -1, 5), -self.a, -self.b)
        return Mono(self.field, 1 / self.coeff, 0, -self.b)

    def text(self):
        """Printed the way hlf prints a single monomial."""
        vars_part = "*".join(
            v if e == 1 else "%s^%d" % (v, e)
            for v, e in (("u", self.a), ("t", self.b)) if e != 0)
        c = self.coeff
        neg = self.field != F5 and c < 0
        cc = -c if neg else c
        if vars_part and cc == 1:
            body = vars_part
        elif vars_part:
            body = "%s*%s" % (_coeff_text(cc), vars_part)
        else:
            body = _coeff_text(cc)
        return "-" + body if neg else body


def _vkey(v):
    return tuple(reversed(v))


def _min_valuation(monos):
    return min((m.valuation() for m in monos), key=_vkey)


def _draw_coeff(rng, field):
    if field == F5:
        return rng.randrange(1, 5)
    k = rng.choice((1, 2, 4, 5, 7, -1, -2))
    return Fraction(k) * Fraction(3) ** rng.randint(-2, 2)


def _distinct_monos(rng, field, n):
    """n monomials with pairwise distinct t exponents (and, over Fq(5),
    distinct (u, t) exponent pairs) so no two of them merge."""
    out, used = [], set()
    while len(out) < n:
        a = rng.randint(-3, 3) if field == F5 else 0
        b = rng.randint(-4, 4)
        key = (a, b) if field == F5 else b
        if key in used:
            continue
        used.add(key)
        out.append(Mono(field, _draw_coeff(rng, field), a, b))
    return out


def _sum_text(monos):
    parts = [monos[0].text()]
    for m in monos[1:]:
        parts.append(_sgn(m.text()))
    return " ".join(parts)


_UNIT_DENS = {F5: ("1 + u*t", "2 + u^2*t", "3 - t^2", "1 + u^-1*t"),
              Q3T: ("1 - t", "2 + 3*t", "1 + t + t^2"),
              MIX: ("1 - t", "2 + 3*t", "1 + 3*t^-1")}


# --- query construction -------------------------------------------------------

class Query:
    """One `hlf.cli.main(argv)` call with the first stdout lines it may
    print and the exit code it must return; `verify`, when given, checks
    the rest of stdout and returns an error or None."""

    def __init__(self, kind, argv, first, code=0, verify=None):
        self.kind = kind
        # "--flag=value", so a value such as "-2*t" is not read as a flag
        self.argv = [argv[0]] + ["%s=%s" % (argv[i], argv[i + 1])
                                 for i in range(1, len(argv), 2)]
        self.accept = (first,) if isinstance(first, str) else tuple(first)
        self.code = code
        self.verify = verify

    def key(self):
        return tuple(self.argv)


def _q_valuation(rng, files):
    field = rng.choice(FIELDS)
    monos = _distinct_monos(rng, field, rng.randint(1, 3))
    text = _sum_text(monos)
    if rng.random() < 0.3:
        # a unit denominator: valuation zero, so v(x) = v(numerator)
        text = "(%s)/(%s)" % (text, rng.choice(_UNIT_DENS[field]))
    v = _min_valuation(monos)
    argv = ["val", "--field", field, "--elem", text]
    r = rng.choice((None, 1, 2))
    if r is not None:
        argv += ["--rank", str(r)]
        v = v[len(v) - r:]
    return Query("valuation", argv, repr(tuple(v)))


def deep_ball_data(field, d):
    """Descriptor of deep_ball(field, d) written out by hand."""
    if field == Q3T:
        inner = {"kind": "ball", "depth": d}
    else:
        inner = {"kind": "levels", "cutoff": d, "window": {},
                 "below": {"rule": "const", "open": {"kind": "zero"}}}
    return {"field": field,
            "open": {"kind": "levels", "cutoff": d, "window": {},
                     "below": {"rule": "const", "open": inner}}}


_BALL_DEPTHS = (1, 2, 3)


def _member_monos(rng, field, d):
    out, used = [], set()
    for _ in range(rng.randint(1, 3)):
        for _try in range(20):
            a = rng.randint(d - 2, d + 2) if field == F5 else 0
            b = rng.randint(d - 2, d + 2)
            if field == F5:
                m = Mono(F5, rng.randrange(1, 5), a, b)
                key = (a, b)
            elif field == Q3T:
                e = rng.randint(d - 2, d + 1)
                m = Mono(Q3T, Fraction(rng.choice((1, 2, 4, 5))) * Fraction(3) ** e, 0, b)
                key = b
            else:
                # single digit coefficients keep each term on its own level
                e = rng.randint(d - 2, d + 1)
                m = Mono(MIX, Fraction(rng.choice((1, 2))) * Fraction(3) ** e, 0, b)
                key = (e, b)
            if key not in used:
                used.add(key)
                out.append(m)
                break
    return out


def _in_deep_ball(field, m, d):
    # a level below the cutoff d must carry a digit of depth >= d
    if field == F5:
        return m.b >= d or m.a >= d
    if field == Q3T:
        return m.b >= d or m.e3() >= d
    return m.e3() >= d or m.b >= d


def _q_member(rng, files):
    field = rng.choice(FIELDS)
    d = rng.choice(_BALL_DEPTHS)
    path = files["ball:%s:%d" % (field, d)]
    if rng.random() < 0.1:
        return Query("member", ["member", "--elem", "0", "--open", "@" + path],
                     "YES")
    monos = _member_monos(rng, field, d)
    ans = all(_in_deep_ball(field, m, d) for m in monos)
    return Query("member", ["member", "--elem", _sum_text(monos),
                            "--open", "@" + path], "YES" if ans else "NO")


def _fam_monomial(rng, field):
    """(text, alpha, a, gamma, b) of c * base^(alpha*n+a) * t^(gamma*n+b),
    base u over Fq(5) and 3 otherwise."""
    alpha = rng.choice((-1, 0, 1, 1, 2))
    gamma = rng.choice((-1, 0, 0, 1, 2))
    a = rng.randint(-2, 2)
    b = rng.randint(-2, 2)
    if field == F5:
        c = rng.randrange(1, 5)
        base = "u"
    else:
        c = rng.choice((1, 2))
        base = "3"
    parts = [] if c == 1 else [str(c)]
    if alpha or a:
        parts.append("%s^%s" % (base, _affine_text(alpha, a)))
    if gamma or b:
        parts.append("t^%s" % _affine_text(gamma, b))
    if not parts:
        parts.append(str(c))
    return "*".join(parts), alpha, a, gamma, b


def _top_slope(field, alpha, gamma):
    """(slope of the top exponent, slope of the lower one)."""
    return (alpha, gamma) if field == MIX else (gamma, alpha)


def higher_converges(field, alpha, a, gamma, b):
    """A monomial family tends to 0 in the higher topology exactly when its
    top exponent grows, or stays put while the lower one grows; a top
    exponent that sinks is beaten by a quadratic depth rule."""
    top, low = _top_slope(field, alpha, gamma)
    return top > 0 or (top == 0 and low > 0)


def valuation_converges(field, alpha, a, gamma, b):
    top, _ = _top_slope(field, alpha, gamma)
    return top > 0


def units_converge(field, alpha, a, gamma, b):
    """L(1 + h_n) -> L among units: h_n -> 0 and h_n is eventually a
    principal unit's tail, i.e. of positive valuation vector."""
    top, low = _top_slope(field, alpha, gamma)
    top0 = a if field == MIX else b
    return top > 0 or (top == 0 and low > 0 and top0 >= 0)


_LIMITS = {F5: ("1", "2", "3", "4"), Q3T: ("1", "2"), MIX: ("1", "2")}


def _draw_limit(rng, field, text):
    """A limit L for a family L + text; never one that makes a constant
    family the zero unit (over Fq(5), L + c = 5)."""
    limits = _LIMITS[field]
    if field == F5 and text.isdigit():
        limits = [L for L in limits if (int(L) + int(text)) % 5]
    return rng.choice(limits)


def _verdict(ok, field=None, alpha=None, a=None):
    """Expected first line; over Qp(3){{t}} a family L + t^(...) with no
    power of 3 has a unit inverse whose tail runs along p, outside the
    decidable fragment, so UNKNOWN is an honest answer there too."""
    first = "CONVERGES" if ok else "DIVERGES"
    if field == MIX and alpha == 0 and a == 0:
        return (first, "UNKNOWN")
    return first


def _q_converge(rng, files):
    field = rng.choice(FIELDS)
    text, alpha, a, gamma, b = _fam_monomial(rng, field)
    topo = rng.choice(("higher", "higher", "valuation", "parshin"))
    if topo == "parshin" or rng.random() < 0.5:
        L = _draw_limit(rng, field, text)
        seq = "%s + %s" % (L, text)
    else:
        L, seq = "0", text
    if topo == "parshin":
        first = _verdict(units_converge(field, alpha, a, gamma, b),
                         field, alpha, a)
    elif topo == "valuation":
        first = _verdict(valuation_converges(field, alpha, a, gamma, b))
    else:
        first = _verdict(higher_converges(field, alpha, a, gamma, b))
    return Query("converge", ["converge", "--field", field, "--seq", seq,
                              "--limit", L, "--topology", topo], first)


def _q_units(rng, files):
    field = rng.choice(FIELDS)
    text, alpha, a, gamma, b = _fam_monomial(rng, field)
    L = _draw_limit(rng, field, text)
    topo = rng.choice(("higher", "parshin"))
    ok = units_converge(field, alpha, a, gamma, b)
    return Query("units", ["units", "--field", field, "--seq",
                           "%s + %s" % (L, text), "--limit", L,
                           "--topology", topo], _verdict(ok, field, alpha, a))


def _rank0_mono(rng, field):
    if field == F5:
        return Mono(F5, rng.randrange(1, 5), rng.randint(-3, 3),
                    rng.randint(-3, 3))
    return Mono(field, Fraction(rng.choice((1, 2, 4, 5))) *
                Fraction(3) ** rng.randint(-1, 1), 0, rng.randint(-3, 3))


def _q_points_member(rng, files):
    if rng.random() < 0.2:
        # Y^2 = theta^2 over F5[theta]/(theta^2 - u): Y = +-theta only
        a, b = rng.choice((("0", "1"), ("0", "4"), ("0", "2"), ("1", "0"),
                           ("u", "1"), ("0", "u")))
        ans = a == "0" and b in ("1", "4")
        return Query("points-member",
                     ["points-member", "--scheme", files["sext:theta2"],
                      "--elem", "%s,%s" % (a, b)], "YES" if ans else "NO")
    field = rng.choice(FIELDS)
    m = _rank0_mono(rng, field)
    on = rng.random() < 0.5
    y = m.inverse()
    if not on:
        # twice the inverse: X*Y = 2
        c = (y.coeff * 2) % 5 if field == F5 else y.coeff * 2
        y = Mono(field, c, y.a, y.b)
    return Query("points-member",
                 ["points-member", "--scheme", files["hyp:%s" % field],
                  "--elem", "%s, %s" % (m.text(), y.text())],
                 "YES" if on else "NO")


def _q_points_map(rng, files):
    field = rng.choice(FIELDS)
    path = files["p1:%s" % field]
    if rng.random() < 0.15:
        return Query("points-map", ["points-map", "--scheme", path, "--elem",
                                    "0", "--chart", "0", "--to-chart", "1"],
                     "OUT_OF_CHART")
    m = _rank0_mono(rng, field)
    return Query("points-map", ["points-map", "--scheme", path, "--elem",
                                m.text(), "--chart", "0", "--to-chart", "1"],
                 "(%s)@1" % m.inverse().text())


_INV = {F5: {"1": "1", "2": "3", "3": "2", "4": "4"},
        Q3T: {"1": "1", "2": "1/2"}, MIX: {"1": "1", "2": "1/2"}}


def _q_points_converge(rng, files):
    field = rng.choice(FIELDS)
    text, alpha, a, gamma, b = _fam_monomial(rng, field)
    L = _draw_limit(rng, field, text)
    y = "%s + %s" % (L, text)
    # the pair (y, 1/y) on XY = 1 converges exactly when y does among units;
    # the first coordinate to fail is named
    if not higher_converges(field, alpha, a, gamma, b):
        first = "DIVERGES (coordinate 0)"
    else:
        if not units_converge(field, alpha, a, gamma, b):
            first = "DIVERGES (coordinate 1)"
        else:
            first = "CONVERGES"
        if field == MIX and alpha == 0 and a == 0:
            first = (first, "UNKNOWN")  # see _verdict
    return Query("points-converge",
                 ["points-converge", "--scheme", files["hyp:%s" % field],
                  "--seq", "%s,(1)/(%s)" % (y, y),
                  "--limit", "%s,%s" % (L, _INV[field][L])], first)


# first lines of `hlf weil`, recorded from the program: the restriction of
# each scalar extension presentation below
WEIL_SCHEMES = {
    "sext:theta": (F5, "theta^2 - u", ["Y^2 - theta"]),
    "sext:theta2": (F5, "theta^2 - u", ["Y^2 - theta^2"]),
    "sext:q3": (Q3T, "theta^2 - t", ["Y^2 - theta"]),
    "sext:mix": (MIX, "theta^2 - t", ["Y^2 - theta"]),
}
WEIL_FIRST_LINES = {
    "sext:theta": "V(Y0^2 + u*Y1^2, 4 + 2*Y0*Y1) in A^2",
    "sext:theta2": "V(4*u + Y0^2 + u*Y1^2, 2*Y0*Y1) in A^2",
    "sext:q3": "V(Y0^2 + t*Y1^2, (-1) + 2*Y0*Y1) in A^2",
    "sext:mix": "V(Y0^2 + t*Y1^2, (-1) + 2*Y0*Y1) in A^2",
}


def _q_weil(rng, files):
    name = rng.choice(sorted(WEIL_SCHEMES))
    argv = ["weil", "--scheme", files[name]]
    if rng.random() < 0.5:
        field = WEIL_SCHEMES[name][0]
        argv += ["--elem", "%s,%s" % (_rank0_mono(rng, field).text(),
                                      _rank0_mono(rng, field).text())]
    return Query("weil", argv, WEIL_FIRST_LINES[name])


def parse_mono(field, text):
    """A single monomial as hlf prints it, e.g. "-1/9*u^-2*t^3"."""
    neg = text.startswith("-")
    coeff, a, b = Fraction(1), 0, 0
    for factor in (text[1:] if neg else text).split("*"):
        var, _, exp = factor.partition("^")
        if var == "u":
            a = int(exp or 1)
        elif var == "t":
            b = int(exp or 1)
        else:
            coeff = Fraction(factor)
    if neg:
        coeff = -coeff
    if field == F5:
        coeff = int(coeff) % 5
    return Mono(field, coeff, a, b)


def _mono_mul(x, y):
    c = (x.coeff * y.coeff) % 5 if x.field == F5 else x.coeff * y.coeff
    return Mono(x.field, c, x.a + y.a, x.b + y.b)


def _witness_elems(field, text, n):
    lines = text.split("\n")
    if len(lines) < 2:
        raise ValueError("no witness line")
    elems = lines[1].split(", ")
    if len(elems) != n:
        raise ValueError("%d witness elements, expected %d" % (len(elems), n))
    return elems


def _check_subgroup_witness(field, d):
    """The witness lists x, y and x + y.  x and y are monomials on distinct
    top levels inside deep_ball(field, d), so their sum lies in the ball
    too; one of them has negative top valuation, so the sum escapes the
    rank one integers."""
    def verify(text):
        try:
            xs, ys, ss = _witness_elems(field, text, 3)
            x, y = parse_mono(field, xs), parse_mono(field, ys)
        except ValueError as exc:
            return "unreadable witness: %s" % exc
        if ss != "%s %s" % (xs, _sgn(ys)):
            return "witness sum %r is not %s + %s" % (ss, xs, ys)
        top = [_vkey(m.valuation())[0] for m in (x, y)]
        if not all(_in_deep_ball(field, m, d) for m in (x, y)):
            return "witness element outside deep_ball(%d)" % d
        if top[0] == top[1] or min(top) >= 0:
            return "witness sum stays in the rank one integers"
        return None
    return verify


def _check_product_witness(field, v1, v2, w):
    """x in deep_ball(v1), y in deep_ball(v2) and x*y outside
    deep_ball(w)."""
    def verify(text):
        try:
            x, y = (parse_mono(field, e)
                    for e in _witness_elems(field, text, 2))
        except ValueError as exc:
            return "unreadable witness: %s" % exc
        if not (_in_deep_ball(field, x, v1) and _in_deep_ball(field, y, v2)):
            return "witness factor outside its ball"
        if _in_deep_ball(field, _mono_mul(x, y), w):
            return "witness product inside deep_ball(%d)" % w
        return None
    return verify


def _q_witness_subgroup(rng, files):
    field = rng.choice(FIELDS)
    d = rng.choice(_BALL_DEPTHS)
    return Query("witness-subgroup",
                 ["witness-subgroup", "--open",
                  files["ball:%s:%d" % (field, d)]], "checked",
                 verify=_check_subgroup_witness(field, d))


def _q_witness_product(rng, files):
    field = rng.choice(FIELDS)
    v1, v2 = rng.choice(_BALL_DEPTHS), rng.choice(_BALL_DEPTHS)
    # multiplication is not continuous: no pair of balls maps into a proper
    # deep ball, so a witness always exists
    return Query("witness-product",
                 ["witness-product",
                  "--open", files["ball:%s:%d" % (field, v1)],
                  "--open", files["ball:%s:%d" % (field, v2)],
                  "--open", files["ball:%s:%d" % (field, 2)]], "checked",
                 verify=_check_product_witness(field, v1, v2, 2))


_MAKERS = {"valuation": _q_valuation, "member": _q_member,
           "converge": _q_converge, "units": _q_units,
           "points-member": _q_points_member, "points-map": _q_points_map,
           "points-converge": _q_points_converge, "weil": _q_weil,
           "witness-subgroup": _q_witness_subgroup,
           "witness-product": _q_witness_product}


def write_query_files(workdir):
    """Open and scheme files the query stream refers to; returns name ->
    path."""
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def put(name, data):
        path = os.path.join(workdir, "%02d.json" % len(files))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        files[name] = path

    for field in FIELDS:
        for d in _BALL_DEPTHS:
            put("ball:%s:%d" % (field, d), deep_ball_data(field, d))
        put("hyp:%s" % field, {"ring": field, "vars": ["X", "Y"],
                               "gens": ["X*Y - 1"]})
        put("p1:%s" % field, {
            "ring": field,
            "charts": [{"vars": ["X"], "gens": []},
                       {"vars": ["Y"], "gens": []}],
            "overlaps": [{"from": 0, "to": 1, "unit": "X", "map": ["(1)/(X)"]},
                         {"from": 1, "to": 0, "unit": "Y",
                          "map": ["(1)/(Y)"]}]})
    for name, (field, modulus, gens) in WEIL_SCHEMES.items():
        put(name, {"ring": field, "theta": "theta", "modulus": modulus,
                   "vars": ["Y"], "gens": gens})
    return files


def query_stream(seed, pass_no, sizes, files):
    """The stream of one pass: shuffled, every block of ten holds each kind
    once.  No query is replayed on purpose; inputs repeat only where the
    draw repeats them (see repeat_share)."""
    rng = random.Random("queries:%d:%d" % (seed, pass_no))
    out = []
    while len(out) < sizes.queries:
        block = list(QUERY_KINDS)
        rng.shuffle(block)
        out += [_MAKERS[kind](rng, files) for kind in block]
    return out[:sizes.queries]


def repeat_share(keys):
    """Share of inputs equal to an earlier one."""
    seen, rep = set(), 0
    for k in keys:
        rep += k in seen
        seen.add(k)
    return rep / len(keys) if keys else 0.0


# --- depth sweep --------------------------------------------------------------

# Unit-denominator fractions over Qp(3){{t}} whose p-adic expansion costs
# about the same at each digit count (within ~30 %), so the sweep's cost
# does not hinge on which one a seed picks.  Numerator and denominator
# have unit constant terms, so the level 0 digit of t^b * g has t-valuation
# exactly b.
P_SHAPES = ("(1 + t)/(1 - 3*t - t^2)", "(2 + t)/(1 + t^2 - 3*t^3)",
            "(1 - 3*t)/(1 + t^2 - 6*t^3)", "(1 + t)/(1 - t + 3*t^2)")

# Fractions whose denominators have constant term 1 along t, so their
# t-digits are Laurent polynomials one level down.
T_SHAPES = {F5: ("(2 + u*t + 3*t^2)/(1 + u*t + 2*u^-1*t^2)",
                 "(1 + 2*u^-1*t)/(1 + 3*u*t + u^-1*t^2)",
                 "(3 + u^2*t^2)/(1 + u^-1*t + 4*u*t^2)",
                 "(4 + u*t)/(1 + 2*u^-2*t + u*t^2)"),
            Q3T: ("(2 + 3*t + t^2)/(1 + 2*t + 1/3*t^2)",
                  "(1 - t)/(1 + t - 2/3*t^2)",
                  "(5 + 1/3*t)/(1 - 2*t + 3*t^2)",
                  "(2 - 9*t^2)/(1 + 1/9*t + t^2)")}


class DepthOp:
    """One sweep point: expand `elem` along the top uniformizer to `size`
    digits, or ask deep_ball(field, size) whether it contains `elem`."""

    def __init__(self, kind, field, elem, size, shift=0, expect=None):
        self.kind = kind
        self.field = field
        self.elem = elem
        self.size = size
        self.shift = shift
        self.expect = expect

    def label(self):
        return "%s.%d" % (self.kind, self.size)


def _shifted(b, g):
    return "t^%d*%s" % (b, g) if b else g


def depth_sweep(seed, pass_no, sizes):
    """One pass of the sweep.  The j-th op at a size uses shape j (cycling
    through the shapes) under a seed-drawn monomial shift t^b, so the work
    of a pass does not hinge on the seed."""
    rng = random.Random("depth:%d:%d" % (seed, pass_no))
    ops = []
    for k, n in sizes.p_digits.items():
        for j in range(n):
            g = P_SHAPES[j % len(P_SHAPES)]
            b = rng.randint(-3, 3)
            ops.append(DepthOp("p_digits", MIX, _shifted(b, g), k, shift=b))
    for d, n in sizes.ball_depths.items():
        for j in range(n):
            g = P_SHAPES[j % len(P_SHAPES)]
            # t^b * g has level 0 digit of t-valuation exactly b, and every
            # digit of t-valuation >= b: inside the deep ball iff b >= d
            b = rng.randint(d - 2, d + 1)
            ops.append(DepthOp("deep_ball", MIX, _shifted(b, g), d, shift=b,
                               expect=b >= d))
    for field, counts, kind in ((F5, sizes.t_digits_f5, "t_digits_f5"),
                                (Q3T, sizes.t_digits_q3, "t_digits_q3")):
        shapes = T_SHAPES[field]
        for k, n in counts.items():
            for j in range(n):
                g = shapes[j % len(shapes)]
                b = rng.randint(-3, 3)
                ops.append(DepthOp(kind, field, _shifted(b, g), k, shift=b))
    return ops
