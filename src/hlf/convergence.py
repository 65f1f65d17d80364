"""Deciding sequential convergence, with certificates and witnesses.

A verdict about F_n -> L is a statement about G_n = F_n - L.  CONVERGES
carries a certificate that turns any neighborhood descriptor of zero into
an explicit entry index: from that index on, G_n lies inside.  DIVERGES
carries a single defeating neighborhood the tail of the sequence avoids,
together with sampled membership checks.  UNKNOWN names the missing route
and claims nothing.

Everything runs on eventual valuation forms.  Beyond the crossing bound
the valuation vector of G_n is a tuple of affine forms of n, and the
slope of the top form drives a trichotomy: positive slope clears every
fixed window, negative slope is defeated by a quadratically deepening
neighborhood, and slope zero drops to digit families over the residue
field, one per persistent level, which recurse one rank down.
"""

import math
from fractions import Fraction
from itertools import combinations

from .coeff import padic_val, rational_mod_p
from .elements import Element
from .errors import (PrecisionExhaustedError, UnsupportedFamilyError,
                     UnsupportedOpenError)
from .fields import MixedExt
from .opens import (BallOpen, FullOpen, FullRule, LevelsOpen, QuadraticRule,
                    ZeroOpen, ball_at, first_nonneg)
from .sequences import _ZERO_FORM, SeqFamily, Term
from .valuation import in_max_ideal, rank_valuation

# The most p-adic digits a coefficient's stream, or the joint period of the
# constant terms' streams over a mixed top, may take to repeat: a level
# verdict decides every level of one period.
_DIGIT_PERIOD_MAX = 4096

CONVERGES = "CONVERGES"
DIVERGES = "DIVERGES"
UNKNOWN = "UNKNOWN"


class Verdict:
    def __init__(self, kind, certificate=None, witness=None, reason=None):
        self.kind = kind
        self.certificate = certificate
        self.witness = witness
        self.reason = reason

    def to_data(self):
        d = {"verdict": self.kind}
        if self.certificate is not None:
            d["certificate"] = self.certificate.to_data()
        if self.witness is not None:
            d["witness"] = self.witness.to_data()
        if self.reason is not None:
            d["reason"] = self.reason
        return d

    def __repr__(self):
        if self.kind == CONVERGES:
            return "CONVERGES(%r)" % self.certificate
        if self.kind == DIVERGES:
            return "DIVERGES(%r)" % self.witness
        return "UNKNOWN(%s)" % self.reason


class RankOneBall:
    """v_top >= depth, a neighborhood base of zero for the rank one
    valuation topology.  Not an open of the higher topology once the
    field has two or more ranks; kept separate from the Open hierarchy
    for exactly that reason."""

    def __init__(self, field, depth):
        self.field = field
        self.depth = depth

    def contains(self, x):
        if x.is_zero():
            return True
        return rank_valuation(x, 1)[0] >= self.depth

    def is_full(self):
        return False

    def to_data(self):
        return {"kind": "rank-one-ball", "depth": self.depth}

    def __repr__(self):
        return "v_top>=%d" % self.depth


class MaxIdeal:
    """v > 0 for the full valuation vector: the maximal ideal of the
    higher local ring.  Not an open of the higher topology; a ratio minus
    one that stays outside it never becomes a principal unit."""

    def contains(self, x):
        return in_max_ideal(x)

    def to_data(self):
        return {"kind": "max-ideal"}

    def __repr__(self):
        return "v>0"


# --- certificates -------------------------------------------------------------

def _cutoff_of(target):
    if isinstance(target, int):
        return target
    if isinstance(target, FullOpen):
        return None
    if isinstance(target, BallOpen):
        return target.depth
    if isinstance(target, RankOneBall):
        return target.depth
    if isinstance(target, LevelsOpen):
        return target.cutoff
    raise UnsupportedOpenError("no certificate route into %r" % (target,))


class ZeroCert:
    kind = "identically-zero"

    def __init__(self, start=0):
        self.start = start

    def entry_index(self, target):
        return self.start

    def to_data(self):
        return {"kind": self.kind, "start": self.start}

    def __repr__(self):
        return "zero-from-%d" % self.start


class SlopeCert:
    """v_top(G_n) = slope*n + offset for every n > start, slope positive.
    Any target that is full above some cutoff is entered once the top
    valuation passes the cutoff."""

    kind = "valuation-slope"

    def __init__(self, field, slope, offset, start):
        self.field = field
        self.slope = slope
        self.offset = offset
        self.start = start

    def entry_index(self, target):
        c = _cutoff_of(target)
        if c is None:
            return self.start + 1
        need = Fraction(c - self.offset, self.slope)
        return max(self.start + 1, math.ceil(need))

    def to_data(self):
        return {"kind": self.kind, "slope": self.slope,
                "offset": self.offset, "start": self.start}

    def __repr__(self):
        return "v_top=%d*n%+d past %d" % (self.slope, self.offset, self.start)


class LevelsCert:
    """Slope zero along the top parameter: persistent digit levels each
    carry their own residue certificate, transient digits from climbing
    terms are waited out, and for a mixed top the entry index also clears
    every carry collision below the constrained window."""

    kind = "level-digits"

    def __init__(self, slices, certs, tail):
        self.slices = slices
        self.tail = tail
        self.start = slices.start
        self._certs = dict(certs)

    def _level_cert(self, i):
        sl = self.slices
        if i in self._certs:
            return self._certs[i]
        if i < sl.floor_all:
            return None
        if i >= sl.cap:
            if self.tail == "zero":
                return None
            if self.tail == "periodic":
                j = sl.period_base + (i - sl.period_base) % sl.period
                return self._level_cert(j)
            fam = sl.level_family(i)
            c = None
            if not fam.is_zero():
                sub = _higher_verdict(fam)
                if sub.kind != CONVERGES:
                    raise UnsupportedFamilyError(
                        "tail level %d lost its certificate" % i)
                c = sub.certificate
            self._certs[i] = c
            return c
        return None

    def entry_index(self, target):
        if isinstance(target, FullOpen):
            return self.start
        if not isinstance(target, LevelsOpen):
            raise UnsupportedOpenError(
                "level certificate answers level descriptors, not %r" % (target,))
        sl = self.slices
        n0 = self.start
        for i in range(sl.floor_all, target.cutoff):
            entry = target.level(i)
            if entry.is_full():
                continue
            n0 = max(n0, sl.transient_bound(i), sl.collide_bound(i))
            cert = self._level_cert(i)
            if cert is not None:
                n0 = max(n0, cert.entry_index(entry))
        return n0

    def to_data(self):
        levels = {str(i): c.to_data()
                  for i, c in sorted(self._certs.items()) if c is not None}
        return {"kind": self.kind, "start": self.start,
                "floor": self.slices.floor_all, "levels": levels,
                "moving": [[a, b] for a, b in self.slices.moving],
                "tail": self.tail}

    def __repr__(self):
        return "levels(%s, tail=%s)" % (
            ",".join(str(i) for i in sorted(self._certs)), self.tail)


class PairCert:
    """Both ratio directions of a unit comparison, certified separately."""

    kind = "two-sided"

    def __init__(self, forward, backward):
        self.forward = forward
        self.backward = backward
        self.start = max(forward.start, backward.start)

    def entry_index(self, target):
        return max(self.forward.entry_index(target),
                   self.backward.entry_index(target))

    def to_data(self):
        return {"kind": self.kind, "forward": self.forward.to_data(),
                "backward": self.backward.to_data()}

    def __repr__(self):
        return "pair(%r, %r)" % (self.forward, self.backward)


# --- witnesses ----------------------------------------------------------------

_SAMPLE_OFFSETS = (0, 1, 2, 4, 7)


class DivergenceWitness:
    """A neighborhood of zero that the family avoids from start on, with
    the membership checks at sampled indices recorded."""

    def __init__(self, family, target, start, note):
        self.family = family
        self.target = target
        self.start = start
        self.note = note
        self.samples = [(start + d,
                         not target.contains(family.evaluate(start + d)))
                        for d in _SAMPLE_OFFSETS]

    def checked(self):
        return all(ok for _, ok in self.samples)

    def to_data(self):
        return {"target": self.target.to_data(), "start": self.start,
                "samples": [[n, ok] for n, ok in self.samples],
                "note": self.note}

    def __repr__(self):
        return "avoids %r past n=%d (%s)" % (self.target, self.start, self.note)


def _diverge(family, target, start, note):
    w = DivergenceWitness(family, target, start, note)
    if not w.checked():
        return Verdict(UNKNOWN,
                       reason="witness failed its own samples: %s" % note)
    return Verdict(DIVERGES, witness=w)


# --- the decision -------------------------------------------------------------

def converges(family, limit=None, topology="higher"):
    """Decide F_n -> limit, returning a Verdict.

    topology 'higher' quantifies over the level opens; 'valuation' over
    rank one balls of the top valuation only.  limit may be an Element,
    a coefficient, or another family."""

    g = family
    if limit is not None:
        g = family - _as_family(family.field, limit)
    if topology not in ("higher", "valuation"):
        raise ValueError("topology is 'higher' or 'valuation'")
    return _higher_verdict(g, topology)


def _as_family(field, x):
    """x, a family, an Element or a coefficient, as a family over field."""
    if isinstance(x, SeqFamily):
        return x
    if isinstance(x, Element):
        return SeqFamily.of_element(x)
    return SeqFamily.constant(field, field.coerce_coeff(x))


def _higher_verdict(g, topology="higher"):
    """The verdict on G_n -> 0 in the higher or the valuation topology.
    Where balls of the top valuation are a neighborhood base of zero, over
    a rank one field or in the valuation topology, the slope of the top
    form decides alone: a positive slope converges, and otherwise G_n
    stays outside the ball one past its top valuation at start, a level
    open in the higher topology and a RankOneBall in the valuation one.
    Higher rank in the higher topology goes on to the sinking and level
    routes."""
    f = g.field
    if g.is_zero():
        return Verdict(CONVERGES, certificate=ZeroCert())
    if f.dim == 0:
        return _diverge(g, ZeroOpen(f), g.crossing_bound() + 1,
                        "nonzero over a discrete field")
    n_cross = g.crossing_bound()
    start = n_cross + 1
    vf = g.val_form()
    top = vf[-1]
    if top.a > 0:
        return Verdict(CONVERGES,
                       certificate=SlopeCert(f, top.a, top.b, n_cross))
    if topology == "valuation":
        c = top(start) + 1
        return _diverge(g, RankOneBall(f, c), start,
                        "top valuation stays below %d" % c)
    if f.dim == 1:
        c = top(start) + 1
        return _diverge(g, ball_at(f, c), start,
                        "valuation stays below %d" % c)
    if top.a < 0:
        return _sinking_verdict(g, vf, start)
    return _level_verdict(g, vf, n_cross)


def _sinking_verdict(g, vf, start):
    """Top valuation drifts downward.  The leading digit sits at level
    top(n) with valuation vector the lower forms, all affine, while a
    quadratic below rule asks for depth (cutoff - top(n))^2 + 1; past
    the vertex of the gap parabola the demand is never met again."""

    f = g.field
    top, bottom = vf[-1], vf[0]
    c0 = max(0, top(start) + 1)
    target = LevelsOpen(f, c0, {}, QuadraticRule(1, 0, 1))
    u = c0 - top.b
    qa = top.a * top.a
    qb = 2 * u * top.a + bottom.a
    qc = u * u + 1 - bottom.b
    n1 = first_nonneg(qa, -qb, qc - 1, start)
    return _diverge(g, target, n1,
                    "digit depth falls behind a quadratic window")


def _top_form(t, field):
    return t.val_forms(field)[-1]


def _level_verdict(g, vf, n_cross):
    """Slope zero along the top parameter.  Divide through by the eventual
    minimum of the denominator; what remains is a numerator with slopes
    >= 0 over 1 + flat + climbing tails, and each route below is exact."""

    f = g.field
    n_ref = n_cross + 1
    m = g.min_term(g.den, n_ref)
    num = [t.div(m) for t in g.num]
    rest = [t.div(m) for t in g.den if t.key != m.key]
    flat, climb = [], []
    for t in rest:
        tf = _top_form(t, f)
        if tf.a == 0 and tf.b == 0:
            flat.append(t)
        elif tf.a > 0 or tf.b > 0:
            climb.append(t)
        else:
            return Verdict(UNKNOWN,
                           reason="denominator term %r fails to climb" % (t,))
    mixedtop = isinstance(f, MixedExt)
    if mixedtop and flat:
        return Verdict(UNKNOWN, reason="denominator with a unit tail along p")
    if climb and (len(climb) > 1 or flat):
        return Verdict(UNKNOWN,
                       reason="denominator tail beyond a single climbing term")
    s = climb[0] if climb else None
    if s is not None and _top_form(s, f).a == 0 and f.residue().dim >= 2:
        return Verdict(UNKNOWN, reason="persistent tail over a rank two residue")
    if any(_top_form(t, f).a < 0 for t in num):
        raise UnsupportedFamilyError("sinking term inside a level analysis")
    sl = _Slices(f, num, flat, s, n_cross)
    certs = {}
    for i in range(sl.floor_all, sl.cap):
        fam = sl.level_family(i)
        if fam.is_zero():
            continue
        sub = _higher_verdict(fam)
        if sub.kind == DIVERGES:
            return _lift_diverge(g, sl, i, sub)
        if sub.kind == UNKNOWN:
            return Verdict(UNKNOWN, reason="level %d: %s" % (i, sub.reason))
        certs[i] = sub.certificate
    if sl.tail is None:
        return Verdict(UNKNOWN,
                       reason="denominator tail hides the escaping level")
    return Verdict(CONVERGES, certificate=LevelsCert(sl, certs, sl.tail))


def _lift_diverge(g, sl, i, sub):
    w = sub.witness
    target = LevelsOpen(g.field, i + 1, {i: w.target}, FullRule())
    start = max(sl.start, sl.transient_bound(i), sl.collide_bound(i), w.start)
    return _diverge(g, target, start, "level %d digit escapes" % i)


class _Slices:
    """Digit families of a slope free numerator P over 1 + flat + s.

    Terms of P with constant top form persist at their level; climbing
    terms pass through any fixed level and are waited out.  A flat
    denominator tail divides every level family.  A single climbing tail
    s spreads products P*(-s)^k upward; when its top form is constant the
    products persist and the analysis of their slopes decides whether the
    tail of levels stays certifiable.  Over a mixed top, levels are p
    digit slices and every coefficient contributes its carry stream.

    One ladder holds the sources of every level: rung 0 is the constant
    terms of P and rung k is rung k-1 times -s, built when a level first
    reaches it.  Rung k starts at level floor_const + k*s_step."""

    def __init__(self, field, num, flat, s, n_cross):
        self.field = field
        self.R = field.residue()
        self.mixed = isinstance(field, MixedExt)
        self.top = field.params()[-1]
        self.start = n_cross + 1
        self.flat = list(flat)
        self.s = s
        self.const = [t for t in num if _top_form(t, field).a == 0]
        self.moving = [(_top_form(t, field).a, _top_form(t, field).b)
                       for t in num if _top_form(t, field).a > 0]
        consts = [_top_form(t, field).b for t in self.const]
        self.floor_const = min(consts)
        self.max_const = max(consts)
        all_b = consts + [b for _, b in self.moving]
        self.floor_all = min(all_b)
        self.period_base = None
        self.period = None
        self.s_step = 0
        self._rungs = [self.const]
        self._streams = {}
        self._collides = {}
        self._setup_tail()

    # -- tail shape ------------------------------------------------------

    def _setup_tail(self):
        s = self.s
        if s is not None and _top_form(s, self.field).a > 0:
            # the tail climbs with n, so its products are transient; for
            # n past start the whole ladder sits above min(b) + k
            sa = _top_form(s, self.field).a
            sb = _top_form(s, self.field).b
            self.start = max(self.start, math.ceil(Fraction(1 - sb, sa)))
            self.moving.append((sa, self.floor_all + sb))
            self.s = s = None
        if s is None:
            if not self.mixed:
                self.tail = "zero"
                self.cap = self.max_const + 1
                return
            streams = [self._stream(t.coeff) for t in self.const]
            self.period_base = self.max_const + max(len(p) for p, _ in streams)
            self.period = math.lcm(*(len(c) for _, c in streams))
            if self.period > _DIGIT_PERIOD_MAX:
                raise PrecisionExhaustedError(
                    "the p-adic digits of %s repeat together only every %d "
                    "levels, past the bound %d" % (
                        ", ".join(str(t.coeff) for t in self.const),
                        self.period, _DIGIT_PERIOD_MAX))
            self.tail = "periodic"
            self.cap = self.period_base + self.period
            return
        self.s_step = sb = _top_form(s, self.field).b
        w = self._res_top(s)
        pjs = [self._res_top(t) for t in self.const]
        if w.a < 0:
            k1 = max(math.ceil(Fraction(pj.a + 1, -w.a)) for pj in pjs)
        else:
            k1 = 1 if self.mixed else 0
        if w.a > 0 and not self.mixed:
            k0 = max([0] + [math.ceil(Fraction(-pj.a, w.a)) + 1
                            for pj in pjs if pj.a <= 0])
            self.tail = "open"
            self.cap = self.max_const + sb * (k0 + 1) + 1
        elif w.a >= 0 and all(pj.a > 0 for pj in pjs):
            self.tail = "open"
            self.cap = self.max_const + sb + 1
        else:
            self.tail = None
            deep = self.max_const
            if self.mixed:
                deep = max(0, *(padic_val(t.coeff, self.field.prime())
                                + sum(map(len, self._stream(t.coeff)))
                                for t in self.const))
            self.cap = deep + sb * (k1 + 2) + 1

    def _res_top(self, t):
        return self._lower(t).val_forms(self.R)[-1]

    # -- per-level construction ------------------------------------------

    def _lower(self, t):
        exps = {k: fm for k, fm in t.exps.items() if k != self.top}
        return Term(t.coeff, exps, t.pa)

    def _sources(self, i):
        """The terms of every rung that reaches level i."""
        k = 0
        while self.floor_const + k * self.s_step <= i:
            if k == len(self._rungs):
                self._rungs.append([t.mul(self.s, neg=True)
                                    for t in self._rungs[-1]])
            yield from self._rungs[k]
            if self.s is None:
                return
            k += 1

    def level_family(self, i):
        """The level i piece of every source: over a series top the lowered
        term at top exponent i, over a mixed top the p digit at i - v_p."""
        terms, den = [], None
        if self.mixed:
            p = self.field.prime()
            for t in self._sources(i):
                e = padic_val(t.coeff, p)
                d = self._digit(t.coeff, i - e) if e <= i else 0
                if d:
                    terms.append(Term(self.R.coerce_coeff(d), t.exps))
        else:
            terms = [self._lower(t) for t in self._sources(i)
                     if _top_form(t, self.field).b == i]
        if self.flat:
            den = [Term(self.field.coeff_one())]
            den.extend(self._lower(t) for t in self.flat)
        return SeqFamily(self.R, terms, den)

    def _stream(self, c):
        """The p-adic digits of c's unit part as (prefix, cycle), walked
        until the remainder repeats, at most _DIGIT_PERIOD_MAX steps."""
        if c in self._streams:
            return self._streams[c]
        p = self.field.prime()
        u = Fraction(c) / Fraction(p) ** padic_val(c, p)
        seen = {}
        digs = []
        while u not in seen:
            if len(digs) == _DIGIT_PERIOD_MAX:
                raise PrecisionExhaustedError(
                    "the p-adic digits of %s do not repeat within %d levels"
                    % (c, _DIGIT_PERIOD_MAX))
            seen[u] = len(digs)
            d = rational_mod_p(u, p)
            digs.append(d)
            u = (u - d) / p
        k = seen[u]
        self._streams[c] = (digs[:k], digs[k:])
        return self._streams[c]

    def _digit(self, c, idx):
        prefix, cycle = self._stream(c)
        if idx < len(prefix):
            return prefix[idx]
        return cycle[(idx - len(prefix)) % len(cycle)]

    # -- entry bookkeeping -----------------------------------------------

    def transient_bound(self, i):
        """Index past which no climbing term still touches level i."""
        n0 = self.start
        for a, b in self.moving:
            if i >= b:
                n0 = max(n0, (i - b) // a + 1)
        return n0

    def collide_bound(self, i):
        """Mixed top only: index past which the t-monomials of all carry
        sources at levels <= i are pairwise distinct, so p digits add
        without cross-term carries and the level families are the digits."""
        if not self.mixed:
            return self.start
        if i in self._collides:
            return self._collides[i]
        p = self.field.prime()
        tname = self.field.series_params()[0]
        forms = [t.exps.get(tname) or _ZERO_FORM for t in self._sources(i)
                 if padic_val(t.coeff, p) <= i]
        n0 = self.start
        for f1, f2 in combinations(forms, 2):
            if f1.a != f2.a:
                cross = Fraction(f2.b - f1.b, f1.a - f2.a)
                n0 = max(n0, math.floor(cross) + 1)
        self._collides[i] = n0
        return n0


# --- units --------------------------------------------------------------------

def unit_converges(family, to, route="ratio"):
    """Unit convergence x_n -> to in the unit topology.

    route 'ratio' checks both ratio directions in the higher topology,
    x_n/to -> 1 and to/x_n -> 1; one sided control is not enough because
    the inversion is not sequentially continuous.  route 'decomposition'
    splits the ratio along the Parshin direct sum instead: the parameter
    exponents and the leading coefficient are discrete, so the ratio must
    eventually be a principal unit, and its principal part must fall to 0
    in the subspace topology.  The two routes agree on unit families."""

    f = family.field
    target = _as_family(f, to)
    one = SeqFamily.constant(f, f.coeff_one())
    if route == "decomposition":
        return _decomposition_verdict(family / target - one)
    if route != "ratio":
        raise ValueError("route is 'ratio' or 'decomposition'")
    fwd = _labelled("direct ratio", _higher_verdict(family / target - one))
    if fwd.kind == DIVERGES:
        return fwd
    bwd = _labelled("inverse ratio", _higher_verdict(target / family - one))
    if bwd.kind == DIVERGES:
        return bwd
    for v in (fwd, bwd):
        if v.kind == UNKNOWN:
            return v
    return Verdict(CONVERGES,
                   certificate=PairCert(fwd.certificate, bwd.certificate))


def _labelled(label, v):
    """v with the sub-decision it came from named in front of its witness
    note or its reason."""
    if v.kind == DIVERGES:
        v.witness.note = "%s: %s" % (label, v.witness.note)
    elif v.kind == UNKNOWN:
        v.reason = "%s: %s" % (label, v.reason)
    return v


def _decomposition_verdict(h):
    # h = ratio - 1; the ratio is eventually principal iff v(h) settles
    # strictly positive in the inverse lexicographic order
    if h.is_zero():
        return Verdict(CONVERGES, certificate=ZeroCert())
    lead = next((form for form in reversed(h.val_form()) if form.a or form.b),
                _ZERO_FORM)
    if (lead.a or lead.b) <= 0:
        # h_n stays outside v > 0: v(h_n) is 0, or its leading component
        # is negative, a sinking one from past its zero on
        start = h.crossing_bound() + 1
        if lead.a < 0:
            start = max(start, lead.b // -lead.a + 1)
        return _diverge(h, MaxIdeal(), start,
                        "ratio is not eventually a principal unit, so a "
                        "discrete summand of the decomposition stays off "
                        "the identity")
    return _labelled("principal part", _higher_verdict(h))


# --- continuity and closedness probes -----------------------------------------

def product_continuity_check(f, x, g, y):
    """Sequential continuity of multiplication on the decidable fragment:
    both factors must be verified convergent, then the symbolically
    expanded product family is decided against the product of the limits."""
    for fam, lim in ((f, x), (g, y)):
        v = converges(fam, limit=lim)
        if v.kind != CONVERGES:
            raise UnsupportedFamilyError(
                "factor is %s against its declared limit" % v.kind)
    return converges(f * g, limit=x * y)


def _mirror_shape(f):
    # t^a(n) u^-c(n) + t^-a(n) u^c(n), unit coefficients, over a two
    # dimensional series field
    field = f.field
    sp = field.series_params()
    if len(sp) != 2 or field.fq() is None:
        raise UnsupportedFamilyError(
            "the mirror-pair check lives over a two dimensional series field")
    u, t = sp
    if len(f.den) != 1 or f.den[0].exps or f.den[0].pa or len(f.num) != 2:
        raise UnsupportedFamilyError("family is not a mirror pair")
    dc = f.den[0].coeff
    pairs = []
    for tm in f.num:
        if tm.pa or tm.coeff != dc:
            raise UnsupportedFamilyError("mirror terms must be unit scaled")
        pairs.append((tm.exps.get(t, _ZERO_FORM), tm.exps.get(u, _ZERO_FORM)))
    (a1, mc1), (a2, c2) = pairs
    if (a1.a, a1.b) < (a2.a, a2.b):
        (a1, mc1), (a2, c2) = (a2, c2), (a1, mc1)
    a, c = a1, c2
    if a2 != -a or mc1 != -c:
        raise UnsupportedFamilyError("terms are not mirror images")
    for form in (a, c):
        if form.a < 0 or (form.a == 0 and form.b < 1):
            raise UnsupportedFamilyError("parameters must stay positive")
    return a, c


def seq_closed_check_C(f):
    """Families of antidiagonal mirror sums converge only with eventually
    constant parameters; anything else is defeated both against zero and
    against its own first value, which is the sequential closedness of the
    mirror set on this fragment."""
    a, c = _mirror_shape(f)
    if a.is_const() and c.is_const():
        return converges(f, limit=f.evaluate(0))
    out = None
    for target in (Element.zero(f.field), f.evaluate(0)):
        out = converges(f, limit=target)
        if out.kind != DIVERGES:
            return Verdict(UNKNOWN, reason="escape route left the fragment")
    return out
