"""Finitely presented basic opens of the higher topology.

An open of a field with a series shape is described along the expansion in
the top uniformizer: levels at or above `cutoff` are unconstrained, a finite
window pins named levels to opens one dimension down, and a closed rule
covers every level below the window.  Membership reads the element's
sparse digit stream (expansion.digits), the nonzero digits below `top`,
and stops at the first that its level rejects: every level the stream
skips or leaves holds 0, which every open contains.  `top` is one past
the last level that constrains anything: levels in [lo, cutoff) outside
the window are full, and so is every level below the window floor under
a full rule.  A Laurent polynomial over a series top, whose digits are
its t-slices, pays one step per term and never the cutoff.

Over Qp{{t}} the digits follow the plain section and grow geometrically
with the level, so an open shaped as a staircase is decided without them.
When every level from the element's top valuation up to `top` is a t-ball
or full, with depths that do not increase toward the cutoff, the open meets
the integers in a Zp[[t]]-lattice that no section changes, and
expansion.in_staircase tests the element's t-coefficients against it.
The shape alone selects the route; every other open depends on the section
and keeps the digit stream.  So the shapes of the element and of the open
select the route, never a flag or a size.  Everything here is finite data:
descriptors serialize to plain dicts and reload losslessly.

Plain valuation balls s^c O are only open when the coefficient side has
dimension zero; above that the deep balls (the same cutoff imposed at every
level, recursively) take their place, which is what keeps escape witnesses
and divergence certificates expressible at any dimension.

Opens are immutable values: nothing changes an open after __init__, and
two opens are equal when their fields and to_data() agree.  So the balls
are shared.  ball_at and deep_ball return one object per distinct (field,
depth), the depth's type included, at most _SHARED_MAX of each kept, the
least recently used dropped first; equal field descriptors share one ball,
and a ball that is not open raises again on every call.  The levels of the
rules AffineRule and QuadraticRule (without a scale) are these shared
balls, so what a ball works out about itself, its staircase floor
_stairs_from and its subgroup shape, is worked out once per process.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache

from .elements import Element
from .errors import (
    FieldMismatchError,
    ParseError,
    UnsupportedFieldError,
    UnsupportedOpenError,
    UnsupportedScalarError,
    need_int,
    need_str,
    require,
)
from .expansion import digits, in_staircase
from .fields import MixedExt, QpBase, SeriesExt
from .valuation import in_integer_ring, monomial_with_valuation, unit_decompose


class Open:
    def __init__(self, field):
        self.field = field

    def contains(self, x):
        raise NotImplementedError

    def is_full(self):
        return False

    def to_data(self):
        raise NotImplementedError

    def __eq__(self, other):
        return (isinstance(other, Open) and self.field == other.field
                and self.to_data() == other.to_data())

    def __ne__(self, other):
        return not self.__eq__(other)


class FullOpen(Open):
    def contains(self, x):
        return True

    def is_full(self):
        return True

    def to_data(self):
        return {"kind": "full"}

    def __repr__(self):
        return "full"


class ZeroOpen(Open):
    """{0}; open only where the field is discrete, at dimension zero."""

    def __init__(self, field):
        if field.dim != 0:
            raise UnsupportedFieldError("{0} is not open in %r" % field)
        super().__init__(field)

    def contains(self, x):
        return x.is_zero()

    def to_data(self):
        return {"kind": "zero"}

    def __repr__(self):
        return "zero"


class BallOpen(Open):
    """p^depth Z_p inside Q_p."""

    def __init__(self, field, depth):
        if not isinstance(field, QpBase):
            raise UnsupportedFieldError("coefficient balls live over Qp")
        super().__init__(field)
        self.depth = depth

    def contains(self, x):
        return x.is_zero() or x.val_vector()[0] >= self.depth

    def to_data(self):
        return {"kind": "ball", "depth": self.depth}

    def __repr__(self):
        return "p^%d*Zp" % self.depth


# --- below-the-window rules --------------------------------------------------

class FullRule:
    name = "full"

    def at(self, base, i, lo):
        return FullOpen(base)

    def to_data(self):
        return {"rule": "full"}


class ConstRule:
    name = "const"

    def __init__(self, entry):
        self.entry = entry

    def at(self, base, i, lo):
        return self.entry

    def to_data(self):
        return {"rule": "const", "open": self.entry.to_data()}


class AffineRule:
    """Level i gets the valuation ball of depth a*i + b one dimension down;
    needs that dimension to be one so the ball is open."""

    name = "affine"

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, base, i, lo):
        return ball_at(base, self.a * i + self.b)

    def to_data(self):
        return {"rule": "affine", "a": self.a, "b": self.b}


class PeriodicRule:
    """Walking down from the window floor, levels cycle through the given
    opens: level lo-1-j gets cycle[j mod k]."""

    name = "periodic"

    def __init__(self, cycle):
        self.cycle = list(cycle)

    def at(self, base, i, lo):
        return self.cycle[(lo - 1 - i) % len(self.cycle)]

    def to_data(self):
        return {"rule": "periodic", "cycle": [c.to_data() for c in self.cycle]}


class QuadraticRule:
    """Level i gets the deep ball of depth a*d^2 + l*d + c, d >= 1 the
    distance below the window floor, optionally translated by a monomial
    scale.  The superlinear growth is what defeats affine escape routes."""

    name = "quadratic"

    def __init__(self, a, l, c, scale=None):
        if a <= 0:
            raise UnsupportedOpenError("quadratic depth needs positive growth")
        self.a = a
        self.l = l
        self.c = c
        self.scale = scale

    def depth(self, d):
        return self.a * d * d + self.l * d + self.c

    def at(self, base, i, lo):
        ball = deep_ball(base, self.depth(lo - i))
        return _scale(ball, self.scale) if self.scale is not None else ball

    def to_data(self):
        out = {"rule": "quadratic", "a": self.a, "l": self.l, "c": self.c}
        if self.scale is not None:
            out["scale"] = repr(self.scale)
        return out


class LevelsOpen(Open):
    """Constraints on expansion digits along the top uniformizer.  Window
    entries are kept verbatim, full ones included: the window floor anchors
    the below rule, so an explicit full entry at the floor is meaningful."""

    def __init__(self, field, cutoff, window, below):
        if not isinstance(field, (SeriesExt, MixedExt)):
            raise UnsupportedFieldError("level descriptors need a series shape")
        super().__init__(field)
        base = field.residue()
        self.cutoff = cutoff
        self.window = dict(window)
        for i, entry in self.window.items():
            if i >= cutoff:
                raise UnsupportedOpenError("window level %d above cutoff" % i)
            if entry.field != base:
                raise FieldMismatchError("window entry lives over %r" % entry.field)
        self.below = below
        self.lo = min(self.window, default=cutoff)
        if isinstance(below, AffineRule):
            ball_at(base, 0)  # raises where those balls are not open
        entries = []
        if isinstance(below, ConstRule):
            entries = [below.entry]
        elif isinstance(below, PeriodicRule):
            entries = below.cycle
        for e in entries:
            if e.field != base:
                raise FieldMismatchError("rule entry lives over %r" % e.field)
        # one past the last level that constrains anything: levels in
        # [lo, cutoff) outside the window are full, and so is every level
        # below lo under a full rule
        tight = [i for i, e in self.window.items() if not e.is_full()]
        if tight:
            self.top = max(tight) + 1
        elif isinstance(below, FullRule) or (
                entries and all(e.is_full() for e in entries)):
            self.top = -_INF
        else:
            self.top = self.lo

    def level(self, i):
        if i >= self.cutoff:
            return FullOpen(self.field.residue())
        if i >= self.lo:
            return self.window.get(i, FullOpen(self.field.residue()))
        return self.below.at(self.field.residue(), i, self.lo)

    def contains(self, x):
        if x.is_zero():
            return True
        i0 = x.val_vector()[-1]
        if i0 >= self.top:
            return True
        if isinstance(self.field, MixedExt) and i0 >= self._stairs_from:
            depth = lambda i: _entry_depth(self.level(i0 + i))
            return in_staircase(x, self.top - i0, depth)
        # a level the stream skips holds 0, which every open contains
        return all(self.level(i).contains(d) for i, d in digits(x, self.top))

    @cached_property
    def _subgroup_shaped(self):
        """subgroup_shaped(self), decided once: every probed level is a
        subgroup, and along p the levels form a staircase all the way
        down."""
        if not all(subgroup_shaped(self.level(i)) for i in _probe(self)):
            return False
        return isinstance(self.field, SeriesExt) or self._stairs_from == -_INF

    @cached_property
    def _stairs_from(self):
        """The least level from which every level up to the top is a deep
        ball or full, with depths that do not increase toward the cutoff:
        a staircase; -inf when every level is, since below the probe the
        rule repeats the steps the probe shows.  Walks down from the top,
        so a full level under a ball ends the walk."""
        prev = -_INF
        for i in reversed(_probe(self)):
            d = _entry_depth(self.level(i))
            if d is None or d < prev:
                return i + 1
            prev = d
        return -_INF

    def to_data(self):
        return {
            "kind": "levels",
            "cutoff": self.cutoff,
            "window": {str(i): e.to_data() for i, e in sorted(self.window.items())},
            "below": self.below.to_data(),
        }

    def __repr__(self):
        bits = ["cutoff=%d" % self.cutoff]
        for i, e in sorted(self.window.items()):
            bits.append("%d:%r" % (i, e))
        bits.append("below=%s" % self.below.name)
        return "levels(%s)" % ", ".join(bits)


# --- constructors -------------------------------------------------------------

# How many balls of each constructor stay shared: seven battery-100 passes
# of every check suite ask for 216 distinct (field, depth) deep balls.
_SHARED_MAX = 512


@lru_cache(maxsize=_SHARED_MAX, typed=True)
def ball_at(field, depth):
    """The valuation ball of the top rank one valuation, where it is open."""
    if isinstance(field, QpBase):
        return BallOpen(field, depth)
    if isinstance(field, SeriesExt) and field.residue().dim == 0:
        return LevelsOpen(field, depth, {}, ConstRule(ZeroOpen(field.residue())))
    raise UnsupportedFieldError("the valuation ball is not open over %r" % field)


@lru_cache(maxsize=_SHARED_MAX, typed=True)
def deep_ball(field, depth):
    """Open imposing the same depth at every level all the way down."""
    if field.dim == 0:
        return ZeroOpen(field)
    if isinstance(field, QpBase):
        return BallOpen(field, depth)
    return LevelsOpen(field, depth, {}, ConstRule(deep_ball(field.residue(), depth)))


def deep_depth(U):
    """c when U is exactly the deep ball of depth c, else None.  At dimension
    one this is the plain valuation ball."""
    if isinstance(U, BallOpen):
        return U.depth
    if (isinstance(U, LevelsOpen) and not U.window
            and isinstance(U.below, ConstRule)):
        e = U.below.entry
        if isinstance(e, ZeroOpen):
            return U.cutoff
        if deep_depth(e) == U.cutoff:
            return U.cutoff
    return None


# --- depth probes -------------------------------------------------------------

def bottom_monomial(field, depth):
    """Parameter monomial supported on the deepest parameter only."""
    v = (depth,) + (0,) * (len(field.params()) - 1)
    return monomial_with_valuation(field, v)


def admitted_depth(U):
    """The least d >= min(structural depth, 0) with bottom^d in U, read
    off the descriptor."""
    if isinstance(U, BallOpen):
        return U.depth
    if isinstance(U, LevelsOpen):
        return _admitted_from(U, min(U.cutoff, 0))
    return _admitted_from(U, 0)


def _admitted_from(U, start):
    if isinstance(U, FullOpen):
        return start
    if isinstance(U, BallOpen):
        return max(start, U.depth)
    if not isinstance(U, LevelsOpen):
        raise UnsupportedOpenError("no admitted bottom depth in %r" % U)
    if U.field.dim > 1:
        # bottom^d is a unit along the top: its one digit sits at level 0
        return start if U.cutoff <= 0 else _admitted_from(U.level(0), start)
    # t^d is in U exactly where level d is full; below the floor one period
    # of the rule shows every level, inside the window each level is either
    # an entry or full
    for d in range(start, min(U.lo, start + _period(U.below))):
        if U.level(d).is_full():
            return d
    d = max(start, U.lo)
    while d < U.cutoff and not U.level(d).is_full():
        d += 1
    return d


def rejection_depth(U):
    """d + 1 for the highest d with bottom^d outside U; None when no bottom
    power escapes.  Deeper powers need not all escape: a cycle may let
    some of them back in."""
    if isinstance(U, FullOpen):
        return None
    if isinstance(U, ZeroOpen):
        return 1
    if isinstance(U, BallOpen):
        return U.depth
    if isinstance(U, LevelsOpen):
        if U.field.dim == 1:
            # the window, then one period of the rule below it
            for d in range(U.cutoff - 1, U.lo - 1 - _period(U.below), -1):
                if isinstance(U.level(d), ZeroOpen):
                    return d + 1
            return None
        if 0 >= U.cutoff:
            return None
        return rejection_depth(U.level(0))
    raise UnsupportedOpenError("no rejection analysis for %r" % U)


def _period(rule):
    return len(rule.cycle) if isinstance(rule, PeriodicRule) else 1


# --- witnesses ----------------------------------------------------------------

class EscapeWitness:
    """Concrete elements together with the membership facts that make them a
    counterexample; checked() re-verifies every claim."""

    def __init__(self, kind, elems, claims):
        self.kind = kind
        self.elems = elems
        self.claims = claims  # list of (description, bool)

    def checked(self):
        return all(ok for _, ok in self.claims)

    def to_data(self):
        return {
            "kind": self.kind,
            "elements": [repr(e) for e in self.elems],
            "claims": [{"fact": d, "holds": bool(ok)} for d, ok in self.claims],
        }

    def __repr__(self):
        return "%s(%s)" % (self.kind, ", ".join(repr(e) for e in self.elems))


def subgroup_escape_witness(U):
    """The smallest mirror pair t^a/b^c and b^c/t^a inside a basic open of
    a dimension >= 2 field, b the next parameter down.  The first element
    has negative top valuation, so the rank one integer ring contains no
    neighborhood of 0; when U is a subgroup the pair's sum also lies in U,
    so no basic subgroup avoids the set of such sums."""
    f = U.field
    if f.dim < 2 or not isinstance(U, (FullOpen, LevelsOpen)):
        return None
    # xp has top valuation a >= cutoff, so only level -a constrains the pair
    if isinstance(U, FullOpen):
        a = c = 1
    else:
        a = max(1, U.cutoff)
        c = _admitted_from(U.level(-a), 1)
    nv = len(f.params())
    xm = monomial_with_valuation(f, (c,) + (0,) * (nv - 2) + (-a,))
    xp = monomial_with_valuation(f, (-c,) + (0,) * (nv - 2) + (a,))
    s = xm + xp
    claims = [("negative side in U", U.contains(xm)),
              ("positive side in U", U.contains(xp)),
              ("mirror sum escapes the rank one integers",
               not in_integer_ring(s, 1))]
    if subgroup_shaped(U):
        claims.append(("mirror sum in U", U.contains(s)))
    return EscapeWitness("subgroup-escape", [xm, xp, s], claims)


def product_escape_witness(V1, V2, W):
    """x in V1 and y in V2 with x*y outside W, or None when no such pair
    exists against W (every reachable level is unconstrained below)."""
    f = W.field
    if f.dim < 2 or not isinstance(W, LevelsOpen):
        return None
    if not (isinstance(V1, (FullOpen, LevelsOpen))
            and isinstance(V2, (FullOpen, LevelsOpen))):
        return None
    i0 = 0 if V1.is_full() else V1.cutoff
    nv = len(f.params())
    # top-down, the first level rejecting a bottom power gives the witness:
    # a window level, one period below the floor, or the first quadratic
    # deep ball at depth >= 1 in every component above the bottom once
    # shifted by the scale
    rule = W.below
    levels = sorted(W.window, reverse=True) \
        + [W.lo - d for d in range(1, _period(rule) + 1)]
    if isinstance(rule, QuadraticRule):
        v = (0,) if rule.scale is None else rule.scale.val_vector()
        s = min(v[1:], default=0)
        levels.append(W.lo - first_nonneg(rule.a, rule.l, rule.c - 1 + s))
    for target in levels:
        j = target - i0
        rej = rejection_depth(W.level(target))
        if rej is None:
            continue
        if V2.is_full():
            m = 0
        else:
            v2lev = V2.level(j)
            m = 0 if v2lev.is_full() else admitted_depth(v2lev)
        x = monomial_with_valuation(f, (rej - 1 - m,) + (0,) * (nv - 2) + (i0,))
        y = monomial_with_valuation(f, (m,) + (0,) * (nv - 2) + (j,))
        w = EscapeWitness("product-escape", [x, y],
                          [("first factor in V1", V1.contains(x)),
                           ("second factor in V2", V2.contains(y)),
                           ("product outside W", not W.contains(x * y))])
        if w.checked():
            return w
    return None


# --- scaling ------------------------------------------------------------------

def scale_open(U, y):
    """Descriptor of y * U for y a coefficient times parameter monomial:
    the tested way into _scale, which scaled quadratic rules also use."""
    parts = unit_decompose(y)
    if not parts.principal.is_zero():
        raise UnsupportedScalarError("scaling needs a monomial scalar, got %r" % y)
    return _scale(U, y)


def _down_scalar(field, y):
    """Push a monomial scalar one dimension down: same coefficient content,
    top exponent dropped."""
    parts = unit_decompose(y)
    base = field.residue()
    v = y.val_vector()
    if base.char() > 0:
        theta = parts.theta_scalar
    else:
        theta = parts.theta.num[(0,) * len(field.series_params())]
    return Element.from_coeff(base, theta) * monomial_with_valuation(base, v[:-1])


def _scale(U, y):
    f = U.field
    if y.field != f:
        raise FieldMismatchError("scalar lives over %r" % y.field)
    if isinstance(U, (FullOpen, ZeroOpen)):
        return U
    v = y.val_vector()
    if isinstance(U, BallOpen):
        return BallOpen(f, U.depth + v[0])
    if not isinstance(U, LevelsOpen):
        raise UnsupportedScalarError("cannot scale %r" % U)
    e = v[-1]
    if isinstance(f, MixedExt):
        # p-adic digits only transport along p shifts; a unit part other
        # than 1 introduces carries unless the open is negation closed
        parts = unit_decompose(y)
        if not (parts.theta - 1).is_zero() and not subgroup_shaped(U):
            raise UnsupportedScalarError(
                "unit part %r moves digits of %r by carries" % (parts.theta, U))
        ydown = monomial_with_valuation(f.residue(), v[:-1])
    else:
        ydown = _down_scalar(f, y)
    window = {i + e: _scale(entry, ydown) for i, entry in U.window.items()}
    below = _scale_rule(U.below, e, ydown, v)
    return LevelsOpen(f, U.cutoff + e, window, below)


def _scale_rule(rule, e, ydown, v):
    if isinstance(rule, FullRule):
        return rule
    if isinstance(rule, ConstRule):
        return ConstRule(_scale(rule.entry, ydown))
    if isinstance(rule, AffineRule):
        # level i now holds what level i-e held, shifted by the depth of the
        # pushed-down scalar
        return AffineRule(rule.a, rule.b - rule.a * e + v[-2])
    if isinstance(rule, PeriodicRule):
        return PeriodicRule([_scale(c, ydown) for c in rule.cycle])
    if isinstance(rule, QuadraticRule):
        scale = ydown if rule.scale is None else rule.scale * ydown
        return QuadraticRule(rule.a, rule.l, rule.c, scale)
    raise UnsupportedScalarError("cannot scale rule %r" % rule)


# --- intersection -------------------------------------------------------------

def intersect_open(U, V):
    """U meet V where no level needs reading: a full side, {0}, or two deep
    balls, which are nested, so the deeper one is the meet.  Every other
    pair is refused.  No verdict needs it; the tests and the benchmark's
    tracer call it by name."""
    if U.field != V.field:
        raise FieldMismatchError("opens over %r and %r" % (U.field, V.field))
    if U.is_full():
        return V
    if V.is_full():
        return U
    if isinstance(U, ZeroOpen) or isinstance(V, ZeroOpen):
        return ZeroOpen(U.field)
    du, dv = deep_depth(U), deep_depth(V)
    if du is None or dv is None:
        raise UnsupportedOpenError("cannot intersect %r with %r" % (U, V))
    return U if du >= dv else V


# --- depth arithmetic ---------------------------------------------------------

_INF = float("inf")


def first_nonneg(c2, c1, c0, start=1):
    """For c2 > 0, the least integer n >= start and past the vertex with
    c2*n^2 + c1*n + c0 >= 0; the value stays nonnegative from there on."""
    # round the larger root (-c1 + sqrt(disc)) / 2c2 up from isqrt, which
    # falls short of sqrt(disc) by less than one: at most one step remains
    disc = c1 * c1 - 4 * c2 * c0
    n = -((c1 - math.isqrt(max(disc, 0))) // (2 * c2))
    if c2 * n * n + c1 * n + c0 < 0:
        n += 1
    return max(start, n)


def _entry_depth(U):
    """Position of U in the depth lattice of balls one dimension down: deep
    balls by their depth, the extremes at +-infinity stand in for {0} and
    the full field; None for shapes with no single depth."""
    if U.is_full():
        return -_INF
    if isinstance(U, ZeroOpen):
        return _INF
    return deep_depth(U)


# --- serialization ------------------------------------------------------------

def _window_level(key):
    # to_data writes each window level as its decimal string
    if not (isinstance(key, str) and re.fullmatch(r"-?[0-9]+", key)):
        raise ParseError("window key %r must be an integer" % (key,))
    return int(key)


def open_from_data(field, data):
    need = lambda key: require(data, key, "open descriptor")
    integer = lambda key: need_int(data, key, "open descriptor")
    kind = need("kind")
    if kind == "full":
        return FullOpen(field)
    if kind == "zero":
        return ZeroOpen(field)
    if kind == "ball":
        return BallOpen(field, integer("depth"))
    if kind == "levels":
        base = field.residue()
        window = need("window")
        if not isinstance(window, dict):
            raise ParseError("open descriptor 'window' must be an object, not %r"
                             % (window,))
        window = {_window_level(i): open_from_data(base, d)
                  for i, d in window.items()}
        return LevelsOpen(field, integer("cutoff"), window,
                          _rule_from_data(base, need("below")))
    raise UnsupportedOpenError("unknown descriptor kind %r" % kind)


def _rule_from_data(base, data):
    need = lambda key: require(data, key, "rule descriptor")
    integer = lambda key: need_int(data, key, "rule descriptor")
    r = need("rule")
    if r == "full":
        return FullRule()
    if r == "const":
        return ConstRule(open_from_data(base, need("open")))
    if r == "affine":
        return AffineRule(integer("a"), integer("b"))
    if r == "periodic":
        cycle = need("cycle")
        if not (isinstance(cycle, list) and cycle):
            raise ParseError("rule descriptor 'cycle' must be a nonempty list, not %r"
                             % (cycle,))
        return PeriodicRule([open_from_data(base, d) for d in cycle])
    if r == "quadratic":
        scale = None
        if "scale" in data:
            from .parsing import parse_element
            scale = parse_element(base, need_str(data, "scale",
                                                 "rule descriptor"))
        return QuadraticRule(integer("a"), integer("l"), integer("c"), scale)
    raise UnsupportedOpenError("unknown rule %r" % r)


# --- structure tests ----------------------------------------------------------

def subgroup_shaped(U):
    """Closed under addition and negation.  Along a series top this is
    levelwise; along p the digit carries force the depth profile to be
    nonincreasing with the level.  Conservative: a False only means the
    shape analysis could not certify the group structure.  A level open
    decides it once and keeps the answer."""
    if isinstance(U, (FullOpen, ZeroOpen, BallOpen)):
        return True
    return isinstance(U, LevelsOpen) and U._subgroup_shaped


def _probe(U):
    """The levels of U up to U.top that show every step of its depth
    profile.  Below the floor a rule repeats its shape: two whole periods,
    and at least eight levels, show every step between consecutive levels,
    the wrap-around included, and the steps of a quadratic only grow with
    the distance."""
    lo = U.lo - max(8, 2 * _period(U.below) + 1)
    return range(lo, max(U.top, lo))


def residue_image(U):
    """Image of U intersected with the rank one integer ring under the
    residue map."""
    f = U.field
    base = f.residue()
    if base is None:
        raise UnsupportedFieldError("%r has no residue field" % f)
    if isinstance(U, FullOpen):
        return FullOpen(base)
    if isinstance(U, BallOpen):
        return FullOpen(base) if U.depth <= 0 else ZeroOpen(base)
    if isinstance(U, LevelsOpen):
        return U.level(0)
    raise UnsupportedOpenError("no residue image for %r" % U)


# --- random battery -----------------------------------------------------------

def random_open(rng, field, budget=2):
    """Seeded random basic open."""
    if field.dim == 0:
        return rng.choice([FullOpen(field), ZeroOpen(field)])
    if isinstance(field, QpBase):
        return BallOpen(field, rng.randint(-3, 4)) if rng.random() < 0.8 \
            else FullOpen(field)
    if rng.random() < 0.08:
        return FullOpen(field)
    if rng.random() < 0.15:
        return deep_ball(field, rng.randint(-1, 3))
    base = field.residue()
    cutoff = rng.randint(-2, 4)
    window = {}
    for i in rng.sample(range(cutoff - 3, cutoff),
                        k=rng.randint(0, min(3, budget + 1))):
        window[i] = random_open(rng, base, budget - 1)
    below = _random_rule(rng, base, budget)
    return LevelsOpen(field, cutoff, window, below)


def _random_ballish(rng, base):
    if rng.random() < 0.25:
        return FullOpen(base)
    return deep_ball(base, rng.randint(-3, 4))


def _random_rule(rng, base, budget):
    ball_legal = isinstance(base, QpBase) or (
        isinstance(base, SeriesExt) and base.residue().dim == 0)
    choices = ["full", "const"]
    if ball_legal:
        choices.append("affine")
    if ball_legal or base.dim == 0:
        choices.append("periodic")
    if base.dim >= 1:
        choices.append("quadratic")
    kind = rng.choice(choices)
    if kind == "full":
        return FullRule()
    if kind == "const":
        return ConstRule(random_open(rng, base, budget - 1))
    if kind == "affine":
        return AffineRule(rng.randint(-2, 2), rng.randint(-2, 3))
    if kind == "periodic":
        return PeriodicRule([_random_ballish(rng, base)
                             for _ in range(rng.randint(2, 3))])
    return QuadraticRule(rng.randint(1, 2), 0, rng.randint(-1, 2))
