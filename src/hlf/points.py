"""Rational points of affine schemes over sequential rings.

A base ring is a stop in the tower F > O at rank one > ... > O at full
rank; each stop is local, has open units and sequentially continuous
inversion on units, so charts glue.  An affine presentation fixes
variables and exact polynomial generators, membership is literal
vanishing plus integrality, and convergence of point families is decided
coordinatewise: the product and subspace topologies have the same
convergent sequences, and sequential saturation does not add any, so the
componentwise verdict is the verdict.
"""

from itertools import product

from .coeff import power
from .convergence import CONVERGES, DIVERGES, UNKNOWN, converges
from .elements import Element
from .errors import (ArityMismatchError, FieldMismatchError, ParseError,
                     TargetViolationError, UnsupportedFieldError, need_list,
                     need_list_of_str, need_str, require)
from .expansion import residue
from .fields import parse_field
from .parsing import ElementHandler, ExprParser, as_element
from .sequences import SeqFamily
from .valuation import in_integer_ring, rank_valuation

YES = "YES"
NO = "NO"
OUT_OF_CHART = "OUT_OF_CHART"


# --- base rings ---------------------------------------------------------------

class BaseRing:
    """Rank 0 selects the field itself, rank r the subring of elements
    whose top r valuation components are nonnegative.

    Charted constructions need the ring to be local with open unit group
    and sequentially continuous inversion on units; every stop in the
    tower satisfies all three, so any rank may carry charts."""

    def __init__(self, field, rank=0):
        if rank < 0 or rank > field.dim:
            raise UnsupportedFieldError(
                "rank %d ring of a dimension %d field" % (rank, field.dim))
        self.field = field
        self.rank = rank

    def contains(self, x):
        if x.field != self.field:
            raise FieldMismatchError("element over %r, ring over %r"
                                     % (x.field, self.field))
        return self.rank == 0 or in_integer_ring(x, self.rank)

    def is_unit(self, x):
        if x.is_zero():
            return False
        if self.rank == 0:
            return True
        return not any(rank_valuation(x, self.rank))

    def describe(self):
        if self.rank == 0:
            return repr(self.field)
        if self.rank == self.field.dim:
            return "ints(%r)" % self.field
        return "ints(%r, %d)" % (self.field, self.rank)

    def __eq__(self, other):
        return (isinstance(other, BaseRing) and other.field == self.field
                and other.rank == self.rank)

    def __repr__(self):
        return self.describe()


def parse_base_ring(text):
    if not isinstance(text, str):
        raise ParseError("a base ring must be a string, not %r" % (text,))
    s = text.strip()
    if not s.startswith("ints("):
        return BaseRing(parse_field(s), 0)
    if not s.endswith(")"):
        raise ParseError("unbalanced base ring string %r" % text)
    inner = s[5:-1]
    rank = None
    if "," in inner:
        head, tail = inner.rsplit(",", 1)
        if tail.strip().isdigit():
            inner, rank = head, int(tail)
    field = parse_field(inner.strip())
    return BaseRing(field, field.dim if rank is None else rank)


# --- exact polynomials --------------------------------------------------------

def _key_mul(k1, k2):
    exps = dict(k1)
    for name, e in k2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


class Poly:
    """Polynomial in named variables with Element coefficients.  Terms are
    keyed by sorted (name, exponent) tuples; the coefficient field is
    exact, so zero tests and equality are termwise."""

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        for key, c in (terms or {}).items():
            if not c.is_zero():
                self.terms[key] = c

    @classmethod
    def const(cls, field, c):
        return cls(field, {(): c})

    @classmethod
    def var(cls, field, name, e=1):
        return cls(field, {((name, e),): Element.one(field)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not key for key in self.terms)

    def const_value(self):
        return self.terms.get((), Element.zero(self.field))

    def vars_used(self):
        return {name for key in self.terms for name, _ in key}

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms[key] + c if key in terms else c
        return Poly(self.field, terms)

    def __neg__(self):
        return Poly(self.field, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _key_mul(k1, k2)
                c = c1 * c2
                terms[key] = terms[key] + c if key in terms else c
        return Poly(self.field, terms)

    def __pow__(self, k):
        # no inverse, so a negative k is refused
        return power(self, k, Poly.const(self.field, Element.one(self.field)))

    def scale(self, c):
        return Poly(self.field, {k: v * c for k, v in self.terms.items()})

    def __truediv__(self, other):
        # only a constant divides; a zero one raises ZeroDivisionError
        if not other.is_const():
            raise ParseError("division by a polynomial in the variables")
        return self.scale(other.const_value().inverse())

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def evaluate(self, env, lift=None):
        """Value at env, a mapping from variable names.  lift carries the
        Element coefficients into the value domain; identity by default.
        The sum starts at the first term: adding it to zero would give an
        equal value with the same entries."""
        lift = lift or (lambda c: c)
        total = None
        for key, c in self.terms.items():
            v = lift(c)
            for name, e in key:
                x = env[name]
                v = v * (x if e == 1 else x ** e)
            total = v if total is None else total + v
        return lift(Element.zero(self.field)) if total is None else total

    def substitute(self, repl):
        """Plug polynomials in for variables; unmapped names stay."""
        env = {n: repl.get(n, Poly.var(self.field, n))
               for n in self.vars_used()}
        return self.evaluate(env, lambda c: Poly.const(self.field, c))

    def map_coeffs(self, fn, field):
        return Poly(field, {k: fn(c) for k, c in self.terms.items()})

    def split_var(self, name):
        """Components by the exponent of one variable, that variable
        removed from the keys."""
        out = {}
        for key, c in self.terms.items():
            e = dict(key).get(name, 0)
            rest = tuple((n, d) for n, d in key if n != name)
            out.setdefault(e, {})[rest] = c
        return {e: Poly(self.field, terms) for e, terms in out.items()}

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            c = self.terms[key]
            vs = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in key)
            cs = repr(c)
            if any(ch in cs for ch in " +-/") and not cs.startswith("("):
                cs = "(%s)" % cs
            if not vs:
                parts.append(cs)
            elif c == Element.one(self.field):
                parts.append(vs)
            else:
                parts.append("%s*%s" % (cs, vs))
        return " + ".join(parts)

    def __repr__(self):
        return self.text()


class PolyHandler:
    """Names resolve to declared variables first, then through the element
    handler, so coefficients may use the full Laurent grammar."""

    def __init__(self, field, variables):
        self.field = field
        self.vars = set(variables)
        self.elem = ElementHandler(field)

    def _const(self, x):
        return Poly.const(self.field, as_element(x))

    def const(self, k):
        return self._const(self.elem.const(k))

    def int_power(self, base, a, b, pos):
        return self._const(self.elem.int_power(base, a, b, pos))

    def powered(self, name, a, b, pos):
        if name not in self.vars:
            return self._const(self.elem.powered(name, a, b, pos))
        if a != 0:
            raise ParseError("n is only allowed in sequence exponents", pos=pos)
        if b < 0:
            raise ParseError("negative power of variable %r" % name, pos=pos)
        if b == 0:
            return self._const(Element.one(self.field))
        return Poly.var(self.field, name, b)

    def node_power(self, node, b, pos):
        if node.is_const():
            return self._const(self.elem.node_power(node.const_value(), b, pos))
        if b < 0:
            raise ParseError("negative power of a polynomial", pos=pos)
        return node ** b


def parse_poly(field, variables, text):
    return ExprParser(text, PolyHandler(field, variables)).parse()


class RatMap:
    """Quotient of polynomials.  Chart transitions are polynomial only
    after localizing, so they evaluate through division and are defined
    wherever the denominator is invertible in the value domain.
    Evaluating at RatMaps, with RatMap.of lifting the constants, composes
    maps; equality is by cross-multiplication, so quotients are never
    reduced."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @classmethod
    def of(cls, p):
        """p over 1."""
        return cls(p, Poly.const(p.field, Element.one(p.field)))

    def __add__(self, other):
        return RatMap(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __neg__(self):
        return RatMap(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatMap(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return RatMap(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        one = RatMap.of(Poly.const(self.num.field, Element.one(self.num.field)))
        return power(one / self if k < 0 else self, abs(k), one)

    def __eq__(self, other):
        if not isinstance(other, RatMap):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def evaluate(self, env, lift=None):
        return self.num.evaluate(env, lift) / self.den.evaluate(env, lift)

    def vars_used(self):
        return self.num.vars_used() | self.den.vars_used()

    def text(self):
        if self.den.is_const() and self.den.const_value().is_one():
            return self.num.text()
        return "(%s)/(%s)" % (self.num.text(), self.den.text())

    def __repr__(self):
        return self.text()


class RatHandler:
    """Same grammar as PolyHandler with division and negative variable
    powers allowed; nodes are polynomial quotients."""

    def __init__(self, field, variables):
        self.ph = PolyHandler(field, variables)

    def const(self, k):
        return RatMap.of(self.ph.const(k))

    def int_power(self, base, a, b, pos):
        return RatMap.of(self.ph.int_power(base, a, b, pos))

    def powered(self, name, a, b, pos):
        if name in self.ph.vars and b < 0:
            return self.powered(name, a, -b, pos) ** -1
        return RatMap.of(self.ph.powered(name, a, b, pos))

    def node_power(self, node, b, pos):
        if b < 0 and node.num.is_zero():
            raise ParseError("negative power of zero", pos=pos)
        return node ** b


def parse_rat(field, variables, text):
    return ExprParser(text, RatHandler(field, variables)).parse()


# --- presentations and points -------------------------------------------------

class AffinePresentation:
    """Variables and ideal generators housing V(I) inside affine space
    over the base ring."""

    def __init__(self, ring, variables, gens):
        self.ring = ring
        self.variables = tuple(variables)
        self.gens = [parse_poly(ring.field, self.variables, g)
                     if isinstance(g, str) else g for g in gens]
        for g in self.gens:
            extra = g.vars_used() - set(self.variables)
            if extra:
                raise ArityMismatchError("generator uses undeclared %s"
                                         % ", ".join(sorted(extra)))

    @property
    def arity(self):
        return len(self.variables)

    def env(self, coords):
        if len(coords) != self.arity:
            raise ArityMismatchError("expected %d coordinates, got %d"
                                     % (self.arity, len(coords)))
        return dict(zip(self.variables, coords))

    def to_data(self):
        return {"ring": self.ring.describe(),
                "vars": list(self.variables),
                "gens": [g.text() for g in self.gens]}

    def __repr__(self):
        return "V(%s) in A^%d over %s" % (
            ", ".join(g.text() for g in self.gens) or "0",
            self.arity, self.ring.describe())


def presentation_from_data(data):
    ring = parse_base_ring(require(data, "ring", "scheme"))
    return AffinePresentation(
        ring, need_list_of_str(data, "vars", "scheme"),
        need_list_of_str(data, "gens", "scheme", optional=True))


class Point:
    def __init__(self, coords, chart=0):
        self.coords = tuple(coords)
        self.chart = chart

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.chart == other.chart and self.coords == other.coords

    def __repr__(self):
        return "(%s)@%d" % (", ".join(repr(c) for c in self.coords),
                            self.chart)


def member_points(X, coords):
    """YES when every generator vanishes exactly and every coordinate lies
    in the base ring; membership is decidable on fractions, so NO is the
    only other answer."""
    env = X.env(coords)
    if not all(X.ring.contains(c) for c in coords):
        return NO
    for g in X.gens:
        if not g.evaluate(env).is_zero():
            return NO
    return YES


def in_principal_open(X, f, x):
    """Whether x lands in the locus where f is a unit of the base ring;
    over the integer rings that is vanishing of the tracked valuation
    components, units being exactly the complement of the maximal ideal."""
    if isinstance(f, str):
        f = parse_poly(X.ring.field, X.variables, f)
    return X.ring.is_unit(f.evaluate(X.env(x.coords)))


# --- point sequence families --------------------------------------------------

class PointSeqFamily:
    def __init__(self, families, limit):
        self.families = tuple(families)
        self.limit = limit


class PointVerdict:
    """Componentwise verdicts and their conjunction.  A diverging
    coordinate defeats the whole family inside the product open that is
    full everywhere else, so the witness index is recorded."""

    def __init__(self, kind, parts, against=None, rest=None):
        self.kind = kind
        self._parts = parts
        self._rest = rest
        self.against = against

    @classmethod
    def conjoin(cls, parts):
        """DIVERGES beats UNKNOWN beats CONVERGES; the first diverging part
        is the one recorded."""
        kinds = [p.kind for p in parts]
        if DIVERGES in kinds:
            return cls(DIVERGES, parts, kinds.index(DIVERGES))
        return cls(UNKNOWN if UNKNOWN in kinds else CONVERGES, parts)

    @classmethod
    def decide(cls, pairs):
        """conjoin of converges(fam, limit=lim) over the (fam, lim) pairs,
        decided in order up to the first DIVERGES, which fixes kind and
        against; the pairs after it are decided when parts is first read."""
        pairs = iter(pairs)
        parts = []
        for fam, lim in pairs:
            parts.append(converges(fam, limit=lim))
            if parts[-1].kind == DIVERGES:
                return cls(DIVERGES, parts, len(parts) - 1, pairs)
        return cls.conjoin(parts)

    @property
    def parts(self):
        if self._rest is not None:
            # kept as a tuple first, so a read that raises raises again
            self._rest = tuple(self._rest)
            self._parts += [converges(fam, limit=lim)
                            for fam, lim in self._rest]
            self._rest = None
        return self._parts

    def to_data(self):
        d = {"verdict": self.kind,
             "coordinates": [p.to_data() for p in self.parts]}
        if self.against is not None:
            d["against"] = self.against
        return d

    def __repr__(self):
        if self.against is not None:
            return "%s(coordinate %d)" % (self.kind, self.against)
        return self.kind


def point_seq_converges(X, f):
    """Convergence of a coordinate family toward its limit point, decided
    coordinate by coordinate up to the first diverging one."""
    if len(f.families) != X.arity:
        raise ArityMismatchError("expected %d coordinate families, got %d"
                                 % (X.arity, len(f.families)))
    if member_points(X, f.limit.coords) != YES:
        raise TargetViolationError("limit point misses the presentation")
    env = dict(zip(X.variables, f.families))
    field = X.ring.field
    for g in X.gens:
        val = g.evaluate(env, lift=lambda c: SeqFamily.of_element(c))
        if not val.is_zero():
            raise TargetViolationError(
                "family leaves the scheme: %s does not vanish" % g.text())
    return PointVerdict.decide(zip(f.families, f.limit.coords))


def product_presentation(X, Y):
    """X x Y inside the concatenated affine space; variable names must not
    collide."""
    if X.ring != Y.ring:
        raise FieldMismatchError("factors live over different base rings")
    clash = set(X.variables) & set(Y.variables)
    if clash:
        raise ArityMismatchError("shared variable names %s"
                                 % ", ".join(sorted(clash)))
    return AffinePresentation(X.ring, X.variables + Y.variables,
                              X.gens + Y.gens)


# --- charted covers -----------------------------------------------------------

class Overlap:
    """Transition out of one chart: where the localizer is a unit, the
    maps give the coordinates in the other chart."""

    def __init__(self, unit, maps):
        self.unit = unit
        self.maps = tuple(maps)


class ChartedScheme:
    """Finitely many affine charts over a local base ring.  Points carry a
    chart index; a point transfers along a declared overlap exactly when
    the localizer is a unit at it, which over a local ring is how every
    rational point lands inside some chart.  overlaps maps (i, j) to the
    texts (unit, [map, ...]) in the variables of chart i."""

    def __init__(self, ring, charts, overlaps):
        self.ring = ring
        self.charts = list(charts)
        self.overlaps = {}
        for (i, j), (unit, maps) in overlaps.items():
            variables = self.charts[i].variables
            self.overlaps[(i, j)] = Overlap(
                parse_poly(ring.field, variables, unit),
                [parse_rat(ring.field, variables, m) for m in maps])
        self._check_transitions()

    def _check_transitions(self):
        """Exact gluing in the ambient polynomial rings.  With the identity
        as phi_ii, every declared (i, j) and (j, k) with k == i or (i, k)
        declared must have phi_jk o phi_ij == phi_ik: inverse pairs and the
        cocycle at once.  The chart generators are ignored, which is
        sufficient but refuses a gluing that holds only modulo them."""
        field = self.ring.field
        maps = {(i, i): tuple(RatMap.of(Poly.var(field, v))
                              for v in c.variables)
                for i, c in enumerate(self.charts)}
        for (i, j), ov in self.overlaps.items():
            if (j, i) not in self.overlaps:
                raise TargetViolationError(
                    "overlap %d-%d lacks its reverse transition" % (i, j))
            if len(ov.maps) != self.charts[j].arity:
                raise ArityMismatchError(
                    "transition %d-%d has %d maps for %d coordinates"
                    % (i, j, len(ov.maps), self.charts[j].arity))
            maps[(i, j)] = ov.maps
        for (i, j), (j2, k) in product(sorted(self.overlaps), repeat=2):
            if j2 != j or (i, k) not in maps:
                continue
            env = dict(zip(self.charts[j].variables, maps[(i, j)]))
            try:
                composite = tuple(m.evaluate(env, lambda c: RatMap.of(
                    Poly.const(field, c))) for m in maps[(j, k)])
            except ZeroDivisionError:
                raise TargetViolationError(
                    "transitions %d-%d-%d: the composite's denominator "
                    "vanishes" % (i, j, k)) from None
            if composite != maps[(i, k)]:
                raise TargetViolationError(
                    "transitions %d-%d-%d do not compose to %d-%d"
                    % (i, j, k, i, k))

    def transfer(self, x, j):
        """Point in chart j, or OUT_OF_CHART when the localizer fails to
        be a unit; a declared transition is then applied and its image is
        verified against the target chart."""
        if x.chart == j:
            return x
        key = (x.chart, j)
        if key not in self.overlaps:
            raise UnsupportedFieldError("no declared overlap %d-%d" % key)
        ov = self.overlaps[key]
        src = self.charts[x.chart]
        if not in_principal_open(src, ov.unit, x):
            return OUT_OF_CHART
        env = src.env(x.coords)
        try:
            coords = tuple(m.evaluate(env) for m in ov.maps)
        except ZeroDivisionError:
            raise TargetViolationError("transition %d-%d undefined at %r"
                                       % (x.chart, j, x)) from None
        if member_points(self.charts[j], coords) != YES:
            raise TargetViolationError("transition image misses chart %d" % j)
        return Point(coords, chart=j)

    def transfer_family(self, f, i, j):
        """Coordinate families pushed through a transition, with the limit
        transferred alongside; None when the limit leaves the overlap.  Only
        tests call it so far: convergence across charts builds on it."""
        lim = self.transfer(f.limit, j)
        if lim == OUT_OF_CHART:
            return None
        ov = self.overlaps[(i, j)]
        src = self.charts[i]
        env = dict(zip(src.variables, f.families))
        fams = [m.evaluate(env, lift=lambda c: SeqFamily.of_element(c))
                for m in ov.maps]
        return PointSeqFamily(fams, lim)

    def to_data(self):
        return {"ring": self.ring.describe(),
                "charts": [{"vars": list(c.variables),
                            "gens": [g.text() for g in c.gens]}
                           for c in self.charts],
                "overlaps": [{"from": i, "to": j,
                              "unit": ov.unit.text(),
                              "map": [m.text() for m in ov.maps]}
                             for (i, j), ov in sorted(self.overlaps.items())]}


def scheme_from_data(data):
    ring = parse_base_ring(require(data, "ring", "scheme"))
    charts = [AffinePresentation(
                  ring, need_list_of_str(c, "vars", "chart"),
                  need_list_of_str(c, "gens", "chart", optional=True))
              for c in need_list(data, "charts", "scheme")]
    overlaps = {}
    for o in need_list(data, "overlaps", "scheme", optional=True):
        ends = (require(o, "from", "overlap"), require(o, "to", "overlap"))
        if not all(type(e) is int and 0 <= e < len(charts) for e in ends):
            raise ParseError("overlap %r-%r names no chart among 0..%d"
                             % (*ends, len(charts) - 1))
        overlaps[ends] = (need_str(o, "unit", "overlap"),
                          need_list_of_str(o, "map", "overlap"))
    return ChartedScheme(ring, charts, overlaps)


def projective_line(ring):
    """P^1 as two affine lines glued along inversion; tests build their
    scheme files from it."""
    charts = [AffinePresentation(ring, ("X",), []),
              AffinePresentation(ring, ("Y",), [])]
    overlaps = {(0, 1): ("X", ["1/X"]), (1, 0): ("Y", ["1/Y"])}
    return ChartedScheme(ring, charts, overlaps)


# --- base change --------------------------------------------------------------

class RingMorphism:
    """Inclusion up the tower, or the residue map one level down."""

    def __init__(self, kind, source, target):
        self.kind = kind
        self.source = source
        self.target = target

    @classmethod
    def inclusion(cls, source, target):
        if source.field != target.field or target.rank > source.rank:
            raise UnsupportedFieldError(
                "no inclusion %s into %s" % (source.describe(),
                                             target.describe()))
        return cls("inclusion", source, target)

    @classmethod
    def residue_map(cls, source):
        if source.rank < 1:
            raise UnsupportedFieldError("residue map needs an integer ring")
        target = BaseRing(source.field.residue(), source.rank - 1)
        return cls("residue", source, target)

    def apply(self, x):
        if self.kind == "inclusion":
            return x
        return residue(x)

    def map_poly(self, p):
        if self.kind == "inclusion":
            return p
        return p.map_coeffs(residue, self.target.field)

    def __repr__(self):
        return "%s: %s -> %s" % (self.kind, self.source.describe(),
                                 self.target.describe())


def base_change_presentation(sigma, X):
    return AffinePresentation(sigma.target, X.variables,
                              [sigma.map_poly(g) for g in X.gens])


def base_change_point(sigma, X, x):
    """Coordinatewise image, verified against the base-changed generators.
    The residue map refuses non-integral coordinates."""
    coords = tuple(sigma.apply(c) for c in x.coords)
    if member_points(X, x.coords) != YES:
        raise TargetViolationError("source point misses the presentation")
    XS = base_change_presentation(sigma, X)
    if member_points(XS, coords) != YES:
        raise TargetViolationError("image %r misses the base change" % (coords,))
    return Point(coords, chart=x.chart)


def base_change_family(sigma, f):
    """Push a point family through an inclusion; coordinate families keep
    their expressions, only the ambient ring changes."""
    if sigma.kind != "inclusion":
        raise UnsupportedFieldError(
            "families push forward along inclusions only")
    return f
