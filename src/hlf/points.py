"""Rational points of affine schemes over sequential rings.

A base ring is a stop in the tower F > O at rank one > ... > O at full
rank; each stop is local, has open units and sequentially continuous
inversion on units, so charts glue.  An affine presentation fixes
variables and exact polynomial generators, membership is literal
vanishing plus integrality, and convergence of point families is decided
coordinatewise: the product and subspace topologies have the same
convergent sequences, and sequential saturation does not add any, so the
componentwise verdict is the verdict.

Points and point families move along one Morphism: a chart transfer is
the overlap's unit test and then its Morphism, and base_change is the
Morphism onto the base-changed presentation.

Generators, units and chart maps read through one handler, RatHandler:
parse_rat keeps the quotient, and parse_poly divides out a constant
denominator and refuses any other.
"""

from itertools import product

from .coeff import power
from .convergence import CONVERGES, DIVERGES, UNKNOWN, converges
from .elements import Element, lp_add, lp_mul, lp_neg, lp_scale
from .errors import (ArityMismatchError, FieldMismatchError, ParseError,
                     TargetViolationError, UnsupportedFieldError, need_list,
                     need_list_of_str, need_str, require)
from .expansion import residue
from .fields import parse_field
from .parsing import ElementHandler, ExprParser, check_literal_power, whole
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

class Poly:
    """Polynomial in the variables names with Element coefficients: each
    term keyed by its exponent tuple over names, combined by the lp_* rules.
    The coefficient field is exact, so zero tests and equality are
    termwise, and no term is ever stored with a zero coefficient."""

    def __init__(self, field, names, terms=None):
        self.field = field
        self.names = tuple(names)
        self.terms = {} if terms is None else terms

    @classmethod
    def const(cls, field, names, c):
        return cls(field, names, {(0,) * len(names): c} if c else {})

    @classmethod
    def var(cls, field, names, name, e=1):
        if name not in names:
            raise ArityMismatchError("%s is not among the variables %s"
                                     % (name, ", ".join(names)))
        return cls(field, names, {tuple(e if n == name else 0 for n in names):
                                  Element.one(field)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not any(any(key) for key in self.terms)

    def const_value(self):
        return self.terms.get((0,) * len(self.names), Element.zero(self.field))

    def over(self, names):
        """The same polynomial keyed over names, which must include every
        variable it uses."""
        extra = {n for key in self.terms for n, e in zip(self.names, key)
                 if e and n not in names}
        if extra:
            raise ArityMismatchError("generator uses undeclared %s"
                                     % ", ".join(sorted(extra)))
        return Poly(self.field, names, {
            tuple(dict(zip(self.names, key)).get(n, 0) for n in names): c
            for key, c in self.terms.items()})

    def __add__(self, other):
        return Poly(self.field, self.names, lp_add(self.terms, other.terms))

    def __neg__(self):
        return Poly(self.field, self.names, lp_neg(self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Poly(self.field, self.names, lp_mul(self.terms, other.terms))

    def __pow__(self, k):
        # no inverse, so a negative k is refused
        return power(self, k, Poly.const(self.field, self.names,
                                         Element.one(self.field)))

    def scale(self, c):
        return Poly(self.field, self.names, lp_scale(self.terms, c))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def evaluate(self, xs, lift=None):
        """Value at xs, one value per name in order.  lift carries the
        Element coefficients into the value domain; identity by default.
        Sums start at the first term and products at the first factor: 0 + v
        and 1*v would be equal values with the same entries."""
        lift = lift or (lambda c: c)
        total = None
        for key, c in self.terms.items():
            v = None if c.is_one() and any(key) else lift(c)
            for x, e in zip(xs, key):
                if e:
                    x = x if e == 1 else x ** e
                    v = x if v is None else v * x
            total = v if total is None else total + v
        return lift(Element.zero(self.field)) if total is None else total

    def substitute(self, repl, names):
        """Polynomials over names plugged in for the variables repl maps;
        every other variable stays, and must be among names."""
        field = self.field
        return self.evaluate(
            [repl[n] if n in repl else Poly.var(field, names, n)
             for n in self.names], lambda c: Poly.const(field, names, c))

    def map_coeffs(self, fn, field):
        """fn on every coefficient, the terms it sends to 0 dropped."""
        return Poly(field, self.names, {k: v for k, c in self.terms.items()
                                        if (v := fn(c))})

    def split_var(self, name):
        """Components by the exponent of one variable, its slot cut from
        the keys."""
        i = self.names.index(name)
        out = {}
        for key, c in self.terms.items():
            out.setdefault(key[i], {})[key[:i] + key[i + 1:]] = c
        rest = self.names[:i] + self.names[i + 1:]
        return {e: Poly(self.field, rest, terms) for e, terms in out.items()}

    def text(self):
        """Terms by number of variables, then by sorted (name, exponent)."""
        if not self.terms:
            return "0"
        terms = {tuple(sorted((n, e) for n, e in zip(self.names, key) if e)):
                 c for key, c in self.terms.items()}
        parts = []
        for pairs in sorted(terms, key=lambda k: (len(k), k)):
            c = terms[pairs]
            vs = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in pairs)
            cs = repr(c)
            if any(ch in cs for ch in " +-/") and not cs.startswith("("):
                cs = "(%s)" % cs
            if not vs:
                parts.append(cs)
            elif c.is_one():
                parts.append(vs)
            else:
                parts.append("%s*%s" % (cs, vs))
        return " + ".join(parts)

    def __repr__(self):
        return self.text()


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
        return cls(p, Poly.const(p.field, p.names, Element.one(p.field)))

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
        one = RatMap.of(self.num ** 0)
        return power(one / self if k < 0 else self, abs(k), one)

    def __eq__(self, other):
        if not isinstance(other, RatMap):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def evaluate(self, xs, lift=None):
        num = self.num.evaluate(xs, lift)
        return num if self._over_one() else num / self.den.evaluate(xs, lift)

    def _over_one(self):
        return self.den.is_const() and self.den.const_value().is_one()

    def text(self):
        if self._over_one():
            return self.num.text()
        return "(%s)/(%s)" % (self.num.text(), self.den.text())

    def __repr__(self):
        return self.text()


class RatHandler:
    """Names resolve to declared variables first, then through the element
    handler, so coefficients may use the full Laurent grammar; nodes are
    polynomial quotients, so division and negative variable powers are
    allowed."""

    def __init__(self, field, variables):
        self.field = field
        self.names = tuple(variables)
        self.elem = ElementHandler(field)

    def _const(self, x):
        return RatMap.of(Poly.const(self.field, self.names, whole(x)))

    def const(self, k):
        return self._const(self.elem.const(k))

    def int_power(self, base, a, b, pos):
        return self._const(self.elem.int_power(base, a, b, pos))

    def powered(self, name, a, b, pos):
        if name not in self.names:
            return self._const(self.elem.powered(name, a, b, pos))
        if a != 0:
            raise ParseError("n is only allowed in sequence exponents", pos=pos)
        if b == 0:
            return self._const(Element.one(self.field))
        x = RatMap.of(Poly.var(self.field, self.names, name, abs(b)))
        return x ** -1 if b < 0 else x

    def node_power(self, node, b, pos):
        if b < 0 and node.num.is_zero():
            raise ParseError("negative power of zero", pos=pos)
        for p in (node.num, node.den):
            cs = [k for c in p.terms.values() for k in c.num.values()]
            if len(cs) == 1:  # one monomial: its power builds cs[0]^b
                check_literal_power(cs[0], b)
        return node ** b


def parse_rat(field, variables, text):
    return ExprParser(text, RatHandler(field, variables)).parse()


def parse_poly(field, variables, text):
    """parse_rat, refused unless the denominator is a constant, which then
    divides out."""
    r = parse_rat(field, variables, text)
    if not r.den.is_const():
        raise ParseError("division by a polynomial in the variables")
    c = r.den.const_value()
    return r.num if c.is_one() else r.num.scale(c.inverse())


# --- presentations and points -------------------------------------------------

class AffinePresentation:
    """Variables and ideal generators housing V(I) inside affine space
    over the base ring."""

    def __init__(self, ring, variables, gens):
        self.ring = ring
        self.variables = tuple(variables)
        self.gens = [parse_poly(ring.field, self.variables, g)
                     if isinstance(g, str) else g.over(self.variables)
                     for g in gens]

    @property
    def arity(self):
        return len(self.variables)

    def check_arity(self, coords):
        if len(coords) != self.arity:
            raise ArityMismatchError("expected %d coordinates, got %d"
                                     % (self.arity, len(coords)))

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
    X.check_arity(coords)
    if not all(X.ring.contains(c) for c in coords):
        return NO
    for g in X.gens:
        if not g.evaluate(coords).is_zero():
            return NO
    return YES


def in_principal_open(X, f, x):
    """Whether x lands in the locus where f is a unit of the base ring;
    over the integer rings that is vanishing of the tracked valuation
    components, units being exactly the complement of the maximal ideal."""
    if isinstance(f, str):
        f = parse_poly(X.ring.field, X.variables, f)
    X.check_arity(x.coords)
    return X.ring.is_unit(f.evaluate(x.coords))


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
    for g in X.gens:
        val = g.evaluate(f.families, SeqFamily.of_element)
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


# --- morphisms ----------------------------------------------------------------

class RingMorphism:
    """Inclusion up the tower, or the residue map one level down; apply is
    its map on elements."""

    def __init__(self, source, target, apply):
        self.source = source
        self.target = target
        self.apply = apply

    @classmethod
    def inclusion(cls, source, target):
        if source.field != target.field or target.rank > source.rank:
            raise UnsupportedFieldError(
                "no inclusion %s into %s" % (source.describe(),
                                             target.describe()))
        return cls(source, target, lambda x: x)

    @classmethod
    def residue_map(cls, source):
        if source.rank < 1:
            raise UnsupportedFieldError("residue map needs an integer ring")
        target = BaseRing(source.field.residue(), source.rank - 1)
        return cls(source, target, residue)


class Morphism:
    """A map of presentations over a ring morphism whose map on elements is
    coeff: image coordinate k is maps[k], a RatMap over the target field in
    the source variables, at the coordinates carried through coeff.  Images
    lie in chart `chart`; name and miss head the errors of a map undefined
    at a point and of an image off the target."""

    def __init__(self, source, target, coeff, maps, chart, name, miss):
        self.source, self.target, self.coeff = source, target, coeff
        self.maps, self.chart = tuple(maps), chart
        self.name, self.miss = name, miss

    def point(self, x):
        """Image of x, checked against the target's generators.  coeff runs
        before the source check, so a residue map refuses x first."""
        coords = tuple(self.coeff(c) for c in x.coords)
        if member_points(self.source, x.coords) != YES:
            raise TargetViolationError("source point misses the presentation")
        try:
            coords = tuple(m.evaluate(coords) for m in self.maps)
        except ZeroDivisionError:
            raise TargetViolationError("%s undefined at %r"
                                       % (self.name, x)) from None
        if member_points(self.target, coords) != YES:
            raise TargetViolationError(self.miss.format(coords=coords))
        return Point(coords, chart=self.chart)

    def family(self, f):
        """The limit through point, the coordinate families through the
        maps by SeqFamily arithmetic, which stays over one field."""
        if self.source.ring.field != self.target.ring.field:
            raise UnsupportedFieldError(
                "families push forward along inclusions only")
        lim = self.point(f.limit)
        return PointSeqFamily([m.evaluate(f.families, SeqFamily.of_element)
                               for m in self.maps], lim)


def base_change(sigma, X):
    """The Morphism from X onto X over sigma's target, generators through
    sigma, taking each coordinate to itself."""
    field = sigma.target.field
    XS = AffinePresentation(sigma.target, X.variables,
                            [g.map_coeffs(sigma.apply, field) for g in X.gens])
    return Morphism(X, XS, sigma.apply,
                    [RatMap.of(Poly.var(field, X.variables, v))
                     for v in X.variables], 0,
                    "base change", "image {coords!r} misses the base change")


# --- charted covers -----------------------------------------------------------

class ChartedScheme:
    """Finitely many affine charts over a local base ring.  Points carry a
    chart index; a point transfers along a declared overlap exactly when
    the localizer is a unit at it, which over a local ring is how every
    rational point lands inside some chart.  overlaps maps (i, j) to the
    texts (unit, [map, ...]) in the variables of chart i, kept as the
    localizer units[(i, j)] and the Morphism overlaps[(i, j)]."""

    def __init__(self, ring, charts, overlaps):
        self.ring = ring
        self.charts = list(charts)
        self.units, self.overlaps = {}, {}
        for (i, j), (unit, maps) in overlaps.items():
            variables = self.charts[i].variables
            self.units[(i, j)] = parse_poly(ring.field, variables, unit)
            self.overlaps[(i, j)] = Morphism(
                self.charts[i], self.charts[j], lambda x: x,
                [parse_rat(ring.field, variables, m) for m in maps], j,
                "transition %d-%d" % (i, j),
                "transition image misses chart %d" % j)
        self._check_transitions()

    def _check_transitions(self):
        """Exact gluing in the ambient polynomial rings.  With the identity
        as phi_ii, every declared (i, j) and (j, k) with k == i or (i, k)
        declared must have phi_jk o phi_ij == phi_ik: inverse pairs and the
        cocycle at once.  The chart generators are ignored, which is
        sufficient but refuses a gluing that holds only modulo them."""
        field = self.ring.field
        maps = {(i, i): tuple(RatMap.of(Poly.var(field, c.variables, v))
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
            names = self.charts[i].variables
            try:
                composite = tuple(m.evaluate(maps[(i, j)], lambda c: RatMap.of(
                    Poly.const(field, names, c))) for m in maps[(j, k)])
            except ZeroDivisionError:
                raise TargetViolationError(
                    "transitions %d-%d-%d: the composite's denominator "
                    "vanishes" % (i, j, k)) from None
            if composite != maps[(i, k)]:
                raise TargetViolationError(
                    "transitions %d-%d-%d do not compose to %d-%d"
                    % (i, j, k, i, k))

    def _overlap(self, x, j):
        """The Morphism from x's chart to chart j, None when its localizer
        is not a unit at x."""
        key = (x.chart, j)
        if key not in self.overlaps:
            raise UnsupportedFieldError("no declared overlap %d-%d" % key)
        mor = self.overlaps[key]
        return mor if in_principal_open(mor.source, self.units[key], x) \
            else None

    def transfer(self, x, j):
        """Point in chart j, or OUT_OF_CHART off the overlap."""
        if x.chart == j:
            return x
        mor = self._overlap(x, j)
        return OUT_OF_CHART if mor is None else mor.point(x)

    def transfer_family(self, f, j):
        """Family in chart j, or None when its limit is off the overlap."""
        mor = self._overlap(f.limit, j)
        return None if mor is None else mor.family(f)

    def to_data(self):
        return {"ring": self.ring.describe(),
                "charts": [{"vars": list(c.variables),
                            "gens": [g.text() for g in c.gens]}
                           for c in self.charts],
                "overlaps": [{"from": i, "to": j,
                              "unit": self.units[(i, j)].text(),
                              "map": [m.text() for m in mor.maps]}
                             for (i, j), mor in sorted(self.overlaps.items())]}


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
