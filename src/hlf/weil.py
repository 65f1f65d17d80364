"""Restriction of scalars along a monogenic extension S = R[theta]/(m).

With m monic of degree d the extension is a free R-module on the powers
of theta, so an S-point in a variables becomes an R-point in a*d
components and each S-generator splits into d component generators.  The
two readings carry the same convergent sequences: encode and decode are
mutually inverse R-linear substitutions, so verdicts must agree, and the
tests twist by theta before comparing to make that agreement exercise
the module structure instead of restating the encoding.
"""

from .elements import Element
from .errors import (ArityMismatchError, NotFreeError, UnsupportedScalarError,
                     need_list_of_str, need_str, require)
from .points import (AffinePresentation, NO, Point, PointVerdict, Poly, YES,
                     parse_poly)
from .sequences import SeqFamily


def _theta_degree(p, theta):
    return max((e for e in p.split_var(theta)), default=0)


class MonogenicExt:
    """Scalars are polynomials in theta of degree under d; theta^d
    rewrites through the modulus.  The leading coefficient must be a unit
    of the base ring, otherwise the module is not free on the powers of
    theta and there is nothing to restrict along."""

    def __init__(self, ring, theta, modulus):
        self.ring = ring
        self.theta = theta
        if isinstance(modulus, str):
            modulus = parse_poly(ring.field, (theta,), modulus)
        if modulus.vars_used() - {theta}:
            raise UnsupportedScalarError("modulus must involve %s alone" % theta)
        d = _theta_degree(modulus, theta)
        if d < 1:
            raise UnsupportedScalarError("modulus must have positive degree")
        lead = modulus.split_var(theta)[d].const_value()
        if not ring.is_unit(lead):
            raise NotFreeError(
                "leading coefficient %r is not a unit, the quotient is not "
                "free on powers of %s" % (lead, theta))
        if not lead.is_one():
            modulus = modulus.scale(lead.inverse())
        self.modulus = modulus
        self.deg = d
        self.tail = Poly.var(ring.field, theta, d) - modulus

    def scalar(self, coeffs):
        """theta-polynomial with the given component Elements."""
        if len(coeffs) != self.deg:
            raise ArityMismatchError("expected %d components, got %d"
                                     % (self.deg, len(coeffs)))
        f = self.ring.field
        out = Poly(f)
        for k, c in enumerate(coeffs):
            term = Poly.const(f, c)
            if k:
                term = term * Poly.var(f, self.theta, k)
            out = out + term
        return out

    def reduce(self, p):
        """Rewrite until the theta degree drops under d; other variables
        ride along untouched."""
        f = self.ring.field
        while _theta_degree(p, self.theta) >= self.deg:
            out = Poly(f)
            for e, comp in p.split_var(self.theta).items():
                if e < self.deg:
                    part = comp
                    if e:
                        part = part * Poly.var(f, self.theta, e)
                else:
                    part = comp * self.tail
                    if e > self.deg:
                        part = part * Poly.var(f, self.theta, e - self.deg)
                out = out + part
            p = out
        return p

    def components(self, s):
        """Component Elements of a reduced scalar on the theta basis."""
        s = self.reduce(s)
        comps = s.split_var(self.theta)
        out = []
        for k in range(self.deg):
            c = comps.get(k)
            if c is None:
                out.append(Element.zero(self.ring.field))
            elif not c.is_const():
                raise UnsupportedScalarError("scalar %r carries a variable"
                                             % (s,))
            else:
                out.append(c.const_value())
        return tuple(out)

    def contains(self, s):
        return all(self.ring.contains(c) for c in self.components(s))

    def to_data(self):
        return {"ring": self.ring.describe(), "theta": self.theta,
                "modulus": self.modulus.text()}

    def __repr__(self):
        return "%s[%s]/(%s)" % (self.ring.describe(), self.theta,
                                self.modulus.text())


class ScalarExtPresentation:
    """V(I) over S, generators written in the point variables and theta."""

    def __init__(self, ext, variables, gens):
        self.ext = ext
        self.variables = tuple(variables)
        if ext.theta in self.variables:
            raise ArityMismatchError("%s is the extension generator"
                                     % ext.theta)
        allowed = self.variables + (ext.theta,)
        self.gens = [parse_poly(ext.ring.field, allowed, g)
                     if isinstance(g, str) else g for g in gens]

    @property
    def arity(self):
        return len(self.variables)

    def member(self, coords):
        """Coordinates are theta-polynomials; YES on exact vanishing of
        every generator mod the modulus, with integral components."""
        if len(coords) != self.arity:
            raise ArityMismatchError("expected %d coordinates, got %d"
                                     % (self.arity, len(coords)))
        if not all(self.ext.contains(c) for c in coords):
            return NO
        subst = dict(zip(self.variables, (self.ext.reduce(c) for c in coords)))
        for g in self.gens:
            if not self.ext.reduce(g.substitute(subst)).is_zero():
                return NO
        return YES

    def to_data(self):
        d = self.ext.to_data()
        d["vars"] = list(self.variables)
        d["gens"] = [g.text() for g in self.gens]
        return d


def scalar_ext_from_data(data):
    from .points import parse_base_ring
    what = "scalar extension scheme"
    ext = MonogenicExt(parse_base_ring(require(data, "ring", what)),
                       need_str(data, "theta", what),
                       need_str(data, "modulus", what))
    return ScalarExtPresentation(
        ext, need_list_of_str(data, "vars", what),
        need_list_of_str(data, "gens", what, optional=True))


class WeilRestriction:
    """The R-presentation of an S-presentation, with the coordinate
    encoding both ways."""

    def __init__(self, Y):
        ext = Y.ext
        names = []
        for v in Y.variables:
            names.extend("%s%d" % (v, k) for k in range(ext.deg))
        if len(set(names)) != len(names) or set(names) & set(Y.variables):
            raise ArityMismatchError("component names collide")
        f = ext.ring.field
        subst = {}
        for v in Y.variables:
            s = Poly(f)
            for k in range(ext.deg):
                term = Poly.var(f, "%s%d" % (v, k))
                if k:
                    term = term * Poly.var(f, ext.theta, k)
                s = s + term
            subst[v] = s
        gens = []
        for g in Y.gens:
            comps = ext.reduce(g.substitute(subst)).split_var(ext.theta)
            gens.extend(comps.get(k, Poly(f)) for k in range(ext.deg))
        self.source = Y
        self.ext = ext
        self.presentation = AffinePresentation(
            ext.ring, names, [g for g in gens if not g.is_zero()])

    def encode(self, coords):
        """S-coordinates to the R-point of the restriction."""
        out = []
        for c in coords:
            out.extend(self.ext.components(c))
        return Point(tuple(out))

    def decode(self, x):
        d = self.ext.deg
        if len(x.coords) != d * self.source.arity:
            raise ArityMismatchError("expected %d components, got %d"
                                     % (d * self.source.arity, len(x.coords)))
        return tuple(self.ext.scalar(x.coords[i * d:(i + 1) * d])
                     for i in range(self.source.arity))


def weil_restrict(Y):
    return WeilRestriction(Y)


# --- convergence of scalar-extension families --------------------------------

class SExtFamily:
    """One S-coordinate as component families on the theta basis, plus the
    component Elements of its limit."""

    def __init__(self, ext, comps, limit):
        if len(comps) != ext.deg or len(limit) != ext.deg:
            raise ArityMismatchError("expected %d components" % ext.deg)
        self.ext = ext
        self.comps = tuple(comps)
        self.limit = tuple(limit)


def _twist(ext, comps, lift):
    """Multiply a component vector by theta: shift up, fold the overflow
    through the tail of the modulus."""
    tail = ext.components(ext.tail)
    top = comps[-1]
    out = [top * lift(tail[0])]
    for k in range(1, ext.deg):
        out.append(comps[k - 1] + top * lift(tail[k]))
    return out


def sext_converges(fams):
    """Conjunction over every theta twist of the componentwise verdicts;
    twisting is a continuous automorphism-free shear, so this agrees with
    the plain product reading while exercising the module structure.  The
    parts are decided up to the first diverging one, as in
    point_seq_converges."""
    def pairs():
        for f in fams:
            ext = f.ext
            comps, limit = list(f.comps), list(f.limit)
            for _ in range(ext.deg):
                yield from zip(comps, limit)
                comps = _twist(ext, comps, SeqFamily.of_element)
                limit = _twist(ext, limit, lambda e: e)
    return PointVerdict.decide(pairs())
