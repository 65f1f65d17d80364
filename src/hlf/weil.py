"""Restriction of scalars along a monogenic extension S = R[theta]/(m).

With m monic of degree d the extension is a free R-module on the powers
of theta, so an S-point in a variables becomes an R-point in a*d
components and each S-generator splits into d component generators.  The
extension keeps theta^d = sum of low[k]*theta^k for k < d; a scalar is
reduced by one division by the monic modulus, and the components, the
restricted generators and the theta twist all read that one rule.  The
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


class MonogenicExt:
    """Scalars are polynomials in theta of degree under d, and theta^d is
    sum of low[k]*theta^k.  The leading coefficient must be a unit of the
    base ring, otherwise the module is not free on the powers of theta and
    there is nothing to restrict along."""

    def __init__(self, ring, theta, modulus):
        self.ring = ring
        self.theta = theta
        if isinstance(modulus, str):
            modulus = parse_poly(ring.field, (theta,), modulus)
        if modulus.vars_used() - {theta}:
            raise UnsupportedScalarError("modulus must involve %s alone" % theta)
        parts = modulus.split_var(theta)
        d = max(parts, default=0)
        if d < 1:
            raise UnsupportedScalarError("modulus must have positive degree")
        lead = parts[d].const_value()
        if not ring.is_unit(lead):
            raise NotFreeError(
                "leading coefficient %r is not a unit, the quotient is not "
                "free on powers of %s" % (lead, theta))
        if not lead.is_one():
            modulus = modulus.scale(lead.inverse())
        self.modulus = modulus
        self.deg = d
        parts = modulus.split_var(theta)
        self.low = tuple(-parts.get(k, Poly(ring.field)).const_value()
                         for k in range(d))

    def scalar(self, coeffs):
        """theta-polynomial with the given components, Elements or
        polynomials in the other variables."""
        if len(coeffs) != self.deg:
            raise ArityMismatchError("expected %d components, got %d"
                                     % (self.deg, len(coeffs)))
        f = self.ring.field
        out = Poly(f)
        for k, c in enumerate(coeffs):
            if isinstance(c, Element):
                c = Poly.const(f, c)
            if k:
                c = c * Poly.var(f, self.theta, k)
            out = out + c
        return out

    def split(self, p):
        """The d theta-components of p mod the modulus, polynomials in the
        other variables: one top-down synthetic division, each theta^e with
        e >= d folded into the d powers below it."""
        d = self.deg
        parts = p.split_var(self.theta)
        comps = [parts.get(e, Poly(self.ring.field))
                 for e in range(max(d, max(parts, default=0) + 1))]
        for e in range(len(comps) - 1, d - 1, -1):
            if not comps[e].is_zero():
                for k, c in enumerate(self.low):
                    comps[e - d + k] = comps[e - d + k] + comps[e].scale(c)
        return comps[:d]

    def reduce(self, p):
        """p with its theta degree under d; other variables ride along."""
        return self.scalar(self.split(p))

    def components(self, s):
        """Component Elements of a scalar on the theta basis."""
        comps = self.split(s)
        if not all(c.is_const() for c in comps):
            raise UnsupportedScalarError("scalar %r carries a variable"
                                         % (self.scalar(comps),))
        return tuple(c.const_value() for c in comps)

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
        ext, d = Y.ext, Y.ext.deg
        names = ["%s%d" % (v, k) for v in Y.variables for k in range(d)]
        if len(set(names)) != len(names) or set(names) & set(Y.variables):
            raise ArityMismatchError("component names collide")
        f = ext.ring.field
        subst = {v: ext.scalar([Poly.var(f, n)
                                for n in names[i * d:(i + 1) * d]])
                 for i, v in enumerate(Y.variables)}
        gens = [c for g in Y.gens for c in ext.split(g.substitute(subst))
                if not c.is_zero()]
        self.source = Y
        self.ext = ext
        self.presentation = AffinePresentation(ext.ring, names, gens)

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
    through theta^d = sum of low[k]*theta^k."""
    top = comps[-1]
    out = [top * lift(ext.low[0])]
    for k in range(1, ext.deg):
        out.append(comps[k - 1] + top * lift(ext.low[k]))
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
