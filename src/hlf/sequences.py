"""Symbolic sequence families F_n of field elements.

A family is a quotient of two sums of terms coeff * prod params^(a*n+b);
powers of the residue characteristic may also carry an n-dependent exponent.
Everything about such a family is eventually affine: beyond the crossing
bound the valuation vectors of distinct terms never tie, so the minimal term
and with it the whole valuation vector of F_n is an exact affine function
of n.  That is what the convergence procedures consume.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeff import FqElem, padic_val, power
from .elements import Element, exps_key, lp_add
from .errors import (FieldMismatchError, ParseError, UnsupportedFamilyError,
                     ZeroElementError)
from .parsing import ExprParser


class AffineForm:
    """a*n + b with integer coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a
        self.b = b

    def __call__(self, n):
        return self.a * n + self.b

    def is_const(self):
        return self.a == 0

    def key(self):
        return (self.a, self.b)

    def __eq__(self, other):
        return isinstance(other, AffineForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        return AffineForm(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return AffineForm(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return AffineForm(-self.a, -self.b)

    def __repr__(self):
        if self.a == 0:
            return str(self.b)
        an = "n" if self.a == 1 else "-n" if self.a == -1 else "%d*n" % self.a
        if self.b == 0:
            return an
        return "%s%+d" % (an, self.b)


_ZERO_FORM = AffineForm(0, 0)


def _coeff_is_zero(c):
    if isinstance(c, FqElem):
        return c.is_zero()
    return c == 0


class Term:
    """coeff * p^(pa*n) * prod params^form; constant p-powers live in the
    coefficient, so pa carries only the n-dependence."""

    __slots__ = ("coeff", "exps", "pa", "_forms")

    def __init__(self, coeff, exps=None, pa=0):
        self.coeff = coeff
        self.exps = {k: f for k, f in (exps or {}).items()
                     if f.key() != (0, 0)}
        self.pa = pa
        self._forms = {}

    def key(self):
        return (tuple(sorted((k, f.key()) for k, f in self.exps.items())), self.pa)

    def is_zero(self):
        return _coeff_is_zero(self.coeff)

    def mul(self, other):
        exps = dict(self.exps)
        for k, f in other.exps.items():
            exps[k] = exps.get(k, _ZERO_FORM) + f
        return Term(self.coeff * other.coeff, exps, self.pa + other.pa)

    def div(self, other):
        exps = dict(self.exps)
        for k, f in other.exps.items():
            exps[k] = exps.get(k, _ZERO_FORM) - f
        return Term(self.coeff / other.coeff, exps, self.pa - other.pa)

    def val_forms(self, field):
        """Valuation vector of the term as affine forms, one per parameter,
        bottom first; computed once per field, as a term never changes."""
        forms = self._forms.get(field)
        if forms is None:
            sp = field.series_params()
            p = field.prime()
            out = []
            for name in field.params():
                if name in sp:
                    out.append(self.exps.get(name, _ZERO_FORM))
                else:
                    out.append(AffineForm(self.pa, padic_val(self.coeff, p)))
            self._forms[field] = forms = tuple(out)
        return forms

    def monomial(self, field, n):
        """The term at n as a one-monomial Laurent polynomial {exps: coeff}."""
        coeff = self.coeff
        if self.pa:
            coeff = coeff * Fraction(field.prime()) ** (self.pa * n)
        return {exps_key(field, {k: f(n) for k, f in self.exps.items()}):
                coeff}

    def __repr__(self):
        bits = []
        if self.pa:
            bits.append("p^(%r)" % AffineForm(self.pa, 0))
        for k, f in sorted(self.exps.items()):
            bits.append("%s^(%r)" % (k, f))
        head = "*".join(bits) if bits else "1"
        return "%r*%s" % (self.coeff, head)


def _merge(terms):
    out = {}
    for t in terms:
        if t.is_zero():
            continue
        k = t.key()
        if k in out:
            c = out[k].coeff + t.coeff
            out[k] = Term(c, t.exps, t.pa)
        else:
            out[k] = t
    return tuple(t for t in out.values() if not t.is_zero())


class SeqFamily:
    """num(n) / den(n); den must not be the zero family."""

    def __init__(self, field, num, den=None):
        self.field = field
        self.num = _merge(num)
        if den is None:
            den = [Term(field.coeff_one())]
        self.den = _merge(den)
        if not self.den:
            raise ZeroElementError("zero denominator family")

    def is_zero(self):
        return not self.num

    def evaluate(self, n):
        """F_n as one exact element: the terms of each side, evaluated at n,
        sum into one Laurent polynomial, and Element.make normalizes the
        quotient once.  ZeroElementError when the denominator vanishes."""
        f = self.field
        num, den = {}, {}
        for t in self.den:
            den = lp_add(den, t.monomial(f, n))
        if not den:
            raise ZeroElementError("denominator vanishes at n=%d" % n)
        for t in self.num:
            num = lp_add(num, t.monomial(f, n))
        return Element.make(f, num, den)

    # -- eventual valuation ----------------------------------------------

    def crossing_bound(self):
        """N with: for every n > N the pairwise inverse lexicographic order
        of term valuation vectors inside num and inside den is strict and
        constant.  Beyond it the denominator cannot vanish and valuation
        vectors of both sums are single-term exact."""
        bound = 0
        for side in (self.num, self.den):
            forms = [t.val_forms(self.field) for t in side]
            for i in range(len(forms)):
                for j in range(i + 1, len(forms)):
                    bound = max(bound, _pair_crossing(forms[i], forms[j]))
        return bound

    def min_term(self, side, n_ref):
        """The term of side (num or den) with the least valuation vector at
        n_ref; the first one on a tie."""
        return min(side, key=lambda t: _vkey_at(t.val_forms(self.field), n_ref))

    def val_form(self):
        """Affine forms of the valuation vector of F_n beyond the crossing
        bound, bottom parameter first; None for the zero family."""
        if self.is_zero():
            return None
        n_ref = self.crossing_bound() + 1
        nf = self.min_term(self.num, n_ref).val_forms(self.field)
        df = self.min_term(self.den, n_ref).val_forms(self.field)
        return tuple(a - b for a, b in zip(nf, df))

    def top_val_form(self):
        vf = self.val_form()
        return None if vf is None else vf[-1]

    # -- arithmetic -------------------------------------------------------

    def _binop(self, other, combine):
        if self.field != other.field:
            raise FieldMismatchError("families over different fields")
        return combine(self, other)

    def __add__(self, other):
        def go(f, g):
            num = [a.mul(b) for a in f.num for b in g.den]
            num += [a.mul(b) for a in g.num for b in f.den]
            den = [a.mul(b) for a in f.den for b in g.den]
            return SeqFamily(f.field, num, den)
        return self._binop(other, go)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SeqFamily(self.field,
                         [Term(-t.coeff, t.exps, t.pa) for t in self.num],
                         list(self.den))

    def __mul__(self, other):
        def go(f, g):
            return SeqFamily(f.field,
                             [a.mul(b) for a in f.num for b in g.num],
                             [a.mul(b) for a in f.den for b in g.den])
        return self._binop(other, go)

    def __truediv__(self, other):
        def go(f, g):
            if g.is_zero():
                raise ZeroElementError("division by the zero family")
            return SeqFamily(f.field,
                             [a.mul(b) for a in f.num for b in g.den],
                             [a.mul(b) for a in f.den for b in g.num])
        return self._binop(other, go)

    def __pow__(self, k):
        x = SeqFamily(self.field, list(self.den), list(self.num)) if k < 0 else self
        return power(x, abs(k), SeqFamily.constant(self.field, self.field.coeff_one()))

    @classmethod
    def constant(cls, field, coeff):
        return cls(field, [Term(coeff)])

    @classmethod
    def of_element(cls, x):
        """The constant family of an exact element."""
        num = [Term(c, {k: AffineForm(0, e) for k, e in zip(x.field.series_params(), key)})
               for key, c in x.num.items()]
        den = [Term(c, {k: AffineForm(0, e) for k, e in zip(x.field.series_params(), key)})
               for key, c in x.den.items()]
        return cls(x.field, num, den)

    def __repr__(self):
        num = " + ".join(repr(t) for t in self.num) or "0"
        den = " + ".join(repr(t) for t in self.den)
        return "(%s)/(%s)" % (num, den)


def _vkey_at(forms, n):
    # inverse lexicographic comparison key of the evaluated vector
    return tuple(f(n) for f in reversed(forms))


def _pair_crossing(f1, f2):
    """Smallest N with the comparison of the two vectors constant for all
    n > N: decided by the first differing component from the top."""
    for a, b in zip(reversed(f1), reversed(f2)):
        if a == b:
            continue
        if a.a == b.a:
            return 0
        return max(0, math.ceil(Fraction(b.b - a.b, a.a - b.a)))
    return 0


class FamilyHandler:
    def __init__(self, field):
        self.field = field

    def const(self, k):
        return SeqFamily.constant(self.field, self.field.coerce_coeff(k))

    def int_power(self, base, a, b, pos):
        if a == 0:
            return self.const(base) ** b
        p = self.field.prime()
        if p is None or base != p:
            raise UnsupportedFamilyError(
                "only %s^(...) may carry an n-dependent exponent here"
                % (p if p is not None else "a prime"))
        coeff = self.field.coerce_coeff(1) * Fraction(p) ** b
        return SeqFamily(self.field, [Term(coeff, {}, a)])

    def powered(self, name, a, b, pos):
        f = self.field
        if name == "n":
            raise UnsupportedFamilyError("n may only appear in exponents")
        if name in f.series_params():
            return SeqFamily(f, [Term(f.coeff_one(), {name: AffineForm(a, b)})])
        fq = f.fq()
        if fq is not None and fq.deg > 1 and name == fq.gen:
            if a != 0:
                raise UnsupportedFamilyError(
                    "generator powers cannot depend on n")
            return SeqFamily.constant(f, fq.generator()) ** b
        raise ParseError("unknown symbol %r" % name, pos=pos)

    def node_power(self, node, b, pos):
        return node ** b


def parse_family(field, text):
    return ExprParser(text, FamilyHandler(field)).parse()
