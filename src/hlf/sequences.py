"""Symbolic sequence families F_n of field elements.

A family is a quotient of two sums of terms coeff * prod params^(a*n+b);
powers of the residue characteristic may also carry an n-dependent exponent.
Everything about such a family is eventually affine: beyond the crossing
bound the valuation vectors of distinct terms never tie, so the minimal term
and with it the whole valuation vector of F_n is an exact affine function
of n.  That is what the convergence procedures consume.

A Term computes its hashable key (its exponent forms and p-power slope)
once, and _merge sums terms by that key, building a new Term only where
two meet; sides keep the order in which their keys first occur, and a key
whose coefficients sum to zero is dropped.  Family arithmetic builds its
sides in a fixed order, so equal inputs give families with equal sides in
equal order, which evaluate and the verdicts iterate.

parse_family builds a product, quotient, power or negation of monomials
as one term node, a one-term numerator over a one-term denominator, and
makes the SeqFamily only where a sum or a family operand needs it.  A
quotient stays (n*d')/(d*n') and a power is taken on each side, as the
family operations would give, so 3^(-2) is 1 over 9.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeff import padic_val, power
from .elements import Element, exps_key, lp_sum
from .errors import (FieldMismatchError, ParseError, UnsupportedFamilyError,
                     ZeroElementError)
from .parsing import ExprParser, TermNode, check_literal_power, whole


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


class Term:
    """coeff * p^(pa*n) * prod params^form; constant p-powers live in the
    coefficient, so pa carries only the n-dependence.  key, the exponent
    forms and pa, is computed once: terms are never changed."""

    __slots__ = ("coeff", "exps", "pa", "key", "_forms")

    def __init__(self, coeff, exps=None, pa=0):
        self.coeff = coeff
        self.pa = pa
        self._forms = {}
        if not exps:
            self.exps = {}
            self.key = ((), pa)
            return
        self.exps = {k: f for k, f in exps.items() if f.a or f.b}
        self.key = (tuple(sorted((k, (f.a, f.b))
                                 for k, f in self.exps.items())), pa)

    def mul(self, other, neg=False):
        """self * other, or its negative."""
        exps = dict(self.exps)
        for k, f in other.exps.items():
            exps[k] = exps.get(k, _ZERO_FORM) + f
        c = self.coeff * other.coeff
        return Term(-c if neg else c, exps, self.pa + other.pa)

    def div(self, other):
        exps = dict(self.exps)
        for k, f in other.exps.items():
            exps[k] = exps.get(k, _ZERO_FORM) - f
        return Term(self.coeff / other.coeff, exps, self.pa - other.pa)

    def __neg__(self):
        return Term(-self.coeff, self.exps, self.pa)

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

    def at(self, field, n):
        """The term at n as (exponent tuple, coefficient)."""
        coeff = self.coeff
        if self.pa:
            coeff = coeff * Fraction(field.prime()) ** (self.pa * n)
        return exps_key(field, {k: f(n) for k, f in self.exps.items()}), coeff

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
        if not t.coeff:
            continue
        s = out.get(t.key)
        out[t.key] = t if s is None else Term(s.coeff + t.coeff, t.exps, t.pa)
    return tuple(t for t in out.values() if t.coeff)


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
        self._bound = None

    def is_zero(self):
        return not self.num

    def evaluate(self, n):
        """F_n as one exact element: the terms of each side, evaluated at n,
        sum into one Laurent polynomial, and Element.make normalizes the
        quotient once.  ZeroElementError when the denominator vanishes."""
        f = self.field
        den = lp_sum([t.at(f, n) for t in self.den])
        if not den:
            raise ZeroElementError("denominator vanishes at n=%d" % n)
        return Element.make(f, lp_sum([t.at(f, n) for t in self.num]), den)

    # -- eventual valuation ----------------------------------------------

    def crossing_bound(self):
        """N with: for every n > N the pairwise inverse lexicographic order
        of term valuation vectors inside num and inside den is strict and
        constant.  Beyond it the denominator cannot vanish and valuation
        vectors of both sums are single-term exact.  Worked out once."""
        if self._bound is None:
            bound = 0
            for side in (self.num, self.den):
                forms = [t.val_forms(self.field) for t in side]
                for i in range(len(forms)):
                    for j in range(i + 1, len(forms)):
                        bound = max(bound, _pair_crossing(forms[i], forms[j]))
            self._bound = bound
        return self._bound

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

    # -- arithmetic -------------------------------------------------------

    def _binop(self, other, combine):
        if not isinstance(other, SeqFamily):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatchError("families over different fields")
        return combine(self, other)

    def _sum(self, other, neg):
        def go(f, g):
            num = [a.mul(b) for a in f.num for b in g.den]
            num += [a.mul(b, neg) for a in g.num for b in f.den]
            den = [a.mul(b) for a in f.den for b in g.den]
            return SeqFamily(f.field, num, den)
        return self._binop(other, go)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return SeqFamily(self.field, [-t for t in self.num], self.den)

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
        if k == 1:
            return self
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


class _TermNode(TermNode):
    """A product, quotient, power or negation of monomials while parsing a
    family: num over den, one Term each, num with a zero coefficient for
    the zero family.  whole() makes the SeqFamily that the family
    operations would have built; there num is dropped if zero."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=None):
        self.field = field
        self.num = num
        self.den = den or Term(field.coeff_one())

    def whole(self):
        return SeqFamily(self.field, [self.num], [self.den])

    def __neg__(self):
        return _TermNode(self.field, -self.num, self.den)

    def mul(self, other):
        return _TermNode(self.field, self.num.mul(other.num),
                         self.den.mul(other.den))

    def div(self, other):
        if not other.num.coeff:
            raise ZeroElementError("division by the zero family")
        return _TermNode(self.field, self.num.mul(other.den),
                         self.den.mul(other.num))

    def __pow__(self, k):
        num, den = self.num, self.den
        if k < 0:
            if not num.coeff:
                raise ZeroElementError("zero denominator family")
            num, den = den, num
        k, one = abs(k), self.field.coeff_one()
        return _TermNode(self.field, _term_power(num, k, one),
                         _term_power(den, k, one))


def _term_power(t, k, one):
    """t**k for an int k >= 0, the coefficient by coeff.power from one."""
    check_literal_power(t.coeff, k)
    return Term(power(t.coeff, k, one),
                {name: AffineForm(f.a * k, f.b * k)
                 for name, f in t.exps.items()}, t.pa * k)


class FamilyHandler:
    """Builds term nodes; names resolve to series parameters, the finite
    field generator or, in exponents, n."""

    def __init__(self, field):
        self.field = field

    def const(self, k):
        return _TermNode(self.field, Term(self.field.coerce_coeff(k)))

    def int_power(self, base, a, b, pos):
        if a == 0:
            return self.const(base) ** b
        p = self.field.prime()
        if p is None or base != p:
            raise UnsupportedFamilyError(
                "only %s^(...) may carry an n-dependent exponent here"
                % (p if p is not None else "a prime"))
        check_literal_power(p, b)
        coeff = self.field.coerce_coeff(1) * Fraction(p) ** b
        return _TermNode(self.field, Term(coeff, {}, a))

    def powered(self, name, a, b, pos):
        f = self.field
        if name == "n":
            raise UnsupportedFamilyError("n may only appear in exponents")
        if name in f.series_params():
            return _TermNode(f, Term(f.coeff_one(), {name: AffineForm(a, b)}))
        fq = f.fq()
        if fq is not None and fq.deg > 1 and name == fq.gen:
            if a != 0:
                raise UnsupportedFamilyError(
                    "generator powers cannot depend on n")
            return _TermNode(f, Term(fq.generator())) ** b
        raise ParseError("unknown symbol %r" % name, pos=pos)

    def node_power(self, node, b, pos):
        return node ** b


def parse_family(field, text):
    return whole(ExprParser(text, FamilyHandler(field)).parse())
