"""Elements of a tower as exact fractions of parameter Laurent polynomials.

An element is P/Q where P and Q are finite sums of monomials coeff * prod
var^e over the tower's series parameters, with exact coefficients (FqElem in
positive characteristic, Fraction otherwise; powers of p in mixed fields live
inside the rational coefficient).  Q is normalized so that its monomial of
minimal rank valuation is exactly 1; distinct monomials over one field never
share a valuation vector, so support minima give exact valuations and zero is
represented uniquely as 0/1.

Finding that monomial is the work of normalization, so it is kept cheap on
the shapes it almost always sees.  A one-term denominator is the monomial
itself and is read directly.  Over towers of ((t)) over F_q, Q or Qp the
valuation order of distinct monomials is the order of their reversed
exponent tuples: the exponents are the top components, and a
coefficient's p-adic valuation, over Qp((t)) the bottom one, decides only
between equal exponents, which distinct monomials never have.  The
descriptor says so once (orders_by_reversed_exps), and padic_val is
computed only for the winner's valuation vector.  Over Qp{{t}} the p-adic
valuation is the top component, and the valuation key is computed per
monomial.  Elements are immutable, so val_vector is computed once each.
Callers that assemble a sum of monomials build one Laurent polynomial and
call make once, rather than adding Elements term by term.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import FqElem, power
from .errors import FieldMismatchError, ZeroElementError


def _vkey(v):
    # inverse lexicographic: last component dominates
    return tuple(reversed(v))


def _reversed_exps(kv):
    return kv[0][::-1]


def _monomial_key(field):
    """Sort key on (exps, coeff) pairs in rank valuation order."""
    if field.orders_by_reversed_exps:
        return _reversed_exps
    return lambda kv: _vkey(field.monomial_valuation(kv[1], kv[0]))


def exps_key(field, exps):
    """The exponent tuple over field's series parameters of prod name^e,
    from {name: e}."""
    sp = field.series_params()
    for name in exps:
        if name not in sp:
            raise FieldMismatchError("%r is not a series parameter of %r" % (name, field))
    return tuple(exps.get(v, 0) for v in sp)


def lp_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def lp_neg(a):
    return {k: -c for k, c in a.items()}


def lp_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def lp_scale(a, c):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def lp_shift(a, shift):
    return {tuple(x - y for x, y in zip(k, shift)): c for k, c in a.items()}


def lp_min_monomial(field, a):
    """(exps, coeff) of the monomial with minimal rank valuation."""
    if len(a) == 1:
        return next(iter(a.items()))
    return min(a.items(), key=_monomial_key(field))


class Element:
    """Field element in canonical fraction form.  Construct through the
    factory methods or parsing; arithmetic keeps the form canonical."""

    __slots__ = ("field", "num", "den", "_val")
    __hash__ = None

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den
        self._val = None

    @classmethod
    def make(cls, field, num, den=None):
        """num/den in canonical form.  make takes ownership of the dicts it
        is given and may keep them in the result; no caller changes them
        afterwards, and no element's num or den is ever changed in place."""
        zero = (0,) * len(field.series_params())
        if den is None:
            den = {zero: field.coeff_one()}
        elif not den:
            raise ZeroDivisionError("zero denominator over %r" % field)
        elif num:
            exps0, c0 = lp_min_monomial(field, den)
            if any(exps0):
                num, den = lp_shift(num, exps0), lp_shift(den, exps0)
            if c0 != 1:
                inv = c0.inverse() if isinstance(c0, FqElem) \
                    else Fraction(1) / c0
                num, den = lp_scale(num, inv), lp_scale(den, inv)
        if not num:
            return cls(field, {}, {zero: field.coeff_one()})
        if num == den:
            return cls.one(field)
        return cls(field, num, den)

    @classmethod
    def zero(cls, field):
        return cls.make(field, {})

    @classmethod
    def one(cls, field):
        nvars = len(field.series_params())
        return cls(field, {(0,) * nvars: field.coeff_one()},
                   {(0,) * nvars: field.coeff_one()})

    @classmethod
    def from_coeff(cls, field, c):
        c = field.coerce_coeff(c)
        nvars = len(field.series_params())
        return cls.make(field, {(0,) * nvars: c} if c else {})

    @classmethod
    def monomial(cls, field, coeff=1, **exps):
        """Element.monomial(F, 2, t=-1, u=3) is 2*t^-1*u^3; tests build
        reference sums from it."""
        c = field.coerce_coeff(coeff)
        return cls.make(field, {exps_key(field, exps): c} if c else {})

    # --- predicates ---

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return not self.is_zero()

    def is_one(self):
        return self.num == self.den

    def val_vector(self):
        """Full rank valuation vector; the denominator is normalized to
        valuation zero so the numerator's support minimum is exact."""
        if self._val is None:
            if not self.num:
                raise ZeroElementError("valuation of zero")
            exps, c = lp_min_monomial(self.field, self.num)
            self._val = self.field.monomial_valuation(c, exps)
        return self._val

    # --- arithmetic ---

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.field != self.field:
                raise FieldMismatchError(
                    "elements of %r and %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction, FqElem)):
            return Element.from_coeff(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Element.make(self.field, lp_add(self.num, o.num), self.den)
        return Element.make(
            self.field,
            lp_add(lp_mul(self.num, o.den), lp_mul(o.num, self.den)),
            lp_mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return Element(self.field, lp_neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element.make(self.field, lp_mul(self.num, o.num),
                            lp_mul(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Element.make(self.field, self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        x = self.inverse() if k < 0 else self
        return power(x, abs(k), Element.one(self.field))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return lp_mul(self.num, o.den) == lp_mul(o.num, self.den)

    # --- printing ---

    def __repr__(self):
        num = _lp_str(self.field, self.num)
        if self.den == {(0,) * len(self.field.series_params()): self.field.coeff_one()}:
            return num
        return "(%s)/(%s)" % (num, _lp_str(self.field, self.den))


def _coeff_str(c):
    if isinstance(c, FqElem):
        s = repr(c)
        return "(%s)" % s if ("+" in s or "^" in s or "*" in s) else s
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%d/%d" % (c.numerator, c.denominator)
    return str(int(c))


def _lp_str(field, a):
    if not a:
        return "0"
    sp = field.series_params()
    items = sorted(a.items(), key=_monomial_key(field))
    signed = isinstance(next(iter(a.values())), (int, Fraction))
    parts = []
    for k, c in items:
        neg = signed and c < 0
        cc = -c if neg else c
        vars_part = "*".join(
            v if e == 1 else "%s^%d" % (v, e) for v, e in zip(sp, k) if e != 0
        )
        if vars_part and (cc == 1):
            body = vars_part
        elif vars_part:
            body = "%s*%s" % (_coeff_str(cc), vars_part)
        else:
            body = _coeff_str(cc)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)
