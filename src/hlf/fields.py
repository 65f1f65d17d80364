"""Field tower descriptors.

A descriptor is the finite data of an n-dimensional field built from a base
(finite field, Q, or Q_p) by repeated Laurent series extensions base((t)) and,
directly over Q_p only, the standard mixed extension Q_p{{t}} whose elements
are series sum a_i t^i with p-adically bounded, vanishing-at-minus-infinity
coefficients and uniformizer p.

The ordered parameter system (t_1, ..., t_n) has t_n a uniformizer at the top
and each t_i reducing to a uniformizer one level down.  For Q_p((t)) that
system is (p, t); for Q_p{{t}} it is (t, p).  Exponent tuples of monomials are
aligned with series_params(), the subset of parameters that are actual Laurent
variables, ordered bottom to top.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeff import FqField, _prime_power, padic_val
from .errors import ParseError, UnsupportedFieldError


class FieldDescriptor:
    """Shared interface; concrete shapes are the four subclasses below."""

    dim = 0
    #: True when distinct monomials are in valuation order exactly when
    #: their reversed exponent tuples are: towers of ((t)) over F_q, Q or
    #: Qp, where a coefficient's p-adic valuation is the bottom component
    #: and is reached only between equal exponents.  False over Qp{{t}},
    #: where it outranks the exponent of t, and over towers above it
    orders_by_reversed_exps = False

    def residue(self):
        """Descriptor of the first residue field, or None at dimension 0."""
        return None

    def params(self):
        return ()

    def series_params(self):
        return ()

    def prime(self):
        """p when coefficients carry a p-adic valuation, else None."""
        return None

    def char(self):
        return 0

    def last_residue(self):
        # descriptors are immutable: the walk down the tower is made once
        try:
            return self._last
        except AttributeError:
            r = self.residue()
            self._last = self if r is None else r.last_residue()
            return self._last

    def fq(self):
        """The finite coefficient field for equal characteristic towers."""
        try:
            return self._fq
        except AttributeError:
            last = self.last_residue()
            self._fq = last.field if isinstance(last, FiniteBase) \
                and self.char() > 0 else None
            return self._fq

    def monomial_valuation(self, coeff, exps):
        """Rank-dim valuation vector (v_1, ..., v_n) of coeff * prod vars^exps."""
        raise NotImplementedError

    def coerce_coeff(self, c):
        raise NotImplementedError

    def coeff_one(self):
        # one per descriptor: coefficients are immutable, so it is shared
        try:
            return self._one
        except AttributeError:
            self._one = self.coerce_coeff(1)
            return self._one

    def coeff_zero(self):
        return self.coerce_coeff(0)

    def __ne__(self, other):
        return not self.__eq__(other)


class FiniteBase(FieldDescriptor):
    orders_by_reversed_exps = True

    def __init__(self, field: FqField):
        self.field = field

    def char(self):
        return self.field.p

    def monomial_valuation(self, coeff, exps):
        return ()

    def coerce_coeff(self, c):
        return self.field(c)

    def __eq__(self, other):
        return isinstance(other, FiniteBase) and other.field == self.field

    def __hash__(self):
        return hash(("fin", self.field))

    def __repr__(self):
        return repr(self.field)


class RationalBase(FieldDescriptor):
    """The field Q as a coefficient base.  Towers over it are constructible
    but carry no canonical choice of topology data beyond the level rules."""

    orders_by_reversed_exps = True

    def monomial_valuation(self, coeff, exps):
        return ()

    def coerce_coeff(self, c):
        return Fraction(c)

    def __eq__(self, other):
        return isinstance(other, RationalBase)

    def __hash__(self):
        return hash("ratbase")

    def __repr__(self):
        return "Q"


class QpBase(FieldDescriptor):
    dim = 1
    # no series parameter: a Laurent polynomial has one monomial at most
    orders_by_reversed_exps = True

    def __init__(self, p):
        if _prime_power(p)[1] != 1:
            raise UnsupportedFieldError("Qp needs a prime, got %d" % p)
        self.p = p

    def residue(self):
        try:
            return self._residue
        except AttributeError:
            self._residue = FiniteBase(FqField(self.p))
            return self._residue

    def params(self):
        return (str(self.p),)

    def prime(self):
        return self.p

    def monomial_valuation(self, coeff, exps):
        return (padic_val(coeff, self.p),)

    def coerce_coeff(self, c):
        return Fraction(c)

    def __eq__(self, other):
        return isinstance(other, QpBase) and other.p == self.p

    def __hash__(self):
        return hash(("qp", self.p))

    def __repr__(self):
        return "Qp(%d)" % self.p


class SeriesExt(FieldDescriptor):
    """base((param)): equal characteristic at the top level."""

    def __init__(self, base, param):
        if not isinstance(base, FieldDescriptor):
            raise UnsupportedFieldError("series extension needs a descriptor base")
        if param in base.params():
            raise UnsupportedFieldError("parameter %r reused" % param)
        self.base = base
        self.param = param
        self.dim = base.dim + 1
        self._params = base.params() + (param,)
        self._series = base.series_params() + (param,)
        self.orders_by_reversed_exps = base.orders_by_reversed_exps
        # descriptors are immutable and key per-field caches: hash once
        self._hash = hash(("ser", param, base))

    def residue(self):
        return self.base

    def params(self):
        return self._params

    def series_params(self):
        return self._series

    def prime(self):
        return self.base.prime()

    def char(self):
        return self.base.char()

    def monomial_valuation(self, coeff, exps):
        return self.base.monomial_valuation(coeff, exps[:-1]) + (exps[-1],)

    def coerce_coeff(self, c):
        return self.base.coerce_coeff(c)

    def __eq__(self, other):
        return (
            isinstance(other, SeriesExt)
            and other.param == self.param
            and other.base == self.base
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%r((%s))" % (self.base, self.param)


class MixedExt(FieldDescriptor):
    """Qp{{param}}: standard mixed characteristic, uniformizer p, residue
    field F_p((param)).  Only allowed directly over a QpBase."""

    dim = 2

    def __init__(self, base, param):
        if not isinstance(base, QpBase):
            raise UnsupportedFieldError(
                "{{t}} extension is only supported directly over Qp")
        if param == str(base.p):
            raise UnsupportedFieldError("parameter %r shadows the prime" % param)
        self.base = base
        self.param = param
        self._hash = hash(("mix", param, base))

    def residue(self):
        try:
            return self._residue
        except AttributeError:
            self._residue = SeriesExt(self.base.residue(), self.param)
            return self._residue

    def params(self):
        return (self.param,) + self.base.params()

    def series_params(self):
        return (self.param,)

    def prime(self):
        return self.base.p

    def monomial_valuation(self, coeff, exps):
        return (exps[0], padic_val(coeff, self.base.p))

    def coerce_coeff(self, c):
        return Fraction(c)

    def __eq__(self, other):
        return (
            isinstance(other, MixedExt)
            and other.param == self.param
            and other.base == self.base
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%r{{%s}}" % (self.base, self.param)


# --- descriptor strings ------------------------------------------------------

_BASE_RE = re.compile(r"^(Fq\((\d+)(;([^)]*))?\)|Qp\((\d+)\)|Q)")
_EXT_RE = re.compile(r"^(\(\((\w+)\)\)|\{\{(\w+)\}\})")


def parse_field(text):
    """Parse a descriptor string such as Fq(5)((u))((t)), Fq(4;w^2+w+1)((u)),
    Qp(3)((t)), Qp(3){{t}} or Q((t))."""
    if not isinstance(text, str):
        raise ParseError("a field descriptor must be a string, not %r" % (text,))
    s = text.strip()
    m = _BASE_RE.match(s)
    if not m:
        raise ParseError("unrecognized base field", text, 0)
    if m.group(0).startswith("Fq"):
        q = int(m.group(2))
        modtext = m.group(4)
        try:
            base = FiniteBase(_fq_from_text(q, modtext, text))
        except ValueError as e:
            raise UnsupportedFieldError(str(e))
    elif m.group(0).startswith("Qp"):
        base = QpBase(int(m.group(5)))
    else:
        base = RationalBase()
    pos = m.end()
    field = base
    while pos < len(s):
        m = _EXT_RE.match(s[pos:])
        if not m:
            raise ParseError("expected ((param)) or {{param}}", text, pos)
        if m.group(2):
            field = SeriesExt(field, m.group(2))
        else:
            field = MixedExt(field, m.group(3))
        pos += m.end()
    return field


def _fq_from_text(q, modtext, fulltext):
    if modtext is None:
        return FqField(q)
    # modulus like w^2+w+1; single generator symbol, integer coefficients
    gens = sorted(set(re.findall(r"[a-zA-Z]\w*", modtext)))
    if len(gens) != 1:
        raise ParseError("modulus needs exactly one symbol", fulltext)
    gen = gens[0]
    p, deg_needed = _prime_power(q)
    coeffs = [0] * (deg_needed + 1)
    for term in re.findall(r"[+-]?[^+-]+", modtext.replace(" ", "")):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if "*" in body:
            c, _, mono = body.partition("*")
        else:
            c, mono = ("1", body) if body.startswith(gen) else (body, None)
        e = 0 if mono is None else 1 if mono == gen else int(mono[len(gen) + 1:])
        if e > deg_needed:
            raise ParseError("modulus term %r is past degree %d"
                             % (term, deg_needed), fulltext)
        coeffs[e] += sign * int(c)
    return FqField(q, modulus=tuple(c % p for c in coeffs), gen=gen)
