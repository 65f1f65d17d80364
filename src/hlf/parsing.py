"""The one expression grammar: elements, families, polynomials, rational
maps and the F_q modulus all read through it.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := (integer | name ['^' exponent] | '(' expr ')') ['^' exponent]

Exponents are signed integers or parenthesized affine expressions in n, e.g.
t^-1, u^(n), t^(2*n+1); on a parenthesized expression only integers.  What a
name (NAME) means, series parameter, finite field generator or scheme
variable, is decided by the handler; element parsing rejects any n-dependence.

Element and family parsing keep a product, quotient, power or negation of
monomials as one TermNode, whose monomial *, / and ^ are exact and need no
normalization.  whole() makes the value only at a sum or a difference, at
an operand that is already a value, and at the end, so each sum of elements
still goes through Element.__add__, whose shortcut for equal denominators
relies on normalized ones.  The result is the one that factor-by-factor
arithmetic gives, with the same entries in the same order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, sub

from .elements import Element
from .errors import ParseError, PrecisionExhaustedError, UnknownParameterError

NAME = r"[a-zA-Z_]\w*"

#: Bits a power c^k of a rational coefficient in the grammar may reach,
#: estimated as |k| times the larger bit length of c's numerator and
#: denominator; the largest power the tests and the check suites read,
#: 3^30000, is 60,000 by that estimate.
LITERAL_POWER_BITS = 1 << 20


def check_literal_power(c, k):
    """Refuses c**k for a rational c whose estimated size passes
    LITERAL_POWER_BITS; 0, 1 and -1 never grow, nor does a finite field
    coefficient."""
    if not isinstance(c, (int, Fraction)):
        return
    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    if bits > 1 and abs(k) * bits > LITERAL_POWER_BITS:
        base = str(c) if c.denominator == 1 and c > 0 else "(%s)" % c
        raise PrecisionExhaustedError(
            "literal power %s^%d would hold ~%d bits, past the bound of %d"
            % (base, k, abs(k) * bits, LITERAL_POWER_BITS))


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(%s)|(\^|\*|/|\+|-|\(|\)|,))" % NAME)


def tokenize(text):
    pos = 0
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastindex
        if kind == 1:
            out.append(("num", int(m.group(1)), pos))
        else:
            out.append(("name" if kind == 2 else "op", m.group(kind), pos))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError("unexpected character %r" % text[pos], text, pos)
    out.append(("end", None, len(text)))
    return out


class ExprParser:
    """Recursive descent over a handler that builds the leaves (const,
    int_power, powered, node_power); the nodes carry their own + - * / and
    unary minus, and a zero divisor is a ParseError."""

    def __init__(self, text, handler):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.h = handler

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, self.text, pos)

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return node

    def expr(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            node = -self.term()
        else:
            node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in "*/":
                return node
            self.take()
            rhs = self.factor()
            if val == "*":
                node = node * rhs
                continue
            try:
                node = node / rhs
            except ZeroDivisionError:
                raise ParseError("division by zero", self.text, pos)

    def factor(self):
        kind, val, pos = self.take()
        if kind == "num":
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "^":
                self.take()
                a, b = self.exponent()
                return self.h.int_power(val, a, b, pos)
            return self.h.const(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "^":
                self.take()
                a, b = self.exponent()
                if a != 0:
                    raise ParseError("n-dependent exponent on an expression",
                                     self.text, pos2)
                node = self.h.node_power(node, b, pos2)
            return node
        if kind == "name":
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "^":
                self.take()
                a, b = self.exponent()
                return self.h.powered(val, a, b, pos)
            return self.h.powered(val, 0, 1, pos)
        raise ParseError("expected a factor", self.text, pos)

    def exponent(self):
        """Returns (a, b) meaning a*n + b."""
        kind, val, pos = self.peek()
        if kind == "num":
            self.take()
            return 0, val
        if kind == "op" and val == "-":
            self.take()
            kind, val, pos = self.take()
            if kind == "num":
                return 0, -val
            if kind == "name" and val == "n":
                return -1, 0
            raise ParseError("bad exponent", self.text, pos)
        if kind == "name" and val == "n":
            self.take()
            return 1, 0
        if kind == "op" and val == "(":
            self.take()
            a, b = self.affine()
            self.expect_op(")")
            return a, b
        raise ParseError("bad exponent", self.text, pos)

    def affine(self):
        a, b = 0, 0
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        while True:
            da, db = self.affine_term(sign)
            a += da
            b += db
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                sign = 1 if val == "+" else -1
            else:
                return a, b

    def affine_term(self, sign):
        kind, val, pos = self.take()
        if kind == "num":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "*":
                self.take()
                k3, v3, p3 = self.take()
                if k3 == "name" and v3 == "n":
                    return sign * val, 0
                raise ParseError("expected n after coefficient", self.text, p3)
            return 0, sign * val
        if kind == "name" and val == "n":
            return sign, 0
        raise ParseError("bad affine exponent term", self.text, pos)


class TermNode:
    """A parse node that stands for one term of the value it builds.  A
    subclass keeps the monomial fast paths: mul and div against a node of
    its own class, ** and unary minus; whole() builds the value, and a sum,
    a difference or an operand of another kind goes through it."""

    __slots__ = ()

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            return self.mul(other)
        return self.whole() * other

    def __truediv__(self, other):
        if other.__class__ is self.__class__:
            return self.div(other)
        return self.whole() / other

    def __add__(self, other):
        return self.whole() + whole(other)

    def __sub__(self, other):
        return self.whole() - whole(other)

    def __rmul__(self, other):
        return other * self.whole()

    def __rtruediv__(self, other):
        return other / self.whole()

    def __radd__(self, other):
        return other + self.whole()

    def __rsub__(self, other):
        return other - self.whole()


def whole(node):
    """The value a parse node stands for: a term node's whole(), any other
    node as it is."""
    return node.whole() if isinstance(node, TermNode) else node


class _Monomial(TermNode):
    """coeff * prod params^exps while parsing an element, exps aligned
    with the field's series parameters."""

    __slots__ = ("field", "coeff", "exps")

    def __init__(self, field, coeff, exps):
        self.field = field
        self.coeff = coeff
        self.exps = exps

    def whole(self):
        c = self.coeff
        return Element.make(self.field, {self.exps: c} if c else {})

    def __neg__(self):
        return _Monomial(self.field, -self.coeff, self.exps)

    def mul(self, other):
        return _Monomial(self.field, self.coeff * other.coeff,
                         tuple(map(add, self.exps, other.exps)))

    def div(self, other):
        if not other.coeff:
            raise ZeroDivisionError("inverse of zero")
        return _Monomial(self.field, self.coeff / other.coeff,
                         tuple(map(sub, self.exps, other.exps)))

    def __pow__(self, k):
        # a zero coefficient raises ZeroDivisionError on a negative k
        check_literal_power(self.coeff, k)
        return _Monomial(self.field, self.coeff ** k,
                         tuple(e * k for e in self.exps))


class ElementHandler:
    """Builds element parse nodes, term nodes where it can; names resolve
    to series parameters or the finite field generator."""

    def __init__(self, field):
        self.field = field
        self.const_exps = (0,) * len(field.series_params())

    def const(self, k):
        return _Monomial(self.field, self.field.coerce_coeff(k),
                         self.const_exps)

    def int_power(self, base, a, b, pos):
        if a != 0:
            raise ParseError("n is only allowed in sequence exponents", pos=pos)
        return self.node_power(self.const(base), b, pos)

    def powered(self, name, a, b, pos):
        if a != 0:
            raise ParseError("n is only allowed in sequence exponents", pos=pos)
        f = self.field
        sp = f.series_params()
        if name in sp:
            return _Monomial(f, f.coeff_one(),
                             tuple(b if v == name else 0 for v in sp))
        fq = f.fq()
        if fq is not None and fq.deg > 1 and name == fq.gen:
            return self.node_power(
                _Monomial(f, fq.generator(), self.const_exps), b, pos)
        raise UnknownParameterError("unknown symbol %r" % name, pos=pos)

    def node_power(self, node, b, pos):
        try:
            return node ** b
        except ZeroDivisionError:
            raise ParseError("negative power of zero", pos=pos)


def parse_element(field, text):
    return whole(ExprParser(text, ElementHandler(field)).parse())
