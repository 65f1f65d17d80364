"""Expression grammar shared by elements, sequence families and polynomials.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := (integer | name ['^' exponent] | '(' expr ')') ['^' exponent]

Exponents are signed integers or parenthesized affine expressions in n, e.g.
t^-1, u^(n), t^(2*n+1); on a parenthesized expression only integers.  What a
name means (series parameter, finite field generator, scheme variable) is
decided by the handler, so the one grammar serves every consumer; element
parsing rejects any n-dependence.
"""

from __future__ import annotations

import re

from .elements import Element
from .errors import ParseError, UnknownParameterError

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z_]\w*)|(\^|\*|/|\+|-|\(|\)|,))")


def tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], text, pos)
            break
        if m.group(1):
            out.append(("num", int(m.group(1)), pos))
        elif m.group(2):
            out.append(("name", m.group(2), pos))
        else:
            out.append(("op", m.group(3), pos))
        pos = m.end()
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


class ElementHandler:
    """Builds Elements; names resolve to series parameters or the finite
    field generator."""

    def __init__(self, field):
        self.field = field

    def const(self, k):
        return Element.from_coeff(self.field, k)

    def int_power(self, base, a, b, pos):
        if a != 0:
            raise ParseError("n is only allowed in sequence exponents", pos=pos)
        return self._ipow(self.const(base), b, pos)

    def powered(self, name, a, b, pos):
        if a != 0:
            raise ParseError("n is only allowed in sequence exponents", pos=pos)
        if name in self.field.series_params():
            return Element.monomial(self.field, 1, **{name: b})
        fq = self.field.fq()
        if fq is not None and fq.deg > 1 and name == fq.gen:
            return self._ipow(Element.from_coeff(self.field, fq.generator()), b, pos)
        raise UnknownParameterError("unknown symbol %r" % name, pos=pos)

    def node_power(self, node, b, pos):
        return self._ipow(node, b, pos)

    def _ipow(self, node, b, pos):
        try:
            return node ** b
        except ZeroDivisionError:
            raise ParseError("negative power of zero", pos=pos)


def parse_element(field, text):
    return ExprParser(text, ElementHandler(field)).parse()
