"""Element and family parsing on term nodes agrees with the factor-by-factor
build it replaces.

The reference handlers below are the ones that built an Element or a
SeqFamily after every factor, with the family arithmetic (merge, negation,
difference, powers) as it was before terms kept their key; the parsers
must give the same entries in the same order, and the same errors.
"""

import random
import re
from fractions import Fraction

import pytest
from conftest import same_element

from hlf import sequences
from hlf.coeff import power
from hlf.elements import Element
from hlf.errors import (HlfError, ParseError, UnknownParameterError,
                        UnsupportedFamilyError, ZeroElementError)
from hlf.fields import parse_field
from hlf.parsing import ExprParser, parse_element, tokenize
from hlf.sequences import AffineForm, SeqFamily, Term, parse_family

# the three benchmark fields and an F_q extension with generator w
FIELDS = [parse_field(text) for text in (
    "Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}", "Fq(4;w^2+w+1)((u))")]


# --- reference: an Element after every factor ------------------------------------

class RefElementHandler:
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
            return self._ipow(Element.from_coeff(self.field, fq.generator()),
                              b, pos)
        raise UnknownParameterError("unknown symbol %r" % name, pos=pos)

    def node_power(self, node, b, pos):
        return self._ipow(node, b, pos)

    def _ipow(self, node, b, pos):
        try:
            return node ** b
        except ZeroDivisionError:
            raise ParseError("negative power of zero", pos=pos)


# --- reference: a family after every factor --------------------------------------

def ref_key(t):
    return (tuple(sorted((k, f.key()) for k, f in t.exps.items())), t.pa)


def ref_merge(terms):
    out = {}
    for t in terms:
        if t.coeff == 0:
            continue
        k = ref_key(t)
        if k in out:
            out[k] = Term(out[k].coeff + t.coeff, t.exps, t.pa)
        else:
            out[k] = t
    return tuple(t for t in out.values() if t.coeff != 0)


class RefFamily:
    def __init__(self, field, num, den=None):
        self.field = field
        self.num = ref_merge(num)
        self.den = ref_merge([Term(field.coeff_one())] if den is None else den)
        if not self.den:
            raise ZeroElementError("zero denominator family")

    def __add__(self, other):
        num = [a.mul(b) for a in self.num for b in other.den]
        num += [a.mul(b) for a in other.num for b in self.den]
        return RefFamily(self.field, num,
                         [a.mul(b) for a in self.den for b in other.den])

    def __neg__(self):
        return RefFamily(self.field,
                         [Term(-t.coeff, t.exps, t.pa) for t in self.num],
                         list(self.den))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RefFamily(self.field,
                         [a.mul(b) for a in self.num for b in other.num],
                         [a.mul(b) for a in self.den for b in other.den])

    def __truediv__(self, other):
        if not other.num:
            raise ZeroElementError("division by the zero family")
        return RefFamily(self.field,
                         [a.mul(b) for a in self.num for b in other.den],
                         [a.mul(b) for a in self.den for b in other.num])

    def __pow__(self, k):
        x = RefFamily(self.field, list(self.den), list(self.num)) \
            if k < 0 else self
        return power(x, abs(k), RefFamily(self.field,
                                          [Term(self.field.coeff_one())]))


class RefFamilyHandler:
    def __init__(self, field):
        self.field = field

    def const(self, k):
        return RefFamily(self.field, [Term(self.field.coerce_coeff(k))])

    def int_power(self, base, a, b, pos):
        if a == 0:
            return self.const(base) ** b
        p = self.field.prime()
        if p is None or base != p:
            raise UnsupportedFamilyError(
                "only %s^(...) may carry an n-dependent exponent here"
                % (p if p is not None else "a prime"))
        coeff = self.field.coerce_coeff(1) * Fraction(p) ** b
        return RefFamily(self.field, [Term(coeff, {}, a)])

    def powered(self, name, a, b, pos):
        f = self.field
        if name == "n":
            raise UnsupportedFamilyError("n may only appear in exponents")
        if name in f.series_params():
            return RefFamily(f, [Term(f.coeff_one(),
                                      {name: AffineForm(a, b)})])
        fq = f.fq()
        if fq is not None and fq.deg > 1 and name == fq.gen:
            if a != 0:
                raise UnsupportedFamilyError(
                    "generator powers cannot depend on n")
            return RefFamily(f, [Term(fq.generator())]) ** b
        raise ParseError("unknown symbol %r" % name, pos=pos)

    def node_power(self, node, b, pos):
        return node ** b


def sides(fam):
    """Each side as (key, coefficient) pairs in order; the key a term
    keeps is the one worked out from its forms."""
    for t in fam.num + fam.den:
        assert isinstance(fam, RefFamily) or t.key == ref_key(t)
    return ([(ref_key(t), t.coeff) for t in fam.num],
            [(ref_key(t), t.coeff) for t in fam.den])


def outcome(build):
    try:
        return build(), None
    except HlfError as err:
        return None, (type(err), str(err))


# --- random texts ----------------------------------------------------------------

def _exponent(rng, family):
    if family and rng.random() < 0.35:
        return "^" + rng.choice(("n", "-n", "(2*n+1)", "(n-2)", "(-n+3)"))
    k = rng.randint(-3, 4)
    return "^%d" % k if k >= 0 or rng.random() < 0.5 else "^(%d)" % k


def _factor(rng, field, depth, family):
    names = list(field.series_params())
    fq = field.fq()
    if fq is not None and fq.deg > 1:
        names.append(fq.gen)
    r = rng.random()
    if depth and r < 0.2:
        body = "(%s)" % _expr(rng, field, depth - 1, family)
        return body + ("^%d" % rng.randint(-2, 3) if rng.random() < 0.3 else "")
    if r < 0.5:
        p = field.prime()
        if family and p is not None and rng.random() < 0.3:
            return "%d%s" % (p, _exponent(rng, True))
        body = str(rng.choice((0, 1, 2, 3, 4, 5, 6, 9, 10, 25, 27)))
        return body + (_exponent(rng, False) if rng.random() < 0.3 else "")
    name = rng.choice(names)
    if rng.random() < 0.7:
        return name + _exponent(rng, family and name in field.series_params())
    return name


def _term(rng, field, depth, family):
    out = _factor(rng, field, depth, family)
    for _ in range(rng.randint(0, 3)):
        out += rng.choice("*/") + _factor(rng, field, depth, family)
    return out


def _expr(rng, field, depth, family):
    out = ("-" if rng.random() < 0.2 else "") + _term(rng, field, depth, family)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        out += rng.choice((" + ", " - "))
        out += _term(rng, field, depth, family)
    return out


def random_texts(seed, field, family, count=250):
    rng = random.Random("%s:%r:%s" % (seed, field, family))
    return [_expr(rng, field, 2, family) for _ in range(count)]


# --- the parsers agree with the references ---------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_element_parse_matches_the_factor_by_factor_build(field):
    errors = 0
    for text in random_texts("elem", field, False):
        got, got_err = outcome(lambda: parse_element(field, text))
        want, want_err = outcome(
            lambda: ExprParser(text, RefElementHandler(field)).parse())
        assert got_err == want_err, text
        if want_err is None:
            assert isinstance(got, Element)
            assert same_element(got, want), (text, got, want)
        else:
            errors += 1
    # zero divisors and negative powers of zero come up in the draw
    assert 0 < errors < 125


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_family_parse_matches_the_factor_by_factor_build(field):
    errors = 0
    for text in random_texts("fam", field, True):
        got, got_err = outcome(lambda: parse_family(field, text))
        want, want_err = outcome(
            lambda: ExprParser(text, RefFamilyHandler(field)).parse())
        assert got_err == want_err, text
        if want_err is None:
            assert isinstance(got, SeqFamily)
            assert sides(got) == sides(want), text
        else:
            errors += 1
    assert 0 < errors < 125


@pytest.mark.parametrize("text,error,message", [
    ("t/(u-u)", ParseError, "division by zero"),
    ("1/5*t", ParseError, "division by zero"),
    ("t*0^-2", ParseError, "negative power of zero"),
    ("(t - t)^(-1)", ParseError, "negative power of zero"),
    ("2*x^2", UnknownParameterError, "unknown symbol 'x'"),
    ("t^(n)", ParseError, "n is only allowed in sequence exponents"),
])
def test_element_errors_are_the_factor_by_factor_ones(text, error, message):
    field = FIELDS[0]
    with pytest.raises(error) as got:
        parse_element(field, text)
    assert message in str(got.value)
    assert outcome(lambda: parse_element(field, text))[1] == outcome(
        lambda: ExprParser(text, RefElementHandler(field)).parse())[1]


@pytest.mark.parametrize("text,error,message", [
    ("t^n/0", ZeroElementError, "division by the zero family"),
    ("t^n/(5*u)", ZeroElementError, "division by the zero family"),
    ("t^n/(u^n - u^n)", ZeroElementError, "division by the zero family"),
    ("t^n*0^-1", ZeroElementError, "zero denominator family"),
    ("2*x^n", ParseError, "unknown symbol 'x'"),
])
def test_family_errors_are_the_factor_by_factor_ones(text, error, message):
    field = FIELDS[0]
    with pytest.raises(error) as got:
        parse_family(field, text)
    assert message in str(got.value)
    assert outcome(lambda: parse_family(field, text))[1] == outcome(
        lambda: ExprParser(text, RefFamilyHandler(field)).parse())[1]


def test_a_negative_constant_power_keeps_its_sides():
    fam = parse_family(FIELDS[1], "3^(-2)")
    assert [t.coeff for t in fam.num] == [1]
    assert [t.coeff for t in fam.den] == [9]


# --- less construction ------------------------------------------------------------

def _count(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)
    if isinstance(owner.__dict__[name], classmethod):
        def counted(cls, *args, **kw):
            calls.append(1)
            return orig(*args, **kw)
        monkeypatch.setattr(owner, name, classmethod(counted))
    else:
        def counted(*args, **kw):
            calls.append(1)
            return orig(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("text", ["1/3*t^-3", "-2*u^2*t/9", "(t^2)^-3*u"])
def test_a_monomial_text_normalizes_once(text, monkeypatch):
    field = FIELDS[2] if "u" not in text else FIELDS[0]
    want = ExprParser(text, RefElementHandler(field)).parse()
    makes = _count(monkeypatch, Element, "make")
    got = parse_element(field, text)
    assert len(makes) == 1
    assert same_element(got, want)


def test_a_monomial_family_is_built_once(monkeypatch):
    field = FIELDS[0]
    builds = _count(monkeypatch, SeqFamily, "__init__")
    parse_family(field, "2*u^(n+1)/t^(2*n)*(t/u)^3")
    assert len(builds) == 1


def test_a_difference_builds_one_family(monkeypatch):
    f = parse_family(FIELDS[0], "t^n + u")
    g = parse_family(FIELDS[0], "t^(n+1)/(1 - u^n)")
    want = RefFamily(f.field, f.num, f.den) - RefFamily(g.field, g.num, g.den)
    builds = _count(monkeypatch, SeqFamily, "__init__")
    assert sides(f - g) == sides(want)
    assert len(builds) == 1


def test_a_first_power_is_the_family_itself():
    f = parse_family(FIELDS[0], "t^n + u")
    assert f ** 1 is f


def test_the_crossing_bound_is_worked_out_once(monkeypatch):
    fam = parse_family(FIELDS[0], "t^n + t^3 + u*t^(2*n-4)")
    calls = _count(monkeypatch, sequences, "_pair_crossing")
    assert fam.crossing_bound() == 4
    first = len(calls)
    assert fam.val_form() == (AffineForm(0, 0), AffineForm(0, 3))
    assert fam.crossing_bound() == 4
    assert len(calls) == first == 3


# --- tokens ------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z_]\w*)|(\^|\*|/|\+|-|\(|\)|,))")


def ref_tokenize(text):
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


def test_tokens_match_the_match_by_match_scan():
    rng = random.Random("tokens")
    alphabet = "0129tu_wn^*/+-(),$. \t\n"
    for _ in range(5000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 14)))
        got = outcome(lambda: tokenize(text))
        want = outcome(lambda: ref_tokenize(text))
        assert got == want, text
