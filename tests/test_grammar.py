"""Every text reads through the one expression grammar: the F_q modulus,
series parameters, presentation polynomials and rational maps, elements
and families share its tokens and its syntax errors."""

import hashlib
import json
import random
import re
import sys

import pytest

from hlf.cli import main
from hlf.errors import ParseError, PrecisionExhaustedError
from hlf.fields import parse_field
from hlf.parsing import parse_element
from hlf.points import (AffinePresentation, BaseRing, ChartedScheme,
                        parse_poly, parse_rat)
from hlf.sequences import parse_family

F5UT, Q3T, Q3M = (parse_field(text) for text in (
    "Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}"))


def _val(capsys, field):
    code = main(["val", "--field", field, "--elem", "1"])
    out, err = capsys.readouterr()
    return code, out, err


# --- the F_q modulus ------------------------------------------------------------

@pytest.mark.parametrize("field, code, out, err", [
    # the accepted w^2 + 2*w + 2, with the coefficient after the symbol
    ("Fq(9;w^2+w*2+2)((t))", 0, "(0,)\n", ""),
    ("Fq(4;(w+1)*w+1)((t))", 0, "(0,)\n", ""),
    # 2 is 0 mod 2, so the modulus is w + 1
    ("Fq(4;2^1*w^2+w+1)((t))", 2, "",
     "error: modulus must be monic of degree 2\n"),
    ("Fq(4;w^2+w+1+)((t))", 2, "",
     "error: modulus 'w^2+w+1+': expected a factor (at position 8)\n"),
])
def test_a_modulus_reads_in_the_element_grammar(field, code, out, err, capsys):
    assert _val(capsys, field) == (code, out, err)


@pytest.mark.parametrize("text, message", [
    ("Fq(4;w^2+1/w)((t))", "modulus 'w^2+1/w' is no polynomial in w"),
    ("Fq(4;w^2+w+v)((t))", "modulus needs exactly one symbol"),
])
def test_a_modulus_that_is_no_polynomial_in_one_symbol_is_refused(text,
                                                                   message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_field(text)


# the moduli the repository uses, as (q, p, {exponent: coefficient})
MODULI = [(4, 2, {2: 1, 1: 1, 0: 1}), (25, 5, {2: 1, 1: 1, 0: 2}),
          (9, 3, {2: 1, 1: 2, 0: 2}), (8, 2, {3: 1, 1: 1, 0: 1})]


def _piece(rng, v, e):
    """One term of value v at exponent e, written in one of its forms;
    the sign is left to the caller."""
    v = abs(v)
    if e == 0 and rng.random() < 0.8:
        return str(v)
    mono = "w" if e == 1 and rng.random() < 0.5 else "w^%d" % e
    if v == 1 and rng.random() < 0.5:
        return mono
    return rng.choice(("%d*%s" % (v, mono), "%s*%d" % (mono, v)))


def _spelling(rng, p, coeffs):
    pieces = []
    for e, c in coeffs.items():
        parts = [c]
        if rng.random() < 0.4:
            a = rng.randrange(p)
            parts = [a, c - a]
        for v in parts:
            pieces.append((v + p * rng.choice((-1, 0, 0, 1)), e))
    rng.shuffle(pieces)
    out = ""
    for i, (v, e) in enumerate(pieces):
        sp = lambda: " " * rng.choice((0, 0, 1))
        sign = "-" if v < 0 else "+" if i else ""
        out += sp() + sign + sp() + _piece(rng, v, e)
    return out


@pytest.mark.parametrize("q, p, coeffs", MODULI,
                         ids=["F%d" % m[0] for m in MODULI])
def test_every_spelling_of_a_modulus_gives_one_field(q, p, coeffs):
    canonical = parse_field("Fq(%d;%s)((t))" % (q, " + ".join(
        _piece(random.Random(0), c, e) for e, c in coeffs.items())))
    want = tuple(coeffs.get(e, 0) for e in range(max(coeffs) + 1))
    assert canonical.fq().modulus == want
    rng = random.Random("modulus:%d" % q)
    for _ in range(60):
        text = _spelling(rng, p, coeffs)
        field = parse_field("Fq(%d;%s)((t))" % (q, text))
        assert field == canonical, text
        assert field.fq().gen == "w"


# --- series parameters ------------------------------------------------------------

@pytest.mark.parametrize("field", [
    "Fq(5)((1))", "Fq(5)((2t))", "Q((n))", "Fq(4;u^2+u+1)((u))((t))"])
def test_a_parameter_the_element_grammar_cannot_write_is_refused(field,
                                                                 capsys):
    with pytest.raises(ParseError):
        parse_field(field)
    code, out, err = _val(capsys, field)
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_a_prime_field_has_no_generator_to_clash_with():
    assert parse_field("Fq(5)((w))").series_params() == ("w",)


# --- presentation polynomials and rational maps -----------------------------------

def _laurent(rng, field):
    """A Laurent polynomial coefficient: monomials over the series
    parameters with constants that are units in every field here."""
    def mono():
        c = rng.choice(("1", "2", "4", "7", "2^-1", "4^-1"))
        exps = ["%s^%d" % (v, rng.randint(-3, 3))
                for v in field.series_params() if rng.random() < 0.6]
        return "*".join([c] + exps)
    if rng.random() < 0.3:
        return "(%s %s %s)" % (mono(), rng.choice("+-"), mono())
    return mono()


def _monomial_divisor(rng, field):
    v = rng.choice(field.series_params())
    return rng.choice(("2", "(4*%s)" % v, "%s^2" % v, "(2^-1*%s^-1)" % v))


def _poly_term(rng, field, rat):
    factors = [_laurent(rng, field)] if rng.random() < 0.8 else []
    for v in ("X", "Y"):
        if rng.random() < 0.6:
            k = rng.randint(-2 if rat else 0, 3)
            factors.append(v if k == 1 and rng.random() < 0.5
                           else "%s^%d" % (v, k))
    if rng.random() < 0.2:
        factors.append("(X %s %s)^%d" % (rng.choice("+-"),
                                         _laurent(rng, field),
                                         rng.randint(0, 3)))
    out = "*".join(factors) or "1"
    if rng.random() < 0.3:
        out += "/" + _monomial_divisor(rng, field)
    if rat and rng.random() < 0.3:
        out += "/" + rng.choice(("X", "(X + 1)", "(1 - X*Y)", "Y^2"))
    return out


def _draws(kind, count=200):
    rng = random.Random("presentation:" + kind)
    rat = kind == "rat"
    parse = parse_rat if rat else parse_poly
    out = []
    for _ in range(count):
        field = rng.choice((F5UT, Q3T, Q3M))
        terms = [_poly_term(rng, field, rat)
                 for _ in range(rng.randint(1, 4))]
        text = ("-" if rng.random() < 0.2 else "") + terms[0]
        for t in terms[1:]:
            text += rng.choice((" + ", " - ")) + t
        out.append((field, text, parse(field, ("X", "Y"), text).text()))
    return out


def _digest(draws):
    return hashlib.sha256("\n".join(
        "%r: %s -> %s" % d for d in draws).encode()).hexdigest()


@pytest.mark.parametrize("kind, digest", [
    ("poly",
     "4989e5d60990293c1518ab6567fa3d6e62adeafa68d8a44519001969e63e7175"),
    ("rat",
     "5f04a022cb6dd46f3c658d1b08121b1d8617863be086c11314c159680b52f18e"),
])
def test_presentation_texts_are_pinned(kind, digest):
    assert _digest(_draws(kind)) == digest


@pytest.mark.parametrize("gen, message", [
    ("X^-1", "division by a polynomial in the variables"),
    ("1/X", "division by a polynomial in the variables"),
    ("(X + 1)^-1", "division by a polynomial in the variables"),
    ("X^(n)", "n is only allowed in sequence exponents"),
    ("X/(X - X)", "division by zero"),
    ("0^-1", "negative power of zero"),
])
def test_a_generator_that_is_no_polynomial_is_refused(gen, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        AffinePresentation(BaseRing(F5UT), ("X",), [gen])


def test_a_unit_that_is_no_polynomial_is_refused():
    ring = BaseRing(F5UT)
    a, b = (AffinePresentation(ring, (v,), []) for v in "XY")
    with pytest.raises(ParseError):
        ChartedScheme(ring, [a, b], {(0, 1): ("1/X", ["1/X"]),
                                     (1, 0): ("Y", ["1/Y"])})


def test_a_constant_denominator_divides_out():
    assert parse_poly(Q3T, ("X",), "(2)^-1*X").text() == "(1/2)*X"


# --- one syntax-error contract ------------------------------------------------------

_READERS = {
    "element": lambda text: parse_element(F5UT, text),
    "family": lambda text: parse_family(F5UT, text),
    "poly": lambda text: parse_poly(F5UT, ("X",), text),
    "rat": lambda text: parse_rat(F5UT, ("X",), text),
    "modulus": lambda text: parse_field("Fq(4;%s)((t))" % text),
}
_BROKEN = {"trailing operator": "%s +", "unbalanced parenthesis": "(%s",
           "unknown character": "%s $ 1"}
_WHOLE = {"element": "t + u", "family": "t^n + u", "poly": "X*t + 1",
          "rat": "X/t + 1", "modulus": "w^2+w+1"}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("broken", sorted(_BROKEN))
def test_a_syntax_error_is_a_parse_error_everywhere(reader, broken):
    _READERS[reader](_WHOLE[reader])
    with pytest.raises(ParseError):
        _READERS[reader](_BROKEN[broken] % _WHOLE[reader])


# --- literal powers ---------------------------------------------------------------

_POWER_REFUSED = ("error: literal power 3^10000000 would hold ~20000000 "
                  "bits, past the bound of 1048576\n")


@pytest.mark.parametrize("argv", [
    ["val", "--field", "Qp(3)((t))", "--elem", "3^10000000"],
    ["val", "--field", "Qp(3)((t))", "--elem", "(3)^10000000"],
    ["val", "--field", "Qp(3){{t}}", "--elem", "t*3^10000000"],
    ["converge", "--field", "Qp(3)((t))", "--seq", "3^(n+10000000)"],
    ["converge", "--field", "Qp(3){{t}}", "--seq", "(3)^10000000*t^(n)"],
    ["converge", "--field", "Q((t))", "--seq", "t^(n)*3^10000000"],
], ids=lambda argv: argv[-1])
def test_a_huge_literal_power_is_refused(argv, deadline, capsys):
    with deadline(2):
        assert main(argv) == 2
    assert capsys.readouterr() == ("", _POWER_REFUSED)


@pytest.mark.parametrize("gen", ["(3)^10000000*X", "(3*X)^10000000",
                                 "(X/3)^10000000", "((3)^-1)^-10000000"])
def test_a_huge_constant_power_in_a_scheme_file_is_refused(gen, tmp_path,
                                                           deadline, capsys):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"ring": "Qp(3)((t))", "vars": ["X"],
                                "gens": [gen]}))
    with deadline(2):
        assert main(["points-member", "--scheme", str(path),
                     "--elem", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: literal power ")


def test_constant_powers_within_the_bound_parse_in_presentations():
    assert parse_poly(Q3T, ("X",), "(3)^2*X").text() == "9*X"
    assert parse_poly(Q3T, ("X",), "(X + 3)^3").text() \
        == "27 + 27*X + 9*X^2 + X^3"
    assert parse_rat(Q3T, ("X",), "(X/3)^-2").text() == "(9)/(X^2)"


def test_the_literal_power_bound_is_exact():
    # 2 has two bits: 2^(2^19) is at the bound, one more power past it
    assert parse_element(parse_field("Q((t))"), "2^524288").num \
        == {(0,): 2 ** 524288}
    with pytest.raises(PrecisionExhaustedError, match=r"^literal power "
                       r"\(1/2\)\^524289 would hold ~1048578 bits"):
        parse_element(parse_field("Q((t))"), "(1/2)^524289")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() prints any length here")
def test_a_base_too_long_to_print_is_named_by_its_size():
    # 3^9100 has 4342 digits
    with pytest.raises(PrecisionExhaustedError, match=re.escape(
            "literal power (a %d-bit number)^1000 would hold"
            % (3 ** 9100).bit_length())):
        parse_element(Q3T, "(3^9100)^1000")


@pytest.mark.parametrize("field, text, val", [
    # the zero run of ROADMAP item 13 at a = 3*10^5
    ("Qp(3){{t}}", "3^-300000 + t*3^300000", "(0, -300000)\n"),
    ("Qp(3)((t))", "3^300000", "(300000, 0)\n"),
    # units and finite field coefficients do not grow
    ("Qp(3)((t))", "(-1)^10000001*t", "(0, 1)\n"),
    ("Fq(4;w^2+w+1)((t))", "w^10000000*t^10000000", "(10000000,)\n"),
])
def test_literal_powers_within_the_bound_parse(field, text, val, capsys):
    assert main(["val", "--field", field, "--elem", text]) == 0
    assert capsys.readouterr().out == val
