"""Sequence families: parsing, evaluation, merging, eventual valuation."""

from fractions import Fraction

import pytest

from hlf.errors import (FieldMismatchError, ParseError, UnsupportedFamilyError,
                        ZeroElementError)
from hlf.fields import parse_field
from hlf.parsing import parse_element
from hlf.sequences import AffineForm, SeqFamily, Term, parse_family

F5UT = parse_field("Fq(5)((u))((t))")
Q3T = parse_field("Qp(3)((t))")
Q3M = parse_field("Qp(3){{t}}")
F4U = parse_field("Fq(4;w^2+w+1)((u))")


@pytest.mark.parametrize("field,fam,n,elem", [
    (F5UT, "t^n", 3, "t^3"),
    (F5UT, "u^-1*t^n", 2, "u^-1*t^2"),
    (F5UT, "t^n/(1-t)", 4, "t^4/(1-t)"),
    (F5UT, "u^(2*n+1) + t^(n)", 2, "u^5 + t^2"),
    (F5UT, "(1+u)^2*t^(-n)", 1, "(1+u)^2*t^-1"),
    (Q3T, "3^(n)*t^-1", 2, "9*t^-1"),
    (Q3T, "3^(-n+1)", 2, "3^-1"),
    (Q3M, "3^(n)+t^n", 3, "27 + t^3"),
    (Q3M, "t^(2*n)/(1-3*t)", 1, "t^2/(1-3*t)"),
    (F4U, "w^2*u^(n)", 2, "(w+1)*u^2"),
])
def test_evaluate_matches_direct_parse(field, fam, n, elem):
    assert parse_family(field, fam).evaluate(n) == parse_element(field, elem)


def test_merge_and_cancellation():
    assert parse_family(F5UT, "t^n - t^n").is_zero()
    assert parse_family(F5UT, "2*t^n + 3*t^(n)").is_zero()
    assert not parse_family(F5UT, "2*t^n + 3*t^(n+1)").is_zero()


def test_crossing_bound():
    fam = parse_family(F5UT, "t^n + t^3")
    assert fam.crossing_bound() == 3
    # beyond the bound the constant term is minimal
    assert fam.val_form() == (AffineForm(0, 0), AffineForm(0, 3))
    fam2 = parse_family(F5UT, "u^(n)*t^2 + u^3*t^2")
    assert fam2.crossing_bound() == 3
    assert fam2.val_form() == (AffineForm(0, 3), AffineForm(0, 2))


def test_val_forms_are_kept_per_field():
    # 9 * 3^n * t^n: the p-adic slot is n + 2, the t slot n, and the two
    # fields order them differently
    term = Term(Fraction(9), {"t": AffineForm(1, 0)}, 1)
    on_q3t = term.val_forms(Q3T)
    assert on_q3t == (AffineForm(1, 2), AffineForm(1, 0))
    assert term.val_forms(Q3M) == (AffineForm(1, 0), AffineForm(1, 2))
    assert term.val_forms(Q3T) is on_q3t
    assert term.val_forms(parse_field("Qp(3)((t))")) is on_q3t
    assert term.val_forms(parse_field("Qp(3)((s))((t))")) == (
        AffineForm(1, 2), AffineForm(0, 0), AffineForm(1, 0))


def test_val_forms_hit_on_every_equal_descriptor():
    term = Term(Fraction(9), {"t": AffineForm(1, 0)}, 1)
    first = {text: term.val_forms(parse_field(text))
             for text in ("Qp(3)((t))", "Qp(3){{t}}", "Qp(3)((s))((t))")}
    for _ in range(3):
        for text, forms in first.items():
            assert term.val_forms(parse_field(text)) is forms
    assert len(term._forms) == len(first)


@pytest.mark.parametrize("field,fam,form", [
    (F5UT, "t^n", AffineForm(1, 0)),
    (F5UT, "t^(-n)", AffineForm(-1, 0)),
    (F5UT, "u^(n)", AffineForm(0, 0)),
    (Q3M, "3^(n)", AffineForm(1, 0)),
    (Q3T, "3^(n)", AffineForm(0, 0)),
    (F5UT, "t^n/(1-t)", AffineForm(1, 0)),
])
def test_top_valuation_form(field, fam, form):
    assert parse_family(field, fam).val_form()[-1] == form


def test_denominator_vanishing_inside_crossing_range():
    fam = parse_family(F5UT, "1/(t^n - t^2)")
    with pytest.raises(ZeroElementError):
        fam.evaluate(2)
    assert fam.crossing_bound() == 2
    x = fam.evaluate(5)
    assert x == parse_element(F5UT, "1/(t^5 - t^2)")


@pytest.mark.parametrize("field,text", [
    (F5UT, "2^(n)"),
    (Q3T, "2^(n)"),
    (F5UT, "n"),
    (F5UT, "t^n + n"),
    (F4U, "w^(n)"),
])
def test_rejected_families(field, text):
    with pytest.raises(UnsupportedFamilyError):
        parse_family(field, text)


def test_element_powers_still_reject_n():
    with pytest.raises(ParseError):
        parse_element(F5UT, "t^(n)")
    with pytest.raises(ParseError):
        parse_element(Q3T, "3^(n)")


def test_of_element_constant_family():
    x = parse_element(F5UT, "u^2/(1+t)")
    fx = SeqFamily.of_element(x)
    assert fx.evaluate(0) == x
    assert fx.evaluate(7) == x
    assert fx.val_form() == (AffineForm(0, 2), AffineForm(0, 0))


def test_family_arithmetic_identity():
    g = parse_family(F5UT, "(t^n + 1)*(t^n - 1)")
    h = parse_family(F5UT, "t^(2*n) - 1")
    for n in (0, 1, 3, 6):
        assert g.evaluate(n) == h.evaluate(n)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        parse_family(F5UT, "t^n") + parse_family(Q3T, "t^n")


def test_division_by_zero_family():
    with pytest.raises(ZeroElementError):
        parse_family(F5UT, "1") / parse_family(F5UT, "t^n - t^n")
