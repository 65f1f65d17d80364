"""Elements built as one Laurent polynomial agree with the term-by-term
Element arithmetic they replace.

The reference builds below are the chained Element sums that family
evaluation, the random elements of the check suites and the least monomial
search used before; each new path must give the same num, den and repr, and
the random builders must leave the generator where the old ones did.
"""

import random
from fractions import Fraction

import pytest
from conftest import same_element

from hlf import checks
from hlf.elements import Element, lp_min_monomial
from hlf.errors import FieldMismatchError, ZeroElementError
from hlf.fields import MixedExt, parse_field
from hlf.sequences import AffineForm, SeqFamily, Term

FIELDS = [parse_field(text) for text in (
    "Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}",
    "Fq(25;w^2+w+2)((u))((t))", "Q((u))((t))")]


def _vkey(v):
    return tuple(reversed(v))


# --- reference implementations ------------------------------------------------

def ref_min_monomial(field, a):
    best = best_key = None
    for k, c in a.items():
        key = _vkey(field.monomial_valuation(c, k))
        if best_key is None or key < best_key:
            best_key, best = key, (k, c)
    return best


def ref_term(term, field, n):
    coeff = term.coeff
    if term.pa:
        coeff = coeff * Fraction(field.prime()) ** (term.pa * n)
    return Element.monomial(field, coeff,
                            **{k: f(n) for k, f in term.exps.items()})


def ref_evaluate(fam, n):
    den = Element.zero(fam.field)
    for t in fam.den:
        den = den + ref_term(t, fam.field, n)
    if den.is_zero():
        raise ZeroElementError("denominator vanishes at n=%d" % n)
    num = Element.zero(fam.field)
    for t in fam.num:
        num = num + ref_term(t, fam.field, n)
    return num / den


def ref_monomial_with_valuation(field, v):
    p = field.prime()
    coeff, exps = 1, {}
    for name, e in zip(field.params(), v):
        if name in field.series_params():
            exps[name] = e
        else:
            coeff = Fraction(p) ** e
    return Element.monomial(field, coeff, **exps)


def ref_random_coeff(rng, field):
    """The coefficient draw the random builders made through randrange
    and choice, kept here so the reference shares no code with them."""
    if field.fq() is not None:
        return rng.randrange(1, field.char())
    return Fraction(rng.randrange(1, 10), rng.choice((1, 2)))


def ref_random_element(rng, field, span=3, terms=3):
    nv = len(field.params())
    out = Element.zero(field)
    for _ in range(rng.randrange(1, terms + 1)):
        v = tuple(rng.randrange(-span, span + 1) for _ in range(nv))
        out = out + Element.from_coeff(field, ref_random_coeff(rng, field)) \
            * ref_monomial_with_valuation(field, v)
    return out if not out.is_zero() else Element.one(field)


def ref_random_integral(rng, field):
    nv = len(field.params())
    out = Element.zero(field)
    for _ in range(rng.randrange(1, 3)):
        v = tuple(rng.randrange(-2, 3) for _ in range(nv - 1)) \
            + (rng.randrange(0, 3),)
        out = out + Element.from_coeff(field, ref_random_coeff(rng, field)) \
            * ref_monomial_with_valuation(field, v)
    return out


# --- random material ------------------------------------------------------------

def random_coeff(rng, field):
    fq = field.fq()
    if fq is not None:
        return field.coerce_coeff(
            [rng.randrange(fq.p) for _ in range(fq.deg)] or [1]) \
            or field.coeff_one()
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.choice((1, 2, 3, 9)))


def random_term(rng, field):
    exps = {name: AffineForm(rng.randint(-2, 2), rng.randint(-3, 3))
            for name in field.series_params() if rng.random() < 0.7}
    pa = rng.randint(-1, 1) if field.prime() is not None else 0
    return Term(random_coeff(rng, field), exps, pa)


def random_family(rng, field):
    def side(lo, hi):
        return [random_term(rng, field) for _ in range(rng.randint(lo, hi))]
    fam = SeqFamily(field, side(0, 4), side(1, 3))
    if rng.random() < 0.3:
        fam = fam + SeqFamily(field, side(1, 2), side(1, 2))
    return fam


def random_lp(rng, field):
    nv = len(field.series_params())
    return {tuple(rng.randint(-3, 3) for _ in range(nv)):
            random_coeff(rng, field) for _ in range(rng.randint(1, 6))}


# --- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_family_evaluation_matches_the_term_by_term_sum(field):
    rng = random.Random("evaluate:%r" % field)
    one = field.coeff_one()
    t = field.series_params()[-1]
    # t^n - t^3 vanishes at n = 3 only
    vanishing = SeqFamily(field, [Term(one)],
                          [Term(one, {t: AffineForm(1, 0)}),
                           Term(-one, {t: AffineForm(0, 3)})])
    families = [vanishing] + [random_family(rng, field) for _ in range(40)]
    vanished = 0
    for fam in families:
        for n in range(11):
            try:
                want = ref_evaluate(fam, n)
            except ZeroElementError:
                vanished += 1
                with pytest.raises(ZeroElementError):
                    fam.evaluate(n)
                continue
            got = fam.evaluate(n)
            assert same_element(got, want), (fam, n, got, want)
    assert vanished >= 1


def test_a_foreign_parameter_is_refused_on_evaluation():
    field = FIELDS[0]
    fam = SeqFamily(field, [Term(field.coeff_one(), {"x": AffineForm(1, 0)})])
    with pytest.raises(FieldMismatchError):
        ref_evaluate(fam, 1)
    with pytest.raises(FieldMismatchError):
        fam.evaluate(1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_least_monomial_matches_the_valuation_key(field):
    # reversed exponents order distinct monomials on every field but
    # Qp{{t}}, where the p-adic valuation outranks the exponent of t
    assert field.orders_by_reversed_exps == (not isinstance(field, MixedExt))
    rng = random.Random("min:%r" % field)
    for _ in range(300):
        a = random_lp(rng, field)
        assert lp_min_monomial(field, a) == ref_min_monomial(field, a)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_random_builders_match_the_chained_build(field):
    for build, ref in ((checks._random_element, ref_random_element),
                       (checks._random_integral, ref_random_integral)):
        new_rng = random.Random("build:%r" % field)
        old_rng = random.Random("build:%r" % field)
        for _ in range(150):
            assert same_element(build(new_rng, field), ref(old_rng, field))
            assert new_rng.getstate() == old_rng.getstate()
