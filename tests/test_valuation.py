import random
from fractions import Fraction

import pytest

from hlf.elements import Element
from hlf.errors import OutOfRangeError
from hlf.fields import parse_field
from hlf.parsing import parse_element
from hlf.valuation import (
    in_integer_ring,
    in_max_ideal,
    monomial_with_valuation,
    rank_valuation,
)


F5UT = parse_field("Fq(5)((u))((t))")
Q3T = parse_field("Qp(3)((t))")
Q3M = parse_field("Qp(3){{t}}")
QT = parse_field("Q((t))")


def test_rank_truncation():
    x = parse_element(F5UT, "u^-3*t^2")
    assert rank_valuation(x) == (-3, 2)
    assert rank_valuation(x, 1) == (2,)
    assert rank_valuation(x, 2) == (-3, 2)
    assert rank_valuation(x, 7) == (-3, 2)


@pytest.mark.parametrize("r", [0, -1])
def test_a_rank_below_one_is_refused(r):
    # rank 0 used to give () and call 3^-1*t^-1 integral
    x = parse_element(Q3T, "3^-1*t^-1")
    for fn in (rank_valuation, in_integer_ring, in_max_ideal):
        with pytest.raises(OutOfRangeError, match="rank must be at least 1"):
            fn(x, r)
        with pytest.raises(OutOfRangeError):
            fn(Element.zero(Q3T), r)


def test_membership_rank_interplay():
    x = parse_element(F5UT, "u^-3*t^2")
    # the positive top exponent dominates the negative depth below it
    assert in_integer_ring(x, 1) and in_integer_ring(x, 2)
    y = parse_element(F5UT, "u^-1")
    assert in_integer_ring(y, 1)
    assert not in_integer_ring(y, 2)
    assert not in_integer_ring(parse_element(F5UT, "t^-1"), 1)
    assert in_integer_ring(Element.zero(F5UT))
    assert in_max_ideal(parse_element(F5UT, "u*t^0"), 2)
    assert not in_max_ideal(parse_element(F5UT, "u"), 1)
    assert not in_max_ideal(Element.one(F5UT), 2)


def test_membership_mixed_field():
    x = parse_element(Q3M, "3*t^-7 + t^2")
    assert rank_valuation(x) == (2, 0)
    assert in_integer_ring(x, 1)
    assert in_integer_ring(x, 2)
    y = parse_element(Q3M, "3*t^-7")
    assert rank_valuation(y) == (-7, 1)
    assert in_integer_ring(y, 2)
    assert not in_integer_ring(parse_element(Q3M, "t^-1"), 2)
    assert in_integer_ring(parse_element(Q3M, "t^-1"), 1)


def test_monomial_with_prescribed_valuation():
    for f, v in [(F5UT, (-3, 2)), (Q3T, (2, -1)), (Q3M, (-7, 1)), (QT, (4,))]:
        m = monomial_with_valuation(f, v)
        assert m.val_vector() == v


def _rand(rng, field, depth=0):
    out = Element.zero(field)
    for _ in range(rng.randint(1, 3)):
        if field.char() > 0:
            opts = [e for e in field.fq().elements() if e]
            c = rng.choice(opts)
        else:
            c = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
        exps = {v: rng.randint(-3, 3) for v in field.series_params()}
        out = out + Element.monomial(field, c, **exps)
    if depth == 0 and rng.random() < 0.4:
        d = _rand(rng, field, 1)
        if not d.is_zero():
            out = out / d
    return out


def test_valuation_survives_uniformizer_change():
    # replace t by t*(1+u): both are uniformizers at the top, so valuation
    # vectors of polynomial elements must not change
    rng = random.Random(23)
    one = Element.one(F5UT)
    tu = Element.monomial(F5UT, 1, t=1) * (one + Element.monomial(F5UT, 1, u=1))
    for _ in range(30):
        x = _rand(rng, F5UT, depth=1)
        if x.is_zero():
            continue
        sub = Element.zero(F5UT)
        for k, c in x.num.items():
            sub = sub + Element.monomial(F5UT, c, u=k[0]) * tu ** k[1]
        assert sub.val_vector() == x.val_vector()
