import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlf.elements import Element
from hlf.errors import (
    FieldMismatchError,
    ParseError,
    UnknownParameterError,
    UnsupportedFieldError,
    ZeroElementError,
)
from hlf.fields import FiniteBase, QpBase, RationalBase, parse_field
from hlf.parsing import parse_element


F5UT = parse_field("Fq(5)((u))((t))")
Q3T = parse_field("Qp(3)((t))")
Q3M = parse_field("Qp(3){{t}}")
QT = parse_field("Q((t))")
F4U = parse_field("Fq(4;w^2+w+1)((u))")


# --- descriptors -------------------------------------------------------------

def test_descriptor_round_trip():
    for s in ["Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}", "Q((t))", "Fq(7)((t))"]:
        assert repr(parse_field(s)) == s
    # modulus text is not canonical, the parsed field is
    f = parse_field(repr(F4U))
    assert f == F4U


def test_parameter_systems():
    assert F5UT.params() == ("u", "t")
    assert F5UT.series_params() == ("u", "t")
    assert Q3T.params() == ("3", "t")
    assert Q3T.series_params() == ("t",)
    assert Q3M.params() == ("t", "3")
    assert Q3M.series_params() == ("t",)
    assert F5UT.dim == 2 and Q3T.dim == 2 and Q3M.dim == 2 and QT.dim == 1


def test_residue_towers():
    r = F5UT.residue()
    assert repr(r) == "Fq(5)((u))"
    assert repr(r.residue()) == "Fq(5)"
    assert repr(Q3M.residue()) == "Fq(3)((t))"
    assert repr(Q3T.residue()) == "Qp(3)"
    assert F5UT.char() == 5 and Q3T.char() == 0


def test_descriptor_rejections():
    for bad in ["Fq(6)((t))", "Qp(4)((t))", "Fq(5)((t))((t))", "Fq(5){{t}}",
                "Qp(3){{t}}{{s}}", "Zp(3)((t))"]:
        with pytest.raises((UnsupportedFieldError, ParseError)):
            parse_field(bad)
    with pytest.raises(ParseError, match="must be a string, not 5"):
        parse_field(5)


def test_coeff_one_is_built_once_per_descriptor():
    for f in (F5UT, F4U, Q3T, Q3M, QT):
        one = f.coeff_one()
        assert one == f.coerce_coeff(1) and f.coeff_one() is one
    # a second descriptor of the same field builds its own
    assert parse_field("Qp(3)((t))").coeff_one() == Q3T.coeff_one()


def test_descriptor_data_is_computed_once():
    for f in (F5UT, F4U, Q3T, Q3M, QT, parse_field("Qp(5)")):
        assert f.residue() is f.residue()
        assert f.last_residue() is f.last_residue()
        assert f.fq() is f.fq()
    # a fresh descriptor, asked after one that has filled its caches,
    # compares and hashes as before
    for text in ("Qp(3){{t}}", "Qp(3)", "Fq(5)((u))((t))"):
        warm, fresh = parse_field(text), parse_field(text)
        warm.residue(), warm.last_residue(), warm.fq()
        assert warm == fresh and hash(warm) == hash(fresh)
        assert warm.residue() == fresh.residue()
        assert hash(warm.residue()) == hash(fresh.residue())
        assert repr(warm.residue()) == repr(fresh.residue())
    assert Q3M.residue() == parse_field("Fq(3)((t))")
    assert Q3M.last_residue() == parse_field("Fq(3)") and Q3M.fq() is None
    assert F5UT.fq() == F5UT.residue().fq() == parse_field("Fq(5)").field


def test_tower_hash_is_computed_once(monkeypatch):
    texts = ("Fq(5)((u))((t))", "Qp(3){{t}}", "Qp(3)((s))((t))",
             "Fq(4;w^2+w+1)((u))", "Q((u))((t))", "Qp(5){{t}}")
    built = [(parse_field(text), parse_field(text)) for text in texts]
    for a, b in built:
        # equal descriptors built apart hash equal, to the same value as
        # hashing the tuple of tag, parameter and base
        assert a is not b and a == b and hash(a) == hash(b)
        tag = "mix" if repr(a).endswith("}}") else "ser"
        assert hash(a) == hash((tag, a.param, a.base))
    assert len({hash(a) for a, _ in built}) == len(texts)
    # hashing a tower no longer walks down to its base
    calls = []
    for cls in (FiniteBase, QpBase, RationalBase):
        monkeypatch.setattr(cls, "__hash__",
                            lambda self: calls.append(self) or 0)
    for a, _ in built:
        hash(a)
    assert calls == []


def test_extension_field_generator_arithmetic():
    fq = F4U.fq()
    assert fq.q == 4
    w = fq.generator()
    # w^2 + w + 1 = 0 so w^2 = w + 1 in characteristic 2
    assert w * w == w + fq.one()


# --- valuation vectors -------------------------------------------------------

def test_val_vector_support_minimum():
    x = Element.monomial(F5UT, 1, u=-3, t=2)
    assert x.val_vector() == (-3, 2)
    # t^2 has smaller rank valuation than u^-3*t^2, so the sum keeps (-3, 2)
    y = x + Element.monomial(F5UT, 1, t=2)
    assert y.val_vector() == (-3, 2)
    # against t^1 the top exponent decides regardless of the u part
    z = x + Element.monomial(F5UT, 1, t=1)
    assert z.val_vector() == (0, 1)


def test_val_vector_mixed_field():
    # 3*t^-7 + t^2 with uniformizer p on top: t^2 has vector (2, 0) which is
    # smaller than (-7, 1) since the p component dominates
    x = parse_element(Q3M, "3*t^-7 + t^2")
    assert x.val_vector() == (2, 0)
    assert parse_element(Q3M, "3*t^-7").val_vector() == (-7, 1)


def test_val_vector_equal_char_over_qp():
    x = parse_element(Q3T, "9 + 3*t")
    assert x.val_vector() == (2, 0)
    assert parse_element(Q3T, "3*t").val_vector() == (1, 1)
    with pytest.raises(ZeroElementError):
        Element.zero(Q3T).val_vector()


# --- element arithmetic ------------------------------------------------------

def test_product_of_laurent_monomial_sums():
    a = Element.monomial(F5UT, 1, t=-1) + Element.monomial(F5UT, 1, u=1)
    b = Element.monomial(F5UT, 1, t=1, u=-1)
    expect = Element.monomial(F5UT, 1, u=-1) + Element.monomial(F5UT, 1, t=1)
    assert a * b == expect


def test_fraction_cancellation():
    t = Element.monomial(QT, 1, t=1)
    one = Element.one(QT)
    assert (one - t * t) / (one - t) == one + t
    assert (one - t) / (one - t) == one


def test_denominator_normalization():
    # den minimal monomial is scaled to 1, shifting the numerator
    t = Element.monomial(F5UT, 1, t=1)
    x = Element.make(F5UT, (t ** 3).num, (2 * t ** 2 + t ** 5).num)
    assert x.val_vector() == (0, 1)
    assert x == (t ** 3) / (2 * t ** 2 + t ** 5)


def test_inverse_and_power():
    x = parse_element(F5UT, "t^-1 + u + 2*u^2*t")
    assert x * x.inverse() == Element.one(F5UT)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        Element.zero(F5UT).inverse()


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        Element.one(F5UT) + Element.one(QT)
    with pytest.raises(FieldMismatchError):
        Element.monomial(QT, 1, u=1)


# --- parsing -----------------------------------------------------------------

def test_parse_basic_forms():
    assert parse_element(QT, "1 - t") == Element.one(QT) - Element.monomial(QT, 1, t=1)
    assert parse_element(QT, "-t^2") == Element.monomial(QT, -1, t=2)
    assert parse_element(QT, "3/7*t") == Element.monomial(QT, Fraction(3, 7), t=1)
    assert parse_element(QT, "3^-2") == Element.from_coeff(QT, Fraction(1, 9))
    assert parse_element(QT, "2^3*t") == Element.monomial(QT, 8, t=1)
    x = parse_element(QT, "1/(1 - t)")
    assert x * parse_element(QT, "1 - t") == Element.one(QT)


def test_parse_two_dim():
    assert parse_element(F5UT, "u^-3*t^2") == Element.monomial(F5UT, 1, u=-3, t=2)
    x = parse_element(F5UT, "(t^-1 + u)*(t*u^-1)")
    assert x == parse_element(F5UT, "u^-1 + t")


def test_parse_extension_coefficients():
    w = F4U.fq().generator()
    assert parse_element(F4U, "(w + 1)*u^2") == Element.monomial(F4U, w + F4U.fq().one(), u=2)
    assert parse_element(F4U, "w^2*u") == Element.monomial(F4U, w * w, u=1)


def test_parse_rejections():
    with pytest.raises(UnknownParameterError):
        parse_element(QT, "x + 1")
    with pytest.raises(ParseError):
        parse_element(QT, "t^(n)")
    with pytest.raises(ParseError):
        parse_element(QT, "1 + ")
    with pytest.raises(ParseError):
        parse_element(QT, "t t")
    with pytest.raises(ParseError):
        parse_element(QT, "1/(t - t)")


def _random_element(rng, field, depth=0):
    sp = field.series_params()
    terms = Element.zero(field)
    for _ in range(rng.randint(1, 3)):
        if field.char() > 0:
            fq = field.fq()
            opts = [e for e in fq.elements() if e]
            c = rng.choice(opts)
        else:
            c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
        exps = {v: rng.randint(-3, 3) for v in sp}
        terms = terms + Element.monomial(field, c, **exps)
    if depth == 0 and rng.random() < 0.4:
        den = _random_element(rng, field, depth=1)
        if not den.is_zero():
            return terms / den
    return terms


def test_repr_parse_round_trip():
    rng = random.Random(7)
    for field in [F5UT, Q3T, Q3M, QT, F4U]:
        for _ in range(40):
            x = _random_element(rng, field)
            assert parse_element(field, repr(x)) == x


# --- valuation algebra -------------------------------------------------------

_env = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), _env, _env), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(1, 4), _env, _env), min_size=1, max_size=3))
def test_valuation_multiplicative(xs, ys):
    x = Element.zero(F5UT)
    for c, eu, et in xs:
        x = x + Element.monomial(F5UT, c, u=eu, t=et)
    y = Element.zero(F5UT)
    for c, eu, et in ys:
        y = y + Element.monomial(F5UT, c, u=eu, t=et)
    if x.is_zero() or y.is_zero():
        return
    vx, vy = x.val_vector(), y.val_vector()
    assert (x * y).val_vector() == tuple(a + b for a, b in zip(vx, vy))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), _env, _env), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(1, 4), _env, _env), min_size=1, max_size=3))
def test_valuation_ultrametric(xs, ys):
    x = Element.zero(F5UT)
    for c, eu, et in xs:
        x = x + Element.monomial(F5UT, c, u=eu, t=et)
    y = Element.zero(F5UT)
    for c, eu, et in ys:
        y = y + Element.monomial(F5UT, c, u=eu, t=et)
    if x.is_zero() or y.is_zero() or (x + y).is_zero():
        return
    lo = min(tuple(reversed(x.val_vector())), tuple(reversed(y.val_vector())))
    assert tuple(reversed((x + y).val_vector())) >= lo
