"""Finite field and p-adic coefficient layer.

Expected values here are frozen from independent oracles computed inside the
tests themselves (exhaustive searches and direct factoring), not from the
implementation under test.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hlf.coeff import (FqField, _is_irreducible, padic_val, rational_mod_p,
                       teichmuller_exact)
from hlf.errors import FieldMismatchError, UnsupportedFieldError, ZeroElementError

F5 = FqField(5)
F4 = FqField(4, modulus=(1, 1, 1))  # w^2 + w + 1
F8 = FqField(8, modulus=(1, 1, 0, 1))  # w^3 + w + 1
F9 = FqField(9, modulus=(1, 0, 1))  # w^2 + 1
F16 = FqField(16, modulus=(1, 1, 0, 0, 1))  # w^4 + w + 1


def test_inverse_in_f5_matches_exhaustive_search():
    # oracle: the unique y with 2*y = 1 mod 5
    oracle = [y for y in range(5) if (2 * y) % 5 == 1]
    assert oracle == [3]
    assert F5(2).inverse() == F5(3)


def test_f4_product_of_w_and_w_plus_1():
    # oracle by hand reduction: w*(w+1) = w^2 + w = (w + 1) + w = 1 mod w^2+w+1
    w = F4.generator()
    assert w * (w + F4(1)) == F4(1)


def test_f4_is_a_field_exhaustively():
    # F4 and the other small extension fields; the inverse is checked
    # against the unique b with a*b = 1 found by search
    for F in (F4, F8, F9, F16):
        elems = list(F.elements())
        assert len(elems) == F.q
        one = F.one()
        for a in elems:
            for b in elems:
                assert (a + b) - b == a
                assert a * b == b * a
                for c in elems:
                    assert a * (b + c) == a * b + a * c
            if a:
                oracle = [b for b in elems if a * b == one]
                assert len(oracle) == 1
                assert a.inverse() == oracle[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_fields_match_integer_arithmetic_mod_p(p):
    # oracle: plain ints reduced mod p, the inverse found by search
    F = FqField(p)
    inv = {a: next(b for b in range(1, p) if a * b % p == 1) for a in range(1, p)}
    for a in range(p):
        x = F(a)
        assert x.as_int() == a and repr(x) == str(a) and bool(x) == (a != 0)
        assert -x == F(-a % p)
        assert x == a + p and a - p == x and x != a + 1 and a + 1 != x
        assert hash(x) == hash(F(a + 3 * p)) == hash(F(a - p))
        for k in range(-3, 4):
            if a == 0 and k < 0:
                with pytest.raises(ZeroDivisionError):
                    x ** k
            else:
                assert x ** k == (pow(a, k, p) if k >= 0 else pow(inv[a], -k, p))
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        for b in range(p):
            y = F(b)
            assert (x == y) == (a == b) and (x != y) == (a != b)
            for lhs, rhs in ((x, y), (x, b), (a, y)):
                assert (lhs + rhs).as_int() == (a + b) % p
                assert (lhs - rhs).as_int() == (a - b) % p
                assert (lhs * rhs).as_int() == a * b % p
                if b:
                    assert (lhs / rhs).as_int() == a * inv[b] % p
                else:
                    with pytest.raises(ZeroDivisionError):
                        lhs / rhs


def test_irreducible_counts_match_gauss():
    # Ben-Or's test finds (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles
    # of each degree n over F_p
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
    for p, top in ((2, 8), (3, 5), (5, 3)):
        for n in range(1, top + 1):
            got = sum(_is_irreducible(tail + (1,), p)
                      for tail in product(range(p), repeat=n))
            want = sum(mu[d] * p ** (n // d)
                       for d in range(1, n + 1) if n % d == 0) // n
            assert got == want


def test_field_sizes_near_the_bound(deadline):
    with deadline(1):
        # 2^40 - 87 is the largest prime below 2^40
        assert FqField(2**40 - 87).deg == 1
        w39 = (1, 0, 0, 0, 1) + (0,) * 34 + (1,)
        assert FqField(2**39, modulus=w39).deg == 39
        with pytest.raises(ValueError):
            FqField(2**39, modulus=(0, 0, 0, 0, 1) + (0,) * 34 + (1,))
        for q in (2**40, 10**18 + 3, 1, 6):
            with pytest.raises(UnsupportedFieldError):
                FqField(q)


def test_reducible_modulus_without_roots_is_rejected():
    # w^4 + w^2 + 1 = (w^2 + w + 1)^2 over F_2 has no root, so a root test
    # alone misses it
    assert all((a**4 + a**2 + 1) % 2 for a in range(2))
    with pytest.raises(ValueError):
        FqField(16, modulus=(1, 0, 1, 0, 1))


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        F5(1) + F4(1)


def test_padic_val_of_18_base_3():
    # oracle: 18 = 2 * 3^2
    assert 18 == 2 * 3**2
    assert padic_val(18, 3) == 2
    assert padic_val(Fraction(18, 5), 3) == 2
    assert padic_val(Fraction(5, 18), 3) == -2


def test_padic_val_zero_refused():
    with pytest.raises(ZeroElementError):
        padic_val(0, 3)


@given(
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)).filter(lambda x: x != 0),
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)).filter(lambda x: x != 0),
)
def test_padic_val_additive_on_products(x, y):
    assert padic_val(x * y, 3) == padic_val(x, 3) + padic_val(y, 3)


def test_teichmuller_exact_small_residues():
    assert teichmuller_exact(0, 5) == 0
    assert teichmuller_exact(1, 5) == 1
    assert teichmuller_exact(4, 5) == -1
    assert teichmuller_exact(2, 5) is None
    # p = 3 is covered completely
    assert all(teichmuller_exact(a, 3) is not None for a in range(3))


def test_rational_mod_p():
    # 1/2 = 3 in F_5 since 2*3 = 6 = 1
    assert rational_mod_p(Fraction(1, 2), 5) == 3
    assert rational_mod_p(18, 3) == 0
