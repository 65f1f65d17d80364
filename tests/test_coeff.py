"""Finite field and p-adic coefficient layer.

Expected values here are frozen from independent oracles computed inside the
tests themselves (exhaustive searches and direct factoring), not from the
implementation under test.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from hlf.coeff import (_SCHOOLBOOK, FqField, _fp_basis_lowest_terms,
                       _fp_coprime, _fp_divmod, _fp_gcd, _fp_lowest_terms,
                       _fp_monic, _fp_mul, _fp_strip, _is_irreducible, _pack,
                       _prime_power, _unpack, _zadd, _zcross, _zmul, padic_val,
                       rational_mod_p)
from hlf.errors import FieldMismatchError, UnsupportedFieldError, ZeroElementError
from hlf.fields import parse_field

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
    # oracle: plain ints reduced mod p, the inverse found by search; every
    # result is the residue table's own instance, zero with coefficients ()
    F, G = FqField(p), FqField(p)  # G equal to F, another object
    inv = {a: next(b for b in range(1, p) if a * b % p == 1) for a in range(1, p)}

    def residue(z, n):
        return z is F.residues[n] and z.coeffs == ((n,) if n else ())

    for a in range(p):
        x = F(a)
        assert x.as_int() == a and repr(x) == str(a) and bool(x) == (a != 0)
        assert -x == F(-a % p) and residue(-x, -a % p)
        if a:
            assert residue(x.inverse(), inv[a])
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
            assert (x == G(b)) == (a == b)
            for lhs, rhs in ((x, y), (x, b), (a, y), (x, G(b))):
                assert residue(lhs + rhs, (a + b) % p)
                assert residue(lhs - rhs, (a - b) % p)
                assert residue(lhs * rhs, a * b % p)
                if b:
                    assert residue(lhs / rhs, a * inv[b] % p)
                else:
                    with pytest.raises(ZeroDivisionError):
                        lhs / rhs


def test_the_residue_table_holds_the_canonical_zero():
    F = FqField(5)
    z = F.residues[0]
    assert z.coeffs == () and not z and z.is_zero()
    assert z == F.zero() and z == 0 and F.zero() == z
    assert F.residues[0] is z and F.residues[3].coeffs == (3,)


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


def _trial_prime_power(q):
    """(p, n) with q = p^n by trial division, or None."""
    p = next((c for c in range(2, isqrt(q) + 1) if q % c == 0), q)
    n = 0
    while q % p == 0:
        q //= p
        n += 1
    return (p, n) if q == 1 else None


def _prime_power_or_none(q):
    try:
        return _prime_power(q)
    except UnsupportedFieldError as err:
        assert str(err) == "%d is not a prime power" % q
        return None


def test_prime_powers_agree_with_trial_division():
    below = range(2**40 - 400, 2**40)
    powers = [2**39, 3**25, 5**17, 1048573**2, 10007**3, 101**6, 65537**2,
              1048573 * 1048571, 3**24 * 2]
    for q in [*range(2, 10**4), *below, *powers]:
        assert _prime_power_or_none(q) == _trial_prime_power(q), q
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for q in (2047, 1373653, 25326001, 3215031751, 561, 41041):
        assert _prime_power_or_none(q) is None, q


def test_field_size_check_takes_no_trial_division(deadline):
    # trial division up to isqrt(q) took 60-160 ms for each of these
    with deadline(0.5):
        for _ in range(20):
            assert _prime_power(1099511627689) == (1099511627689, 1)
            assert parse_field("Qp(1099511627689)((t))").prime() == 1099511627689
            assert parse_field("Fq(1099511627689)((t))").char() == 1099511627689
            assert _prime_power(1048573**2) == (1048573, 2)


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


def _val_one_p_at_a_time(n, p, cap):
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_padic_val_matches_a_count_one_p_at_a_time(p):
    # small and large powers of p, times cofactors of 1 to 400 bits, under
    # caps that bind, that do not and that are 0
    rng = random.Random("padic_val:%d" % p)
    for _ in range(400):
        k = rng.choice((0, 1, 2, rng.randrange(64), rng.randrange(3000)))
        m = rng.choice((1, -1)) * rng.randrange(1, 1 << rng.choice((1, 8, 70, 400)))
        n = m * p ** k
        cap = rng.choice((None, 0, 1, rng.randrange(k + 2), rng.randrange(4000)))
        want = _val_one_p_at_a_time(n, p, n.bit_length() if cap is None else cap)
        assert padic_val(n, p, cap) == want, (k, m, cap)


def test_padic_val_of_a_large_power_climbs_a_tower(deadline):
    # restarted at p after each miss, two divisions per test, this took
    # 1.12-1.3 s on a 2-vCPU VM; one climb and one walk down take ~0.6 s
    n = 2 * 3 ** 600000
    with deadline(1.1):
        assert padic_val(n, 3) == 600000
    assert padic_val(n, 3, 599999) == 599999


def test_rational_mod_p():
    # 1/2 = 3 in F_5 since 2*3 = 6 = 1
    assert rational_mod_p(Fraction(1, 2), 5) == 3
    assert rational_mod_p(18, 3) == 0


# --- lowest terms against a coprime basis of qbar -------------------------------

def _fp_power(f, k, p):
    out = [1]
    for _ in range(k):
        out = _fp_mul(out, f, p)
    return out


def _rand_fp(rng, p, deg, monic):
    a = [rng.randrange(p) for _ in range(deg)] + [1 if monic else rng.randrange(1, p)]
    a[0] = a[0] or rng.randrange(1, p)
    return a


def _q0_factors(rng, p):
    """Monic factors, each with f(0) != 0, whose product is q0: repeated
    ones, p-th powers and two-term ones among them."""
    fixed = {2: [[1, 1]] * 2, 3: [[1, 1]] * 3, 5: [[1, 0, 1], [1, 0, 1]],
             7: [[6, 0, 1], [1, 1, 1]]}
    draw = rng.random()
    if draw < 0.2:
        return fixed[p]
    fs = [_rand_fp(rng, p, rng.randint(1, 3), True) for _ in range(rng.randint(1, 3))]
    if draw < 0.4:
        return [fs[0]] * p + fs[1:]
    if draw < 0.6:
        fs.append([p - 1] + [0] * rng.randint(0, 3) + [1])
    return fs + rng.sample(fs, rng.randint(0, len(fs)))


def _plain_divmod(a, b, p):
    """Long division over F_p, the leading term cancelled one at a time."""
    a, q = [c % p for c in a], [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = a[k + len(b) - 1] * inv % p
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
    while a and not a[-1]:
        a.pop()
    return q, a


def _plain_gcd(a, b, p):
    while b:
        a, b = b, _plain_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def test_division_and_gcd_match_the_long_division():
    # linear, two-term and dense divisors and gcds, each against a long
    # division that does not skip zero terms
    rng = random.Random("euclid")
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7, 101))
        g = _rand_fp(rng, p, rng.randint(0, 3), True)
        a = _fp_mul(g, _rand_fp(rng, p, rng.randint(0, 6), False), p)
        b = _fp_mul(g, _rand_fp(rng, p, rng.randint(0, 4), False), p)
        if rng.random() < 0.3:
            b = [rng.randrange(1, p)] + [0] * rng.randint(0, 3) + [1]
        assert _fp_gcd(a, b, p) == _plain_gcd(a, b, p), (p, a, b)
        m = _fp_monic(b, p)
        assert _fp_divmod(a, m, p) == _plain_divmod(a, m, p), (p, a, m)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_basis_lowest_terms_match_the_euclid(p):
    # qbar starts as a small q0 and is multiplied by each reduced
    # denominator, as the digit stream along p does; every (nt, dt) must be
    # the Euclid's, and the basis stays coprime with qbar ~ prod f^e
    rng = random.Random("basis:%d" % p)
    splits = full = 0
    for _ in range(150):
        fs = _q0_factors(rng, p)
        q0 = [1]
        for f in fs:
            q0 = _fp_mul(q0, f, p)
        s = rng.randrange(1, p)
        qbar = [c * s % p for c in q0]
        basis = [(_fp_monic(q0, p), 1)]
        for _ in range(4):
            # past 2*_SCHOOLBOOK coefficients a two-term f strips by
            # prefix sums
            a = _rand_fp(rng, p, rng.randint(0, rng.choice((4, 30))), False)
            for f in fs:
                if rng.random() < 0.6:
                    a = _fp_mul(a, _fp_power(f, rng.randint(1, 5), p), p)
            nt, dt, refined = _fp_basis_lowest_terms(a, qbar, basis, p)
            assert (nt, dt) == _fp_lowest_terms(a, qbar, p), (p, a, qbar, basis)
            assert all(f[-1] == 1 and len(f) > 1 and 0 <= k <= e
                       for f, e, k in refined)
            assert _prod_powers([(f, e) for f, e, _ in refined], p) \
                == _fp_monic(qbar, p)
            for i, (f, _, _) in enumerate(refined):
                assert all(len(_fp_gcd(f, g, p)) == 1 for g, _, _ in refined[:i])
            splits += len(refined) > len(basis)
            full += any(k == e for _, e, k in refined)
            qbar = _fp_mul(qbar, dt, p)
            basis = [(f, 2 * e - k) for f, e, k in refined]
    assert splits > 20 and full > 50, (splits, full)


def test_basis_lowest_terms_over_a_constant_denominator():
    assert _fp_basis_lowest_terms([1, 2], [2], [], 3) == ([2, 1], [1], [])


def test_strip_divides_while_it_can_and_keeps_the_common_part():
    rng = random.Random("strip")
    routes = Counter()
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 101))
        d = rng.randint(1, 3)
        f = [rng.randrange(1, p)] + [0] * (d - 1) + [1]
        if rng.random() < 0.5:
            f = _rand_fp(rng, p, d, True)
        a = _rand_fp(rng, p, rng.randint(0, rng.choice((8, 40))), False)
        want = rng.randint(0, 6)
        b = _fp_mul(a, _fp_power(f, want, p), p)
        if not any(f[1:-1]):
            # synthetic division up to 2*_SCHOOLBOOK coefficients, prefix
            # sums past it
            routes[len(b) > 2 * _SCHOOLBOOK] += 1
        e = rng.randint(0, 8)
        q, k, r = _fp_strip(b, f, e, p)
        assert _fp_mul(q, _fp_power(f, k, p), p) == b
        if k < e:
            # f^(k+1) does not divide b, and r shares with f what q does
            assert r and len(r) < len(f)
            assert _fp_gcd(r, f, p) == _fp_gcd(q, f, p)
            assert len(_fp_gcd(q, f, p)) < len(f)
        else:
            assert k == e and r == []
    assert routes[False] > 40 and routes[True] > 40, routes


def test_coprime_refinement_keeps_the_product():
    rng = random.Random("coprime")
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        atoms = [_rand_fp(rng, p, rng.randint(1, 2), True) for _ in range(3)]
        pairs = []
        for _ in range(rng.randint(1, 4)):
            f = [1]
            for g in rng.sample(atoms, rng.randint(1, 3)):
                f = _fp_mul(f, g, p)
            pairs.append((f, rng.randint(1, 3)))
        out = _fp_coprime(pairs, p)
        assert _prod_powers(out, p) == _prod_powers(pairs, p)
        for i, (f, _) in enumerate(out):
            assert f[-1] == 1 and len(f) > 1
            assert all(len(_fp_gcd(f, g, p)) == 1 for g, _ in out[:i])


def _prod_powers(pairs, p):
    out = [1]
    for f, e in pairs:
        out = _fp_mul(out, _fp_power(f, e, p), p)
    return out


# --- packed products over Z --------------------------------------------------

def test_pack_round_trips_at_every_slot_width():
    rng = random.Random("pack")
    for w in range(1, 20):
        half = 1 << (8 * w - 1)
        a = [rng.choice((1 - half, half - 1, 0, rng.randint(1 - half, half - 1)))
             for _ in range(rng.randint(1, 30))]
        assert _unpack(_pack(a, w, half), len(a), w, half) == a


def _plain_mul(a, b):
    """The product over Z by the double loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_product_matches_the_double_loop():
    # lengths 1-30 put the product on both sides of _SCHOOLBOOK^2
    rng = random.Random("zmul")
    routes = Counter()
    for _ in range(400):
        bits = rng.choice((1, 8, 40, 70))
        a, b = ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randint(1, 30))]
                for _ in range(2))
        routes[len(a) * len(b) > _SCHOOLBOOK ** 2] += 1
        assert _zmul(a, b) == _plain_mul(a, b), (a, b)
    assert routes[False] > 100 and routes[True] > 100, routes


def test_cross_product_matches_the_separate_products():
    # short lists take the schoolbook, longer ones Kronecker substitution
    rng = random.Random("cross")
    routes = Counter()
    for _ in range(600):
        bits = rng.choice((2, 20, 40, 62, 70, 130))
        n = rng.choice((6, 40))
        big = lambda: [rng.randint(-2 ** bits, 2 ** bits) or 1
                       for _ in range(rng.randint(1, n))]
        small = lambda: [rng.randint(-6, 6) or 1 for _ in range(rng.randint(1, n))]
        a, b, c, d = big(), big(), small(), small()
        sa, sc = rng.randint(-5, 5), rng.randint(-5, 5)
        routes[len(d) * (len(a) + len(b)) + len(c) * len(b) > _SCHOOLBOOK ** 2] += 1
        want = (*_zadd(_plain_mul(a, d), sa, [-x for x in _plain_mul(c, b)], sc),
                _plain_mul(b, d))
        assert _zcross(a, sa, b, c, sc, d) == want
    assert routes[False] > 200 and routes[True] > 200, routes
    # a difference that cancels to zero
    assert _zcross([1] * 20, 0, [1] * 20, [1] * 20, 0, [1] * 20)[0] == []
