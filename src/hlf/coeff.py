"""Exact coefficient domains: finite fields and p-adic valuations of rationals.

Finite fields F_q are F_p[w]/(m(w)) with an explicit monic modulus; the
prime field is the case m = w.  One element class serves both: a prime
field element holds one reduced int and multiplies as an int, while an
extension field multiplies through the integer product and reduction.
Polynomials over Z and F_p are int lists, lowest degree first, and one
kernel (product, remainder, gcd, exact quotient) serves the extension
arithmetic here and the digit lifts and staircase of expansion.
Rationals carry their p-adic valuation and residue exactly; there is no
truncated p-adic type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd

from .errors import FieldMismatchError, UnsupportedFieldError, ZeroElementError


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        return False


#: sentinel returned by valuation queries that the tracked digits cannot settle.
UNKNOWN = _Unknown()


def power(x, k, one):
    """x**k for an int k >= 0 by square-and-multiply, starting from one."""
    if k < 0:
        raise ValueError("negative exponent %d" % k)
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


# --- dense polynomials: int lists, lowest degree first -----------------------

def _poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fp_rem(a, b, p):
    """Remainder of a by monic b over F_p; both trimmed."""
    a = list(a)
    m = len(b) - 1
    while len(a) > m:
        c = a.pop()
        if c:
            off = len(a) - m
            a[off:] = [(x - c * y) % p for x, y in zip(a[off:], b)]
        while a and not a[-1]:
            a.pop()
    return a


def _fp_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_gcd(a, b, p):
    a, b = _fp_monic(a, p), _fp_monic(b, p)
    while b:
        a, b = b, _fp_rem(a, b, p)
        if b:
            b = _fp_monic(b, p)
    return a


def _fp_quo(a, b, p):
    """Exact quotient a/b over F_p, b monic."""
    a = list(a)
    m = len(b) - 1
    q = [0] * (len(a) - m)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + m]
        if c:
            a[k:k + m] = [(x - c * y) % p for x, y in zip(a[k:k + m], b)]
    return q


def _fp_lowest_terms(a, b, p):
    """a/b over F_p with the gcd removed and b's constant term 1; a and b
    trimmed, b[0] nonzero."""
    g = _fp_gcd(a, b, p)
    if len(g) > 1:
        a, b = _fp_quo(a, g, p), _fp_quo(b, g, p)
    inv = pow(b[0], -1, p)
    return [c * inv % p for c in a], [c * inv % p for c in b]


def _poly_mulmod(a, b, mod, p):
    """a*b mod the monic mod over F_p, for nonzero a and b."""
    return _fp_rem([c % p for c in _zmul(a, b)], mod, p)


def _ztrim(a, shift):
    """Drop zero coefficients at both ends; (list, exponent of its head)."""
    lo = 0
    while lo < len(a) and not a[lo]:
        lo += 1
    hi = len(a)
    while hi > lo and not a[hi - 1]:
        hi -= 1
    return a[lo:hi], shift + lo


def _zadd(a, sa, b, sb):
    lo = min(sa, sb)
    out = [0] * (max(sa + len(a), sb + len(b)) - lo)
    for i, c in enumerate(a, sa - lo):
        out[i] = c
    for i, c in enumerate(b, sb - lo):
        out[i] += c
    return _ztrim(out, lo)


def _zgcd(a, b):
    """A gcd over Z[t] of two nonzero lists, primitive, by the primitive
    remainder sequence: pseudo-divide, then drop the content."""
    a, b = _zprim(a[::-1]), _zprim(b[::-1])  # highest degree first
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = a
        while len(r) >= len(b):
            c = r[0]
            r = [b[0] * u - c * v for u, v in zip_longest(r, b, fillvalue=0)]
            while r and not r[0]:
                r = r[1:]
        a, b = b, _zprim(r)
    return a[::-1] if not b else [1]


def _zprim(a):
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _zdiv(a, g):
    """a/g over Z[t], for a primitive g that divides a: exact at every
    step, by Gauss's lemma."""
    a, q = list(a), []
    for i in range(len(a) - len(g) + 1):
        c = a[i] // g[0]
        q.append(c)
        if c:
            for j, e in enumerate(g, i):
                a[j] -= c * e
    return q


def _zmul(a, b):
    """Product over Z.  Past a dozen terms on each side, by Kronecker
    substitution: pack each list into one int with slots wide enough for
    every product coefficient, multiply once, unpack with a bias."""
    if min(len(a), len(b)) <= 12:
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, e in enumerate(b, i):
                    out[j] += c * e
        return out
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    w = bits // 8 + 1
    half = 1 << (8 * w - 1)
    n = len(a) + len(b) - 1
    return _unpack(_pack(a, w, half) * _pack(b, w, half), n, w, half)


def _unpack(c, n, w, half):
    # the n coefficients of c = sum a_i X^i at X = 256^w, every |a_i| < half
    raw = (c + _bias(n, w, half)).to_bytes(n * w, "little")
    return [int.from_bytes(raw[i:i + w], "little") - half
            for i in range(0, n * w, w)]


def _bias(n, w, half):
    return int.from_bytes(half.to_bytes(w, "little") * n, "little")


def _pack(a, w, half):
    # sum a_i X^i at X = 256^w, given every |a_i| < half = X/2
    raw = b"".join((c + half).to_bytes(w, "little") for c in a)
    return int.from_bytes(raw, "little") - _bias(len(a), w, half)


class FqField:
    """F_p[w]/(modulus); modulus is a monic coefficient tuple, low degree first."""

    def __init__(self, q, modulus=None, gen="w"):
        p, deg = _prime_power(q)
        if deg > 1:
            if modulus is None:
                raise ValueError("extension field %d needs an explicit modulus" % q)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != deg + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree %d" % deg)
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over F_%d" % p)
        else:
            modulus = (0, 1)
        self.q = q
        self.p = p
        self.deg = deg
        self.modulus = modulus
        self.gen = gen

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.modulus))

    @cached_property
    def residues(self):
        """Residue c mod p -> its FqElem over this prime field, one table
        shared by every caller (FqElems are immutable)."""
        return _Residues(self)

    def __repr__(self):
        if self.deg == 1:
            return "Fq(%d)" % self.q
        return "Fq(%d;%s)" % (self.q, _poly_str(self.modulus, self.gen))

    def __call__(self, value):
        """Coerce an int, an FqElem of the same field, or a coefficient list."""
        if isinstance(value, FqElem):
            if value.field != self:
                raise FieldMismatchError("element of %r used in %r" % (value.field, self))
            return value
        if isinstance(value, int):
            return FqElem(self, (value % self.p,))
        return FqElem(self, tuple(c % self.p for c in value))

    def zero(self):
        return FqElem(self, ())

    def one(self):
        return FqElem(self, (1,))

    def generator(self):
        if self.deg == 1:
            raise ValueError("prime field has no polynomial generator")
        return FqElem(self, (0, 1))

    def elements(self):
        """All q elements, counting order; small fields only."""
        def rec(k):
            if k == 0:
                yield ()
                return
            for rest in rec(k - 1):
                for c in range(self.p):
                    yield rest + (c,)
        for cs in rec(self.deg):
            yield FqElem(self, cs)


class FqElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        if field.deg == 1:
            c = coeffs[0] % field.p if coeffs else 0
            self.coeffs = (c,) if c else ()
        else:
            self.coeffs = tuple(_poly_trim([c % field.p for c in coeffs]))

    def _check(self, other):
        if other.__class__ is FqElem and other.field is self.field:
            return other
        if isinstance(other, int):
            other = self.field(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatchError("mixed finite fields %r / %r" % (self.field, other.field))
        return other

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            if self.field.deg == 1:
                return self.as_int() == other % self.field.p
            other = self.field(other)
        return (
            isinstance(other, FqElem)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FqElem(self.field, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        if not self.coeffs or not other.coeffs:
            return self.field.zero()
        if self.field.deg == 1:
            return FqElem(self.field, (self.coeffs[0] * other.coeffs[0],))
        return FqElem(
            self.field,
            _poly_mulmod(list(self.coeffs), list(other.coeffs), self.field.modulus, self.field.p),
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero in %r" % self.field)
        p = self.field.p
        if self.field.deg == 1:
            return FqElem(self.field, (pow(self.coeffs[0], p - 2, p),))
        # the unit group has order q - 1
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        x = self.inverse() if k < 0 else self
        return power(x, abs(k), self.field.one())

    def as_int(self):
        """Integer representative, prime fields only."""
        if self.field.deg != 1:
            raise ValueError("as_int on an extension field element")
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        return _poly_str(self.coeffs, self.field.gen) if self.coeffs else "0"


def _fq_reduced(field, coeffs):
    """An FqElem over field from coefficients already reduced mod p and
    trimmed, without FqElem.__init__'s second reduction."""
    x = FqElem.__new__(FqElem)
    x.field = field
    x.coeffs = coeffs
    return x


# Residues a table keeps; past that a residue's FqElem is built anew.
_RESIDUE_MAX = 1 << 12


class _Residues(dict):
    """FqField.residues: filled as residues are asked for, since p may be
    large, each FqElem built without a second reduction."""

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, c):
        x = _fq_reduced(self.field, (c,))
        if len(self) < _RESIDUE_MAX:
            self[c] = x
        return x


def _poly_str(coeffs, gen):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(gen if c == 1 else "%d*%s" % (c, gen))
        else:
            parts.append("%s^%d" % (gen, i) if c == 1 else "%d*%s^%d" % (c, gen, i))
    return " + ".join(reversed(parts)) if parts else "0"


# Field sizes from here on are refused.  Below it the Miller-Rabin test
# with the bases _MR_BASES is exact: the least strong pseudoprime to all
# six is 3,474,749,660,383 (Jaeschke 1993).
_Q_MAX = 1 << 40
_MR_BASES = (2, 3, 5, 7, 11, 13)


def _prime_power(q):
    """(p, n) with q = p^n: the prime n-th root of q, tried for each n."""
    if not 2 <= q < _Q_MAX:
        raise UnsupportedFieldError("field size %d is outside [2, 2^40)" % q)
    for n in range(1, q.bit_length()):
        r = _iroot(q, n)
        if r ** n == q and _is_prime(r):
            return r, n
    raise UnsupportedFieldError("%d is not a prime power" % q)


def _iroot(q, n):
    """The integer n-th root of q: the float root corrected exactly."""
    r = round(q ** (1 / n))
    while r ** n > q:
        r -= 1
    while (r + 1) ** n <= q:
        r += 1
    return r


def _is_prime(n):
    """Deterministic Miller-Rabin for 1 < n < _Q_MAX."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_irreducible(f, p):
    """Ben-Or's test: a monic f of degree n over F_p is irreducible exactly
    when gcd(x^(p^i) - x mod f, f) = 1 for every 1 <= i <= n/2."""
    f = list(f)
    xq = [0, 1]
    for _ in range((len(f) - 1) // 2):
        # xq <- xq^p mod f, by square-and-multiply
        b, k, xq = xq, p, [1]
        while k:
            if k & 1:
                xq = _poly_mulmod(xq, b, f, p)
            k >>= 1
            if k:
                b = _poly_mulmod(b, b, f, p)
        # x^(p^i) - x
        d = xq + [0] * (2 - len(xq))
        d[1] -= 1
        d = _poly_trim(c % p for c in d)
        if not d or len(_fp_gcd(d, f, p)) > 1:
            return False
    return True


def padic_val(x, p, cap=None):
    """v_p of an exact rational or an int; refuses zero.  For an int, a
    cap stops the count there: min(v_p(x), cap)."""
    if x == 0:
        raise ZeroElementError("valuation of zero")
    n, d = x.numerator, x.denominator
    # v_p(n) <= n.bit_length(): a cap that never binds
    k = 0 if n % p else _int_val(n, p, n.bit_length() if cap is None else cap)
    return k if d % p else k - _int_val(d, p, d.bit_length())


def _int_val(n, p, cap):
    """min(v_p(n), cap) for an int n != 0.  Divides by p, p^2, p^4, ...
    while they divide and starts over at p when one does not, so a count
    of v takes O(log(v)^2) divisions: accepting a staircase member of
    depth k counts up to k on each t-coefficient."""
    v = 0
    while v < cap and n % p == 0:
        q, step = p, 1
        while v + step <= cap and n % q == 0:
            n //= q
            v += step
            q, step = q * q, 2 * step
    return v


def rational_mod_p(x, p):
    """Residue of a p-integral rational in F_p as an int."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroElementError("denominator divisible by %d" % p)
    return x.numerator * pow(x.denominator, -1, p) % p


def teichmuller_exact(a, p):
    """Exact rational Teichmuller lift when one exists (residues 0, 1, p-1)."""
    if isinstance(a, FqElem):
        a = a.as_int()
    a %= p
    if a == 0:
        return Fraction(0)
    if a == 1:
        return Fraction(1)
    if a == p - 1 and p > 2:
        return Fraction(-1)
    return None
