"""Exact coefficient domains: finite fields and p-adic valuations of rationals.

Finite fields F_q are F_p[w]/(m(w)) with an explicit monic modulus; the
prime field is the case m = w.  One element class serves both: a prime
field element holds one reduced int and multiplies as an int, while an
extension field multiplies through the integer product and reduction.
The residue table FqField.residues is the one constructor of prime field
residues: prime field arithmetic returns the table's shared instance for
the reduced int, zero (coefficients ()) included.
Polynomials over Z and F_p are int lists, lowest degree first, and one
kernel (product, remainder, gcd, exact quotient, lowest terms against a
coprime basis of the denominator) serves the extension arithmetic here and
the digit lifts and staircase of expansion.
Rationals carry their p-adic valuation and residue exactly; there is no
truncated p-adic type.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
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

# Where a plain Python loop stops paying: a schoolbook product runs at most
# _SCHOOLBOOK^2 coefficient products, past which packing for Kronecker
# substitution costs less, and a synthetic division by a two-term
# polynomial (_fp_strip) at most 2*_SCHOOLBOOK coefficients, past which
# prefix sums do.
_SCHOOLBOOK = 12


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
    if len(b) == 2:
        a, b = b, a
    if len(a) == 2:
        # a linear a divides b exactly when its root is a root of b
        z = -a[0] * pow(a[1], -1, p) % p
        v = 0
        for c in reversed(b):
            v = (v * z + c) % p
        return [1] if v else [z and p - z, 1]
    a, b = _fp_monic(a, p), _fp_monic(b, p)
    while b:
        a, b = b, _fp_rem(a, b, p)
        if b:
            b = _fp_monic(b, p)
    return a


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by monic b over F_p; the remainder
    trimmed."""
    a = list(a)
    m = len(b) - 1
    q = [0] * max(len(a) - m, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + m]
        if c:
            a[k:k + m] = [(x - c * y) % p for x, y in zip(a[k:k + m], b)]
    return q, _poly_trim(a[:m])


def _fp_quo(a, b, p):
    """Exact quotient a/b over F_p, b monic."""
    return _fp_divmod(a, b, p)[0]


def _fp_lowest_terms(a, b, p):
    """a/b over F_p with the gcd removed and b's constant term 1; a and b
    trimmed, b[0] nonzero."""
    g = _fp_gcd(a, b, p)
    if len(g) > 1:
        a, b = _fp_quo(a, g, p), _fp_quo(b, g, p)
    inv = pow(b[0], -1, p)
    return [c * inv % p for c in a], [c * inv % p for c in b]


def _fp_coprime(pairs, p):
    """Factor refinement (Bach, Driscoll and Shallit): monic pairwise
    coprime nonconstant (c, m) with prod c^m = prod f^e over the monic
    (f, e) of pairs.  Two pieces with a common factor h give way to h and
    their cofactors, which lowers their total degree, so it ends."""
    out, todo = [], list(pairs)
    while todo:
        f, e = todo.pop()
        for i, (c, m) in enumerate(out):
            h = _fp_gcd(f, c, p)
            if len(h) > 1:
                del out[i]
                todo.append((h, e + m))
                todo += [(_fp_quo(u, h, p), n) for u, n in ((f, e), (c, m))
                         if len(u) > len(h)]
                break
        else:
            out.append((f, e))
    return out


def _fp_strip(a, f, e, p):
    """(q, k, r) for a nonzero a and a monic f with f(0) != 0 over F_p:
    q = a/f^k for the largest k <= e with f^k | a, and r = [] when k = e,
    else a nonzero r of degree below deg f with q = t^j*r mod f for some
    j >= 0, so that r shares with f what q shares with it.

    A two-term f = t^d + c divides an a of up to 2*_SCHOOLBOOK
    coefficients by synthetic division, one pass of a per division, and a
    longer one as d interleaved prefix sums, whose set-up (two passes of
    powers) costs more than the passes it saves on a shorter a.  In the
    class of exponents j + d*i (i = 0, 1, ...) the quotient of a by s + c,
    s = t^d, is q_i = z*y^i*S_i with z = 1/c, y = -z and S the prefix sums
    of a_i*y^-i, and the class divides exactly when the sum one past q's
    top is 0 mod p.  So k divisions are k passes of prefix sums, reduced
    mod p once at the end.  Any other f takes _fp_divmod."""
    d = len(f) - 1
    if any(f[1:-1]):
        k, r = 0, []
        while k < e:
            q, r = _fp_divmod(a, f, p)
            if r:
                break
            a, k = q, k + 1
        return a, k, r
    if len(a) <= 2 * _SCHOOLBOOK:
        # synthetic division by t^d + c, in place from the top
        c = f[0]
        for k in range(e):
            q = list(a)
            for j in range(len(q) - 1, d - 1, -1):
                q[j - d] = (q[j - d] - c * q[j]) % p
            r = _poly_trim(q[:d])
            if r:
                return a, k, r
            a = q[d:]
        return a, e, []
    z = pow(f[0], -1, p)
    y = p - z
    cls = [[c * w for c, w in zip(a[j::d], _fp_powers(p - f[0], len(a[j::d]), p))]
           for j in range(d)]
    k, m, r = 0, len(a), []
    while k < e and m > d:
        nxt = [list(accumulate(c)) for c in cls]
        if any(c[-1] % p for c in nxt):
            # q - q'*f = t^(m-d)*r for the quotient q' of this pass, r
            # made of the sums one past the top
            r = [0] * d
            for j, c in enumerate(nxt):
                i = len(c) - 1
                r[j + d * i - m + d] = c[-1] * pow(z, k, p) * pow(y, i, p) % p
            break
        for c in nxt:
            c.pop()
        cls, k, m = nxt, k + 1, m - d
    if k:
        ys = _fp_powers(y, len(cls[0]), p, pow(z, k, p))
        a = [0] * m
        for j, c in enumerate(cls):
            a[j::d] = [v * w % p for v, w in zip(c, ys)]
    if k < e and not r:
        # q has degree below d: its own remainder
        r = a
    return a, k, _poly_trim(r)


def _fp_powers(x, n, p, c=1):
    """[c, c*x, ..., c*x^(n-1)] mod p."""
    out = [c]
    for _ in range(n - 1):
        c = c * x % p
        out.append(c)
    return out


def _fp_basis_lowest_terms(a, b, basis, p):
    """_fp_lowest_terms(a, b, p) for a b proportional to prod f^e over
    basis, a list of pairs (f, e) of monic pairwise coprime f: a is
    divided by each f while f divides it, at most e times, k times in all,
    so the gcd is prod f^k.  A remainder r sharing a proper factor h with
    f splits f into the coprime pieces of h and f/h, each taking e and the
    divisions made so far times its multiplicity in f.  Returns (nt, dt,
    refined), refined listing (f, e, k) for each piece."""
    refined, todo = [], [(f, e, 0) for f, e in basis]
    while todo:
        f, e, k = todo.pop()
        a, j, r = _fp_strip(a, f, e - k, p)
        k += j
        # a nonconstant remainder may share a proper factor with f
        h = _fp_gcd(r, f, p) if len(f) > 2 and len(r) > 1 else [1]
        if 1 < len(h) < len(f):
            todo += [(c, e * m, k * m)
                     for c, m in _fp_coprime([(h, 1), (_fp_quo(f, h, p), 1)], p)]
        else:
            refined.append((f, e, k))
    d = [1]
    for f, e, k in refined:
        if e > k:
            fk = _fp_pow(f, e - k, p)
            d = _fp_mul(d, fk, p) if len(d) > 1 else fk
    inv = pow(d[0], -1, p)
    ninv = pow(b[-1] * d[0], -1, p)
    return [c * ninv % p for c in a], [c * inv % p for c in d], refined


def _fp_mul(a, b, p):
    """a*b over F_p."""
    return [c % p for c in _zmul(a, b)]


def _fp_pow(f, k, p):
    """f^k over F_p for k >= 1: a two-term f = t^d + c by the binomial
    theorem, any other by square-and-multiply."""
    d = len(f) - 1
    if not any(f[1:-1]):
        out = [0] * (d * k + 1)
        b, c, inv = 1, pow(f[0], k, p), pow(f[0], -1, p)
        for i in range(k + 1):
            out[d * i] = b * c % p
            b, c = b * (k - i) // (i + 1), c * inv % p
        return out
    out = None
    while k:
        if k & 1:
            out = f if out is None else _fp_mul(out, f, p)
        k >>= 1
        if k:
            f = _fp_mul(f, f, p)
    return out


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


# A digit stream over F_p((u))((t)) packs each t-slice into one int while
# neither the u-exponents of the element's terms nor any of its slices from
# its packed start span this many slots per term; a sparser element keeps a
# dict per slice.
_PACKED_SPAN = 2


def _zmul(a, b):
    """Product over Z.  Past _SCHOOLBOOK^2 coefficient products, by
    Kronecker substitution: pack each list into one int with slots wide
    enough for every product coefficient, multiply once, unpack with a
    bias."""
    if len(a) * len(b) <= _SCHOOLBOOK ** 2:
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, e in enumerate(b, i):
                    out[j] += c * e
        return out
    w = _slot_bytes(max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                    + min(len(a), len(b)).bit_length())
    half = 1 << (8 * w - 1)
    n = len(a) + len(b) - 1
    return _unpack(_pack(a, w, half) * _pack(b, w, half), n, w, half)


def _zcross(a, sa, b, c, sc, d):
    """(t^sa*a*d - t^sc*c*b as (list, exponent of its head) trimmed at both
    ends, b*d) over Z.  Up to _SCHOOLBOOK^2 coefficient products in all,
    one schoolbook pass over d and c fills both lists; past that the four
    are packed once at one slot width, and three products, a shift and a
    subtraction give both."""
    if len(d) * (len(a) + len(b)) + len(c) * len(b) <= _SCHOOLBOOK ** 2:
        lo = min(sa, sc)
        x = [0] * (max(sa + len(a) + len(d), sc + len(c) + len(b)) - 1 - lo)
        y = [0] * (len(b) + len(d) - 1)
        for j, e in enumerate(d):
            if e:
                for i, v in enumerate(a, sa - lo + j):
                    x[i] += v * e
                for i, v in enumerate(b, j):
                    y[i] += v * e
        for j, e in enumerate(c):
            if e:
                for i, v in enumerate(b, sc - lo + j):
                    x[i] -= v * e
        return (*_ztrim(x, lo), y)
    # every coefficient of the products and of the difference stays below
    # 2 * (longest list) * max|a, b| * max|c, d|
    w = _slot_bytes(max(max(a), -min(a), max(b), -min(b)).bit_length()
                    + max(max(c), -min(c), max(d), -min(d)).bit_length()
                    + max(len(a), len(b)).bit_length() + 1)
    half = 1 << (8 * w - 1)
    pa, pb, pc, pd = (_pack(x, w, half) for x in (a, b, c, d))
    x, y, s = pa * pd, pc * pb, sc - sa
    n = max(len(a) + len(d) - min(s, 0), len(c) + len(b) + max(s, 0)) - 1
    r = x - (y << 8 * w * s) if s >= 0 else (x << -8 * w * s) - y
    return (*_ztrim(_unpack(r, n, w, half), min(sa, sc)),
            _unpack(pb * pd, len(b) + len(d) - 1, w, half))


# struct formats by item size: slots of these widths pack and unpack in
# one call, signed (lower case) or not
_ITEMS = {struct.calcsize("<" + c): c for c in "BHIQ"}


def _slot_bytes(bits):
    """Bytes per slot for coefficients below 2^bits in absolute value and
    a sign bit: the least struct item size that holds them, if one does."""
    return min((w for w in _ITEMS if 8 * w > bits), default=bits // 8 + 1)


# Both read a slot a_i with |a_i| < half = X/2 as a signed w-byte integer, or
# one in [0, X) when half is 0.  The bias sum half*X^i has the top bit of
# every slot set, and a slot holding a_i + half, which needs no carry, holds
# the two's complement of a_i with that bit flipped; so one addition and one
# xor cross between the packed int and signed slots.

def _unpack(c, n, w, half):
    # the n coefficients of c = sum a_i X^i at X = 256^w
    bias = _bias(n, w, half)
    raw = ((c + bias) ^ bias).to_bytes(n * w, "little")
    if w in _ITEMS:
        fmt = _ITEMS[w].lower() if half else _ITEMS[w]
        return list(struct.unpack("<%d%s" % (n, fmt), raw))
    return [int.from_bytes(raw[i:i + w], "little", signed=bool(half))
            for i in range(0, n * w, w)]


def _bias(n, w, half):
    return int.from_bytes(half.to_bytes(w, "little") * n, "little")


def _pack(a, w, half):
    # sum a_i X^i at X = 256^w
    if w in _ITEMS:
        fmt = _ITEMS[w].lower() if half else _ITEMS[w]
        raw = struct.pack("<%d%s" % (len(a), fmt), *a)
    else:
        raw = b"".join(c.to_bytes(w, "little", signed=bool(half)) for c in a)
    bias = _bias(len(a), w, half)
    return (int.from_bytes(raw, "little") ^ bias) - bias


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
        """Residue c in [0, p) -> its FqElem over this prime field, one
        table shared by every caller (FqElems are immutable); arithmetic
        over this field takes its results from here."""
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
        if other.__class__ is FqElem and other.field is self.field:
            return self.coeffs == other.coeffs
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
        f = self.field
        if f.deg == 1:
            return f.residues[(sum(self.coeffs) + sum(other.coeffs)) % f.p]
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FqElem(self.field, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if f.deg == 1:
            return f.residues[-sum(self.coeffs) % f.p]
        return FqElem(f, [-c for c in self.coeffs])

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
        f = self.field
        if f.deg == 1:
            return f.residues[sum(self.coeffs) * sum(other.coeffs) % f.p]
        if not self.coeffs or not other.coeffs:
            return f.zero()
        return FqElem(f, _poly_mulmod(list(self.coeffs), list(other.coeffs),
                                      f.modulus, f.p))

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero in %r" % self.field)
        f = self.field
        if f.deg == 1:
            return f.residues[pow(self.coeffs[0], f.p - 2, f.p)]
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


# Residues a table keeps; past that a residue's FqElem is built anew.
_RESIDUE_MAX = 1 << 12


class _Residues(dict):
    """FqField.residues: filled as residues c in [0, p) are asked for, since
    p may be large, each FqElem built without FqElem.__init__'s second
    reduction; residue 0 is the canonical zero, with coefficients ()."""

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, c):
        x = FqElem.__new__(FqElem)
        x.field = self.field
        x.coeffs = (c,) if c else ()
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
    if not x:
        raise ZeroElementError("valuation of zero")
    n, d = x.numerator, x.denominator
    # v_p(n) <= n.bit_length(): a cap that never binds
    k = 0 if n % p else _int_val(n, p, n.bit_length() if cap is None else cap)
    return k if d % p else k - _int_val(d, p, d.bit_length())


def _int_val(n, p, cap):
    """min(v_p(n), cap) for an int n != 0.  A word-size n, which holds at
    most 64 factors p and in practice a handful, is counted one p at a
    time, two cheap operations per factor where the tower below keeps a
    list and divides at least three times.  A larger n climbs the tower
    p, p^2, p^4, ... while its powers divide, one divmod each, then walks
    back down the same powers: O(log v) divisions for a count of v, as
    accepting a staircase member of depth k counts up to k on each
    t-coefficient."""
    if n.bit_length() <= 64:
        v = 0
        while v < cap and not n % p:
            n //= p
            v += 1
        return v
    v, tower, q, step = 0, [], p, 1
    while v + step <= cap:
        d, r = divmod(n, q)
        if r:
            break
        n, v = d, v + step
        tower.append(q)
        q, step = q * q, 2 * step
    # what is left of v_p(n) and of cap, the lesser below step, is a sum
    # of distinct powers of two below step
    for q in reversed(tower):
        step >>= 1
        if v + step <= cap:
            d, r = divmod(n, q)
            if not r:
                n, v = d, v + step
    return v


def rational_mod_p(x, p):
    """Residue of a p-integral rational in F_p as an int."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroElementError("denominator divisible by %d" % p)
    return x.numerator * pow(x.denominator, -1, p) % p
