"""Exact coefficient domains: finite fields and p-adic valuations of rationals.

Finite fields F_q are F_p[w]/(m(w)) with an explicit monic modulus; the
prime field is the case m = w.  One element class serves both: a prime
field element holds one reduced int and multiplies as an int, while an
extension field multiplies through the schoolbook product and reduction.
Polynomials over F_p are int lists, lowest degree first, and one kernel
(remainder, gcd, exact quotient) serves both the extension arithmetic here
and the digit lifts of expansion.
Rationals carry their p-adic valuation and residue exactly; there is no
truncated p-adic type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import FieldMismatchError, ZeroElementError


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


# --- F_p[x] on int lists, lowest degree first ---------------------------------

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
    # schoolbook product of nonzero a and b, then the remainder by the monic
    # modulus, all mod p
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    return _fp_rem(res, mod, p)


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

    def multiplicative_order(self):
        if not self.coeffs:
            raise ZeroElementError("order of zero")
        k, acc = 1, self
        one = self.field.one()
        while acc != one:
            acc = acc * self
            k += 1
        return k

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


def _prime_power(q):
    if q < 2:
        raise ValueError("field size must be a prime power, got %d" % q)
    p = None
    for c in range(2, q + 1):
        if q % c == 0:
            p = c
            break
    deg = 0
    n = q
    while n % p == 0:
        n //= p
        deg += 1
    if n != 1:
        raise ValueError("%d is not a prime power" % q)
    return p, deg


def _is_irreducible(modulus, p):
    deg = len(modulus) - 1
    # no roots kills degree <= 3; beyond that, trial division by low factors
    for a in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    def monics(d):
        def rec(k):
            if k == 0:
                yield ()
                return
            for rest in rec(k - 1):
                for c in range(p):
                    yield rest + (c,)
        for tail in rec(d):
            yield list(tail) + [1]
    for d in range(2, deg // 2 + 1):
        for cand in monics(d):
            if not _fp_rem(modulus, cand, p):
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
