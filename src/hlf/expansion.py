"""Expansion along the top uniformizer: one sparse digit stream.

digits(x, stop) yields (level, digit) for the nonzero digits of x below
level stop, lazily and in increasing level, from its top valuation on,
and ends once the remainder is exactly zero: every level it skips or
leaves holds 0.  Three readers share the stream, each passing the bound
it already has, since a sparse stream cannot report a zero level without
working up to the next nonzero digit: expand(x, k) fills a window of k
zeros, a Jet, from the pairs below start + k; residue(x) is the digit at
level 0, the first pair below 1; LevelsOpen.contains in opens checks each
pair below the open's top and returns at the first that fails, a skipped
level holding 0, which every open contains; over Qp{{t}} against a
staircase of t-balls in_staircase decides from the element's integer
polynomials without a digit.  The shape of the element picks the route;
no digit, remainder update or budget check runs at or past stop.

A Laurent polynomial over base((t)), an element whose denominator
Element.make has left exactly 1, takes the first route: its digits are
the numerator's t-slices (_laurent_digits), one step per term however far
apart its terms lie, where the recursion below pays one step per level
between them.  Each digit has the entries and coefficients the recursion
gives it.

Over base((t)) an element P/Q, cut by t exponent into slices P_i and Q_j
one level down, expands into residue field coefficients X_i by the linear
recursion Q_0 X_i = P_i - sum_{j>=1} Q_j X_{i-j}; normalization makes Q_0 a
unit of the integer ring one level down, so every X_i is exact.  The loop
keeps every digit over one power of a fixed denominator: X_i = A_i/N^e with
e = i - i0 + 1 counted from the first slice i0, where N = Q_0 (Element.make
leaves the least monomial of a denominator 1, and it lies in Q_0) and
A_i = P_i N^(e-1) - sum_{j>=1} Q_j N^(j-1) A_{i-j} is a Laurent polynomial.
Element arithmetic would cross-multiply the denominators at each
subtraction, doubling their degree every few digits; over N^e they grow
linearly.

The recursion runs on ints wherever the residue field allows; the
element's shape picks the route.  With no lower parameter (Qp((t)),
Q((t)), Fq((t)): _scalar_digits) each slice is one coefficient: an int
mod p over a prime field, an FqElem, or over Q and Qp n/L^kappa with L
the lcm of the coefficient denominators and kappa 1 only for a
non-integer.  There a digit is Fraction(A_i, L^k_i), k_i the largest
k_(i-j) + kappa_j over its terms, at most e: a level takes a factor L
only through a Q_j that is not an integer, so where that is Q_2 alone
A_i has half the bits it would have over N^e = L^e, and so has the one
gcd that a canonical Fraction costs.
With one lower parameter u over a prime field (_packed_digits) each slice
is one int, its coefficients in [0, p) in slots of w bytes from a least
exponent that moves by a fixed r per level, so the slots of every product
line up without a shift (Kronecker substitution, as in coeff._zmul).  w
comes from the bound on a product's slots, so a digit is one int product
per Q_j, a sum and one reduction mod p per slot (one bytes.translate with
one-byte slots), its dict built once from the nonzero slots; N^e is
packed the same way.  Everything else keeps a dict per slice
(_dict_digits): two or more lower parameters, F_q with q not prime or Q
and Qp coefficients under a lower parameter, and elements that would pack
into mostly empty ints (_packing): the u-exponents of their terms, or a
slice of P or Q from its packed start, span _PACKED_SPAN or more slots per
term (u^(10^30), say, or (1 + t^K)/(1 + u*t), whose slices line up only
from u^-K on).  There the lower exponents are packed into one int
key, in slots with 64 bits of headroom that no digit before the 2^64-th
overflows (_exponent_keys), so a monomial shift is one int addition, and
a digit adds all its products into one accumulator, reduced mod p once.
A residue's FqElem comes from the field's one residue table
(FqField.residues), shared by every stream over that field, filled as
residues turn up.  The first digit is read off P's first slice before any
table is built, so residue() pays for one digit, and every route gives a
digit the entries, coefficient types and repr of the others.
Where Q_0 is one monomial (always over Qp((t)), Q((t)) and Fq((t))) N^e is
a constant and each digit is a Laurent polynomial, which has one
representation; otherwise Element.make finds the least monomial of N^e
already 1.  A_i is empty exactly when X_i is 0, and then nothing is
yielded; past P's top slice, max(Q) zero digits in a row end the stream.
The packed and dict routes build the table -Q_j N^(j-1) one entry per
level, at the first level that reads it, so a denominator term at
t^(10^6) costs nothing to a stream stopped at level 3.

Over Qp{{t}} and Qp the expansion runs along p instead, peeling one digit per
step with the plain section of the reduction map: y -> (y - lift(d))/p with
d = y mod p, the lift reduced over F_p with integer coefficients in [0, p).
Over Qp that is one rational: d = c mod p, c -> (c - d)/p, and a run of
v zero digits one valuation of c, counted no further than stop, and one
division by p^v.

Over Qp{{t}} that loop runs on integer polynomials: y = t^a*N / t^b*Q with N
and Q dense int lists over one scale prime to p; the stream ends once N is
empty.  A digit is N mod p over Q mod p, unreduced, so residue() returns it
verbatim; its lift is that fraction nt/dt in lowest terms over F_p;
subtracting it cross-multiplies Q by dt, as Element arithmetic does, so the
digits keep their value and their representation.  The section fixes the
digits: lifting over the fixed denominator Q instead would be another
section, with other digits from the second on.  Under the plain section the
reduced digits themselves grow about 1.7x per level (denominator degrees 2,
3, 5, 8, 13, 24, 43, 76 for (1 + t)/(1 - 3*t - t^2)), and Q gathers all of
them, so the cost of a jet follows the size of its digits, geometric in
their count: no exact algorithm for these digits is linear in the count.

What the loop saves is the constant, and the Euclid a digit's lowest
terms would take, quadratic in its size.  They need none: each step takes
Q to Q*dt, dt dividing qbar = Q mod p, or leaves Q alone, and the content
it divides out is prime to p, since Q keeps a coefficient prime to p at
t^0.  So qbar is a unit times qbar_0*dt_0*...*dt_(k-1), qbar_0 the first,
and every irreducible factor of every digit's denominator divides qbar_0.
The stream keeps monic pairwise coprime f with qbar proportional to the
product of the f^e, from qbar_0 alone at the first digit; the gcd of a
digit's numerator nbar with qbar is the product of the f^k, f dividing
nbar k <= e times, found by dividing by f.  A remainder sharing a proper
factor with f splits f into the coprime pieces of that factor and its
cofactor (factor refinement, Bach, Driscoll and Shallit 1993), and after
Q*dt each e becomes 2e - k.  The remainder update takes N*dt - nt*Q, each
at its power of t, and Q*dt.  A run of v zero digits, N divisible by p^v,
yields nothing and takes one valuation, counted no further than stop, and
one division.  A remainder past _DIGIT_BUDGET integer coefficients raises
PrecisionExhaustedError rather than run on.

Below about eight digits a level holds a few dozen coefficients, so it
costs its Python steps, not its int arithmetic, and every helper takes
the route that costs fewest steps at its size, on one constant
(coeff._SCHOOLBOOK).  The set-up reads x's coefficients as ints, with no
Fraction.  N and Q mod p are scaled so that qbar's constant term is 1,
which is the canonical form Element.make would reach, so the digit is
built as it is, and its lists are the ones whose lowest terms are taken.
A two-term f divides a numerator of up to 2*_SCHOOLBOOK coefficients by
synthetic division, one pass per division, and a longer one by prefix
sums (coeff._fp_strip); a linear remainder shares a factor with f exactly
when its root is one of f's.  The remainder update runs one schoolbook
pass while it takes at most _SCHOOLBOOK^2 coefficient products, and past
that packs N, Q, nt and dt once and takes both from three int multiplies
(Kronecker substitution, coeff._zcross).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm

from .coeff import (_PACKED_SPAN, UNKNOWN, FqElem, _fp_basis_lowest_terms,
                    _fp_lowest_terms, _fp_monic, _pack, _slot_bytes, _unpack,
                    _zadd, _zcross, _zdiv, _zgcd, _ztrim, padic_val,
                    rational_mod_p)
from .elements import Element
from .errors import (NotIntegralError, PrecisionExhaustedError,
                     UnsupportedFieldError)
from .fields import FiniteBase, MixedExt, QpBase, SeriesExt


class Jet:
    """Window of expansion coefficients: coeffs[k] sits at var^(start+k).
    Coefficients are Elements of the residue field; everything past the
    window is unknown, not zero."""

    def __init__(self, field, start, coeffs, var):
        self.field = field
        self.start = start
        self.coeffs = list(coeffs)
        self.var = var

    def stop(self):
        return self.start + len(self.coeffs)

    def coeff(self, i):
        if i < self.start:
            return Element.zero(self.field.residue())
        if i >= self.stop():
            return UNKNOWN
        return self.coeffs[i - self.start]

    def window(self, lo, hi):
        return [self.coeff(i) for i in range(lo, hi)]

    def _trimmed(self):
        s, cs = self.start, list(self.coeffs)
        while cs and cs[0].is_zero():
            cs.pop(0)
            s += 1
        return s, cs

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.field == other.field and self.var == other.var
                and self._trimmed() == other._trimmed())

    def __add__(self, other):
        """Sum on the common window; tests check expand against Element
        addition through it."""
        lo = min(self.start, other.start)
        hi = min(self.stop(), other.stop())
        return Jet(self.field, lo,
                   [self.coeff(i) + other.coeff(i) for i in range(lo, hi)], self.var)

    def __mul__(self, other):
        """Truncated Cauchy product; tests compare expand(x) * expand(y)
        with expand(x * y) through it."""
        n = min(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            acc = Element.zero(self.field.residue())
            for i in range(k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return Jet(self.field, self.start + other.start, out, self.var)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            i = self.start + k
            cs = repr(c)
            if " " in cs or cs.startswith("-"):
                cs = "(%s)" % cs
            if i == 0:
                parts.append(cs)
            else:
                v = self.var if i == 1 else "%s^%d" % (self.var, i)
                parts.append(v if cs == "1" else "%s*%s" % (cs, v))
        tail = "O(%s^%d)" % (self.var, self.stop())
        return " + ".join(parts + [tail]) if parts else ("0 + " + tail)


def digits(x, stop):
    """(level, digit) for each nonzero expansion coefficient of x along the
    top uniformizer below level `stop`, lazily and in increasing level, from
    x.val_vector()[-1] on.  Every level the stream skips holds 0, and the
    stream ends once the remainder is exactly zero; zero itself yields
    nothing.  A sparse stream cannot tell a zero level without working up
    to the next nonzero digit, so each reader passes the bound it has, and
    no digit, remainder update or budget check runs at or past it."""
    f = x.field
    if isinstance(f, SeriesExt):
        gen = _series_digits
    elif isinstance(f, MixedExt):
        gen = _mixed_digits
    elif isinstance(f, QpBase):
        gen = _qp_digits
    else:
        raise UnsupportedFieldError("no uniformizer to expand along in %r" % f)
    if x.is_zero() or x.val_vector()[-1] >= stop:
        return iter(())
    return gen(x, stop)


def expand(x, terms):
    """First `terms` expansion coefficients of x along the top uniformizer,
    from its top valuation on (level 0 for zero)."""
    f = x.field
    # a field with no uniformizer has an empty val_vector; digits refuses it
    start = 0 if x.is_zero() or not x.val_vector() else x.val_vector()[-1]
    pairs = digits(x, start + terms)
    coeffs = [Element.zero(f.residue())] * max(terms, 0)
    for i, d in pairs:
        coeffs[i - start] = d
    var = f.param if isinstance(f, SeriesExt) else str(f.prime())
    return Jet(f, start, coeffs, var)


def _series_digits(x, stop):
    # X_i = A_i / N^e with e = i - i0 + 1 and N = Q_0, so that
    # A_i = P_i N^(e-1) - sum_{j>=1} Q_j N^(j-1) A_{i-j}; past P's top
    # slice, max(Q) zero digits in a row end the stream.  The shape picks
    # the route: the t-slices, a scalar per slice, one packed int per
    # slice, or dicts
    base = x.field.residue()
    if len(x.den) == 1:
        return _laurent_digits(x, base, stop)
    fq = base.fq()
    nlow = len(base.series_params())
    if nlow == 1 and fq is not None and fq.deg == 1 and (layout := _packing(x)):
        return _packed_digits(x, base, fq, stop, *layout)
    p, scale = None, 1
    if fq is None:
        # Q, Qp or Qp{{u}} coefficients: P and Q times one integer
        scale = lcm(*(c.denominator for lp in (x.num, x.den) for c in lp.values()))
        conv = lambda c: c.numerator * (scale // c.denominator)
        coeff = Fraction
    elif fq.deg == 1:
        # ints mod p, read back through the field's residue table
        p = fq.p
        conv = FqElem.as_int
        elem = fq.residues.__getitem__
        coeff = lambda c, d: elem(c)
    else:
        conv = lambda c: c
        coeff = lambda c, d: c
    if nlow == 0:
        return _scalar_digits(x, base, conv, coeff, p, scale, stop)
    return _dict_digits(x, base, conv, coeff, p, stop)


def _laurent_digits(x, base, stop):
    # Element.make leaves a monomial denominator exactly 1, so the digit at
    # level i is the numerator's t^i slice: one step per term, however far
    # apart the terms lie
    slices = _t_slices(x.num, lambda k: k[:-1], lambda c: c)
    for i in sorted(k for k in slices if k < stop):
        yield i, Element.make(base, slices[i])


def _packing(x):
    """(r, off) such that x over F_p((u))((t)) packs the t-slice of A_i
    from u^(off + (i - i0)*r) on, i0 the least t-exponent of its
    numerator, so that the slots of every product line up; None where a
    packed slice of x, or the u-exponents of all its terms, would span
    _PACKED_SPAN or more slots per term."""
    # N = Q_0 holds u^0, so Q_j N^(j-1) starts at u^(j*r) or later and by
    # induction A_i at u^off_i or later
    r = min([u // t for u, t in x.den if t] or [0])
    i = min(t for _, t in x.num)
    ps = [u - (t - i) * r for u, t in x.num]
    qs = [u - t * r for u, t in x.den]
    us = [k[0] for lp in (x.num, x.den) for k in lp]
    if max(max(us) - min(us), max(ps) - min(ps), max(qs)) < _PACKED_SPAN * len(us):
        return r, min(ps)
    return None


def _scalar_digits(x, base, conv, coeff, p, L, stop):
    # no lower parameter: each slice one coefficient n/L^kappa, kappa 1
    # where it is not an integer (L = 1 over F_q).  X_i = A_i/L^k_i, k_i
    # the largest kappa_j + k_(i-j) over the terms of the digit (kappa for
    # P_i), so A_i is an integer and L^k_i, which the dict kernel keeps at
    # N^e = L^e, grows only as fast as the digits' denominators must
    make = Element.make

    def split(c):
        n = conv(c)
        if L == 1:
            return n, 0, 1
        return (n, 1, L) if n % L else (n // L, 0, 1)
    P = {k[-1]: split(c) for k, c in x.num.items()}
    Q = {k[-1]: split(c) for k, c in x.den.items()}
    width = max(Q)
    del Q[0]
    i, top = min(P), max(P)
    A = {i: P[i]}
    yield i, make(base, {(): coeff(P[i][0], P[i][2])})
    QN = {j: (-n, kq) for j, (n, kq, _) in Q.items()}
    i, run = i + 1, 0
    while (i <= top or run < width) and i < stop:
        # (a, k, L^k) summed term by term at the largest k so far
        a = None
        if i in P:
            a, k, Lk = P[i]
        for j, (q, kq) in QN.items():
            b = A.get(i - j)
            if b:
                c, kc = q * b[0], b[1] + kq
                if a is None or kc > k:
                    if a is not None:
                        c += a * L ** (kc - k)
                    a, k, Lk = c, kc, b[2] * L if kq else b[2]
                elif kc == k:
                    a += c
                else:
                    a += c * L ** (k - kc)
        if p is not None and a is not None:
            a %= p
        A[i] = (a, k, Lk) if a else None
        A.pop(i - width, None)
        if a:
            yield i, make(base, {(): coeff(a, Lk)})
        run = run + 1 if not a else 0
        i += 1


def _packed_digits(x, base, fq, stop, r, off):
    # F_p((u))((t)): each t-slice one int, its coefficients in [0, p) in
    # slots of w bytes from u^off_i on, off_i = off + (i - i0)*r (_packing),
    # so that the slots of every product line up without a shift; a digit
    # is one product per Q_j, a sum and one reduction per slot
    p = fq.p
    elem = fq.residues.__getitem__
    P = _t_slices(x.num, _first, FqElem.as_int)
    Q = _t_slices(x.den, _first, FqElem.as_int)
    width = max(Q)
    N = Q.pop(0)
    i0 = i = min(P)
    top = max(P)
    ND = None if len(N) == 1 else {(k,): elem(c) for k, c in N.items()}
    yield i, Element.make(base, {(k,): elem(c) for k, c in P[i].items()}, ND)
    # a slot of c*d adds at most as many products below p^2 as the shorter
    # has terms; a digit adds those of P_i*N^(e-1) and of each
    # Q_j N^(j-1) A_{i-j}, and N^e those of N^(e-1)*N
    # (N's least exponent is 0)
    terms = max(map(len, P.values())) + len(N) + sum(
        max(q) - min(q) + 1 + (j - 1) * max(N) for j, q in Q.items())
    w = _slot_bytes((terms * (p - 1) ** 2).bit_length())
    if w == 1:
        table = (bytes(range(p)) * (256 // p + 1))[:256]
        slots = lambda c: c.to_bytes((c.bit_length() + 7) // 8, "little").translate(table)
        join = lambda s: int.from_bytes(s, "little")
    else:
        slots = lambda c: [v % p for v in _unpack(c, -(-c.bit_length() // (8 * w)), w, 0)]
        join = lambda s: _pack(s, w, 0)

    def packed(cs, lo):
        s = [0] * (max(cs) - lo + 1)
        for k, c in cs.items():
            s[k - lo] = c
        return join(s)

    keys, k0 = [], 0

    def lp(lo, s):
        # the nonzero slots as a dict, their exponent tuples cut from keys,
        # which covers u^k0 on and triples its range when a digit leaves it
        nonlocal keys, k0
        a, b = min(lo, k0), max(lo + len(s), k0 + len(keys))
        if (a, b) != (k0, k0 + len(keys)):
            keys, k0 = list(zip(range(2 * a - b, 2 * b - a))), 2 * a - b
        cut = keys[lo - k0:lo - k0 + len(s)]
        return dict(zip(compress(cut, s), map(elem, compress(s, s))))

    A = {i: packed(P[i], off)}
    # -Q_j N^(j-1), slot by slot, each built at the first level that reads
    # it, so that a short stream builds only what it reads
    Np, Nj, QN = packed(N, 0), 1, {}
    i, D, run = i + 1, Np, 0
    while (i <= top or run < width) and i < stop:
        off += r
        j = i - i0
        if j <= width:
            if j in Q:
                QN[j] = join([p - v if v else 0 for v in slots(packed(Q[j], j * r) * Nj)])
            if j < width:
                Nj = join(slots(Nj * Np))
        acc = packed(P[i], off) * D if i in P else 0
        for j, q in QN.items():
            b = A.get(i - j)
            if b:
                acc += q * b
        s = slots(acc)
        A[i] = a = join(s)
        A.pop(i - width, None)
        if ND is not None:
            D = join(d := slots(D * Np))
        if a:
            yield i, Element.make(base, lp(off, s), None if ND is None else lp(0, d))
        run = run + 1 if not a else 0
        i += 1


def _first(k):
    return k[0]


def _dict_digits(x, base, conv, coeff, p, stop):
    # lower exponents packed into int keys (_exponent_keys), each slice a
    # dict of them
    pack, tuples = _exponent_keys(len(base.series_params()), (x.num, x.den))
    P, Q = _t_slices(x.num, pack, conv), _t_slices(x.den, pack, conv)

    def element(a, D):
        # D = N^e; its least monomial sits at key 0, and dividing by its
        # coefficient d (1 over F_q) leaves Element.make nothing to normalize
        d = D[0]
        num = dict(zip(tuples(a), map(coeff, a.values(), repeat(d))))
        if len(D) == 1:
            return Element.make(base, num)
        return Element.make(base, num, dict(zip(tuples(D), map(coeff, D.values(), repeat(d)))))

    width = max(Q)
    N = Q.pop(0)
    i0 = i = min(P)
    top = max(P)
    A = {i: P[i]}
    yield i, element(P[i], N)
    # -Q_j N^(j-1), so that each digit is one sum of products, each built
    # at the first level that reads it, so that a short stream builds only
    # what it reads
    QN, Nj = {}, {0: 1}
    i, D, run = i + 1, N, 0
    while (i <= top or run < width) and i < stop:
        j = i - i0
        if j in Q:
            QN[j] = {k: -c for k, c in _product(Q[j], Nj, p).items()}
        if j < width:
            Nj = _product(Nj, N, p)
        acc = {}
        if i in P:
            _add_product(acc, P[i], D)
        for j, qn in QN.items():
            if A.get(i - j):
                _add_product(acc, qn, A[i - j])
        A[i] = a = _lp_reduced(acc, p)
        A.pop(i - width, None)
        D = _product(D, N, p)
        if a:
            yield i, element(a, D)
        run = run + 1 if not a else 0
        i += 1


def _exponent_keys(nlow, lps):
    """(pack, tuples) for P and Q in lps, with nlow >= 1 lower variables:
    pack maps an exponent tuple to one int key for its lower exponents
    (Kronecker substitution), tuples maps keys back to exponent tuples.
    The key is the exponent with one lower variable.  With more, each
    exponent gets a slot of the bit length of the largest |lower exponent|
    M in P and Q, plus 64 bits of headroom and a sign bit; the exponents of
    A_i and N^e stay within e*M, so no slot overflows before the 2^64-th
    digit."""
    if nlow == 1:
        return _first, zip
    bound = max(abs(e) for lp in lps for k in lp for e in k[:-1])
    w = bound.bit_length() + 65
    shifts = range(0, nlow * w, w)
    half, mask = 1 << (w - 1), (1 << w) - 1

    def unpack(key):
        out = []
        for _ in shifts:
            e = ((key + half) & mask) - half
            out.append(e)
            key = (key - e) >> w
        return tuple(out)
    # zip stops at the last lower exponent, dropping t's
    return (lambda k: sum(e << s for e, s in zip(k, shifts))), \
        (lambda keys: map(unpack, keys))


def _t_slices(lp, pack, conv):
    """A Laurent polynomial over base((t)) as {t exponent: {packed lower
    exps: converted coeff}}, each slice in the order of lp."""
    out = {}
    for k, c in lp.items():
        out.setdefault(k[-1], {})[pack(k)] = conv(c)
    return out


def _add_product(acc, a, b):
    """acc += a*b over packed keys, unreduced; returns acc."""
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _lp_reduced(a, p):
    """a without its zero coefficients, reduced mod p when p is set."""
    if p is None:
        return {k: c for k, c in a.items() if c}
    return {k: r for k, c in a.items() if (r := c % p)}


def _product(a, b, p):
    return _lp_reduced(_add_product({}, a, b), p)


def _qp_digits(x, stop):
    f = x.field
    p = f.p
    rf = f.residue()
    level = x.val_vector()[-1]
    c = x.num[()] / x.den[()] * Fraction(p) ** -level
    while c:
        d = rational_mod_p(c, p)
        if d:
            yield level, Element.from_coeff(rf, d)
            v = 1
        else:
            # v zero digits, v = v_p(c), counted no further than stop
            v = padic_val(c.numerator, p, stop - level)
        level += v
        if level >= stop:
            return
        c = (c - d) / p ** v


# Most integer coefficients, numerator and denominator together, that the
# remainder of a digit stream along p may carry into its next digit.  Under
# the plain section they can double with every level, so a stream that
# passes this raises PrecisionExhaustedError instead of running on without
# end: that of (1 + t)/(1 - t - t^2) does so before its 12th digit.
# The first digit is read off the element as it is, at any size.
_DIGIT_BUDGET = 4096


def _mixed_digits(x, stop):
    f = x.field
    p = f.prime()
    level = x.val_vector()[-1]
    rf = f.residue()
    elem = rf.fq().residues
    N, ns, Q, qs = _mixed_ints(x, p, level)
    # pairs (h, e), qbar proportional to the product of the h^e, from the
    # first digit on
    basis = None
    while N:
        # N and Q mod p, scaled so that qbar's constant term is 1: the
        # digit nbar/qbar is in the canonical form Element.make would find,
        # so it is built as it is
        inv = pow(Q[-qs], -1, p)
        nbar, nbs = _ztrim([c * inv % p for c in N], ns)
        if not nbar:
            # v zero digits, v the least v_p in N, counted no further than
            # stop
            v = stop - level
            for c in N:
                if c:
                    v = padic_val(c, p, v)
            level += v
            if level >= stop:
                return
            pv = p ** v
            N = [c // pv for c in N]
        else:
            qbar, _ = _ztrim([c * inv % p for c in Q[-qs:]], 0)
            num = {(i,): elem[c] for i, c in enumerate(nbar, nbs) if c}
            den = {(i,): elem[c] for i, c in enumerate(qbar) if c}
            yield level, Element.one(rf) if num == den else Element(rf, num, den)
            level += 1
            if level == stop:
                return
            if basis is None:
                basis = [(_fp_monic(qbar, p), 1)] if len(qbar) > 1 else []
            # the plain lift of the digit, as lift() builds it
            nt, dt, refined = _fp_basis_lowest_terms(nbar, qbar, basis, p)
            # y - lift over the denominator Element.__sub__ picks: Q when it
            # equals the lift's, else the product, which takes qbar to
            # qbar*dt, proportional to the product of the h^(2e - k)
            u = Q[0]
            if qs == 0 and len(Q) == len(dt) and Q == [u * c for c in dt]:
                N, ns = _zadd(N, ns, [-u * c for c in nt], nbs)
                basis = [(h, e) for h, e, _ in refined]
            else:
                N, ns, Q = _zcross(N, ns, Q, nt, nbs + qs, dt)
                basis = [(h, 2 * e - k) for h, e, k in refined]
            N = [c // p for c in N]
        g = gcd(*N, *Q)
        if g > 1:
            N = [c // g for c in N]
            Q = [c // g for c in Q]
        if N and len(N) + len(Q) > _DIGIT_BUDGET:
            raise PrecisionExhaustedError(
                "the digit at level %d along %d needs more than %d integer "
                "coefficients" % (level, p, _DIGIT_BUDGET))


def in_staircase(x, k, depth):
    """Whether the digits of x over Qp{{t}} at levels i0 + i, 0 <= i < k,
    i0 its top valuation, have t-valuation >= depth(i), for depth
    nonincreasing in i (-inf for an unconstrained level).  Reads no digit.

    Those y = x/p^i0 form the lattice L of sums of p^i t^depth(i) Zp[[t]]
    and p^k: peeling a digit of t-valuation >= depth(0) takes y into
    lift + p*L' with L' the same lattice one level on, since the plain lift
    of such a digit lies in t^depth(0) Zp[[t]], and depth(1) <= depth(0)
    makes L meet p*Zp{{t}} in p*L'.  So y is in L exactly when every
    t-coefficient a_j has p-adic valuation >= the least i with
    depth(i) <= j (k when there is none), and L is a Zp[[t]]-module.

    Make leaves the denominator's dominant monomial 1 at t^0, so Q splits
    into Q+, a unit of Zp[[t]], and Q-, its terms at negative exponents,
    each divisible by p.  With S_K = sum_{n<K} Q+^(K-1-n) (-Q-)^n,
    Q S_K = Q+^K - (-Q-)^K, so N S_K = y Q+^K mod p^K, and the Laurent
    polynomial N S_K lies in L mod p^K exactly when y does.  Without Q-,
    N alone decides.  Otherwise the precision K doubles from 1, each round
    deciding the levels below K, so a rejection near the top valuation
    pays for its own level only; S_K comes from one exact division of
    integers at a power of two (Kronecker substitution).
    """
    p = x.field.prime()
    N, ns, Q, qs = _mixed_ints(x, p, x.val_vector()[-1])
    if qs < 0:
        # make cancels no common factor, so Q may keep a Q- that y in
        # lowest terms lacks, and N S_K would then pass every round up to k
        N, ns, Q, qs = _lowest_terms(N, ns, Q, qs, p)
    if qs >= 0:
        return _staircase_holds(N, ns, p, k, depth)
    # t^D Q+ and -t^D Q-, D = -qs, as polynomials
    A, B = [0] * -qs + Q[-qs:], [-c for c in Q[:-qs]]
    # m bounds the 1-norms of A and B, so |S_K| <= K*m^(K-1) coefficientwise
    m = max(sum(map(abs, A)), sum(map(abs, B)))
    K = 1
    while True:
        # every coefficient of N S_K, and of A and B, stays below half
        w = (sum(map(abs, N)) * K * m ** K).bit_length() // 8 + 1
        half = 1 << (8 * w - 1)
        a, b = _pack(A, w, half), _pack(B, w, half)
        s = (a ** K - b ** K) // (a - b)
        n = len(N) + (K - 1) * (len(A) - 1)
        M = _unpack(_pack(N, w, half) * s, n, w, half)
        if not _staircase_holds(M, ns + qs * (K - 1), p, K, depth):
            return False
        if K == k:
            return True
        K = min(2 * K, k)


def _staircase_holds(M, ms, p, K, depth):
    """Every coefficient c of sum M[i] t^(ms + i) not divisible by p^K has
    depth(v_p(c)) <= its exponent; coefficients at or past depth(0) pass
    as they are."""
    first = depth(0)
    for j, c in enumerate(M, ms):
        if c and j < first:
            v = padic_val(c, p, K)
            if v < K and depth(v) > j:
                return False
    return True


def _lowest_terms(N, ns, Q, qs, p):
    """t^ns*N / t^qs*Q with the common factor of N and Q over Z[t]
    cancelled, Q's first coefficient prime to p back at t^0."""
    g = _zgcd(N, Q)
    if len(g) == 1:
        return N, ns, Q, qs
    N, Q = _zdiv(N, g), _zdiv(Q, g)
    j = next(i for i, c in enumerate(Q) if c % p)
    return N, ns - qs - j, Q, -j


# --- elements over Qp{{t}} as int lists, lowest degree first ----------------

def _mixed_ints(x, p, k0):
    """(N, ns, Q, qs) with y = x/p^k0 = t^ns*N / t^qs*Q, N and Q int lists
    over one scale prime to p; Q's first coefficient prime to p sits at
    t^0, as Element.make keeps it."""
    # y is p-integral, so every coefficient of num/p^k0 and of den has a
    # denominator prime to p: the lcm of them all without its powers of p
    scale = lcm(*(c.denominator for lp in (x.num, x.den) for c in lp.values()))
    scale //= p ** padic_val(scale, p)
    up, down = scale * p ** max(-k0, 0), p ** max(k0, 0)
    num = {k: c.numerator * up // (c.denominator * down) for (k,), c in x.num.items()}
    den = {k: c.numerator * scale // c.denominator for (k,), c in x.den.items()}
    return (*_int_list(num), *_int_list(den))


def _int_list(lp):
    """{exponent: int} as a dense list from its least exponent, and that."""
    lo = min(lp)
    out = [0] * (max(lp) - lo + 1)
    for k, c in lp.items():
        out[k - lo] = c
    return out, lo


# --- residue map -------------------------------------------------------------

def residue(x):
    """Image of x in the residue field one level down: its level-0
    expansion coefficient.  Needs the top rank one valuation of x to be
    nonnegative."""
    stream = digits(x, 1)
    if not x.is_zero() and x.val_vector()[-1] < 0:
        raise NotIntegralError("negative top valuation %r" % (x.val_vector(),))
    # at a positive top valuation the stream is empty below level 1
    return next(stream, (0, Element.zero(x.field.residue())))[1]


# --- sections of the residue map --------------------------------------------

def canonical_fraction(x):
    """Unique reduced form of a fraction over F_p((t)) with F_p a prime
    field: gcd removed, denominator's lowest monomial 1.  Every other x
    comes back unchanged; lift, its one caller, reduces residues of
    Qp{{t}}, which lie in F_p((t))."""
    f = x.field
    if not (isinstance(f, SeriesExt) and isinstance(f.residue(), FiniteBase)
            and f.residue().field.deg == 1) or x.is_zero():
        return x
    fq = f.residue().field
    ints = lambda lp: _int_list({k: c.as_int() for (k,), c in lp.items()})
    (np, ns), (dp, ds) = ints(x.num), ints(x.den)
    np, dp = _fp_lowest_terms(np, dp, fq.p)
    # in [0, p) already: read through the residue table
    num = {(ns + i,): fq.residues[c] for i, c in enumerate(np) if c}
    den = {(ds + i,): fq.residues[c] for i, c in enumerate(dp) if c}
    return Element.make(f, num, den)


def _mixed_lift(f, xbar):
    xbar = canonical_fraction(xbar)
    if xbar.is_zero():
        return Element.zero(f)
    conv = lambda lp: {k: Fraction(c.as_int()) for k, c in lp.items()}
    return Element.make(f, conv(xbar.num), conv(xbar.den))


def lift(field, xbar):
    """Lift an element of field.residue() back up, a right inverse of
    residue(): the plain section, which lifts digits as integers and is
    exact for every p."""
    rf = field.residue()
    if rf is None or xbar.field != rf:
        raise UnsupportedFieldError("lift target %r does not match %r" % (field, xbar.field))
    if isinstance(field, SeriesExt):
        if xbar.is_zero():
            return Element.zero(field)
        grow = lambda lp: {k + (0,): c for k, c in lp.items()}
        return Element.make(field, grow(xbar.num), grow(xbar.den))
    if isinstance(field, MixedExt):
        return _mixed_lift(field, xbar)
    a = 0 if xbar.is_zero() else xbar.num[()].as_int()
    return Element.from_coeff(field, Fraction(a))
