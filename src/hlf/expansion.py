"""Expansion along the top uniformizer: one digit stream per field shape.

digits(x) yields the coefficient of x at its top valuation, then one per
level, lazily, and ends once the remainder is exactly zero: every later
level holds 0.  Three readers share the stream.  expand(x, k) takes k
digits into a Jet, a finite window, and pads a finished stream with zeros;
residue(x) is the level-0 coefficient; LevelsOpen.contains in opens checks
each level as its digit arrives and returns at the first that fails, except
over Qp{{t}} against a staircase of t-balls, which in_staircase decides
from the element's integer polynomials without a digit.

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

The recursion runs on cheap data.  Lower exponents are packed into one
int key, in slots with 64 bits of headroom that no digit before the
2^64-th overflows (_exponent_keys), so a monomial shift is one int
addition.  Over Q, Qp and Qp{{u}} the coefficients are ints: P and Q are
scaled by the lcm of their coefficient denominators, and a digit's
coefficients are Fraction(a, d) with d the least coefficient of N^e; over
a prime field they are ints mod p, and a digit takes the FqElem of each
residue from the field's one residue table (FqField.residues), shared by
every stream over that field: FqElems are immutable.  The table fills as
residues turn up, since p may be large.  A digit adds all its products
into one accumulator, reduced mod p once, and the table Q_j N^(j-1) is
built only when a second digit is asked for, so residue() pays for one
digit.
Where Q_0 is one monomial (always over Qp((t)), Q((t)) and Fq((t))) N^e is
a constant and each digit is a Laurent polynomial, which has one
representation; otherwise Element.make finds the least monomial of N^e
already 1.  A_i is empty exactly when X_i is 0, and past P's top slice,
max(Q) zero digits in a row end the stream.

Over Qp{{t}} and Qp the expansion runs along p instead, peeling one digit per
step with the plain section of the reduction map: y -> (y - lift(d))/p with
d = y mod p, the lift reduced over F_p with integer coefficients in [0, p).
Over Qp that is one rational: d = c mod p, c -> (c - d)/p.

Over Qp{{t}} that loop runs on integer polynomials: y = t^a*N / t^b*Q with N
and Q dense int lists over one scale prime to p; the stream ends once N is
empty.  A digit is N mod p over Q mod p, unreduced, so residue() returns it
verbatim; its lift comes from a gcd over F_p on int lists; subtracting it
cross-multiplies Q by the lift's denominator, as Element arithmetic does, so
the digits keep their value and their representation.  The section fixes the
digits: lifting over the fixed denominator Q instead would be another
section, with other digits from the second on.  Under the plain section the
reduced digits themselves grow about 1.7x per level (denominator degrees 2,
3, 5, 8, 13, 24, 43, 76 for (1 + t)/(1 - 3*t - t^2)), and Q gathers all of
them, so the cost of a jet follows the size of its digits, geometric in
their count: no exact algorithm for these digits is linear in the count.
What the loop saves is the constant: big products go through one int
multiply each (Kronecker substitution), and the F_p gcd, quadratic in the
digit size, dominates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm

from .coeff import (UNKNOWN, FqElem, _fp_lowest_terms, _fq_reduced, _pack,
                    _unpack, _zadd, _zdiv, _zgcd, _zmul, _ztrim, padic_val,
                    rational_mod_p)
from .elements import Element
from .errors import NotIntegralError, UnsupportedFieldError
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


def digits(x):
    """Expansion coefficients of x along the top uniformizer, lazily: the
    coefficient at level x.val_vector()[-1] first, then one per level.  The
    stream ends once the remainder is exactly zero, so every level after it
    holds 0; zero itself yields nothing."""
    f = x.field
    if isinstance(f, SeriesExt):
        gen = _series_digits
    elif isinstance(f, MixedExt):
        gen = _mixed_digits
    elif isinstance(f, QpBase):
        gen = _qp_digits
    else:
        raise UnsupportedFieldError("no uniformizer to expand along in %r" % f)
    return iter(()) if x.is_zero() else gen(x)


def expand(x, terms):
    """First `terms` expansion coefficients of x along the top uniformizer,
    from its top valuation on (level 0 for zero)."""
    f = x.field
    coeffs = list(islice(digits(x), max(terms, 0)))
    coeffs += [Element.zero(f.residue())] * (terms - len(coeffs))
    start = 0 if x.is_zero() else x.val_vector()[-1]
    var = f.param if isinstance(f, SeriesExt) else str(f.prime())
    return Jet(f, start, coeffs, var)


def _series_digits(x):
    # X_i = A_i / N^e with e = i - i0 + 1 and N = Q_0, so that
    # A_i = P_i N^(e-1) - sum_{j>=1} Q_j N^(j-1) A_{i-j}; past P's top
    # slice, max(Q) zero digits in a row end the stream
    base = x.field.residue()
    fq = base.fq()
    p = None
    if fq is None:
        # Q, Qp or Qp{{u}} coefficients: P and Q times one integer
        scale = lcm(*(c.denominator for lp in (x.num, x.den) for c in lp.values()))
        conv = lambda c: c.numerator * (scale // c.denominator)
        coeffs = lambda cs, d: map(Fraction, cs, repeat(d))
    elif fq.deg == 1:
        # ints mod p, read back through the field's residue table
        p = fq.p
        conv = FqElem.as_int
        elem = fq.residues.__getitem__
        coeffs = lambda cs, d: map(elem, cs)
    else:
        conv = lambda c: c
        coeffs = lambda cs, d: cs
    pack, tuples = _exponent_keys(len(base.series_params()), (x.num, x.den))
    P, Q = _t_slices(x.num, pack, conv), _t_slices(x.den, pack, conv)

    def element(a, D):
        # D = N^e; its least monomial sits at key 0, and dividing by its
        # coefficient d (1 over F_q) leaves Element.make nothing to normalize
        d = D[0]
        num = dict(zip(tuples(a), coeffs(a.values(), d)))
        if len(D) == 1:
            return Element.make(base, num)
        return Element.make(base, num, dict(zip(tuples(D), coeffs(D.values(), d))))

    width = max(Q)
    N = Q.pop(0)
    i, top = min(P), max(P)
    A = {i: P[i]}
    yield element(P[i], N)
    # from the second digit on: the table -Q_j N^(j-1), so that each digit
    # is one sum of products
    QN, Nj = {}, {0: 1}
    for j in range(1, width + 1):
        if j in Q:
            QN[j] = {k: -c for k, c in _product(Q[j], Nj, p).items()}
        if j < width:
            Nj = _product(Nj, N, p)
    i, D, run = i + 1, N, 0
    while i <= top or run < width:
        acc = {}
        if i in P:
            _add_product(acc, P[i], D)
        for j, qn in QN.items():
            if A.get(i - j):
                _add_product(acc, qn, A[i - j])
        A[i] = a = _lp_reduced(acc, p)
        A.pop(i - width, None)
        D = _product(D, N, p)
        yield element(a, D)
        run = run + 1 if not a else 0
        i += 1


def _exponent_keys(nlow, lps):
    """(pack, tuples) for P and Q in lps, with nlow lower variables: pack
    maps an exponent tuple to one int key for its lower exponents
    (Kronecker substitution), tuples maps keys back to exponent tuples.
    The key is 0 with no lower variable and the exponent with one.  With
    more, each exponent gets a slot of the bit length of the largest
    |lower exponent| M in P and Q, plus 64 bits of headroom and a sign bit;
    the exponents of A_i and N^e stay within e*M, so no slot overflows
    before the 2^64-th digit."""
    if nlow == 0:
        return (lambda k: 0), (lambda keys: repeat(()))
    if nlow == 1:
        return (lambda k: k[0]), zip
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
    exps: converted coeff}}."""
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


def _qp_digits(x):
    f = x.field
    p = f.p
    rf = f.residue()
    c = x.num[()] / x.den[()] * Fraction(p) ** -x.val_vector()[-1]
    while c:
        d = rational_mod_p(c, p)
        yield Element.from_coeff(rf, d)
        c = (c - d) / p


def _mixed_digits(x):
    f = x.field
    p = f.prime()
    k0 = x.val_vector()[-1]
    rf = f.residue()
    fq = rf.fq()
    N, ns, Q, qs = _mixed_ints(x, p, k0)
    while N:
        nbar, nbs = _ztrim([c % p for c in N], ns)
        qbar, _ = _ztrim([c % p for c in Q[-qs:]], 0)
        # nbar and qbar hold ints in [0, p): no second reduction
        yield Element.make(
            rf, {(nbs + i,): _fq_reduced(fq, (c,)) for i, c in enumerate(nbar) if c},
            {(i,): _fq_reduced(fq, (c,)) for i, c in enumerate(qbar) if c})
        if nbar:
            # the plain lift of the digit, as lift() builds it
            nt, dt = _fp_lowest_terms(nbar, qbar, p)
            # y - lift over the denominator Element.__sub__ picks: Q when it
            # equals the lift's, else the product
            u = Q[0]
            if qs == 0 and Q == [u * c for c in dt]:
                N, ns = _zadd(N, ns, [-u * c for c in nt], nbs)
            else:
                N, ns = _zadd(_zmul(N, dt), ns, [-c for c in _zmul(nt, Q)], nbs + qs)
                Q = _zmul(Q, dt)
        N = [c // p for c in N]
        g = gcd(*N, *Q)
        if g > 1:
            N = [c // g for c in N]
            Q = [c // g for c in Q]


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
    num = {k: c * Fraction(p) ** -k0 for (k,), c in x.num.items()}
    den = {k: c for (k,), c in x.den.items()}
    scale = lcm(*(c.denominator for c in (*num.values(), *den.values())))
    return (*_int_list(num, scale), *_int_list(den, scale))


def _int_list(lp, scale):
    lo = min(lp)
    out = [0] * (max(lp) - lo + 1)
    for k, c in lp.items():
        out[k - lo] = int(c * scale)
    return out, lo


# --- residue map -------------------------------------------------------------

def residue(x):
    """Image of x in the residue field one level down: its level-0
    expansion coefficient.  Needs the top rank one valuation of x to be
    nonnegative."""
    stream = digits(x)
    top = 1 if x.is_zero() else x.val_vector()[-1]
    if top < 0:
        raise NotIntegralError("negative top valuation %r" % (x.val_vector(),))
    return next(stream) if top == 0 else Element.zero(x.field.residue())


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
    ints = lambda lp: _int_list({k: c.as_int() for (k,), c in lp.items()}, 1)
    (np, ns), (dp, ds) = ints(x.num), ints(x.den)
    np, dp = _fp_lowest_terms(np, dp, fq.p)
    # in [0, p) already: no second reduction
    num = {(ns + i,): _fq_reduced(fq, (c,)) for i, c in enumerate(np) if c}
    den = {(ds + i,): _fq_reduced(fq, (c,)) for i, c in enumerate(dp) if c}
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
