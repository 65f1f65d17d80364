"""Rank r valuations, integer ring membership and unit part decomposition.

The full vector (v_1, ..., v_n) orders by the top component first; the rank r
valuation keeps the top r components.  Membership in the rank r integer ring
is positivity of that truncated vector, so r = 1 gives the discrete valuation
ring of the top level and r = n the full higher local ring.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import FqElem, teichmuller_exact
from .elements import Element
from .errors import OutOfRangeError, PrecisionExhaustedError, ZeroElementError
from .expansion import residue


def _check_rank(r):
    if r is not None and r < 1:
        raise OutOfRangeError("rank must be at least 1, not %d" % r)


def rank_valuation(x, r=None):
    """Last r components (v_{n-r+1}, ..., v_n) of the valuation vector; r
    is at least 1, and None or r >= n gives the full vector."""
    _check_rank(r)
    v = x.val_vector()
    if r is None or r >= len(v):
        return v
    return v[len(v) - r:]


def _nonneg(v):
    # in inverse lexicographic order, scanning from the top component down
    for c in reversed(v):
        if c:
            return c > 0
    return True


def _pos(v):
    return _nonneg(v) and any(v)


def in_integer_ring(x, r=None):
    """Whether x lies in the rank r integer ring; zero always does."""
    _check_rank(r)
    if x.is_zero():
        return True
    return _nonneg(rank_valuation(x, r))


def in_max_ideal(x, r=None):
    _check_rank(r)
    if x.is_zero():
        return True
    return _pos(rank_valuation(x, r))


def monomial_with_valuation(field, v):
    """A parameter monomial whose valuation vector is exactly v; powers of p
    land in the coefficient."""
    exps, coeff = monomial_parts(field, v)
    return Element.make(field, {exps: coeff})


def monomial_parts(field, v):
    """(exps, coeff) of monomial_with_valuation(field, v), the monomial as
    one Laurent polynomial entry."""
    names = field.params()
    if len(v) != len(names):
        raise ValueError("expected %d components, got %d" % (len(names), len(v)))
    sp = field.series_params()
    exps, coeff = [], field.coeff_one()
    for name, e in zip(names, v):
        if name in sp:
            exps.append(e)
        else:
            coeff = Fraction(field.prime()) ** e
    return tuple(exps), coeff


class UnitParts:
    """x = theta * monomial * (1 + principal) with theta the multiplicative
    representative of the iterated residue and v(principal) > 0."""

    def __init__(self, x, theta_scalar, theta, monomial, principal):
        self.x = x
        self.theta_scalar = theta_scalar
        self.theta = theta
        self.monomial = monomial
        self.principal = principal

    def recompose(self):
        """theta * monomial * (1 + principal), the tests' oracle for x."""
        one = Element.one(self.x.field)
        return self.theta * self.monomial * (one + self.principal)

    def __repr__(self):
        return "UnitParts(theta=%r, monomial=%r, principal=%r)" % (
            self.theta, self.monomial, self.principal)


def iterated_residue(x):
    """Residue all the way down to the coefficient field; x must be a unit of
    the full integer ring at every stage.  Returns FqElem or Fraction."""
    y = x
    while y.field.residue() is not None:
        y = residue(y)
    if y.is_zero():
        return y.field.coeff_zero()
    return y.num[()] / y.den[()]


def unit_decompose(x):
    """Split a nonzero x as theta * parameter monomial * principal unit."""
    if x.is_zero():
        raise ZeroElementError("cannot decompose zero")
    f = x.field
    mono = monomial_with_valuation(f, x.val_vector())
    u = x / mono
    s = iterated_residue(u)
    if isinstance(s, FqElem) and f.char() == 0:
        t = teichmuller_exact(s.as_int(), f.prime())
        if t is None:
            raise PrecisionExhaustedError(
                "no exact multiplicative representative for %r mod %d"
                % (s, f.prime()))
        theta = Element.from_coeff(f, t)
    else:
        theta = Element.from_coeff(f, s)
    principal = u / theta - 1
    return UnitParts(x, s, theta, mono, principal)
