"""Rank r valuations, integer ring membership and parameter monomials.

The full vector (v_1, ..., v_n) orders by the top component first; the rank r
valuation keeps the top r components.  Membership in the rank r integer ring
is positivity of that truncated vector, so r = 1 gives the discrete valuation
ring of the top level and r = n the full higher local ring.
"""

from __future__ import annotations

from fractions import Fraction

from .elements import Element
from .errors import OutOfRangeError


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
    exps, e = valuation_split(field, v)
    if e is None:
        return exps, field.coeff_one()
    return exps, Fraction(field.prime()) ** e


def valuation_split(field, v):
    """(exps, e) for a valuation vector v over field: the exponents of its
    series parameters, and the exponent of p from the one slot that is no
    series parameter (None when every slot is one)."""
    names = field.params()
    if len(v) != len(names):
        raise ValueError("expected %d components, got %d" % (len(names), len(v)))
    k = field.padic_slot
    if k is None:
        return tuple(v), None
    return tuple(v[:k]) + tuple(v[k + 1:]), v[k]
