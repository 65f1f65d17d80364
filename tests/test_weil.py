import json
import random

import pytest

from hlf.checks import _random_element
from hlf.convergence import CONVERGES, DIVERGES
from hlf.errors import (ArityMismatchError, NotFreeError,
                        UnsupportedScalarError)
from hlf.fields import parse_field
from hlf.parsing import parse_element
from hlf.points import (AffinePresentation, BaseRing, NO, Point,
                        PointSeqFamily, Poly, YES, member_points, parse_poly,
                        point_seq_converges)
from hlf.sequences import parse_family
from hlf.weil import (MonogenicExt, ScalarExtPresentation, SExtFamily,
                      _twist, scalar_ext_from_data, sext_converges,
                      weil_restrict)

F = parse_field("Fq(5)((u))((t))")
R = BaseRing(F, 0)


def e(s):
    return parse_element(F, s)


def fam(s):
    return parse_family(F, s)


def sqrt_theta():
    S = MonogenicExt(R, "theta", "theta^2 - u")
    return S, ScalarExtPresentation(S, ("Y",), ["Y^2 - theta"])


def test_restriction_of_the_square_root_scheme():
    _, Y = sqrt_theta()
    W = weil_restrict(Y)
    assert W.presentation.variables == ("Y0", "Y1")
    want = [parse_poly(F, ("Y0", "Y1"), s)
            for s in ("Y0^2 + u*Y1^2", "2*Y0*Y1 - 1")]
    assert W.presentation.gens == want


def test_encode_decode_are_mutually_inverse():
    S, Y = sqrt_theta()
    W = weil_restrict(Y)
    rng = random.Random(11)
    pool = ["0", "1", "u", "t", "u^-1*t", "1+u", "t^-2", "3*u^2", "u*t"]
    for _ in range(40):
        a, b = e(rng.choice(pool)), e(rng.choice(pool))
        s = S.scalar((a, b))
        x = W.encode((s,))
        assert x.coords == (a, b)
        back = W.decode(x)
        assert len(back) == 1 and S.reduce(back[0] - s).is_zero()


def test_restricted_ideal_resubstitutes_to_zero():
    """The restricted generators are the nonzero theta-components of the
    substituted source generators, in order."""
    cases = [sqrt_theta()[1],
             ScalarExtPresentation(
                 MonogenicExt(R, "w", "w^3 - t*w - u"), ("Y", "Z"),
                 ["Y^3 - w*Y + u", "Z*Y - w"])]
    for Y in cases:
        ext = Y.ext
        W = weil_restrict(Y)
        subst = {}
        for v in Y.variables:
            text = " + ".join("%s%d*%s^%d" % (v, k, ext.theta, k)
                              for k in range(ext.deg))
            subst[v] = parse_poly(F, W.presentation.variables + (ext.theta,),
                                  text)
        gens = iter(W.presentation.gens)
        for g in Y.gens:
            comps = ext.reduce(g.substitute(subst)).split_var(ext.theta)
            for k in range(ext.deg):
                if k in comps:
                    assert next(gens) == comps[k]
        assert next(gens, None) is None


def test_membership_matches_across_the_restriction():
    S = MonogenicExt(R, "theta", "theta^2 - u")
    Y = ScalarExtPresentation(S, ("Y",), ["Y^2 - theta^2"])
    W = weil_restrict(Y)
    on = S.scalar((e("0"), e("1")))
    off = S.scalar((e("u"), e("0")))
    assert Y.member((on,)) == YES
    assert member_points(W.presentation, W.encode((on,)).coords) == YES
    assert Y.member((off,)) == NO
    assert member_points(W.presentation, W.encode((off,)).coords) == NO
    with pytest.raises(ArityMismatchError):
        Y.member((on, on))


def test_membership_sees_the_ring_rank():
    O2 = BaseRing(F, 2)
    S = MonogenicExt(O2, "theta", "theta^2 - t")
    Y = ScalarExtPresentation(S, ("Y",), [])
    assert Y.member((S.scalar((e("u^-1"), e("0"))),)) == NO
    assert Y.member((S.scalar((e("u"), e("t"))),)) == YES


def test_twist_folds_through_the_modulus():
    S, _ = sqrt_theta()
    a, b = e("1+u"), e("t")
    twisted = _twist(S, (a, b), lambda x: x)
    assert twisted == [b * e("u"), a]
    back = _twist(S, twisted, lambda x: x)
    assert back == [a * e("u"), b * e("u")]


def test_verdicts_agree_under_encode():
    S, _ = sqrt_theta()
    amb = AffinePresentation(R, ("Y0", "Y1"), [])
    zero = e("0")
    cases = [(("t^(n)", "u*t^(2*n)"), CONVERGES),
             (("t^(n)", "t^(-n)"), DIVERGES),
             (("0", "u^(-n)*t^2"), DIVERGES),
             (("u^(n)*t^-1", "t^(n)"), CONVERGES)]
    for (c0, c1), kind in cases:
        comps = (fam(c0), fam(c1))
        vS = sext_converges([SExtFamily(S, comps, (zero, zero))])
        vR = point_seq_converges(amb, PointSeqFamily(comps,
                                                     Point((zero, zero))))
        assert vS.kind == kind and vR.kind == kind


def test_scalar_families_stop_at_the_first_diverging_part(monkeypatch):
    from hlf import points
    S, _ = sqrt_theta()
    zero = e("0")
    comps = (fam("u^(-n)*t^2"), fam("t^(n)"))
    calls = []
    real = points.converges

    def counted(family, **kw):
        calls.append(family)
        return real(family, **kw)
    monkeypatch.setattr(points, "converges", counted)
    v = sext_converges([SExtFamily(S, comps, (zero, zero))])
    assert (v.kind, v.against, calls) == (DIVERGES, 0, [comps[0]])
    # the twisted pair (u*t^(n), u^(-n)*t^2) follows the plain one
    assert [p.kind for p in v.parts] == [DIVERGES, CONVERGES,
                                         CONVERGES, DIVERGES]
    assert len(calls) == 4


def test_degenerate_moduli_are_refused():
    O2 = BaseRing(F, 2)
    with pytest.raises(NotFreeError):
        MonogenicExt(O2, "theta", "t*theta^2 - u")
    with pytest.raises(UnsupportedScalarError):
        MonogenicExt(R, "theta", "u")
    with pytest.raises(UnsupportedScalarError):
        ScalarExtPresentation(MonogenicExt(R, "theta", "theta^2 - u"),
                              ("Y",), []).ext.components(
            parse_poly(F, ("Y", "theta"), "Y*theta"))


# moduli of degree 2 and 3, the last with a unit leading coefficient
# other than 1; u stands for the field's own second parameter or for 3
DIVISION_MODULI = [("theta", "theta^2 - u"), ("w", "w^3 - t*w - u"),
                   ("theta", "2*theta^2 - u")]
DIVISION_FIELDS = [("Fq(5)((u))((t))", "u"), ("Qp(3)((t))", "3"),
                   ("Qp(3){{t}}", "3")]


def _reference_reduce(ext, p):
    """Rewrite one term of theta degree e >= d at a time, subtracting its
    multiple of the modulus, until no such term is left."""
    theta, d = ext.theta, ext.deg
    f = ext.ring.field
    while True:
        high = [(key, c) for key, c in p.terms.items()
                if dict(key).get(theta, 0) >= d]
        if not high:
            return p
        key, c = high[0]
        e = dict(key)[theta]
        rest = tuple((n, k) for n, k in key if n != theta)
        mult = Poly(f, {rest: c})
        if e > d:
            mult = mult * Poly.var(f, theta, e - d)
        p = p - mult * ext.modulus


def _random_theta_poly(rng, f, theta, top):
    out = Poly(f)
    for _ in range(rng.randint(1, 6)):
        exps = {"Y": rng.randint(0, 2), "Z": rng.randint(0, 1),
                theta: rng.randint(0, top)}
        key = tuple(sorted((n, k) for n, k in exps.items() if k))
        out = out + Poly(f, {key: _random_element(rng, f, span=2, terms=2)})
    return out


@pytest.mark.parametrize("field,u", DIVISION_FIELDS)
@pytest.mark.parametrize("theta,modulus", DIVISION_MODULI)
def test_reduction_matches_termwise_rewriting(field, u, theta, modulus):
    f = parse_field(field)
    ext = MonogenicExt(BaseRing(f, 0), theta, modulus.replace("u", u))
    d = ext.deg
    rng = random.Random("%s|%s" % (field, modulus))
    for _ in range(25):
        p = _random_theta_poly(rng, f, theta, 3 * d)
        want = _reference_reduce(ext, p)
        assert ext.reduce(p) == want
        parts = want.split_var(theta)
        assert all(e < d for e in parts)
        assert ext.split(p) == [parts.get(k, Poly(f)) for k in range(d)]
    s = parse_poly(f, ("Y", theta), "Y*%s^%d + 1" % (theta, d))
    with pytest.raises(UnsupportedScalarError) as err:
        ext.components(s)
    assert str(err.value) == "scalar %r carries a variable" \
        % (_reference_reduce(ext, s),)


def test_scalar_extension_serialization_round_trip():
    _, Y = sqrt_theta()
    back = scalar_ext_from_data(json.loads(json.dumps(Y.to_data())))
    assert back.ext.modulus == Y.ext.modulus
    assert back.gens == Y.gens
    assert weil_restrict(back).presentation.gens \
        == weil_restrict(Y).presentation.gens
