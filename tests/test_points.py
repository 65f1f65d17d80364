import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import same_element

from hlf.checks import _CONV_POOL
from hlf.convergence import CONVERGES, DIVERGES, UNKNOWN, converges, unit_converges
from hlf.elements import Element
from hlf.errors import (ArityMismatchError, FieldMismatchError,
                        NotIntegralError, ParseError, TargetViolationError,
                        UnsupportedFieldError)
from hlf.expansion import lift, residue
from hlf.fields import parse_field
from hlf.opens import deep_ball, residue_image
from hlf.parsing import parse_element
from hlf.points import (OUT_OF_CHART, YES, NO, AffinePresentation, BaseRing,
                        ChartedScheme, Morphism, Point, PointSeqFamily,
                        PointVerdict, Poly, RingMorphism, base_change,
                        in_principal_open, member_points, parse_base_ring,
                        parse_poly, parse_rat, point_seq_converges,
                        presentation_from_data, product_presentation,
                        projective_line, scheme_from_data)
from hlf.sequences import parse_family
from hlf.valuation import monomial_with_valuation

F = parse_field("Fq(5)((u))((t))")
R = BaseRing(F, 0)
O1 = BaseRing(F, 1)
O2 = BaseRing(F, 2)


def e(s, field=F):
    return parse_element(field, s)


def fam(s, field=F):
    return parse_family(field, s)


def hyperbola(ring):
    return AffinePresentation(ring, ("X", "Y"), ["X*Y - 1"])


# --- base rings ---------------------------------------------------------------

def test_base_ring_strings_roundtrip():
    for ring in (R, O1, O2, BaseRing(parse_field("Qp(3){{t}}"), 1)):
        assert parse_base_ring(ring.describe()) == ring
    assert O2.describe() == "ints(Fq(5)((u))((t)))"
    assert O1.describe() == "ints(Fq(5)((u))((t)), 1)"


def test_base_ring_membership_and_units():
    """The rank tracks how many top valuation components must vanish for a
    unit, so u inverts at rank one but not at rank two."""
    assert O1.contains(e("u^-1"))
    assert not O2.contains(e("u^-1"))
    assert O1.is_unit(e("u")) and not O2.is_unit(e("u"))
    assert not O1.is_unit(e("t"))
    assert all(ring.is_unit(e("1+u")) for ring in (R, O1, O2))
    assert not R.is_unit(e("0"))
    with pytest.raises(UnsupportedFieldError):
        BaseRing(F, 3)
    with pytest.raises(FieldMismatchError):
        R.contains(parse_element(parse_field("Qp(3)((t))"), "3"))


# --- membership and maps ------------------------------------------------------

def test_member_points_on_the_unit_hyperbola():
    Gm = hyperbola(R)
    assert member_points(Gm, (e("u"), e("u^-1"))) == YES
    assert member_points(Gm, (e("u"), e("u"))) == NO
    assert member_points(AffinePresentation(R, ("X", "Y"), []),
                         (e("u"), e("u"))) == YES
    with pytest.raises(ArityMismatchError):
        member_points(Gm, (e("u"),))


def test_member_respects_the_ring_rank():
    pt = (e("u"), e("u^-1"))
    assert member_points(hyperbola(O1), pt) == YES
    assert member_points(hyperbola(O2), pt) == NO


def test_principal_open_depends_on_the_rank():
    x = Point((e("u"), e("u^-1")))
    assert in_principal_open(hyperbola(R), "X", x)
    assert in_principal_open(hyperbola(O1), "X", x)
    assert not in_principal_open(hyperbola(O2), "X",
                                 Point((e("u"), e("u"))))


def test_generators_must_use_declared_variables():
    with pytest.raises(ParseError):
        AffinePresentation(R, ("X",), ["X*W - 1"])
    with pytest.raises(ParseError):
        parse_poly(F, ("X",), "X^-1")
    with pytest.raises(ParseError):
        parse_poly(F, ("X",), "1/X")
    with pytest.raises(ParseError):
        parse_poly(F, ("X",), "X^(n)")
    p = parse_poly(F, ("X",), "u^-1*X^2 - t")
    assert p.evaluate({"X": e("t")}) == e("u^-1*t^2 - t")


def test_polynomial_powers():
    Q3 = parse_field("Qp(3)")
    p = parse_poly(Q3, ("X",), "X + 1")
    assert (p ** 3).text() == "1 + 3*X + 3*X^2 + X^3"
    assert (p ** 0).text() == "1"
    # a polynomial has no inverse, so a negative power is refused rather
    # than read as 1
    with pytest.raises(ValueError):
        p ** -1


def _ref_split_var(p, name):
    # each term added to its component one at a time
    out = {}
    for key, c in p.terms.items():
        e = dict(key).get(name, 0)
        rest = tuple((n, d) for n, d in key if n != name)
        comp = out.setdefault(e, Poly(p.field))
        out[e] = comp + Poly(p.field, {rest: c})
    return {e: q for e, q in out.items() if not q.is_zero()}


def _random_poly(rng, field, variables):
    text = " + ".join(
        "%d*%s" % (rng.randint(1, 9), "*".join(
            "%s^%d" % (v, rng.randint(0, 3)) for v in variables
            if rng.random() < 0.7) or "1")
        for _ in range(rng.randint(1, 12)))
    return parse_poly(field, variables, text)


def test_split_var_matches_the_term_by_term_split(monkeypatch):
    built = []
    init = Poly.__init__

    def counted(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)
    monkeypatch.setattr(Poly, "__init__", counted)
    rng = random.Random("split_var")
    variables = ("X", "Y", "theta")
    for _ in range(60):
        p = _random_poly(rng, F, variables)
        name = rng.choice(variables)
        want = _ref_split_var(p, name)
        built.clear()
        got = p.split_var(name)
        # one Poly per component, each built once
        assert len(built) == len(got)
        assert list(got) == list(want)
        for e in got:
            assert list(got[e].terms) == list(want[e].terms)
            assert got[e] == want[e]


def _ref_evaluate(p, env, lift=lambda c: c):
    # the sum from zero, every variable raised to its power
    total = lift(Element.zero(p.field))
    for key, c in p.terms.items():
        v = lift(c)
        for name, d in key:
            v = v * env[name] ** d
        total = total + v
    return total


def test_evaluation_matches_the_sum_from_zero():
    rng = random.Random("evaluate")
    variables = ("X", "Y", "theta")
    for field in (F, parse_field("Qp(3){{t}}")):
        pool = [e(text, field) for text in
                ("1 + t", "t^-1", "2*t^2 - 1/3", "(1 + t)/(1 - t^3)", "0")]
        for _ in range(40):
            p = _random_poly(rng, field, variables)
            env = {v: rng.choice(pool) for v in variables}
            assert same_element(p.evaluate(env), _ref_evaluate(p, env))
            repl = {"X": _random_poly(rng, field, ("Y", "theta"))}
            lift = lambda c: Poly.const(field, c)
            penv = {v: repl.get(v, Poly.var(field, v)) for v in p.vars_used()}
            got, want = p.evaluate(penv, lift), _ref_evaluate(p, penv, lift)
            assert list(got.terms) == list(want.terms)
            assert all(same_element(got.terms[k], want.terms[k])
                       for k in got.terms)
        assert same_element(Poly(field).evaluate({}), Element.zero(field))


def test_evaluation_at_first_powers_multiplies_no_power(monkeypatch):
    p = parse_poly(F, ("X", "Y"), "X*Y^2 + u*X - 1")
    x, y = e("1 + t"), e("u^-1")
    want = x * y ** 2 + e("u") * x - 1
    powers = []
    pow_ = Element.__pow__

    def counted(self, k):
        powers.append(k)
        return pow_(self, k)
    monkeypatch.setattr(Element, "__pow__", counted)
    assert p.evaluate({"X": x, "Y": y}) == want
    assert powers == [2]


# --- point families -----------------------------------------------------------

def test_family_verdict_is_the_componentwise_conjunction():
    A2 = AffinePresentation(R, ("X", "Y"), [])
    good = PointSeqFamily((fam("t^(n)"), fam("u^(n)*t^-1")),
                          Point((e("0"), e("0"))))
    assert point_seq_converges(A2, good).kind == CONVERGES
    mixed = PointSeqFamily((fam("t^(n)"), fam("u^(-n)*t^2")),
                           Point((e("0"), e("0"))))
    v = point_seq_converges(A2, mixed)
    assert v.kind == DIVERGES and v.against == 1
    assert v.parts[0].kind == CONVERGES


def counted_decisions(monkeypatch):
    """Every converges call of hlf.points, recorded by family."""
    from hlf import points
    calls = []
    real = points.converges

    def counted(family, **kw):
        calls.append(family)
        return real(family, **kw)
    monkeypatch.setattr(points, "converges", counted)
    return calls


def test_family_verdict_stops_at_the_first_divergence(monkeypatch):
    A3 = AffinePresentation(R, ("X", "Y", "Z"), [])
    fams = (fam("t^(n)"), fam("u^(-n)*t^2"), fam("t^(-n)"))
    zero = e("0")
    want = PointVerdict.conjoin([converges(f, limit=zero) for f in fams])
    calls = counted_decisions(monkeypatch)
    v = point_seq_converges(A3, PointSeqFamily(fams, Point((zero,) * 3)))
    assert (v.kind, v.against) == (want.kind, want.against) == (DIVERGES, 1)
    assert calls == list(fams[:2])
    # the rest is decided when the parts are first read, and only then
    assert v.to_data() == want.to_data()
    assert [p.kind for p in v.parts] == [CONVERGES, DIVERGES, DIVERGES]
    assert calls == list(fams)


def test_a_part_that_raises_raises_on_every_read(monkeypatch):
    A3 = AffinePresentation(R, ("X", "Y", "Z"), [])
    fams = (fam("u^(-n)*t^2"), fam("t^(n)"), fam("t^(-n)"))
    zero = e("0")
    v = point_seq_converges(A3, PointSeqFamily(fams, Point((zero,) * 3)))
    calls = counted_decisions(monkeypatch)
    from hlf import points
    counted = points.converges

    def refuse_last(family, **kw):
        if family is fams[2]:
            raise TargetViolationError("refused")
        return counted(family, **kw)
    monkeypatch.setattr(points, "converges", refuse_last)
    for _ in range(2):
        with pytest.raises(TargetViolationError):
            v.parts
    monkeypatch.setattr(points, "converges", counted)
    assert [p.kind for p in v.parts] == [DIVERGES, CONVERGES, DIVERGES]
    assert calls == [fams[1]] * 3 + [fams[2]]


def test_family_verdict_matches_the_full_conjunction():
    FQ = parse_field("Qp(3){{t}}")
    A3 = AffinePresentation(BaseRing(FQ, 0), ("X", "Y", "Z"), [])
    zero = parse_element(FQ, "0")
    pool = [parse_family(FQ, text) for text in
            ("t^(n)", "3^(n)", "(t^(n))/(2 + t)", "3^(-n)*t^(n)", "t^(-n)")]
    verdicts = {f: converges(f, limit=zero) for f in pool}
    assert [verdicts[f].kind for f in pool] == [CONVERGES, CONVERGES, UNKNOWN,
                                             DIVERGES, DIVERGES]
    rng = random.Random(26)
    for _ in range(40):
        fams = tuple(rng.choice(pool) for _ in range(3))
        want = PointVerdict.conjoin([verdicts[f] for f in fams])
        v = point_seq_converges(A3, PointSeqFamily(fams, Point((zero,) * 3)))
        assert (v.kind, v.against) == (want.kind, want.against)
        assert v.to_data() == want.to_data()


def test_family_verdict_propagates_unknown():
    FQ = parse_field("Qp(3){{t}}")
    A1 = AffinePresentation(BaseRing(FQ, 0), ("X",), [])
    stuck = PointSeqFamily((parse_family(FQ, "(t^(n))/(2 + t)"),),
                           Point((parse_element(FQ, "0"),)))
    assert point_seq_converges(A1, stuck).kind == UNKNOWN


def test_families_must_stay_on_the_scheme():
    Gm = hyperbola(R)
    with pytest.raises(TargetViolationError):
        point_seq_converges(Gm, PointSeqFamily(
            (fam("1 + t^(n)"), fam("1")), Point((e("1"), e("1")))))
    with pytest.raises(TargetViolationError):
        point_seq_converges(Gm, PointSeqFamily(
            (fam("1 + t^(n)"), fam("1/(1 + t^(n))")),
            Point((e("1"), e("2")))))
    with pytest.raises(ArityMismatchError):
        point_seq_converges(Gm, PointSeqFamily((fam("1"),),
                                               Point((e("1"), e("1")))))


def test_unit_hyperbola_matches_the_two_copy_unit_verdict():
    """Convergence in the hyperbola carries both the family and its
    inverse, which is exactly what the unit-group decision checks."""
    Gm = hyperbola(R)
    tame = fam("1 + u^-1*t^(n)")
    v = point_seq_converges(Gm, PointSeqFamily(
        (tame, fam("1/(1 + u^-1*t^(n))")), Point((e("1"), e("1")))))
    assert v.kind == CONVERGES
    assert unit_converges(tame, e("1")).kind == CONVERGES

    wild = fam("1 + t^-1*u^(n)")
    assert converges(wild, limit=e("1")).kind == CONVERGES
    w = point_seq_converges(Gm, PointSeqFamily(
        (wild, fam("1/(1 + t^-1*u^(n))")), Point((e("1"), e("1")))))
    assert w.kind == DIVERGES and w.against == 1
    assert unit_converges(wild, e("1")).kind == DIVERGES


def test_product_presentation_is_a_conjunction():
    A1 = AffinePresentation(R, ("X",), [])
    B1 = AffinePresentation(R, ("W",), [])
    prod = product_presentation(A1, B1)
    assert prod.arity == 2
    v = point_seq_converges(prod, PointSeqFamily(
        (fam("t^(n)"), fam("t^(-n)")), Point((e("0"), e("0")))))
    assert v.kind == DIVERGES and v.against == 1
    with pytest.raises(ArityMismatchError):
        product_presentation(A1, AffinePresentation(R, ("X",), []))


def test_closed_subscheme_inherits_ambient_verdicts():
    Gm = hyperbola(R)
    amb = AffinePresentation(R, ("X", "Y"), [])
    pairs = [("1 + t^(n)", "1/(1 + t^(n))"),
             ("1 + u*t^(n)", "1/(1 + u*t^(n))"),
             ("1 + t^-1*u^(n)", "1/(1 + t^-1*u^(n))")]
    for a, b in pairs:
        psf = PointSeqFamily((fam(a), fam(b)), Point((e("1"), e("1"))))
        assert (point_seq_converges(Gm, psf).kind
                == point_seq_converges(amb, psf).kind)


# --- charts -------------------------------------------------------------------

def test_projective_line_transfer_round_trip():
    P1 = projective_line(R)
    x = Point((e("u"),), chart=0)
    y = P1.transfer(x, 1)
    assert y.chart == 1 and y.coords[0] == e("u^-1")
    assert P1.transfer(y, 0) == x
    assert P1.transfer(Point((e("0"),), chart=0), 1) == OUT_OF_CHART


def test_transfer_respects_the_ring_rank():
    P1 = projective_line(O2)
    assert P1.transfer(Point((e("u"),), chart=0), 1) == OUT_OF_CHART
    y = P1.transfer(Point((e("1+u"),), chart=0), 1)
    assert y != OUT_OF_CHART and y.coords[0] == e("1+u") ** -1


def test_chart_choice_does_not_change_the_verdict():
    """Transfers preserve verdicts whenever inversion behaves along the
    family; over a one-dimensional base that is every unit family."""
    P1 = projective_line(R)
    for text, kind in [("1 + t^(n)", CONVERGES), ("1 + u*t^(n)", CONVERGES),
                       ("1 + t^(-n)", DIVERGES)]:
        psf = PointSeqFamily((fam(text),), Point((e("1"),), chart=0))
        v0 = point_seq_converges(P1.charts[0], psf)
        moved = P1.transfer_family(psf, 1)
        v1 = point_seq_converges(P1.charts[1], moved)
        assert v0.kind == kind and v1.kind == kind

    FQ = parse_field("Qp(3)((t))")
    P1q = projective_line(BaseRing(FQ, 0))
    for text, kind in [("1 + 3*t^(n)", CONVERGES), ("1 + t^(-n)", DIVERGES)]:
        psf = PointSeqFamily((parse_family(FQ, text),),
                             Point((parse_element(FQ, "1"),), chart=0))
        v0 = point_seq_converges(P1q.charts[0], psf)
        v1 = point_seq_converges(P1q.charts[1],
                                 P1q.transfer_family(psf, 1))
        assert v0.kind == kind and v1.kind == kind


def test_inversion_failure_shows_up_across_charts():
    """The family 1 + t^-1*u^n tends to 1 but its inverse does not, so the
    naive one-chart verdicts disagree after transfer; the overlap carries
    both coordinates and its verdict is the stable one."""
    P1 = projective_line(R)
    psf = PointSeqFamily((fam("1 + t^-1*u^(n)"),), Point((e("1"),), chart=0))
    assert point_seq_converges(P1.charts[0], psf).kind == CONVERGES
    moved = P1.transfer_family(psf, 1)
    assert point_seq_converges(P1.charts[1], moved).kind == DIVERGES
    overlap = point_seq_converges(hyperbola(R), PointSeqFamily(
        (fam("1 + t^-1*u^(n)"), fam("1/(1 + t^-1*u^(n))")),
        Point((e("1"), e("1")))))
    assert overlap.kind == DIVERGES


def test_polynomial_maps_carry_convergent_families_to_convergent_ones():
    """Polynomial maps are continuous, so a family that CONVERGES has an
    image that never DIVERGES; the image is pushed through Morphism.family
    and decided afresh.  Rational maps are left out: 1/X is not
    sequentially continuous (test_inversion_failure_shows_up_across_charts)."""
    coeffs = {"Fq(5)((u))((t))": ("1", "2", "t", "t^-1", "u", "u^-1"),
              "Qp(3)((t))": ("1", "2", "t", "t^-1", "3"),
              "Qp(3){{t}}": ("1", "2", "t", "t^-1", "3")}
    monomials = ("1", "X", "Y", "X^2", "X*Y", "Y^2")
    rng = random.Random(14)
    kinds = Counter()
    for text, pool in _CONV_POOL.items():
        field = parse_field(text)
        ring = BaseRing(field, 0)
        A2 = AffinePresentation(ring, ("X", "Y"), [])
        same = RingMorphism.inclusion(ring, ring).apply
        for _ in range(120):
            maps = [" + ".join("%s*%s" % (rng.choice(coeffs[text]), m)
                               for m in rng.sample(monomials,
                                                   rng.randint(1, 3)))
                    for _ in range(2)]
            phi = Morphism(A2, A2, same,
                           [parse_rat(field, A2.variables, m) for m in maps],
                           0, "map", "image {coords!r} misses A^2")
            (f1, l1), (f2, l2) = rng.choice(pool), rng.choice(pool)
            psf = PointSeqFamily(
                (fam(f1, field), fam(f2, field)),
                Point((e(l1, field), e(l2, field))))
            if point_seq_converges(A2, psf).kind != CONVERGES:
                continue
            image = phi.family(psf)
            assert image.limit.coords == tuple(
                m.evaluate(dict(zip(A2.variables, psf.limit.coords)))
                for m in phi.maps)
            kind = point_seq_converges(A2, image).kind
            assert kind != DIVERGES, (text, maps, f1, f2)
            kinds[kind] += 1
    assert sum(kinds.values()) == 360


def test_bad_transitions_are_rejected():
    a1 = AffinePresentation(R, ("X",), [])
    b1 = AffinePresentation(R, ("Y",), [])
    with pytest.raises(TargetViolationError):
        ChartedScheme(R, [a1, b1], {(0, 1): ("X", ["1/X"]),
                                    (1, 0): ("Y", ["Y"])})
    with pytest.raises(TargetViolationError):
        ChartedScheme(R, [a1, b1], {(0, 1): ("X", ["1/X"])})
    with pytest.raises(ParseError, match="division by zero"):
        ChartedScheme(R, [a1, b1], {(0, 1): ("X", ["1/(X - X)"]),
                                    (1, 0): ("Y", ["1/Y"])})
    # the round trip of 1 + t is (1 + t)/(1 + t + 4*u*t + ...), not 1 + t;
    # no sample point 1, u, t shows it
    with pytest.raises(TargetViolationError, match="0-1-0"):
        ChartedScheme(R, [a1, b1], {
            (0, 1): ("X", ["1/X + (X - 1)*(X - u)*(X - t)"]),
            (1, 0): ("Y", ["1/Y"])})
    with pytest.raises(TargetViolationError, match="denominator vanishes"):
        ChartedScheme(R, [a1, b1], {(0, 1): ("X", ["0"]),
                                    (1, 0): ("Y", ["1/Y"])})
    # pairwise inverse, but u reaches chart 2 as u or as 1 + u
    lines = [AffinePresentation(R, (v,), []) for v in "XYZ"]
    with pytest.raises(TargetViolationError, match="0-1-2"):
        ChartedScheme(R, lines, {(0, 1): ("1", ["X"]), (1, 0): ("1", ["Y"]),
                                 (1, 2): ("1", ["Y"]), (2, 1): ("1", ["Z"]),
                                 (0, 2): ("1", ["X + 1"]),
                                 (2, 0): ("1", ["Z - 1"])})
    with pytest.raises(ArityMismatchError):
        ChartedScheme(R, [hyperbola(R), a1], {
            (0, 1): ("X", ["X", "Y"]), (1, 0): ("X", ["X", "1/X"])})


def test_transfer_errors_name_the_overlap_and_the_chart():
    lines = [AffinePresentation(R, (v,), []) for v in "XYZ"]
    X = ChartedScheme(R, lines, {(0, 1): ("X", ["1/X"]),
                                 (1, 0): ("Y", ["1/Y"])})
    with pytest.raises(UnsupportedFieldError,
                       match="^no declared overlap 0-2$"):
        X.transfer(Point((e("u"),), chart=0), 2)
    # the gluing check ignores chart generators, so a chart 1 cut down to
    # Y = 1 loads, and u lands on u^-1, off it
    cut = ChartedScheme(R, [lines[0], AffinePresentation(R, ("Y",),
                                                         ["Y - 1"])],
                        {(0, 1): ("X", ["1/X"]), (1, 0): ("Y", ["1/Y"])})
    assert cut.transfer(Point((e("1"),), chart=0), 1) == Point((e("1"),), 1)
    with pytest.raises(TargetViolationError,
                       match="^transition image misses chart 1$"):
        cut.transfer(Point((e("u"),), chart=0), 1)
    # the overlap's Morphism checks its source too: u is off chart 1
    with pytest.raises(TargetViolationError,
                       match="^source point misses the presentation$"):
        cut.transfer(Point((e("u"),), chart=1), 0)


def test_projective_line_loads_over_every_ring():
    for text in ("Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}"):
        field = parse_field(text)
        for rank in range(field.dim + 1):
            P1 = projective_line(BaseRing(field, rank))
            assert P1.overlaps[(0, 1)].maps[0].text() == "(1)/(X)"


def test_scheme_serialization_round_trip():
    P1 = projective_line(R)
    data = json.loads(json.dumps(P1.to_data()))
    P1b = scheme_from_data(data)
    x = Point((e("u"),), chart=0)
    assert P1b.transfer(x, 1) == P1.transfer(x, 1)
    pres = hyperbola(O1)
    back = presentation_from_data(json.loads(json.dumps(pres.to_data())))
    assert back.ring == O1 and back.gens == pres.gens


# --- base change --------------------------------------------------------------

def test_residue_map_on_the_affine_line():
    sig = RingMorphism.residue_map(O1)
    A1 = AffinePresentation(O1, ("X",), [])
    img = base_change(sig, A1).point(Point((e("t*u + u^2"),)))
    assert img.coords[0] == parse_element(sig.target.field, "u^2")
    with pytest.raises(NotIntegralError):
        base_change(sig, A1).point(Point((e("t^-1"),)))


def test_residue_map_carries_generators_along():
    sig = RingMorphism.residue_map(O1)
    V = AffinePresentation(O1, ("X",), ["X^2 - u"])
    VF = base_change(sig, V).target
    FU = sig.target.field
    assert VF.gens[0].evaluate({"X": parse_element(FU, "u^3")}) \
        == parse_element(FU, "u^6 - u")
    W = AffinePresentation(O1, ("X",), ["X^2 - u^2"])
    img = base_change(sig, W).point(Point((e("-u"),)))
    assert img.coords[0] == parse_element(FU, "-u")
    assert member_points(base_change(sig, W).target, img.coords) == YES


def test_base_change_errors_name_the_source_and_the_map():
    sig = RingMorphism.residue_map(O1)
    V = AffinePresentation(O1, ("X",), ["X - u"])
    with pytest.raises(TargetViolationError,
                       match="^source point misses the presentation$"):
        base_change(sig, V).point(Point((e("u^2"),)))
    psf = PointSeqFamily((fam("u + t^(n)"),), Point((e("u"),)))
    with pytest.raises(UnsupportedFieldError,
                       match="^families push forward along inclusions only$"):
        base_change(sig, V).family(psf)


def test_residue_map_is_a_ring_homomorphism():
    rng = random.Random(41)
    for text in ("Fq(5)((u))((t))", "Qp(3)((t))", "Qp(3){{t}}"):
        field = parse_field(text)
        nv = len(field.params())
        top = monomial_with_valuation(field, (0,) * (nv - 1) + (1,))

        def term():
            c = rng.randrange(1, 5) if field.fq() is not None \
                else Fraction(rng.randrange(1, 10), rng.choice((1, 2)))
            v = tuple(rng.randrange(-2, 3) for _ in range(nv - 1)) \
                + (rng.randrange(0, 3),)
            return Element.from_coeff(field, c) \
                * monomial_with_valuation(field, v)

        for rank in range(1, field.dim + 1):
            sig = RingMorphism.residue_map(BaseRing(field, rank))
            done = 0
            while done < 15:
                # 1 + (top valuation > 0) is a unit of every integer ring
                a = (term() + term()) / (1 + term() * term() * top)
                b = term() - term()
                if not (sig.source.contains(a) and sig.source.contains(b)):
                    continue
                assert sig.apply(a + b) == sig.apply(a) + sig.apply(b)
                assert sig.apply(a * b) == sig.apply(a) * sig.apply(b)
                done += 1


def test_inclusion_direction_is_enforced():
    inc = RingMorphism.inclusion(O2, R)
    assert inc.apply(e("u")) == e("u")
    with pytest.raises(UnsupportedFieldError):
        RingMorphism.inclusion(R, O2)
    with pytest.raises(UnsupportedFieldError):
        RingMorphism.residue_map(R)


def test_inclusion_preserves_verdicts():
    """Subspace and ambient convergence agree, so pushing a family up the
    tower keeps its verdict."""
    AO = AffinePresentation(O2, ("X",), [])
    AF = AffinePresentation(R, ("X",), [])
    for text, kind in [("t^(n)", CONVERGES), ("u^(-n)*t^2", DIVERGES)]:
        psf = PointSeqFamily((fam(text),), Point((e("0"),)))
        assert point_seq_converges(AO, psf).kind == kind
        assert point_seq_converges(AF, psf).kind == kind


# --- reduction ----------------------------------------------------------------

def test_reduction_preimages_exist():
    sig = RingMorphism.residue_map(O1)
    FU = sig.target.field
    for text in ("u^2", "1 + u", "u^-3", "2"):
        xbar = parse_element(FU, text)
        x = lift(F, xbar)
        assert residue(x) == xbar
        assert member_points(AffinePresentation(O1, ("X",), []), (x,)) \
            == (YES if O1.contains(x) else NO)


def test_reduction_image_of_a_ball_is_the_level_entry():
    U = deep_ball(F, 2)
    img = residue_image(U)
    FU = F.residue()
    assert img.contains(parse_element(FU, "u^2"))
    assert not img.contains(parse_element(FU, "u"))
