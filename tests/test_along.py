"""The dense substitution kernel ``MultiPoly.along`` and the secant system
built on it (``secant.build_system``, the partials of F along the curves
paired with the curves' coordinates) against the solver's earlier code
paths (``oracle``): F and the polar forms composed with the curves' forms
by ``eval_polys``, and the four values F(a), P1(a;b), P2(a;b), F(b) by
``eval_elems``, each converted to the dense forms by ``oracle.dense``."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cubiclines.cubic import CubicForm, ProjLine, cubic_from_json, xvars
from cubiclines.curves import RationalCurve, curve_from_json
from cubiclines.fields import QQ, FieldTower, VerificationError
from cubiclines.poly import MultiPoly
from cubiclines.secant import _assert_secant_line, build_system
from conftest import fixture_json
import oracle

# (p, cubic level, curve level); p = 0 is QQ
FIELDS = [(0, 1, 1), (3, 1, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (5, 1, 2),
          (5, 2, 2), (11, 1, 1), (11, 1, 2), (11, 2, 2), (7, 1, 2), (7, 2, 2),
          (7, 2, 4)]


def levels(p, ck, lk):
    tower = QQ.tower if p == 0 else FieldTower(p, budget=lk, seed=0)
    return tower.level(ck), tower.level(lk)


def rand_elem(fld, rng):
    if fld.char == 0:
        return fld.from_int(rng.randrange(-4, 5))
    return fld.from_coeffs([rng.randrange(fld.p) for _ in range(fld.k)])


def rand_cubic(fld, rng, n=4):
    """A dense random cubic: every monomial, coefficients uniform."""
    terms = {e: rand_elem(fld, rng)
             for e in itertools.product(range(4), repeat=n + 1) if sum(e) == 3}
    F = MultiPoly(fld, xvars(n), terms)
    return CubicForm(fld, n, F)


def rand_curve(fld, e, rng, n=4):
    """Random binary forms of degree e (not on any particular cubic)."""
    dense = [[rand_elem(fld, rng) for _ in range(e + 1)] for _ in range(n + 1)]
    if all(fld.is_zero(c) for d in dense for c in d):
        dense[0][0] = fld.one
    return RationalCurve(fld, e, dense)


@pytest.mark.parametrize("p,ck,lk", FIELDS)
def test_one_block_matches_eval_polys(p, ck, lk):
    cf, lvl = levels(p, ck, lk)
    rng = random.Random("one:%d:%d:%d" % (p, ck, lk))
    X = rand_cubic(cf, rng)
    for e in (1, 2, 3):
        curve = rand_curve(lvl, e, rng)
        want = X.F.over(lvl).eval_polys(oracle.curve_forms(curve))
        assert X.F.along(curve.dense, lvl) == oracle.dense(want, (3 * e,))


def oracle_system(X, a, b=None):
    """The oracle's secant system of one curve or a pair, as arrays."""
    G1, G2, bidegrees = oracle.build_system(X, a, b)
    return oracle.dense(G1, bidegrees[0]), oracle.dense(G2, bidegrees[1])


@pytest.mark.parametrize("p,ck,lk", FIELDS)
def test_two_blocks_match_eval_polys(p, ck, lk):
    """Both polar forms along two curves: the pair-mode secant system for
    two curves of any degrees, and for one curve in both places (not
    divided by the diagonal, since these curves are on no cubic)."""
    cf, lvl = levels(p, ck, lk)
    rng = random.Random("two:%d:%d:%d" % (p, ck, lk))
    X = rand_cubic(cf, rng)
    curves = {e: rand_curve(lvl, e, rng) for e in (1, 2, 3)}
    pairs = [(e, e) for e in (1, 2, 3)] + [(1, 2), (2, 3), (3, 1)]
    for ea, eb in pairs:
        a = curves[ea]
        b = curves[eb] if ea != eb else a
        assert build_system(X, a, b) == oracle_system(X, a, b)


@pytest.mark.parametrize("p,ck,lk", FIELDS)
def test_line_restriction_is_the_four_values(p, ck, lk):
    cf, lvl = levels(p, ck, lk)
    rng = random.Random("line:%d:%d:%d" % (p, ck, lk))
    for n in (3, 4):
        X = rand_cubic(cf, rng, n)
        for _ in range(6):
            a = [rand_elem(lvl, rng) for _ in range(n + 1)]
            b = [rand_elem(lvl, rng) for _ in range(n + 1)]
            want = MultiPoly(lvl, oracle.SVARS, dict(zip(
                [(3, 0), (2, 1), (1, 2), (0, 3)],
                oracle.line_values(X, a, b, lvl))))
            assert X.F.along(tuple(zip(a, b)), lvl) == \
                oracle.dense(want, (3,))
            assert X.line_in_x_points(a, b, lvl) == \
                oracle.line_in_x_points(X, a, b, lvl)


@pytest.fixture(scope="module")
def tower11():
    return FieldTower(11, budget=6, seed=0)


def dense_form(fld, d, c, n=4):
    """Every monomial of degree d in n + 1 variables, each with
    coefficient c."""
    return MultiPoly(fld, xvars(n), {
        e: c for e in itertools.product(range(d + 1), repeat=n + 1)
        if sum(e) == d})


def substituted(P, curve):
    """P along the curve by ``eval_polys``, as the dense form."""
    want = P.eval_polys(oracle.curve_forms(curve))
    return oracle.dense(want, (P.degree() * curve.e,))


def largest_value_case(fld, degrees, es, c, x):
    """The form and its dense substitution computed both ways, every
    coefficient c and every curve coordinate x.  One block degree (d,) is
    the dense form of degree d along one curve; (2, 1) and (1, 2) are the
    arrays G1 and G2 of the pair-mode secant system of the dense cubic
    along two curves."""
    curves = [RationalCurve(fld, e, [[x] * (e + 1) for _ in range(5)])
              for e in es]
    if len(degrees) == 1:
        P = dense_form(fld, degrees[0], c)
        return P.along(curves[0].dense, fld), substituted(P, curves[0])
    X = CubicForm(fld, 4, dense_form(fld, 3, c))
    side = degrees.index(2)
    return build_system(X, *curves)[side], oracle_system(X, *curves)[side]


# (block degrees, curve degrees): a dense cubic along a twisted cubic, dense
# quadrics (the partials the secant system substitutes) along a twisted
# cubic and a line, and the secant system's G1 (bidegree (2, 1)) and G2
# (bidegree (1, 2)) along two cubics and along a cubic and a line
SLOT_CASES = [((3,), (3,)), ((2,), (3,)), ((2,), (1,)), ((2, 1), (3, 3)),
              ((1, 2), (3, 3)), ((2, 1), (3, 1)), ((1, 2), (3, 1))]


@pytest.mark.parametrize("level", [1, 6])
@pytest.mark.parametrize("degrees,es", SLOT_CASES,
                         ids=["%s-%s" % c for c in SLOT_CASES])
def test_largest_packed_values_fit_their_slots(tower11, degrees, es, level):
    """Every coefficient and coordinate digit p - 1 at p = 11: in the
    dense forms the middle slot meets its bound, so the slots are as
    narrow as they may be, and one bit, one element slot or (at level 1)
    the spare bit fewer breaks this."""
    lvl = tower11.level(level)
    top = lvl.from_coeffs([lvl.p - 1] * lvl.k)
    got, want = largest_value_case(lvl, degrees, es, top, top)
    assert got == want


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("degrees,es", SLOT_CASES,
                         ids=["%s-%s" % c for c in SLOT_CASES])
def test_largest_rational_values_fit_their_slots(degrees, es, sign):
    """Over QQ all numerators equal, so the middle slot meets its bound
    with either sign: the spare bit of the balanced digits is needed."""
    c = Fraction(sign * (2 ** 70 + 1), 3)
    x = Fraction(2 ** 66 - 1, 5)
    got, want = largest_value_case(QQ, degrees, es, c, x)
    assert got == want


def rand_rational(rng):
    """A small integer, a small fraction, or a numerator above 2^64 over
    a nonunit denominator, either sign."""
    sign = rng.choice((1, -1))
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randrange(-4, 5))
    if kind == 1:
        return Fraction(sign * rng.randrange(1, 50), rng.randrange(2, 30))
    return Fraction(sign * rng.randrange(2 ** 64, 2 ** 72),
                    rng.randrange(2, 2 ** 20))


def test_rationals_with_denominators_match_eval_polys():
    """The denominator path: a dense QQ cubic with large, signed,
    fractional coefficients along curves of such coordinates, alone and
    in the pair-mode secant system of two."""
    rng = random.Random("rationals")
    terms = {e: rand_rational(rng)
             for e in itertools.product(range(4), repeat=5) if sum(e) == 3}
    X = CubicForm(QQ, 4, MultiPoly(QQ, xvars(4), terms))
    curves = {e: RationalCurve(QQ, e, [[rand_rational(rng)
                                        for _ in range(e + 1)]
                                       for _ in range(5)])
              for e in (1, 2, 3)}
    for e, curve in curves.items():
        assert X.F.along(curve.dense, QQ) == substituted(X.F, curve)
    for ea, eb in [(1, 1), (2, 2), (2, 1), (1, 3)]:
        a, b = curves[ea], curves[eb]
        assert build_system(X, a, b) == oracle_system(X, a, b)


# lines on no cubic: F(s0*a + s1*b) on the Fermat GF(7) surface has exactly
# one nonzero coefficient, at the named monomial
ONE_COEFFICIENT_LINES = [
    ("F(a)", (3, 0), (2, 0, 1, 5), (2, 0, 0, 5)),
    ("P1(a;b)", (2, 1), (0, 0, 3, 2), (6, 3, 1, 4)),
    ("P2(a;b)", (1, 2), (2, 5, 6, 4), (3, 5, 1, 1)),
    ("F(b)", (0, 3), (4, 0, 5, 0), (5, 0, 1, 3)),
]


@pytest.mark.parametrize("mono,a,b", [c[1:] for c in ONE_COEFFICIENT_LINES],
                         ids=[c[0] for c in ONE_COEFFICIENT_LINES])
def test_line_with_one_nonzero_coefficient_is_rejected(mono, a, b):
    X = cubic_from_json(fixture_json("fermat7_surface.json"))[0]
    fld = X.field
    values = oracle.line_values(X, a, b)
    assert [fld.is_zero(v) for v in values] == \
        [m != mono for m in [(3, 0), (2, 1), (1, 2), (0, 3)]]
    restriction = X.F.along(tuple(zip(a, b)), fld)
    assert [(3 - i, i) for i, v in enumerate(restriction)
            if not fld.is_zero(v)] == [mono]
    assert not X.line_in_x_points(a, b)
    up = fld.tower.level(2)
    assert not X.line_in_x_points([up.embed_from(x, 1) for x in a],
                                  [up.embed_from(x, 1) for x in b], up)


def test_line_check_at_the_line_level(threefold7, tower7):
    """A level-1 cubic checks a line over level 3 at that level: other
    rows of an F_7-line of the Fermat threefold, taken over level 3, pass,
    and moving one coordinate off the line fails, as for the oracle."""
    lvl = tower7.level(3)
    g = lvl.gen()
    a0 = [lvl.from_int(x) for x in (1, 6, 0, 0, 0)]
    b0 = [lvl.from_int(x) for x in (0, 0, 1, 6, 0)]
    a = [lvl.add(x, lvl.mul(g, y)) for x, y in zip(a0, b0)]
    b = [lvl.add(lvl.mul(g, x), lvl.mul(lvl.add(g, lvl.one), y))
         for x, y in zip(a0, b0)]
    assert threefold7.line_in_x_points(a, b, lvl)
    assert threefold7.line_in_x(ProjLine(lvl, a, b))
    assert oracle.line_in_x_points(threefold7, a, b, lvl)
    b[4] = g
    assert not threefold7.line_in_x_points(a, b, lvl)
    assert not oracle.line_in_x_points(threefold7, a, b, lvl)


def test_secant_line_check_rejects_the_p2_line():
    """_assert_secant_line refuses the line whose only nonzero coefficient
    is P2(a;b), with the rows exactly as given."""
    X = cubic_from_json(fixture_json("fermat7_surface.json"))[0]
    a, b = ONE_COEFFICIENT_LINES[2][2:]
    with pytest.raises(VerificationError):
        _assert_secant_line(X, SimpleNamespace(rows=(a, b), field=X.field))


def secant_inputs():
    t7 = cubic_from_json(fixture_json("fermat7_threefold.json"))[0]
    dense = cubic_from_json(fixture_json("dense11_threefold.json"))[0]
    tQ = cubic_from_json(fixture_json("fermatQ_threefold.json"))[0]
    conic7 = curve_from_json(fixture_json("conic7.json"), t7.field)
    conicQ = curve_from_json(fixture_json("conicQ.json"), QQ)
    dconic = curve_from_json(fixture_json("dense11_conic.json"), dense.field)
    dline = curve_from_json(fixture_json("dense11_meetline.json"), dense.field)
    line7 = curve_from_json(fixture_json("disjline7.json"), t7.field)
    return [("conic7", t7, conic7, None), ("conicQ", tQ, conicQ, None),
            ("dense11_conic", dense, dconic, None),
            ("conic7_disjline7", t7, conic7, line7),
            ("dense11_conic_meetline", dense, dconic, dline),
            ("dense11_meetline_conic", dense, dline, dconic)]


def test_secant_system_matches_eval_polys_system():
    """build_system on committed curves on X equals the earlier system,
    the diagonal divided out twice in single mode, bidegrees included."""
    for name, X, a, b in secant_inputs():
        assert build_system(X, a, b) == oracle_system(X, a, b), name


@pytest.mark.parametrize("p,lk", [(0, 1), (7, 1), (7, 2), (7, 3), (11, 2)])
def test_point_and_jacobian_match_form_evaluation(p, lk):
    """Horner on the dense coordinates gives the values of the forms and
    of their partial derivatives, evaluated term by term."""
    lvl = QQ if p == 0 else FieldTower(p, budget=3, seed=0).level(lk)
    base = lvl.tower.level(1)
    rng = random.Random("horner:%d:%d" % (p, lk))
    for e in (1, 2, 3):
        curve = rand_curve(base, e, rng)
        for _ in range(4):
            s = [rand_elem(lvl, rng), rand_elem(lvl, rng)]
            assert curve.point_at(s, lvl) == \
                [c.over(lvl).eval_elems(s) for c in oracle.curve_forms(curve)]
            assert curve.jacobian_at(s, lvl) == \
                [[c.derivative(v).over(lvl).eval_elems(s)
                  for c in oracle.curve_forms(curve)] for v in oracle.SVARS]
