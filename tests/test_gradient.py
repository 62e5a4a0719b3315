"""Everything derived from F reads its gradient: the secant system (the
polar forms along curves), the polar quadric of a point and its pencil
form, the second-type matrix and the fiber conic of the projection from a
line.  Each is checked against the earlier expansions kept in ``oracle``
(F(x + lam*y) in an 11-variable ring, and F(s*r0 + t*r1 + u) by
``eval_polys``).  ``gradient_at``, which evaluates all the partials in one
pass, is checked against each partial on its own."""

import itertools
import random
from fractions import Fraction

import pytest

from cubiclines.cubic import CubicForm, cubic_from_json, pencil_forms, xvars
from cubiclines.curves import RationalCurve
from cubiclines.fano import (_fiber_conic, _normal_rows, enumerate_lines,
                             second_type_test)
from cubiclines.fields import QQ, FieldTower
from cubiclines.poly import MultiPoly
from cubiclines.secant import build_system
from conftest import fixture_json
import oracle


def rand_elem(fld, rng):
    if fld.char == 0:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
    return fld.from_coeffs([rng.randrange(fld.p) for _ in range(fld.k)])


def dense_cubic(fld, n, rng):
    terms = {e: rand_elem(fld, rng)
             for e in itertools.product(range(4), repeat=n + 1) if sum(e) == 3}
    return CubicForm(fld, n, MultiPoly(fld, xvars(n), terms))


# (p, level); p = 0 is QQ
FIELDS = [(0, 1), (2, 1), (3, 1), (5, 1), (7, 2)]


def cubic_with_conic(fld, n, rng):
    """A random cubic through the conic x0*x2 = x1^2 of the plane where
    x3, ..., xn vanish: (x0*x2 - x1^2) * L + sum_{i >= 3} x_i * Q_i with a
    random linear form L and random quadrics Q_i; and that conic, as the
    curve (s0^2, s0*s1, s1^2, 0, ...)."""
    def rand_form(d):
        return MultiPoly(fld, xvars(n), {
            e: rand_elem(fld, rng)
            for e in itertools.product(range(d + 1), repeat=n + 1)
            if sum(e) == d})

    def var(i):
        return MultiPoly.var(fld, xvars(n), "x%d" % i)

    F = (var(0) * var(2) - var(1) * var(1)) * rand_form(1)
    for i in range(3, n + 1):
        F = F + var(i) * rand_form(2)
    unit = [[fld.one if i == j else fld.zero for j in range(3)]
            for i in range(3)]
    conic = RationalCurve(fld, 2, unit + [[fld.zero] * 3] * (n - 2))
    return CubicForm(fld, n, F), conic


def rand_curve(fld, e, n, rng):
    return RationalCurve(fld, e, [[rand_elem(fld, rng) for _ in range(e + 1)]
                                  for _ in range(n + 1)])


def system(X, a, b=None):
    G1, G2, bidegrees = oracle.build_system(X, a, b)
    return oracle.dense(G1, bidegrees[0]), oracle.dense(G2, bidegrees[1])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p,k", FIELDS)
def test_polar_forms_match_the_expansion(p, k, n):
    """The polar forms read from the gradient equal the coefficients of
    lam and lam^2 in F(x + lam*y), in characteristics 2 and 3 too: the
    secant system of a conic on X (single mode, G2 the transpose of G1)
    and of two random curves (pair mode), and the polar quadric of a point
    along a pencil (``pencil_forms``' Q, its middle coefficient by
    polarization), which is P2 with that point put in the first block."""
    fld = QQ if p == 0 else FieldTower(p, budget=k, seed=0).level(k)
    rng = random.Random("polar:%d:%d:%d" % (p, k, n))
    for _ in range(3):
        X, conic = cubic_with_conic(fld, n, rng)
        assert X.grad == tuple(X.F.derivative(v) for v in X.F.vars)
        assert build_system(X, conic) == system(X, conic)
        a, b = rand_curve(fld, 2, n, rng), rand_curve(fld, 1, n, rng)
        assert build_system(X, a, b) == system(X, a, b)
        pt, w1, w2 = ([rand_elem(fld, rng) for _ in range(n + 1)]
                      for _ in range(3))
        want = oracle.subs(oracle.polarize(X)[1], pt + [None] * (n + 1))
        assert oracle.polar(X, pt) == MultiPoly(fld, xvars(n), want.terms)
        pencil = RationalCurve(fld, 1, [list(w) for w in zip(w1, w2)])
        Q = pencil_forms(X, pt, X.gradient_at(pt), w1, w2)[1]
        assert Q == oracle.dense(oracle.polar(X, pt).eval_polys(
            oracle.curve_forms(pencil)), (2,))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p,k", FIELDS + [(11, 3), (13, 6)])
def test_gradient_at_matches_each_partial(p, k, n):
    """gradient_at, one pass over the partials with the products of two
    coordinates shared and one reduction each, equals every partial
    evaluated on its own by eval_elems, at random points and, on the cubic
    whose coefficients are all p - 1, at the point whose coordinates are."""
    fld = QQ if p == 0 else FieldTower(p, budget=k, seed=0).level(k)
    rng = random.Random("gradient:%d:%d:%d" % (p, k, n))
    cubics = [dense_cubic(fld, n, rng) for _ in range(3)]
    points = [[rand_elem(fld, rng) for _ in range(n + 1)] for _ in range(4)]
    if p:
        top = fld.from_coeffs([p - 1] * k)
        cubics.append(CubicForm(fld, n, MultiPoly(fld, xvars(n), {
            e: top for e in itertools.product(range(4), repeat=n + 1)
            if sum(e) == 3})))
        points.append([top] * (n + 1))
    for X in cubics:
        for pt in points:
            want = [g.eval_elems(list(pt)) for g in X.grad]
            got = X.gradient_at(pt)
            assert got == want
            assert list(map(type, got)) == list(map(type, want))


def fermat_surface_gf4():
    return oracle.fermat_cubic(FieldTower(2, budget=2, seed=0).level(1), 3)


# every line of three censuses: the Fermat and the dense threefold at
# level 1, and the Fermat surface over GF(4)
CENSUSES = {
    "fermat7_threefold": (lambda: cubic_from_json(
        fixture_json("fermat7_threefold.json"))[0], 1, 135),
    "dense11_threefold": (lambda: cubic_from_json(
        fixture_json("dense11_threefold.json"))[0], 1, 260),
    "fermat_surface_gf4": (fermat_surface_gf4, 2, 27),
}


@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_second_type_and_fiber_conic_match_the_restriction(name):
    """The second-type matrix and witness, and on threefolds alpha ... zeta
    of the fiber conic (the discriminant refuses surfaces), equal the parts
    of F(s*r0 + t*r1 + u) on every census line."""
    make, level, count = CENSUSES[name]
    cubic = make()
    lines = enumerate_lines(cubic, cubic.field.tower, level=level,
                            with_second_type=False).lines
    assert len(lines) == count
    flags = []
    for line in lines:
        assert _normal_rows(cubic, line)[1] == \
            oracle.second_type_rows(cubic, line)
        flag, witness = second_type_test(cubic, line)
        assert (flag, witness) == oracle.second_type_test(cubic, line)
        flags.append(flag)
        if cubic.n == 4:
            assert _fiber_conic(cubic, line) == \
                oracle.fiber_conic(cubic, line)
    if cubic.n == 4 and cubic.field.p == 11:
        assert any(flags) and not all(flags)


def test_forms_of_cubics_from_one_document_share_exponent_keys():
    """The gradients of two cubics read from the same JSON hold the same
    exponent tuples, not equal copies."""
    doc = fixture_json("dense11_threefold.json")
    a = cubic_from_json(doc)[0]
    b = cubic_from_json(doc)[0]
    for Pa, Pb in zip(a.grad, b.grad):
        assert Pa.terms == Pb.terms
        keys = {e: e for e in Pb.terms}
        assert all(keys[e] is e for e in Pa.terms)
