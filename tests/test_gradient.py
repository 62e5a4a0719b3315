"""Everything ``CubicForm`` derives from F reads its gradient: the polar
forms, the polar quadric of a point, the second-type matrix and the fiber
conic of the projection from a line.  Each is checked against the earlier
expansions kept in ``oracle`` (F(x + lam*y) in an 11-variable ring, and
F(s*r0 + t*r1 + u) by ``eval_polys``).  ``gradient_at``, which evaluates
all the partials in one pass, is checked against each partial on its own."""

import itertools
import random
from fractions import Fraction

import pytest

from cubiclines.cubic import CubicForm, cubic_from_json, xvars
from cubiclines.fano import (_fiber_conic, _normal_rows, enumerate_lines,
                             second_type_test)
from cubiclines.fields import QQ, FieldTower
from cubiclines.poly import MultiPoly
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


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p,k", FIELDS)
def test_polar_forms_match_the_expansion(p, k, n):
    """P1 and P2 from the gradient equal the coefficients of lam and lam^2
    in F(x + lam*y), in characteristics 2 and 3 too, and the polar quadric
    of a point is P2 with that point put in the first block."""
    fld = QQ if p == 0 else FieldTower(p, budget=k, seed=0).level(k)
    rng = random.Random("polar:%d:%d:%d" % (p, k, n))
    for _ in range(3):
        X = dense_cubic(fld, n, rng)
        assert (X.P1, X.P2) == oracle.polarize(X)
        assert X.grad == tuple(X.F.derivative(v) for v in X.F.vars)
        pt = [rand_elem(fld, rng) for _ in range(n + 1)]
        want = X.P2.subs(pt + [None] * (n + 1))
        assert X.polar(pt) == MultiPoly(fld, xvars(n), want.terms)


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
    """The second-type matrix and witness, and alpha ... zeta of the fiber
    conic, equal the parts of F(s*r0 + t*r1 + u) on every census line."""
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
        assert _fiber_conic(cubic, line) == oracle.fiber_conic(cubic, line)
    if cubic.n == 4 and cubic.field.p == 11:
        assert any(flags) and not all(flags)


def test_forms_of_cubics_from_one_document_share_exponent_keys():
    """The gradients and polar forms of two cubics read from the same JSON
    hold the same exponent tuples, not equal copies."""
    doc = fixture_json("dense11_threefold.json")
    a = cubic_from_json(doc)[0]
    b = cubic_from_json(doc)[0]
    for Pa, Pb in zip(a.grad + (a.P1, a.P2), b.grad + (b.P1, b.P2)):
        assert Pa.terms == Pb.terms
        keys = {e: e for e in Pb.terms}
        assert all(keys[e] is e for e in Pa.terms)
