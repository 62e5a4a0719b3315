import itertools
import random

import pytest

from cubiclines import linalg
from cubiclines.cubic import (CubicForm, DegenerateSpanError, ProjLine,
                              SingularPointError, cubic_from_json,
                              lines_through_point, smoothness_probe, xvars)
from cubiclines.fields import QQ, FieldTower, InvalidInputError
from cubiclines.poly import MultiPoly
from conftest import fixture_json
from oracle import (_proj_points, classify_conic, contains, divides_exactly,
                    embed_line, fermat_cubic, is_smooth_point, linear_forms,
                    meets, on_x, plane_residual)


def F7pts(lvl):
    return list(_proj_points(lvl, 4))


def test_projline_canonical_and_meets(tower7):
    lvl = tower7.level(1)
    l1 = ProjLine(lvl, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    same = ProjLine(lvl, [2, 3, 0, 0, 0], [5, 1, 0, 0, 0])
    assert l1 == same and l1.key() == same.key()
    l2 = ProjLine(lvl, [0, 0, 1, 0, 0], [0, 0, 0, 1, 0])
    assert not meets(l1, l2)
    l3 = ProjLine(lvl, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0])
    assert meets(l1, l3) and meets(l2, l3)
    assert contains(l1, [3, 4, 0, 0, 0])
    assert not contains(l1, [0, 0, 1, 0, 0])
    with pytest.raises(DegenerateSpanError):
        ProjLine(lvl, [1, 2, 0, 0, 0], [3, 6, 0, 0, 0])


def test_projline_embed_descend_round_trip(tower7):
    lvl = tower7.level(1)
    l1 = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    up = embed_line(l1, 2)
    assert up.min_level() == 1
    assert up.descend(1) == l1


def test_cubic_validation(tower7):
    lvl = tower7.level(1)
    with pytest.raises(ValueError):
        CubicForm(lvl, 4, MultiPoly.zero(lvl, ("x0", "x1", "x2", "x3", "x4")))
    mixed = MultiPoly.from_int_terms(lvl, ("x0", "x1", "x2", "x3", "x4"),
                                     {(3, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        CubicForm(lvl, 4, mixed)


def test_polarization_identity(threefold7, tower7):
    # F(a + b) = F(a) + b.grad F(a) + a.grad F(b) + F(b) for all a, b: the
    # polar forms P1(a;b) and P2(a;b) are the gradient paired with a point
    lvl = tower7.level(1)
    rng = random.Random(2)
    X = threefold7
    for _ in range(40):
        a = [rng.randrange(7) for _ in range(5)]
        b = [rng.randrange(7) for _ in range(5)]
        s = [lvl.add(x, y) for x, y in zip(a, b)]
        total = lvl.add(lvl.add(X.f_at(a), X.f_at(b)),
                        lvl.add(linalg.dot(b, X.gradient_at(a), lvl),
                                linalg.dot(a, X.gradient_at(b), lvl)))
        assert X.f_at(s) == total


def test_smoothness_probe_fermat(threefold7, tower7):
    cert = smoothness_probe(threefold7, max_level=2)
    assert cert.smooth_so_far and cert.singular_point is None
    assert 1 in cert.levels_exhausted


def test_smoothness_probe_finds_singularity(tower7):
    # cone over a plane cubic: singular along x3 = x4 = 0 complement
    doc = {"p": 7, "n": 4, "monomials": [
        {"exps": [3, 0, 0, 0, 0], "coeff": 1},
        {"exps": [0, 3, 0, 0, 0], "coeff": 1},
        {"exps": [0, 0, 3, 0, 0], "coeff": 1}]}
    cone = cubic_from_json(doc)[0]
    cert = smoothness_probe(cone, max_level=1)
    assert not cert.smooth_so_far
    assert cert.singular_point is not None


def test_smoothness_probe_rejects_rationals(threefoldQ):
    with pytest.raises(ValueError):
        smoothness_probe(threefoldQ)


def test_smoothness_probe_sweeps_only_levels_over_the_cubic():
    # a cubic defined at level 2 is probed at level 2, never at level 1
    surface = fermat_cubic(FieldTower(5, budget=2).level(2), 3)
    cert = smoothness_probe(surface, max_level=2)
    assert cert.smooth_so_far and cert.levels_exhausted == [2]


def test_lines_through_point_vs_bruteforce(threefold7, tower7):
    lvl = tower7.level(1)
    rng = random.Random(4)
    pts = [p for p in F7pts(lvl) if on_x(threefold7, p)
           and is_smooth_point(threefold7, p)]
    rng.shuffle(pts)
    checked = 0
    for x in pts:
        res = lines_through_point(threefold7, x, tower7, max_level=4)
        if res.eckardt:
            continue
        brute = set()
        for y in F7pts(lvl):
            try:
                line = ProjLine(lvl, x, y)
            except DegenerateSpanError:
                continue
            if threefold7.line_in_x(line):
                brute.add(line.key())
        level1 = {l.descend(1).key() for l in res.lines
                  if l.min_level() == 1}
        assert level1 == brute
        assert res.total_multiplicity == 6
        checked += 1
        if checked >= 8:
            break
    assert checked >= 8


def test_uncertified_split_is_reported():
    """The cubic of config 48 of the seed-1 ``solve`` workload, at
    (8:1:9:4:4) over GF(11): a level-1 resultant root of multiplicity 3 lies
    under two fiber points, which the split rule cannot share exactly, so
    the total is 5 and the result says it is not certified."""
    X, _ = cubic_from_json(fixture_json("solve48_threefold.json"))
    res = lines_through_point(X, [8, 1, 9, 4, 4], None)
    assert res.total_multiplicity == 5
    assert res.complete and res.certified is False


def test_eckardt_point_on_fermat(threefold7, tower7):
    res = lines_through_point(threefold7, [1, 6, 0, 0, 0], tower7)
    assert res.eckardt


def test_lines_through_point_rejects_bad_input(threefold7, tower7):
    with pytest.raises(InvalidInputError, match="not on X"):
        lines_through_point(threefold7, [1, 0, 0, 0, 0], tower7)
    # F and its gradient vanish at the zero vector, which is no point at all
    with pytest.raises(InvalidInputError, match="not a point of P\\^4"):
        lines_through_point(threefold7, [0] * 5, tower7)
    doc = {"p": 7, "n": 4, "monomials": [
        {"exps": [3, 0, 0, 0, 0], "coeff": 1},
        {"exps": [0, 3, 0, 0, 0], "coeff": 1},
        {"exps": [0, 0, 3, 0, 0], "coeff": 1}]}
    cone, tw = cubic_from_json(doc)
    with pytest.raises(SingularPointError):
        lines_through_point(cone, [0, 0, 0, 0, 1], tw)


def test_plane_residual_double_line(threefold7, tower7):
    lvl = tower7.level(1)
    line = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    basis = [list(line.rows[0]), list(line.rows[1]), [0, 0, 0, 0, 1]]
    sec = plane_residual(threefold7, basis, known_line=line)
    assert sec.status == "decomposed"
    assert sec.conic_class == "double_line"


def test_rank2_conic_splits_into_its_factors(tower7):
    lvl = tower7.level(1)
    pv = ("pa", "pb", "pc")
    a, b, c = (MultiPoly.var(lvl, pv, v) for v in pv)
    const = lambda n: MultiPoly.const(lvl, pv, n)
    # two lines over GF(7) through a general vertex, and a^2 - 3 b^2
    # (3 is not a square mod 7) whose lines are defined over GF(49)
    cases = [((a + b * const(2) + c * const(3)) * (a + b * const(6) + c), 1),
             (a * a - b * b * const(3), 2)]
    for C, level in cases:
        kind, lines = classify_conic(C, lvl, max_level=2)
        assert kind == "two_lines" and len(lines) == 2
        for lv, form in lines:
            assert lv == level
            L = tower7.level(lv)
            ell = linear_forms(L, pv, [[x] for x in form])[0]
            assert divides_exactly(C.over(L), ell) is not None


def test_plane_residual_irreducible_section(threefold7, tower7):
    basis = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
    sec = plane_residual(threefold7, basis, max_level=2)
    assert sec.status == "no_linear_factor"
    assert sec.components_degrees == [3]


def test_plane_residual_plane_inside(tower7):
    # F = x0 * (x1^2 + x2^2 + x3 x4) contains the plane x0 = 0
    doc = {"p": 7, "n": 4, "monomials": [
        {"exps": [1, 2, 0, 0, 0], "coeff": 1},
        {"exps": [1, 0, 2, 0, 0], "coeff": 1},
        {"exps": [1, 0, 0, 1, 1], "coeff": 1}]}
    cub = cubic_from_json(doc)[0]
    basis = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    sec = plane_residual(cub, basis)
    assert sec.status == "plane_in_X"


def test_fermat_rejected_in_char3():
    from cubiclines.fields import FieldTower
    tw = FieldTower(3, budget=2, seed=0)
    with pytest.raises(ValueError):
        fermat_cubic(tw.level(1), 4)


def test_transport_carries_polar_forms(tower7):
    """A cubic moved to another level derives its gradient there, and it
    equals the embedded one: embedding is a ring map, so it commutes with
    differentiation."""
    rng = random.Random(9)
    lvl = tower7.level(1)
    terms = {e: rng.randrange(7) for e in itertools.product(range(4), repeat=5)
             if sum(e) == 3}
    X = CubicForm(lvl, 4, MultiPoly.from_int_terms(lvl, xvars(4), terms))
    for k in (2, 3):
        ext = tower7.level(k)
        moved = X._over(ext)
        assert moved.field is ext and moved.F == X.F.over(ext)
        assert moved.grad == tuple(g.over(ext) for g in X.grad)


def test_lines_through_point_rejects_a_wrong_length_point(threefold7):
    """A point of P^4 has five coordinates: more are not cut off, fewer
    are not read as a point off X."""
    lvl = threefold7.field
    for coords in ([1, 6, 0, 0, 0, 0, 0], [1, 2, 3]):
        with pytest.raises(ValueError, match="needs 5 coordinates"):
            lines_through_point(threefold7, [lvl.from_int(c) for c in coords],
                                lvl.tower)
