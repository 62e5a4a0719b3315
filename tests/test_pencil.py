"""Lines through a point from the pencil forms L, Q and K (L and Q from
the gradient, K from ``along``), against the oracle's plane sections and
its ``eval_polys`` arrays.

``cubic.lines_in_plane`` finds the lines of X through x in a plane as the
common roots of three binary forms; ``oracle.plane_lines_through``
decomposes the plane section (a linear factor by exhaustive search, then
the rank of the residual conic) and keeps the lines that contain x.  The
planes are random, inside and outside the tangent hyperplane at x, on
seeded dense threefolds over GF(7) and GF(11), at an Eckardt point of the
Fermat threefold (where the tangent section is a cone) and on a cubic
that contains a plane.  The threefold solver's conic/cubic arrays are
compared with the ``MultiPoly`` ones they replaced, before and after
coordinate changes.  With ``eval_polys`` disabled, lines through a point
and the second-type search still run.
"""

import random

import pytest

from cubiclines import linalg
from cubiclines.cubic import (ProjLine, _c3_arrays, _proj_zeros,
                              _random_unimodular, cubic_from_json,
                              lines_in_plane, lines_through_point)
from cubiclines.curves import curve_from_json
from cubiclines.fano import correspondence_row
from cubiclines.poly import MultiPoly
from conftest import fixture_json
import oracle

# a dense GF(7) and a dense GF(11) threefold, with the level the plane
# sections are searched to (level 2 of GF(11) is slow for the oracle)
DENSE = [("solve0_threefold.json", 2), ("dense11_threefold.json", 1)]

# F = x0 * (x1^2 + x2^2 + x3 x4) contains the plane x0 = 0
PLANE_IN_X = {"p": 7, "n": 4, "monomials": [
    {"exps": [1, 2, 0, 0, 0], "coeff": 1},
    {"exps": [1, 0, 2, 0, 0], "coeff": 1},
    {"exps": [1, 0, 0, 1, 1], "coeff": 1}]}


def smooth_points(X, rng, count):
    F = X.field
    pts = [p for p in _proj_zeros(X.F, F, X.n)
           if not all(map(F.is_zero, X.gradient_at(p)))]
    return rng.sample(pts, count)


def random_planes(X, x, rng, count):
    """count planes through x inside the tangent hyperplane at x, then
    count planes through x outside it, as direction pairs (w1, w2)."""
    F = X.field
    ker = linalg.kernel_basis([X.gradient_at(x)], F)

    def vec(rows):
        return linalg.combine([F.from_int(rng.randrange(F.p)) for _ in rows],
                              rows, F)

    units = [[F.one if i == j else F.zero for i in range(X.n + 1)]
             for j in range(X.n + 1)]
    out = []
    for rows in [ker] * count + [units] * count:
        while True:
            w = (vec(rows), vec(rows))
            if linalg.rank([x, *w], F) == 3:
                out.append(w)
                break
    return out


def pencil_keys(X, x, w1, w2, max_level):
    lines = lines_in_plane(X, x, w1, w2, max_level)
    if lines is None:
        return None
    assert all(X.line_in_x(l) and oracle.contains(
        l, [l.field.embed_from(c, X.field.k) for c in x]) for l in lines)
    return {(l.field.k, l.key()) for l in lines}


@pytest.mark.parametrize("name,max_level", DENSE)
def test_pencil_lines_match_plane_sections(name, max_level):
    X = cubic_from_json(fixture_json(name))[0]
    rng = random.Random(name)
    found = 0
    for x in smooth_points(X, rng, 4):
        for w1, w2 in random_planes(X, x, rng, 4):
            got = pencil_keys(X, x, w1, w2, max_level)
            assert got == oracle.plane_lines_through(X, x, w1, w2, max_level)
            found += len(got)
    assert found > 0


def test_pencil_lines_at_an_eckardt_point(threefold7):
    # the tangent section at (1:6:0:0:0) is a cone over a plane cubic: Q
    # vanishes on every plane in the tangent hyperplane, and the lines are
    # the roots of K
    X = threefold7
    x = [1, 6, 0, 0, 0]
    rng = random.Random(5)
    found = 0
    for w1, w2 in random_planes(X, x, rng, 6):
        got = pencil_keys(X, x, w1, w2, 2)
        assert got == oracle.plane_lines_through(X, x, w1, w2, 2)
        found += len(got)
    assert found > 0


def test_pencil_lines_on_a_cubic_with_a_plane():
    X = cubic_from_json(PLANE_IN_X)[0]
    x, w1, w2 = [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]
    assert pencil_keys(X, x, w1, w2, 2) is None
    assert oracle.plane_lines_through(X, x, w1, w2, 2) is None
    # other planes through the point
    for w1, w2 in random_planes(X, x, random.Random(6), 4):
        assert (pencil_keys(X, x, w1, w2, 2)
                == oracle.plane_lines_through(X, x, w1, w2, 2))


@pytest.mark.parametrize("name", [n for n, _ in DENSE])
def test_c3_arrays_match_eval_polys(name):
    X = cubic_from_json(fixture_json(name))[0]
    F = X.field
    rng = random.Random("c3:" + name)
    for x in smooth_points(X, rng, 6):
        gx = X.gradient_at(x)
        dirs = linalg.kernel_basis([gx], F)[1:]
        assert list(_c3_arrays(X, x, gx, dirs)) == oracle.c3_arrays(X, x, dirs)
        for _ in range(3):
            M = _random_unimodular(F, rng)
            b = [linalg.combine(col, dirs, F) for col in zip(*M)]
            assert list(_c3_arrays(X, x, gx, b)) \
                == oracle.c3_arrays(X, x, dirs, M)
        # directions off the tangent hyperplane, where gx pairs nonzero
        b = [[F.from_int(rng.randrange(F.p)) for _ in x] for _ in range(3)]
        assert list(_c3_arrays(X, x, gx, b)) == oracle.c3_arrays(X, x, b)


def test_one_path_without_eval_polys(monkeypatch, tower7):
    """Lines through the points of the surface and threefold goldens, and
    the row of the dense GF(7) configuration with a second-type line, all
    run with ``MultiPoly.eval_polys`` raising."""
    def refuse(self, args):
        raise AssertionError("eval_polys called")

    monkeypatch.setattr(MultiPoly, "eval_polys", refuse)
    lvl = tower7.level(1)
    dense11 = cubic_from_json(fixture_json("dense11_threefold.json"))[0]
    for X, pt in ((oracle.fermat_cubic(lvl, 3), [1, 2, 3, 3]),
                  (oracle.fermat_cubic(lvl, 4), [1, 2, 3, 5, 0]),
                  (dense11, [4, 6, 6, 0, 8])):
        res = lines_through_point(X, [X.field.from_int(c) for c in pt], None)
        assert res.lines and not res.eckardt
    X = cubic_from_json(fixture_json("solve0_threefold.json"))[0]
    conic = curve_from_json(fixture_json("solve0_conic.json"), X.field)
    meet = curve_from_json(fixture_json("solve0_meetline.json"), X.field)
    line = ProjLine(X.field, meet.point_at([1, 0]), meet.point_at([0, 1]))
    row = correspondence_row(X, conic, line)
    assert row.row_total == 5
    assert [l.kind for l in row.report.lines].count("second_type") == 1
