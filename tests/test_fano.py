import base64
import itertools
import random

import pytest

from cubiclines.cubic import (CubicForm, ProjLine, fermat_cubic,
                              lines_through_point, xvars)
from cubiclines.curves import curve_from_json
from cubiclines.fano import (DegenerateConfigurationError, correspondence_row,
                             discriminant_quintic, enumerate_lines,
                             sample_smoothness, second_type_test)
from cubiclines.fields import FieldTower
from cubiclines.poly import MultiPoly
from conftest import fixture_json
from oracle import naive_census


def find_first_type_line(cubic, tower, seed=1, tries=200):
    """A line on the cubic whose projection discriminant is a quintic with
    smooth sampled zeros: found through a random smooth level-2 point."""
    lvl = tower.level(2)
    X = cubic._over(lvl)
    rng = random.Random(seed)
    for _ in range(tries):
        pt = [lvl.from_coeffs([rng.randrange(7), rng.randrange(7)])
              for _ in range(5)]
        if all(lvl.is_zero(c) for c in pt) or not X.on_x(pt):
            continue
        if not X.is_smooth_point(pt):
            continue
        res = lines_through_point(X, pt, tower, max_level=6)
        if res.eckardt:
            continue
        for line in res.lines:
            if line.field.k != 2:
                continue
            flag, _basis = second_type_test(cubic._over(line.field), line)
            if not flag:
                return line
    raise AssertionError("no first-type line found")


def test_fermat_surface_27_lines(surface7, tower7):
    census = enumerate_lines(surface7, tower7, level=1)
    assert census.count == 27
    assert census.meet_counts() == [10] * 27
    assert not any(census.second_type)


def test_census_json_shape(surface7, tower7):
    census = enumerate_lines(surface7, tower7, level=1)
    doc = census.to_json()
    assert doc["schema"] == "line-census/1"
    assert doc["count"] == 27 and len(doc["lines"]) == 27
    raw = base64.b64decode(doc["adjacency"])
    assert len(raw) == (27 * 27 + 7) // 8


def test_threefold_census_count(census7):
    assert census7.count == 135
    keys = [l.key() for l in census7.lines]
    assert keys == sorted(keys)


def dense_through_line(p, n, seed):
    """Seeded dense cubic over GF(p) containing the line x0 = x1 = 0: the
    monomials in the remaining variables alone are left out."""
    tower = FieldTower(p, budget=2, seed=0)
    fld = tower.level(1)
    rng = random.Random(seed)
    terms = {}
    for e in itertools.product(range(4), repeat=n + 1):
        if sum(e) == 3 and e[0] + e[1] > 0:
            c = rng.randrange(p)
            if c:
                terms[e] = c
    F = MultiPoly.from_int_terms(fld, xvars(n), terms)
    return CubicForm(fld, n, F), tower


def cone_over_plane_cubic(p):
    """x1^3 + x2^3 + x3^3 in P^3: a cone with vertex (1:0:0:0), where F and
    its gradient vanish, so no second row is cut by the prefilter there."""
    tower = FieldTower(p, budget=2, seed=0)
    fld = tower.level(1)
    terms = {(0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}
    return CubicForm(fld, 3, MultiPoly.from_int_terms(fld, xvars(3), terms)), tower


def census_cases():
    """(cubic, tower, level, expected count or None) per input; the dense
    cubics in characteristics 2 and 3 check the gradient identity there."""
    for p, n, seed in ((2, 3, 1), (3, 3, 2), (5, 3, 3), (7, 3, 4),
                       (2, 4, 5), (3, 4, 6)):
        yield pytest.param(*dense_through_line(p, n, seed), 1, None,
                           id="dense_gf%d_n%d" % (p, n))
    yield pytest.param(*cone_over_plane_cubic(7), 1, 9, id="cone_gf7")
    tower2 = FieldTower(2, budget=2, seed=0)
    yield pytest.param(fermat_cubic(tower2.level(1), 3), tower2, 2, 27,
                       id="fermat_surface_gf4")
    tower7 = FieldTower(7, budget=2, seed=0)
    yield pytest.param(fermat_cubic(tower7.level(1), 4), tower7, 1, 135,
                       id="fermat_threefold_gf7")


@pytest.mark.parametrize("cubic,tower,level,expected", census_cases())
def test_census_matches_naive_scan(cubic, tower, level, expected):
    census = enumerate_lines(cubic, tower, level=level)
    lines, adjacency, second_type = naive_census(cubic, tower, level=level)
    assert [l.key() for l in census.lines] == [l.key() for l in lines]
    assert census.adjacency == adjacency
    assert census.second_type == second_type
    if expected is None:
        lvl = tower.level(1)
        axis = ProjLine(lvl, [0, 0, 1] + [0] * (cubic.n - 2),
                        [0, 0, 0, 1] + [0] * (cubic.n - 3))
        assert axis in census.lines
    else:
        assert census.count == expected


def test_second_type_witness(threefold7, tower7):
    lvl = tower7.level(1)
    line = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    flag, basis = second_type_test(threefold7, line)
    assert flag
    # the witness plane contains the line
    from cubiclines import linalg
    assert linalg.rank(basis, lvl) == 3
    assert linalg.rank(basis + [list(r) for r in line.rows], lvl) == 3


def test_second_type_rejects_line_off_x(threefold7, tower7):
    lvl = tower7.level(1)
    off = ProjLine(lvl, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    with pytest.raises(ValueError):
        second_type_test(threefold7, off)


def test_discriminant_first_type_line(threefold7, tower7):
    line = find_first_type_line(threefold7, tower7)
    curve = discriminant_quintic(threefold7._over(line.field), line)
    assert curve.degree == 5 and curve.form.degree() == 5
    assert curve.genus == 6 and curve.double_cover_genus == 11
    assert sample_smoothness(curve, tower7, count=20, max_level=4)
    assert len(curve.samples) == 20


def test_discriminant_second_type_line_is_singular(threefold7, tower7):
    lvl = tower7.level(1)
    line = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    curve = discriminant_quintic(threefold7, line)
    assert curve.form.degree() == 5
    assert not sample_smoothness(curve, tower7, count=20, max_level=2)
    assert any(not s for _, _, s in curve.samples)


def test_correspondence_row(threefold7, conic7, tower7):
    lvl = tower7.level(1)
    rows = fixture_json("conic7_lines.json")["meet_once"][0]
    line = ProjLine(lvl, rows[0], rows[1])
    row = correspondence_row(threefold7, conic7, line, tower7, max_level=4)
    assert row.row_total == 5
    assert row.point_line_multiplicity == 6
    assert not row.lines_at_point.eckardt
    assert row.report.excision_consistent


def test_correspondence_row_rejects_disjoint(threefold7, conic7, tower7):
    lvl = tower7.level(1)
    rows = fixture_json("conic7_lines.json")["disjoint"][0]
    line = ProjLine(lvl, rows[0], rows[1])
    with pytest.raises(ValueError):
        correspondence_row(threefold7, conic7, line, tower7, max_level=4)
