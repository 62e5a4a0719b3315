import base64
import itertools
import random

import pytest

from cubiclines import linalg
from cubiclines.cubic import (CubicForm, ProjLine, _proj_zeros,
                              lines_through_point, xvars)
from cubiclines.curves import curve_from_json
from cubiclines.fano import (DegenerateConfigurationError, DiscriminantCurve,
                             _polar_cut, correspondence_row,
                             discriminant_quintic, enumerate_lines, incidence,
                             sample_smoothness, second_type_test)
from cubiclines.fields import QQ, FieldTower
from cubiclines.poly import MultiPoly
from conftest import fixture_json
from oracle import (contains, fermat_cubic, is_smooth_point, linear_forms,
                    meet_counts, meets, naive_census, on_x)


def find_first_type_line(cubic, tower, seed=1, tries=200):
    """A line on the cubic whose projection discriminant is a quintic with
    smooth sampled zeros: found through a random smooth level-2 point."""
    lvl = tower.level(2)
    X = cubic._over(lvl)
    rng = random.Random(seed)
    for _ in range(tries):
        pt = [lvl.from_coeffs([rng.randrange(7), rng.randrange(7)])
              for _ in range(5)]
        if all(lvl.is_zero(c) for c in pt) or not on_x(X, pt):
            continue
        if not is_smooth_point(X, pt):
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
    assert meet_counts(census) == [10] * 27
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


def dense_moved_line(p, n, seed):
    """``dense_through_line`` after a seeded invertible change of
    coordinates x -> A x, drawn until F(A e_c) != 0 for some c >= 2, so the
    cubics of the census scan have a t^3 term there.  Returns the cubic
    F(A x), its tower and the line A^-1 (x0 = x1 = 0) that it contains."""
    X, tower = dense_through_line(p, n, seed)
    fld = tower.level(1)
    rng = random.Random("moved:%d:%d:%d" % (p, n, seed))
    while True:
        A = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(n + 1)]
        cols = [list(c) for c in zip(*A)]
        if (linalg.rank(A, fld) == n + 1
                and any(not fld.is_zero(X.f_at(c)) for c in cols[2:])):
            break
    F = X.F.eval_polys(linear_forms(fld, xvars(n), cols))
    units = [[int(i == j) for i in range(n + 1)] for j in range(n + 1)]
    line = ProjLine(fld, *(linalg.solve(A, units[c], fld) for c in (2, 3)))
    return CubicForm(fld, n, F), tower, line


def cone_over_plane_cubic(p):
    """x1^3 + x2^3 + x3^3 in P^3: a cone with vertex (1:0:0:0), where F and
    its gradient vanish, so no second row is cut by the prefilter there."""
    tower = FieldTower(p, budget=2, seed=0)
    fld = tower.level(1)
    terms = {(0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}
    return CubicForm(fld, 3, MultiPoly.from_int_terms(fld, xvars(3), terms)), tower


def census_cases():
    """(cubic, tower, level, expected count or a line on X) per input; the
    dense cubics in characteristics 2 and 3 check the gradient identity
    there, the one at level 2 a scan over tuple elements (q = 9), and the
    moved ones the t^3 term of the scan's cubics, which is zero on the
    others but the cone and the Fermat cubics."""
    for p, n, seed, level in ((2, 3, 1, 1), (3, 3, 2, 1), (5, 3, 3, 1),
                              (7, 3, 4, 1), (11, 3, 7, 1), (2, 4, 5, 1),
                              (3, 4, 6, 1), (3, 3, 11, 2)):
        cubic, tower = dense_through_line(p, n, seed)
        lvl = tower.level(level)
        axis = ProjLine(lvl, *([lvl.from_int(int(i == c))
                                for i in range(n + 1)] for c in (2, 3)))
        yield pytest.param(cubic, tower, level, axis,
                           id="dense_gf%d_n%d" % (p ** level, n))
    for p, n, seed in ((5, 3, 21), (7, 3, 22), (3, 4, 23)):
        cubic, tower, line = dense_moved_line(p, n, seed)
        yield pytest.param(cubic, tower, 1, line, id="moved_gf%d_n%d" % (p, n))
    yield pytest.param(*cone_over_plane_cubic(7), 1, 9, id="cone_gf7")
    tower2 = FieldTower(2, budget=2, seed=0)
    yield pytest.param(fermat_cubic(tower2.level(1), 3), tower2, 2, 27,
                       id="fermat_surface_gf4")
    tower7 = FieldTower(7, budget=2, seed=0)
    yield pytest.param(fermat_cubic(tower7.level(1), 4), tower7, 1, 135,
                       id="fermat_threefold_gf7")


@pytest.mark.parametrize("cubic,tower,level,expected", census_cases())
def test_census_matches_naive_scan(cubic, tower, level, expected):
    """Lines, second-type flags and the shared-point incidence against a
    full-substitution scan with pairwise rank tests (ProjLine.meets)."""
    census = enumerate_lines(cubic, tower, level=level)
    lines, adjacency, second_type = naive_census(cubic, tower, level=level)
    assert [l.key() for l in census.lines] == [l.key() for l in lines]
    assert census.adjacency == adjacency
    assert census.second_type == second_type
    if isinstance(expected, ProjLine):
        assert expected in census.lines
    else:
        assert census.count == expected


def surface_cases():
    """(cubic, tower, the sorted (census lines, eckardt) of its points or
    None)."""
    tower7 = FieldTower(7, budget=2, seed=0)
    yield pytest.param(fermat_cubic(tower7.level(1), 3), tower7,
                       [(2, False)] * 81 + [(3, True)] * 18, id="fermat_gf7")
    for p, seed in ((5, 3), (7, 4), (11, 7)):
        yield pytest.param(*dense_through_line(p, 3, seed), None,
                           id="dense_gf%d" % p)


@pytest.mark.parametrize("cubic,tower,points", surface_cases())
def test_surface_lines_through_every_point_match_the_census(cubic, tower,
                                                            points):
    """At every smooth F_q-point of a surface the level-1 lines of
    ``lines_through_point`` are the census lines through the point, also
    at an Eckardt point, where the polar quadric vanishes on the tangent
    plane and the three lines are the roots of F there.  On the Fermat
    surface over GF(7) those are the 18 points on three lines; the other
    81 lie on two."""
    F = cubic.field
    census = enumerate_lines(cubic, tower, level=1)
    seen = []
    for pt in _proj_zeros(cubic.F, F, 3):
        if not is_smooth_point(cubic, pt):
            continue
        res = lines_through_point(cubic, pt, tower)
        got = [l.key() for l in res.lines if l.field.k == 1]
        want = [l.key() for l in census.lines if contains(l, pt)]
        assert res.complete and sorted(got) == want, pt
        seen.append((len(want), res.eckardt))
    assert points is None or sorted(seen) == points


def cut_by_filter(fld, grad, j, vfree):
    """Second rows with grad . v = 0, by testing every row."""
    out = []
    for vals in itertools.product(list(fld.elements()), repeat=len(vfree)):
        v = [fld.zero] * len(grad)
        v[j] = fld.one
        for c, x in zip(vfree, vals):
            v[c] = x
        dot = fld.zero
        for g, x in zip(grad, v):
            dot = fld.add(dot, fld.mul(g, x))
        if fld.is_zero(dot):
            out.append(v)
    return sorted(out)


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (3, 1)])
def test_polar_cut_solves_the_filter(p, k):
    """The solved cut yields exactly the rows the filter keeps, once each,
    for gradients that vanish on some free columns (the first one among
    them), on all of them, and everywhere."""
    fld = FieldTower(p, budget=2, seed=0).level(k)
    elems = list(fld.elements())
    rng = random.Random(p * 10 + k)
    n, j = 4, 1
    vfree = [2, 3, 4]
    for trial in range(30):
        grad = [rng.choice(elems) for _ in range(n + 1)]
        if trial % 3 == 0:
            grad[vfree[0]] = fld.zero
        if trial % 5 == 0:
            for c in vfree:
                grad[c] = fld.zero
        if trial % 10 == 0:
            grad[j] = fld.zero
        got = list(_polar_cut(fld, elems, grad, j, vfree))
        assert sorted(got) == cut_by_filter(fld, grad, j, vfree)
        assert len({tuple(v) for v in got}) == len(got)


def test_polar_cut_rejects_all_when_only_pivot_gradient_survives(tower7):
    """x0^2 x1 + x1^3 + x2^3 + x3^3 at u = (1:0:0:0) with pivot j = 1: the
    gradient (0, 1, 0, 0) vanishes on the free columns 2, 3 but not at j,
    so no second row passes and no line joins u to a point (0:1:a:b)."""
    fld = tower7.level(1)
    terms = {(2, 1, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
             (0, 0, 0, 3): 1}
    X = CubicForm(fld, 3, MultiPoly.from_int_terms(fld, xvars(3), terms))
    u = [1, 0, 0, 0]
    assert on_x(X, u)
    grad = X.gradient_at(u)
    assert grad == [0, 1, 0, 0]
    assert list(_polar_cut(fld, list(fld.elements()), grad, 1, [2, 3])) == []
    census = enumerate_lines(X, tower7, with_second_type=False)
    assert not any(contains(l, u) and not fld.is_zero(l.rows[1][1])
                   for l in census.lines)
    assert [l.key() for l in census.lines] == [
        l.key() for l in naive_census(X, tower7)[0]]


def test_polar_cut_at_cone_vertex_keeps_every_row():
    """At the vertex of the cone x1^3 + x2^3 + x3^3 the gradient is zero,
    so every second row passes and the 9 lines through it are found."""
    cone, tower = cone_over_plane_cubic(7)
    fld = tower.level(1)
    vertex = [1, 0, 0, 0]
    grad = cone.gradient_at(vertex)
    assert all(fld.is_zero(g) for g in grad)
    rows = list(_polar_cut(fld, list(fld.elements()), grad, 1, [2, 3]))
    assert len(rows) == 49
    census = enumerate_lines(cone, tower, with_second_type=False)
    assert census.count == 9 and all(contains(l, vertex) for l in census.lines)


def test_every_reported_line_is_certified(monkeypatch):
    """The full substitution check runs on the rows of every reported
    line, and only on candidates whose second row is on X."""
    cubic, tower = dense_through_line(3, 4, 6)
    fld = tower.level(1)
    certified = []
    check = CubicForm.line_in_x_points

    def recording(self, a, b, fld=None):
        certified.append((tuple(a), tuple(b)))
        assert on_x(self, b)
        return check(self, a, b, fld)

    monkeypatch.setattr(CubicForm, "line_in_x_points", recording)
    census = enumerate_lines(cubic, tower, with_second_type=False)
    assert census.count > 0
    assert {l.rows for l in census.lines} <= set(certified)


def test_only_lines_reach_the_certificate(threefold7, tower7, monkeypatch):
    """F(v) and P2(u; v) decide the cut rows exactly: without the
    second-type test, the certificate runs once per line found."""
    calls = []
    check = CubicForm.line_in_x_points

    def counting(self, a, b, fld=None):
        calls.append(1)
        return check(self, a, b, fld)

    monkeypatch.setattr(CubicForm, "line_in_x_points", counting)
    census = enumerate_lines(threefold7, tower7, with_second_type=False)
    assert len(calls) == census.count == 135


def test_incidence_through_second_row():
    """Lines through e0 and e2 and through e1 and e2 share only e2, the
    point (0:1) of both parameterizations; a third line is skew to both."""
    fld = FieldTower(7, budget=2, seed=0).level(1)
    lines = [ProjLine(fld, [1, 0, 0, 0], [0, 0, 1, 0]),
             ProjLine(fld, [0, 1, 0, 0], [0, 0, 1, 0]),
             ProjLine(fld, [1, 0, 0, 1], [0, 1, 0, 3])]
    assert lines[0].rows[1] == lines[1].rows[1] == (0, 0, 1, 0)
    expected = [[int(a is not b and meets(a, b)) for b in lines] for a in lines]
    assert expected == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert incidence(fld, [l.rows for l in lines]) == expected


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2)])
def test_incidence_of_arbitrary_spans(p, k):
    """Lines given by spanning pairs that are not in echelon form (scaled,
    mixed rows): the shared-point incidence equals pairwise ranks."""
    fld = FieldTower(p, budget=2, seed=0).level(k)
    elems = list(fld.elements())
    rng = random.Random(p + k)
    n = 3
    basis = [[rng.choice(elems) for _ in range(n + 1)] for _ in range(4)]
    spans, lines = [], []
    while len(lines) < 40:
        # pairs drawn from a few fixed points, so many lines meet
        a, b = rng.sample(basis, 2)
        s, t = rng.choice(elems[1:]), rng.choice(elems)
        a = [fld.mul(s, x) for x in a]
        b = [fld.add(y, fld.mul(t, x)) for x, y in zip(a, b)]
        if all(fld.is_zero(x) for x in a) or all(fld.is_zero(x) for x in b):
            continue
        try:
            line = ProjLine(fld, a, b)
        except ValueError:
            continue
        if line in lines:
            continue
        spans.append((a, b))
        lines.append(line)
        basis.append([fld.add(x, fld.mul(t, y)) for x, y in zip(a, b)])
    expected = [[int(x is not y and meets(x, y)) for y in lines] for x in lines]
    meeting = sum(map(sum, expected)) // 2
    assert 0 < meeting < len(lines) * (len(lines) - 1) // 2
    assert incidence(fld, spans) == expected


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
    assert sample_smoothness(curve, count=20, max_level=4)
    assert len(curve.samples) == 20
    # every zero over the curve's own level 2: level 3 does not contain it
    assert sample_smoothness(curve, count=10 ** 6, max_level=3)
    assert {lv for lv, _, _ in curve.samples} == {2}


def test_discriminant_second_type_line_is_singular(threefold7, tower7):
    lvl = tower7.level(1)
    line = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    curve = discriminant_quintic(threefold7, line)
    assert curve.form.degree() == 5
    assert not sample_smoothness(curve, count=20, max_level=2)
    assert any(not s for _, _, s in curve.samples)


def test_census_and_sampling_refuse_characteristic_zero():
    with pytest.raises(ValueError, match="finite field"):
        enumerate_lines(fermat_cubic(QQ, 4), None)
    quintic = MultiPoly.from_int_terms(
        QQ, ("u0", "u1", "u2"), {(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1})
    with pytest.raises(ValueError, match="p > 0"):
        sample_smoothness(DiscriminantCurve(form=quintic, level_field=QQ))


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
