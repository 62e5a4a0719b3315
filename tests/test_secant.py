import os
import subprocess
import sys

import pytest

from cubiclines.cubic import ProjLine
from cubiclines.curves import curve_from_json, curve_meeting_data, line_as_curve
from cubiclines.fields import QQ, VerificationError
from cubiclines.secant import (_assert_secant_line, count_secants_pair,
                               count_secants_single,
                               expected_line_meeting, expected_pair,
                               expected_single)
from conftest import fixture_json, fixture_path, load_line
from oracle import (oracle_disjoint_pair, oracle_meeting_pair, oracle_single,
                    oracle_skew_pair, report_level1_keys, scheme_length,
                    secant_multiplicity)


def line_of_curve(curve):
    lvl = curve.field
    return ProjLine(lvl, curve.point_at([lvl.one, lvl.zero]),
                    curve.point_at([lvl.zero, lvl.one]))


def test_expected_formulas():
    assert expected_single(2, 0) == 1
    assert expected_single(3, 0) == 6
    assert expected_single(5, 0) == 31
    assert expected_single(3, 1) == 0
    assert expected_pair(1, 1, 0) == 5
    assert expected_pair(2, 1, 0) == 10
    assert expected_pair(2, 3, 1) == 24
    assert expected_line_meeting(2) == 5


def test_single_conic_f7(threefold7, conic7, tower7):
    report = count_secants_single(threefold7, conic7, tower7, max_level=4)
    assert report.outcome == "ok" and report.well_positioned
    assert report.expected == 1 and report.distinct_count == 1
    residual = load_line(fixture_json("conic7.json")["residual_of_line"],
                         tower7.level(1))
    rec = report.lines[0]
    assert rec.level == 1 and rec.line == residual


def test_single_conic_rational(threefoldQ, conicQ):
    report = count_secants_single(threefoldQ, conicQ, tower=None)
    assert report.outcome == "ok" and report.well_positioned
    assert report.distinct_count == 1
    line = report.lines[0].line
    assert threefoldQ.line_in_x(line)
    assert scheme_length(line, conicQ) == 2


def test_single_conic_oracle_f7(threefold7, conic7, tower7, census7):
    report = count_secants_single(threefold7, conic7, tower7, max_level=4)
    assert report_level1_keys(report) == oracle_single(census7, conic7)


def test_single_rejects_line(threefold7, skew7, tower7):
    with pytest.raises(ValueError):
        count_secants_single(threefold7, line_as_curve(skew7[0]), tower7)


def test_skew_lines_f7(threefold7, skew7, tower7, census7):
    l1, l2 = skew7
    report = count_secants_pair(threefold7, line_as_curve(l1),
                                line_as_curve(l2), tower7, max_level=4)
    assert report.expected == 5 and report.well_positioned
    assert report_level1_keys(report) == oracle_skew_pair(census7, l1, l2)


def test_skew_lines_f11(threefold11, skew11, tower11, census11):
    l1, l2 = skew11
    report = count_secants_pair(threefold11, line_as_curve(l1),
                                line_as_curve(l2), tower11, max_level=4)
    assert report.expected == 5 and report.well_positioned
    assert report_level1_keys(report) == oracle_skew_pair(census11, l1, l2)


def test_meeting_lines_rejected(threefold7, tower7):
    lvl = tower7.level(1)
    l1 = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    l2 = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        count_secants_pair(threefold7, line_as_curve(l1), line_as_curve(l2),
                           tower7, max_level=4)


def test_disjoint_conic_line_f7(threefold7, conic7, tower7, census7):
    lc = curve_from_json(fixture_json("disjline7.json"), tower7.level(1))
    report = count_secants_pair(threefold7, conic7, lc, tower7, max_level=6)
    assert report.expected == 10 and report.well_positioned
    line = line_of_curve(lc)
    assert report_level1_keys(report) == \
        oracle_disjoint_pair(census7, conic7, line)


def test_meeting_conic_line_f7(threefold7, conic7, tower7, census7):
    lvl = tower7.level(1)
    lc = curve_from_json(fixture_json("meetline7.json"), lvl)
    line = line_of_curve(lc)
    md = curve_meeting_data(conic7, lc, max_level=4)
    assert md.r == 1
    report = count_secants_pair(threefold7, conic7, lc, tower7, max_level=4,
                                meeting=md)
    assert report.expected == 5
    assert report.outcome == "ok" and report.complete
    assert report.count_with_multiplicity == 5
    assert report.excision_consistent
    mp = md.points[0]
    rows = conic7.tangent_rows_at(list(mp.s_params[0]), lvl)
    expected = oracle_meeting_pair(census7, conic7, line, mp.point, rows)
    assert report_level1_keys(report) == expected


def test_meeting_conic_line_f11(threefold11, conic11, tower11, census11):
    lvl = tower11.level(1)
    lc = curve_from_json(fixture_json("meetline11.json"), lvl)
    line = line_of_curve(lc)
    md = curve_meeting_data(conic11, lc, max_level=4)
    assert md.r == 1
    report = count_secants_pair(threefold11, conic11, lc, tower11,
                                max_level=4, meeting=md)
    assert report.expected == 5
    assert report.count_with_multiplicity == 5
    mp = md.points[0]
    rows = conic11.tangent_rows_at(list(mp.s_params[0]), lvl)
    expected = oracle_meeting_pair(census11, conic11, line, mp.point, rows)
    assert report_level1_keys(report) == expected


def test_secant_multiplicity_lookup(threefold7, conic7, tower7):
    lvl = tower7.level(1)
    residual = load_line(fixture_json("conic7.json")["residual_of_line"], lvl)
    assert secant_multiplicity(threefold7, conic7, residual, max_level=4) == 1
    other = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    assert secant_multiplicity(threefold7, conic7, other, max_level=4) == 0


def test_report_json_shape(threefold7, conic7, tower7):
    report = count_secants_single(threefold7, conic7, tower7, max_level=4)
    doc = report.to_json()
    assert doc["schema"] == "secant-report/1"
    assert doc["distinct_count"] == len(doc["lines"]) == 1
    assert doc["well_positioned"] is True


def test_secant_line_check_rejects_line_off_x(threefold7, tower7):
    lvl = tower7.level(1)
    off = ProjLine(lvl, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    with pytest.raises(VerificationError):
        _assert_secant_line(threefold7, off)


OPTIMIZED_CHECKS = """
import json
import os
from types import SimpleNamespace

from cubiclines import bihom, cubic, fano, fields, poly, secant
from cubiclines.bihom import BihomSolutions, _verify_solutions
from cubiclines.cubic import ProjLine
from cubiclines.curves import curve_from_json
from cubiclines.fields import FieldTower, VerificationError
from cubiclines.poly import _exact_quo
from cubiclines.secant import _assert_secant_line
from oracle import fermat_cubic

if __debug__:
    raise SystemExit("not running under -O")
tower = FieldTower(7, budget=2, seed=0)
lvl = tower.level(1)
# s0*t0, s0^2 + s1^2 and the diagonal s0*t1 - s1*t0 as dense arrays
G = [[1, 0], [0, 0]]
circle = [[1], [0], [1]]
delta = [[0, 1], [6, 0]]
off = ProjLine(lvl, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])


def orbit_with_identity_frob():
    # the roots of x^2 + 1 over GF(7) with r -> r^7 replaced by the identity:
    # one root twice, which the orbit certificate must refuse
    frob = fields.FiniteLevel.frob
    fields.FiniteLevel.frob = lambda self, a, times=1: a
    try:
        poly.roots_in_tower([1, 0, 1], lvl)
    finally:
        fields.FiniteLevel.frob = frob


def lines_through_point_with_wrong_solver():
    # a conic/cubic solver answering a direction off the pair: the line
    # certificate of the line through the point must refuse it
    solve = cubic._solve_conic_cubic
    cubic._solve_conic_cubic = lambda X, x, gx, dirs, max_level, seed: (
        [(1, [0, 0, 0, 0, 1], 1)], True, True)
    try:
        cubic.lines_through_point(fermat_cubic(lvl, 4), [1, 1, 3, 3, 0], tower)
    finally:
        cubic._solve_conic_cubic = solve


def fiber_map_with_wrong_power():
    # fiber points over sigma^j(a) taken as sigma^(j+1) of those over a:
    # over the conjugate root -i of s0^2 + s1^2 = 0, the diagonal's fiber
    # point becomes i, and the substitution check must refuse (-i, i)
    map_fiber = bihom._map_fiber
    bihom._map_fiber = lambda pts, s, fld: map_fiber(pts, s + fld.level, fld)
    try:
        bihom.solve_bihomog(circle, delta, lvl)
    finally:
        bihom._map_fiber = map_fiber


def secant_line_with_only_p2():
    # on the Fermat GF(7) surface F(s0*a + s1*b) has the one nonzero
    # coefficient P2(a;b) for these rows: the certificate must see it
    with open(os.path.join(FIXTURES, "fermat7_surface.json")) as fh:
        surface = cubic.cubic_from_json(json.load(fh))[0]
    rows = ([2, 5, 6, 4], [3, 5, 1, 1])
    _assert_secant_line(surface, SimpleNamespace(rows=rows,
                                                 field=surface.field))


def second_type_line_off_x():
    # a second-type search answering a line off X where the conic and the
    # line of a dense GF(7) configuration meet, with multiplicity left
    # over there: the certificate must refuse the reported line
    def load(name):
        with open(os.path.join(FIXTURES, name)) as fh:
            return json.load(fh)
    X = cubic.cubic_from_json(load("solve0_threefold.json"))[0]
    fld = X.field
    conic = curve_from_json(load("solve0_conic.json"), fld)
    meet = curve_from_json(load("solve0_meetline.json"), fld)
    wrong = ProjLine(fld, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    search = secant._second_type_lines
    secant._second_type_lines = lambda *args: [wrong]
    try:
        secant.count_secants_pair(X, conic, meet)
    finally:
        secant._second_type_lines = search


checks = (
    lambda: _verify_solutions(BihomSolutions(solutions=[(1, (1, 0), (1, 0), 1)]),
                              (G,), lvl),
    lambda: _assert_secant_line(fermat_cubic(lvl, 4), off),
    lambda: _exact_quo([1, 0, 1], [1, 1], lvl),
    lambda: fano.correspondence_row(fermat_cubic(lvl, 4), conic, meet, tower),
    orbit_with_identity_frob,
    lines_through_point_with_wrong_solver,
    fiber_map_with_wrong_power,
    secant_line_with_only_p2,
    second_type_line_off_x,
)
# a wrong closed form makes the (correct) row total fail its check
fano.expected_line_meeting = lambda e: 5 * e - 4
with open(os.path.join(FIXTURES, "conic7.json")) as fh:
    conic = curve_from_json(json.load(fh), lvl)
with open(os.path.join(FIXTURES, "conic7_lines.json")) as fh:
    rows = json.load(fh)["meet_once"][0]
meet = ProjLine(lvl, *rows)
caught = 0
for check in checks:
    try:
        check()
    except VerificationError:
        caught += 1
print(caught)
"""


def test_verification_checks_survive_optimize():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(tests, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    code = "FIXTURES = %r\n" % fixture_path("") + OPTIMIZED_CHECKS
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "9"


def test_acceptance_suite_under_optimize():
    """The acceptance criteria hold with assert statements compiled away."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join("tests", "test_acceptance.py")],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
