from types import SimpleNamespace

import pytest

from cubiclines.cubic import ProjLine
from cubiclines.curves import (BasePointError, NotOnXError, RationalCurve,
                               curve_from_json, curve_meeting_data,
                               line_as_curve, validate_curve)
from cubiclines.fields import QQ
from conftest import fixture_json, load_line
from oracle import conic_residual_to_line, meets


def test_conic_fixtures_validate(threefold7, conic7, threefold11, conic11,
                                 threefoldQ, conicQ):
    for X, C in ((threefold7, conic7), (threefold11, conic11),
                 (threefoldQ, conicQ)):
        rep = validate_curve(X, C, max_level=4)
        assert rep.valid, (X.field, rep)
        assert rep.e == 2


def test_curve_json_round_trip(tower7, tower11):
    """At level 1 a curve's JSON is the document it was read from."""
    for name, fld in (("conic7.json", tower7.level(1)),
                      ("line7_a.json", tower7.level(1)),
                      ("meetline7.json", tower7.level(1)),
                      ("conic11.json", tower11.level(1)),
                      ("line11_b.json", tower11.level(1)),
                      ("conicQ.json", QQ)):
        doc = {key: fixture_json(name)[key] for key in ("e", "coords")}
        assert curve_from_json(doc, fld).to_json() == doc, name


def test_curve_constructor_checks_every_path(tower7):
    """curve_from_json, line_as_curve and embed build their curves with
    the constructor, which rejects a coordinate list of the wrong length
    and an all-zero parameterization."""
    lvl = tower7.level(1)
    curve = line_as_curve(ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0]))
    for coords, message in (([[1, 0], [0, 1], [0]], "length must be e\\+1"),
                            ([[0, 0]] * 3, "zero parameterization")):
        with pytest.raises(ValueError, match=message):
            curve_from_json({"e": 1, "coords": coords}, lvl)
        curve.dense = coords
        with pytest.raises(ValueError, match=message):
            curve.embed(2)
    # a line's two rows are the coefficients of s0 and s1
    for rows, message in ((([1, 0], [0, 1], [0, 0]), "length must be e\\+1"),
                          (([0, 0], [0, 0]), "zero parameterization")):
        with pytest.raises(ValueError, match=message):
            line_as_curve(SimpleNamespace(field=lvl, rows=rows))


def test_base_point_detection(threefold7, tower7):
    # s0^2 and s0*s1 share the root s0 = 0
    bad = RationalCurve(tower7.level(1), 2,
                        [[1, 0, 0], [0, 1, 0]] + [[0, 0, 0]] * 3)
    with pytest.raises(BasePointError):
        validate_curve(threefold7, bad)


def test_off_x_detection(threefold7, tower7):
    # (s0, s1, s0, s1, s0)
    bad = RationalCurve(tower7.level(1), 1, [[1, 0], [0, 1]] * 2 + [[1, 0]])
    with pytest.raises(NotOnXError):
        validate_curve(threefold7, bad)


def test_line_as_curve_is_valid(threefold7, skew7, tower7):
    for line in skew7:
        rep = validate_curve(threefold7, line_as_curve(line))
        assert rep.valid and rep.e == 1


def test_meeting_data_skew_lines(skew7, tower7):
    l1, l2 = skew7
    md = curve_meeting_data(line_as_curve(l1), line_as_curve(l2),
                            max_level=4)
    assert md.complete and md.r == 0


def test_meeting_data_crossing_lines(tower7):
    lvl = tower7.level(1)
    l1 = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    l2 = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 0, 0, 1])
    assert meets(l1, l2)
    md = curve_meeting_data(line_as_curve(l1), line_as_curve(l2),
                            max_level=4)
    assert md.r == 1
    pt = md.points[0]
    assert pt.transversal
    # normalized so the last nonzero coordinate is one: (1,6,0,0,0) / 6
    assert pt.point == (6, 1, 0, 0, 0)


def test_meeting_data_conic_and_line(threefold7, conic7, tower7):
    doc = fixture_json("meetline7.json")
    line = curve_from_json(doc, tower7.level(1))
    md = curve_meeting_data(conic7, line, max_level=4)
    assert md.complete and md.r == 1
    assert md.all_transversal


def test_meeting_data_disjoint_conic_line(conic7, tower7):
    doc = fixture_json("disjline7.json")
    line = curve_from_json(doc, tower7.level(1))
    md = curve_meeting_data(conic7, line, max_level=4)
    assert md.complete and md.r == 0


def test_conic_residual_parameterized(threefold7, tower7):
    doc = fixture_json("conic7.json")
    lvl = tower7.level(1)
    line = load_line(doc["residual_of_line"], lvl)
    basis = doc["plane_basis"]
    res = conic_residual_to_line(threefold7, line, basis)
    assert res.kind == "parameterized"
    rep = validate_curve(threefold7, res.curve, max_level=4)
    assert rep.valid and rep.e == 2
    # the conic and the line it is residual to meet inside the plane
    md = curve_meeting_data(res.curve, line_as_curve(line), max_level=4)
    assert md.r >= 1


def test_conic_residual_double_line(threefold7, tower7):
    lvl = tower7.level(1)
    line = ProjLine(lvl, [1, 6, 0, 0, 0], [0, 0, 1, 6, 0])
    basis = [list(line.rows[0]), list(line.rows[1]), [0, 0, 0, 0, 1]]
    res = conic_residual_to_line(threefold7, line, basis)
    assert res.kind == "double_line"


def test_conic_residual_rational_case(threefoldQ):
    doc = fixture_json("conicQ.json")
    line_rows = fixture_json("conicQ.json").get("residual_of_line")
    basis = doc["plane_basis"]
    line = ProjLine(QQ, [QQ.from_int(x) for x in basis[0]],
                    [QQ.from_int(x) for x in basis[1]])
    if not threefoldQ.line_in_x(line):
        pytest.skip("fixture plane basis rows do not span a line of X")
    res = conic_residual_to_line(threefoldQ, line, basis)
    assert res.kind in ("parameterized", "no_rational_point")
