import json
import os

import pytest

from cubiclines.cubic import CubicForm, ProjLine, cubic_from_json
from cubiclines.curves import curve_from_json, line_as_curve
from cubiclines.fields import QQ, FieldTower
from oracle import fermat_cubic

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_json(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def tower7():
    return FieldTower(7, budget=6, seed=0)


@pytest.fixture(scope="session")
def tower11():
    return FieldTower(11, budget=6, seed=0)


@pytest.fixture(scope="session")
def threefold7(tower7):
    return fermat_cubic(tower7.level(1), 4)


@pytest.fixture(scope="session")
def surface7(tower7):
    return fermat_cubic(tower7.level(1), 3)


@pytest.fixture(scope="session")
def threefold11(tower11):
    return fermat_cubic(tower11.level(1), 4)


@pytest.fixture(scope="session")
def threefoldQ():
    return fermat_cubic(QQ, 4)


@pytest.fixture(scope="session")
def conic7(threefold7):
    return curve_from_json(fixture_json("conic7.json"), threefold7.field)


@pytest.fixture(scope="session")
def conic11(threefold11):
    return curve_from_json(fixture_json("conic11.json"), threefold11.field)


@pytest.fixture(scope="session")
def conicQ():
    return curve_from_json(fixture_json("conicQ.json"), QQ)


@pytest.fixture(scope="session")
def census7(threefold7, tower7):
    from cubiclines.fano import enumerate_lines
    return enumerate_lines(threefold7, tower7, level=1, with_second_type=False)


@pytest.fixture(scope="session")
def census11(threefold11, tower11):
    from cubiclines.fano import enumerate_lines
    return enumerate_lines(threefold11, tower11, level=1,
                           with_second_type=False)


def load_line(doc_rows, fld):
    a, b = doc_rows
    return ProjLine(fld, [fld.from_int(x) for x in a],
                    [fld.from_int(x) for x in b])


@pytest.fixture(scope="session")
def skew7(threefold7):
    rows = fixture_json("skew_lines7.json")["lines"]
    return [load_line(r, threefold7.field) for r in rows]


@pytest.fixture(scope="session")
def skew11(threefold11):
    rows = fixture_json("skew_lines11.json")["lines"]
    return [load_line(r, threefold11.field) for r in rows]


@pytest.fixture(scope="session")
def conic7_lines(threefold7):
    doc = fixture_json("conic7_lines.json")
    fld = threefold7.field
    return {"meet_once": [load_line(r, fld) for r in doc["meet_once"]],
            "disjoint": [load_line(r, fld) for r in doc["disjoint"]]}


@pytest.fixture(scope="session")
def conic11_lines(threefold11):
    doc = fixture_json("conic11_lines.json")
    fld = threefold11.field
    return {"meet_once": [load_line(r, fld) for r in doc["meet_once"]],
            "disjoint": [load_line(r, fld) for r in doc["disjoint"]]}
