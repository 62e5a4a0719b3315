"""A level carries its tower: the entry points accept no other one, and no
function below them takes a tower at all."""

import inspect

import pytest

from cubiclines import (bihom, chow, cli, cubic, curves, fano, fields, linalg,
                        poly, secant)
from cubiclines.cubic import ProjLine
from cubiclines.curves import curve_from_json, line_as_curve
from cubiclines.fields import FieldTower
from conftest import fixture_json

MODULES = (bihom, chow, cli, cubic, curves, fano, fields, linalg, poly, secant)

# the five entry points (a tower passed there must be the input's), the
# check they share, and the constructor of a level
TAKES_TOWER = {
    "secant.count_secants_single",
    "secant.count_secants_pair",
    "fano.correspondence_row",
    "cubic.lines_through_point",
    "fano.enumerate_lines",
    "fields.check_tower",
    "fields.FiniteLevel.__init__",
}


def _functions(mod):
    """(qualified name, function) for the functions and methods of mod."""
    short = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield "%s.%s" % (short, name), obj
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                val = getattr(val, "__func__", getattr(val, "fget", val))
                if inspect.isfunction(val):
                    yield "%s.%s.%s" % (short, name, attr), val


def test_only_entry_points_take_a_tower():
    found = {name for mod in MODULES for name, fn in _functions(mod)
             if "tower" in inspect.signature(fn).parameters}
    assert found <= TAKES_TOWER, sorted(found - TAKES_TOWER)


def _meeting_line(lvl):
    lc = curve_from_json(fixture_json("meetline7.json"), lvl)
    return ProjLine(lvl, lc.point_at([lvl.one, lvl.zero]),
                    lc.point_at([lvl.zero, lvl.one]))


ENTRY_CALLS = {
    "count_secants_single":
        lambda X, C, tw: secant.count_secants_single(X, C, tw),
    "count_secants_pair_disjoint":
        lambda X, C, tw: secant.count_secants_pair(
            X, C, curve_from_json(fixture_json("disjline7.json"), X.field),
            tw),
    "count_secants_pair_meeting":
        lambda X, C, tw: secant.count_secants_pair(
            X, C, line_as_curve(_meeting_line(X.field)), tw),
    "correspondence_row":
        lambda X, C, tw: fano.correspondence_row(
            X, C, _meeting_line(X.field), tw),
    "lines_through_point":
        lambda X, C, tw: cubic.lines_through_point(X, [1, 1, 3, 3, 0], tw),
    "enumerate_lines":
        lambda X, C, tw: fano.enumerate_lines(X, tw, level=1),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_CALLS))
def test_entry_points_reject_another_tower(entry, threefold7, conic7):
    """Same p, budget and level numbers, but other defining polynomials:
    reading the solver's levels in this tower would give wrong counts."""
    other = FieldTower(7, budget=6, seed=1)
    with pytest.raises(ValueError, match="is not the tower of"):
        ENTRY_CALLS[entry](threefold7, conic7, other)
