"""The zero scan ``cubic._proj_zeros`` against the points of
``oracle._proj_points`` filtered by the element-loop evaluation of ``oracle``, in
the same order, and the number of substitutions and evaluations that the
smoothness probe makes with it."""

import collections
import itertools
import random

import pytest

from cubiclines.cubic import (CubicForm, _proj_zeros, cubic_from_json,
                              smoothness_probe)
from cubiclines.fields import FieldTower
from cubiclines.poly import MultiPoly
from conftest import fixture_json
import oracle
from oracle import _proj_points

# (p, level, n): every point of P^n at these levels is tested
SPACES = [(3, 1, 4), (7, 1, 4), (5, 1, 2), (5, 2, 2), (3, 2, 3), (2, 3, 2)]

_TOWERS = {}


def level(p, k):
    if p not in _TOWERS:
        _TOWERS[p] = FieldTower(p, budget=6, seed=0)
    return _TOWERS[p].level(k)


def filtered(form, lvl, n):
    return [pt for pt in _proj_points(lvl, n)
            if lvl.is_zero(oracle.eval_elems(form, pt))]


def scan_forms(lvl, n, rng):
    """Random forms of degree 1, 2, 3 and 5 (dense and sparse), forms from
    the prime field, the zero form, and x_n (x_0 - 2 x_n)(x_0 + x_1), which
    vanishes on whole groups: on every point with x_n = 0, and where
    x_n = 1 and x_0 = 2 (for n = 2, the group (2, t, 1))."""
    V = tuple("x%d" % i for i in range(n + 1))

    def elem():
        return lvl.from_coeffs([rng.randrange(lvl.p) for _ in range(lvl.k)])

    def monomials(d):
        return [e for e in itertools.product(range(d + 1), repeat=n + 1)
                if sum(e) == d]

    forms = []
    for d in (1, 2, 3, 5):
        mons = monomials(d)
        forms.append(MultiPoly(lvl, V, {e: elem() for e in mons}))
        forms.append(MultiPoly(lvl, V, {e: elem()
                                        for e in rng.sample(mons, 3)}))
    base = lvl.tower.level(1)
    forms.append(MultiPoly.from_int_terms(
        base, V, {e: rng.randrange(lvl.p) for e in monomials(3)}).over(lvl))
    forms.append(MultiPoly.zero(lvl, V))
    x = [MultiPoly.var(lvl, V, v) for v in V]
    two = MultiPoly.const(lvl, V, lvl.from_int(2))
    forms.append(x[n] * (x[0] - two * x[n]) * (x[0] + x[1]))
    return forms


@pytest.mark.parametrize("p,k,n", SPACES)
def test_zero_scan_is_the_filtered_point_list(p, k, n):
    lvl = level(p, k)
    rng = random.Random("scan:%d:%d:%d" % (p, k, n))
    for form in scan_forms(lvl, n, rng):
        assert list(_proj_zeros(form, lvl, n)) == filtered(form, lvl, n), form


def test_zero_scan_yields_every_point_of_a_vanishing_group():
    lvl = level(5, 1)
    V = ("x0", "x1", "x2")
    x = [MultiPoly.var(lvl, V, v) for v in V]
    two = MultiPoly.const(lvl, V, lvl.from_int(2))
    form = x[2] * (x[0] - two * x[2]) * (x[0] + x[1])
    zeros = list(_proj_zeros(form, lvl, 2))
    assert [pt for pt in zeros if pt[0] == 2 and pt[2] == 1] \
        == [[2, t, 1] for t in range(5)]
    # x2 = 0: the group (t, 1, 0) and the point (1, 0, 0)
    assert zeros[-6:] == [[t, 1, 0] for t in range(5)] + [[1, 0, 0]]
    assert list(_proj_zeros(MultiPoly.zero(lvl, V), lvl, 2)) \
        == list(_proj_points(lvl, 2))


def test_probe_substitutes_once_per_group(monkeypatch):
    """On the Fermat GF(7) threefold, the exhaustive level-1 probe restricts
    F once per group, 7^3 + 7^2 + 7 + 1 = 400, evaluates F at e_0
    alone, and takes the gradient at the 435 points of X(F_7) only; a scan
    that falls back to one evaluation per point fails here."""
    X = cubic_from_json(fixture_json("fermat7_threefold.json"))[0]
    calls = collections.Counter()
    for cls, name in ((MultiPoly, "restrict"), (MultiPoly, "eval_elems"),
                      (CubicForm, "gradient_at")):
        def counted(*args, _orig=getattr(cls, name), _name=name, **kw):
            calls[_name] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(cls, name, counted)
    cert = smoothness_probe(X, max_level=1)
    assert cert.smooth_so_far and cert.levels_exhausted == [1]
    assert calls == {"restrict": 400, "eval_elems": 1, "gradient_at": 435}
