import random

import pytest

from cubiclines import bihom, cubic
from cubiclines.bihom import (BihomSolutions, PositiveDimensionalError,
                              _verify_solutions, divide_diagonal, lift_fibers,
                              solve_bihomog)
from cubiclines.curves import curve_from_json, curve_meeting_data, line_as_curve
from cubiclines.fields import VerificationError
from cubiclines.poly import MultiPoly
from cubiclines.secant import count_secants_pair, count_secants_single
from conftest import fixture_json
from oracle import (STVARS, dense, diagonal_form, divides_exactly,
                    lift_fibers_per_root, total_multiplicity)


def rand_biform(lvl, rng, ds, dt):
    out = {}
    for e0 in range(ds + 1):
        for e1 in range(dt + 1):
            c = rng.randrange(7)
            if c:
                out[(ds - e0, e0, dt - e1, e1)] = c
    return MultiPoly.from_int_terms(lvl, STVARS, out)


def biform_pair(lvl, rng):
    """Random forms of bidegrees (2, 1) and (1, 2), sparse and dense."""
    G1 = rand_biform(lvl, rng, 2, 1)
    G2 = rand_biform(lvl, rng, 1, 2)
    return G1, G2, dense(G1, (2, 1)), dense(G2, (1, 2))


def proj_points(lvl):
    pts = [(a, lvl.one) for a in lvl.elements()]
    pts.append((lvl.one, lvl.zero))
    return pts


def brute_zeros(G1, G2, lvl, lift):
    out = set()
    for s in proj_points(lvl):
        for t in proj_points(lvl):
            vals = list(s) + list(t)
            if lvl.is_zero(lift(G1).eval_elems(vals)) and \
                    lvl.is_zero(lift(G2).eval_elems(vals)):
                out.add((tuple(lvl.key(x) for x in s),
                         tuple(lvl.key(x) for x in t)))
    return out


def test_solver_matches_bruteforce(tower7):
    lvl = tower7.level(1)
    rng = random.Random(21)
    solved = 0
    for _ in range(40):
        G1, G2, A1, A2 = biform_pair(lvl, rng)
        if G1.is_zero() or G2.is_zero():
            continue
        try:
            sols = solve_bihomog(A1, A2, lvl, max_level=6)
        except PositiveDimensionalError:
            continue
        solved += 1
        assert total_multiplicity(sols) <= sols.total_degree
        if sols.complete and sols.certified:
            assert total_multiplicity(sols) == sols.total_degree
        for k in (1, 2):
            ext = tower7.level(k)
            lift = (lambda G: G) if k == 1 else (
                lambda G: G.map_field(ext, lambda c: ext.embed_from(c, 1)))
            brute = brute_zeros(G1, G2, ext, lift)
            mine = set()
            for lv, s, t, _m in sols.solutions:
                if k % lv:
                    continue
                slv = tower7.level(lv)
                es = [ext.embed_from(x, lv) for x in s] if lv < k else list(s)
                et = [ext.embed_from(x, lv) for x in t] if lv < k else list(t)
                if lv <= k:
                    mine.add((tuple(ext.key(x) for x in es),
                              tuple(ext.key(x) for x in et)))
            assert mine == brute, "level-%d zero sets differ" % k
    assert solved >= 20


def test_positive_dimensional_detection(tower7):
    lvl = tower7.level(1)
    delta = diagonal_form(lvl)
    other = rand_biform(lvl, random.Random(3), 1, 1)
    with pytest.raises(PositiveDimensionalError):
        solve_bihomog(dense(delta, (1, 1)), dense(delta * other, (2, 2)), lvl,
                      max_level=2)
    zero = MultiPoly.zero(lvl, STVARS)
    with pytest.raises(PositiveDimensionalError):
        solve_bihomog(dense(zero, (1, 1)), dense(delta, (1, 1)), lvl,
                      max_level=2)


def test_whole_fiber_detection(tower7):
    lvl = tower7.level(1)
    # both forms divisible by s0: the fiber {s0 = 0} is a common curve
    s0t0 = MultiPoly.from_int_terms(lvl, STVARS, {(1, 0, 1, 0): 1})
    s0t1 = MultiPoly.from_int_terms(lvl, STVARS, {(1, 0, 0, 1): 1})
    with pytest.raises(PositiveDimensionalError):
        solve_bihomog(dense(s0t0, (1, 1)), dense(s0t1, (1, 1)), lvl,
                      max_level=2)


@pytest.mark.parametrize("transpose", [False, True])
def test_forms_free_of_one_pair(tower7, transpose):
    """Two forms free of t (or, transposed, of s): a shared root of the
    other pair is a whole fiber of common zeros, and without one there
    are no common zeros at all."""
    lvl = tower7.level(1)
    shared = ([[1], [3], [2]], [[1], [1]])      # (s0+s1)(s0+2s1), s0+s1
    apart = ([[1], [3], [2]], [[1], [3]])       # ..., s0+3s1
    for (G1, G2), common in ((shared, True), (apart, False)):
        if transpose:
            G1, G2 = ([list(r) for r in zip(*G)] for G in (G1, G2))
        if common:
            with pytest.raises(PositiveDimensionalError):
                solve_bihomog(G1, G2, lvl, max_level=2)
        else:
            sols = solve_bihomog(G1, G2, lvl, max_level=2)
            assert sols.solutions == [] and sols.total_degree == 0
            assert sols.complete and sols.certified


def test_diagonal_division_sharp(tower7):
    lvl = tower7.level(1)
    delta = diagonal_form(lvl)
    G = rand_biform(lvl, random.Random(5), 1, 1)
    while G.is_zero() or divides_exactly(G, delta) is not None:
        G = rand_biform(lvl, random.Random(6), 1, 1)
    prod = delta * delta * G
    out = divide_diagonal(dense(prod, (3, 3)), 2, lvl)
    assert out == dense(G, (1, 1))
    with pytest.raises(ValueError):
        divide_diagonal(dense(delta * prod, (4, 4)), 2, lvl)


def test_solutions_sorted_and_normalized(tower7):
    lvl = tower7.level(1)
    rng = random.Random(13)
    _G1, _G2, A1, A2 = biform_pair(lvl, rng)
    sols = solve_bihomog(A1, A2, lvl, max_level=6)
    keys = []
    for lv, s, t, _m in sols.solutions:
        slv = tower7.level(lv)
        assert s[1] == slv.one or (slv.is_zero(s[1]) and s[0] == slv.one)
        assert t[1] == slv.one or (slv.is_zero(t[1]) and t[0] == slv.one)
        keys.append((lv, tuple(slv.key(x) for x in s),
                     tuple(slv.key(x) for x in t)))
    assert keys == sorted(keys)


def test_verify_solutions_rejects_bogus_solution(tower7):
    lvl = tower7.level(1)
    G = MultiPoly.from_int_terms(lvl, STVARS, {(1, 0, 1, 0): 1})
    bogus = BihomSolutions(solutions=[(1, (1, 0), (1, 0), 1)])
    with pytest.raises(VerificationError):
        _verify_solutions(bogus, (dense(G, (1, 1)),), lvl)


def binary_linear(lvl, names, root):
    """The binary form u0 - root*u1 in the pair ``names`` over GF(7)."""
    return MultiPoly.from_int_terms(lvl, names, {(1, 0): 1, (0, 1): -root})


@pytest.mark.parametrize("mult, fiber_roots, expected, certified", [
    # one fiber point takes the whole multiplicity of the resultant root
    (3, [3], [(3, 3)], True),
    # a double root over two simple fiber points: 2 * 1 / 2 each
    (2, [1, 3], [(1, 1), (3, 1)], True),
    # a triple root over two simple points: 3 * 1 / 2 is not integral, so
    # each point falls back to its fiber multiplicity, uncertified
    (3, [1, 3], [(1, 1), (3, 1)], False),
])
def test_lift_fibers_split_rule(tower7, mult, fiber_roots, expected,
                                certified):
    """The multiplicity split, driven by a fake fiber over GF(7)."""
    lvl = tower7.level(1)
    R = binary_linear(lvl, ("s0", "s1"), 2).pow(mult)
    seen = []

    def fiber(flvl, a):
        seen.append((flvl.k, a))
        g = MultiPoly.const(lvl, ("t0", "t1"), lvl.one)
        for r in fiber_roots:
            g = g * binary_linear(lvl, ("t0", "t1"), r)
        return dense(g, (len(fiber_roots),))

    sols = lift_fibers(dense(R, (mult,)), lvl, fiber)
    assert seen == [(1, (2, 1))]
    assert sols.complete and sols.total_degree == mult
    assert sols.certified is certified
    assert sols.solutions == [(1, (2, 1), (b, 1), m) for b, m in expected]


def _meeting_pair(X, conic, name):
    lc = curve_from_json(fixture_json(name), X.field)
    md = curve_meeting_data(conic, lc, max_level=4)
    return count_secants_pair(X, conic, lc, None, max_level=4, meeting=md)


def _point_lines(name, point):
    X, _ = cubic.cubic_from_json(fixture_json(name))
    return cubic.lines_through_point(X, point, None)


LIFT_CASES = {
    "conic7": lambda fx: count_secants_single(
        fx("threefold7"), fx("conic7"), None, max_level=4),
    "conic11": lambda fx: count_secants_single(
        fx("threefold11"), fx("conic11"), None, max_level=4),
    "skew7": lambda fx: count_secants_pair(
        fx("threefold7"), *map(line_as_curve, fx("skew7")), None,
        max_level=4),
    "skew11": lambda fx: count_secants_pair(
        fx("threefold11"), *map(line_as_curve, fx("skew11")), None,
        max_level=4),
    "meeting7": lambda fx: _meeting_pair(
        fx("threefold7"), fx("conic7"), "meetline7.json"),
    "meeting11": lambda fx: _meeting_pair(
        fx("threefold11"), fx("conic11"), "meetline11.json"),
    # six directions at level 6
    "dense11_point": lambda fx: _point_lines(
        "dense11_threefold.json", [4, 6, 6, 0, 8]),
    # an uncertified split (test_cubic.test_uncertified_split_is_reported)
    "solve48_point": lambda fx: _point_lines(
        "solve48_threefold.json", [8, 1, 9, 4, 4]),
}


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_orbit_lift_matches_per_root_lift(case, request, monkeypatch):
    """Every fiber lift the solvers make, run both ways: one fiber per
    Frobenius orbit, mapped to the orbit's other roots, and one fiber per
    root.  Solutions (order, levels, points, multiplicities), complete and
    certified agree, and the orbit lift lifts no more fibers."""
    orbit_lift = bihom.lift_fibers
    fibers = {"orbit": 0, "per_root": 0}

    def counted(fiber, name):
        def wrapped(lvl, a):
            fibers[name] += 1
            return fiber(lvl, a)
        return wrapped

    def both(R, fld, fiber, max_level=None):
        new = orbit_lift(R, fld, counted(fiber, "orbit"), max_level)
        old = lift_fibers_per_root(R, fld, counted(fiber, "per_root"),
                                   max_level)
        assert new.solutions == old.solutions
        assert (new.complete, new.certified, new.total_degree) == \
            (old.complete, old.certified, old.total_degree)
        return new

    monkeypatch.setattr(bihom, "lift_fibers", both)
    monkeypatch.setattr(cubic, "lift_fibers", both)
    LIFT_CASES[case](request.getfixturevalue)
    assert 0 < fibers["orbit"] <= fibers["per_root"]
    if case == "dense11_point":
        assert fibers["orbit"] < fibers["per_root"]
