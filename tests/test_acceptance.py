"""Acceptance gate: one timed pass/fail line per criterion.

Each test prints ``PASS criterion N`` with its elapsed time and asserts
both the substance of the criterion and its time budget.
"""

import json
import random
import time
from contextlib import contextmanager

from cubiclines.chow import (ChowError, ChowExpr, derive_pair_count,
                             derive_secant_count, evaluate, parse,
                             relation_degree_check)
from cubiclines.cli import main as cli_main
from cubiclines.cubic import ProjLine, lines_through_point
from cubiclines.curves import (curve_from_json, curve_meeting_data,
                               line_as_curve)
from cubiclines.fano import (correspondence_row, discriminant_quintic,
                             enumerate_lines, sample_smoothness)
from cubiclines.fields import QQ
from cubiclines.secant import count_secants_pair, count_secants_single
from conftest import fixture_json, fixture_path, load_line
from oracle import (_proj_points, is_smooth_point, level1_census, meet_counts,
                    on_x, oracle_disjoint_pair, oracle_meeting_pair,
                    oracle_single, oracle_skew_pair, report_level1_keys)
from test_chow import PROD_ATOMS, SYM_ATOMS, fold, rand_atoms, rfold
from test_fano import find_first_type_line
from test_fields import rand_elem


@contextmanager
def criterion(num, desc, limit):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    line = "PASS criterion %d: %s (%.2fs <= %ds)" % (num, desc, elapsed, limit)
    print(line)
    assert elapsed <= limit, line.replace("PASS", "TIME FAIL")


def test_criterion_01_conic_single_secant(threefold7, conic7, tower7,
                                          threefoldQ, conicQ):
    with criterion(1, "conic has one secant, the residual line, "
                      "over GF(7) and over the rationals", 5):
        rep7 = count_secants_single(threefold7, conic7, tower7, max_level=4)
        assert rep7.well_positioned and rep7.distinct_count == 1
        res7 = load_line(fixture_json("conic7.json")["residual_of_line"],
                         tower7.level(1))
        assert rep7.lines[0].level == 1 and rep7.lines[0].line == res7
        repQ = count_secants_single(threefoldQ, conicQ, tower=None)
        assert repQ.well_positioned and repQ.distinct_count == 1
        resQ = ProjLine(QQ, *[[QQ.from_int(x) for x in row] for row in
                              fixture_json("conicQ.json")["residual_of_line"]])
        assert repQ.lines[0].line == resQ


def test_criterion_02_skew_lines(threefold7, skew7, tower7):
    with criterion(2, "two skew lines have exactly 5 transversals on X", 5):
        l1, l2 = skew7
        rep = count_secants_pair(threefold7, line_as_curve(l1),
                                 line_as_curve(l2), tower7, max_level=6)
        assert rep.expected == 5 and rep.well_positioned


def test_criterion_03_line_conic_pairs(threefold7, conic7, tower7):
    with criterion(3, "line/conic pairs: disjoint gives 10, meeting once "
                      "gives 5 with multiplicity", 10):
        lvl = tower7.level(1)
        disj = curve_from_json(fixture_json("disjline7.json"), lvl)
        rep = count_secants_pair(threefold7, conic7, disj, tower7,
                                 max_level=6)
        assert rep.expected == 10 and rep.well_positioned
        meet = curve_from_json(fixture_json("meetline7.json"), lvl)
        rep2 = count_secants_pair(threefold7, conic7, meet, tower7,
                                  max_level=6)
        assert rep2.expected == 5
        assert rep2.outcome == "ok" and rep2.complete
        assert rep2.count_with_multiplicity == 5
        assert rep2.excision_consistent


def test_criterion_04_surface_27_lines(surface7, tower7):
    with criterion(4, "the cubic surface has 27 lines over GF(7), "
                      "each meeting 10 others", 60):
        census = enumerate_lines(surface7, tower7, level=1)
        assert census.count == 27
        assert meet_counts(census) == [10] * 27


def test_criterion_05_point_multiplicities(threefold7, tower7):
    with criterion(5, "50 random non-special smooth points carry 6 lines "
                      "with multiplicity; (1,-1,0,0,0) is flagged special",
                   60):
        lvl = tower7.level(1)
        pts = [p for p in _proj_points(lvl, 4)
               if on_x(threefold7, p) and is_smooth_point(threefold7, p)]
        rng = random.Random(5)
        rng.shuffle(pts)
        checked = 0
        for p in pts:
            res = lines_through_point(threefold7, p, tower7, max_level=6)
            if res.eckardt:
                continue
            assert res.complete and res.total_multiplicity == 6, p
            checked += 1
            if checked >= 50:
                break
        assert checked >= 50
        special = lines_through_point(threefold7, [1, 6, 0, 0, 0], tower7)
        assert special.eckardt


def test_criterion_06_derived_counts():
    with criterion(6, "intersection calculus derives N(e,g) and the pair "
                      "count over the full ranges", 5):
        for e in range(2, 13):
            for g in range(0, 11):
                value, trace = derive_secant_count(e, g)
                assert value == 5 * e * (e - 3) // 2 + 6 - 6 * g
                assert trace
        for e1 in range(1, 9):
            for e2 in range(1, 9):
                for r in range(0, 5):
                    value, _tr = derive_pair_count(e1, e2, r)
                    assert value == 5 * e1 * e2 - 6 * r


def test_criterion_07_relation_degrees():
    with criterion(7, "all three cycle-relation degree checks pass over "
                      "their ranges", 5):
        for rel in ("4.1", "4.2", "4.3"):
            out = relation_degree_check(rel)
            assert out["passed"] and out["rows"]


def test_criterion_08_discriminant_quintic(threefold7, tower7):
    with criterion(8, "a general line gives a degree-5 discriminant, smooth "
                      "at 20 sampled zeros; double cover genus 11 recorded",
                   10):
        line = find_first_type_line(threefold7, tower7)
        curve = discriminant_quintic(threefold7._over(line.field), line)
        assert curve.form.degree() == 5
        assert {sum(e) for e in curve.form.terms} == {5}
        assert sample_smoothness(curve, count=20, max_level=4)
        assert len(curve.samples) == 20
        assert curve.genus == 6
        assert curve.double_cover_genus == 2 * 6 - 1 == 11


def test_criterion_09_row_sums(threefold7, conic7, tower7):
    with criterion(9, "10 sampled lines meeting the conic once all have "
                      "row total 5", 60):
        lvl = tower7.level(1)
        rows = fixture_json("conic7_lines.json")["meet_once"]
        rng = random.Random(9)
        for r in rng.sample(rows, 10):
            line = ProjLine(lvl, r[0], r[1])
            row = correspondence_row(threefold7, conic7, line, tower7,
                                     max_level=4)
            assert row.row_total == 5
            assert row.report.excision_consistent


def test_criterion_10_bruteforce_oracle(threefold7, conic7, tower7, skew7,
                                        threefold11, conic11, tower11,
                                        skew11):
    with criterion(10, "every level-1 secant list agrees line-for-line with "
                       "an exhaustive line scan over GF(7) and GF(11)", 600):
        for X, conic, tw, skew, prefix in (
                (threefold7, conic7, tower7, skew7, "7"),
                (threefold11, conic11, tower11, skew11, "11")):
            lvl = tw.level(1)
            census = level1_census(X, tw)
            # single-curve secants of the conic
            rep = count_secants_single(X, conic, tw, max_level=6)
            assert report_level1_keys(rep) == oracle_single(census, conic)
            # transversals of the skew line pair
            l1, l2 = skew
            rep = count_secants_pair(X, line_as_curve(l1), line_as_curve(l2),
                                     tw, max_level=6)
            assert report_level1_keys(rep) == \
                oracle_skew_pair(census, l1, l2)
            # conic and a line meeting it once
            lc = curve_from_json(fixture_json("meetline%s.json" % prefix),
                                 lvl)
            line = ProjLine(lvl, lc.point_at([lvl.one, lvl.zero]),
                            lc.point_at([lvl.zero, lvl.one]))
            md = curve_meeting_data(conic, lc, max_level=6)
            rep = count_secants_pair(X, conic, lc, tw, max_level=6,
                                     meeting=md)
            mp = md.points[0]
            tang = conic.tangent_rows_at(list(mp.s_params[0]), lvl)
            assert report_level1_keys(rep) == \
                oracle_meeting_pair(census, conic, line, mp.point, tang)
            if prefix == "7":
                # conic and a disjoint line
                dc = curve_from_json(fixture_json("disjline7.json"), lvl)
                dline = ProjLine(lvl, dc.point_at([lvl.one, lvl.zero]),
                                 dc.point_at([lvl.zero, lvl.one]))
                rep = count_secants_pair(X, conic, dc, tw, max_level=6)
                assert report_level1_keys(rep) == \
                    oracle_disjoint_pair(census, conic, dline)


def test_criterion_11_property_suites(tower7, tmp_path):
    with criterion(11, "confluence, field axioms, substitution soundness "
                       "and byte-identical determinism", 120):
        # confluence: 1000 random expressions, any evaluation order
        rng = random.Random(99)
        for trial in range(1000):
            pool = SYM_ATOMS if trial % 2 == 0 else PROD_ATOMS
            op = (lambda a, b: a + b) if trial % 3 == 0 else \
                (lambda a, b: a * b)
            atoms = rand_atoms(rng, pool, rng.randrange(2, 5))
            shuffled = atoms[:]
            rng.shuffle(shuffled)
            assert fold(op, atoms) == rfold(op, atoms) == fold(op, shuffled)
        # field axioms: 1000 random triples at every level up to 4
        for k in range(1, 5):
            lvl = tower7.level(k)
            frng = random.Random(4000 + k)
            for _ in range(1000):
                a, b, c = (rand_elem(lvl, frng) for _ in range(3))
                assert lvl.mul(a, lvl.add(b, c)) \
                    == lvl.add(lvl.mul(a, b), lvl.mul(a, c))
                assert lvl.add(a, lvl.add(b, c)) == lvl.add(lvl.add(a, b), c)
                assert lvl.mul(a, lvl.mul(b, c)) == lvl.mul(lvl.mul(a, b), c)
                if not lvl.is_zero(a):
                    assert lvl.mul(a, lvl.inv(a)) == lvl.one
        # substitution soundness: re-parsing a normal form never changes
        # the evaluated value
        srng = random.Random(321)
        bindings = {"e": 4, "g": 1, "e1": 2, "e2": 3, "r": 2, "N": 5}
        sound = 0
        for trial in range(100):
            pool = SYM_ATOMS if trial % 2 == 0 else PROD_ATOMS
            atoms = rand_atoms(srng, pool, srng.randrange(2, 4))
            expr = atoms[0]
            for x in atoms[1:]:
                expr = expr * x if srng.random() < 0.5 else expr + x
            if expr.g1:
                # evaluation is only defined without a grade-1 part
                expr = ChowExpr(g0=expr.g0, g2=expr.g2)
            def safe_eval(x):
                try:
                    return evaluate(x, bindings)
                except ChowError as ex:
                    return ("non-integer", str(ex))
            sound += (safe_eval(expr) == safe_eval(parse(expr.to_str())))
        assert sound == 100
        # determinism: identical inputs give byte-identical outputs
        assert derive_secant_count(7, 3) == derive_secant_count(7, 3)
        paths = [tmp_path / ("det%d.json" % i) for i in range(2)]
        for p in paths:
            code = cli_main(["--output", str(p), "secants",
                             "--cubic", fixture_path("fermat7_threefold.json"),
                             "--curve", fixture_path("conic7.json")])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
