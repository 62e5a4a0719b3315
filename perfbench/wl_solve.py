"""Workload ``solve``: one solver call per op on seeded dense smooth
threefolds over GF(7) and GF(11), each built to contain what its ops need."""

from __future__ import annotations

import json
import os
import random

import checks
import gen
import kernels
from common import FAILED, INCOMPLETE, OK, Op, fresh_import, plain, secant_status

# speed probe (probe.py): extension-level kernel; ops take milliseconds,
# so each is rescaled by the probes next to it
PROBE = "ext"
PROBE_WINDOW = 2
INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")
FIELDS = (7, 11)
CONFIGS_PER_FIELD = 32
# every pass builds its cubics and curves afresh, so each op is a first
# solver call on its cubic (per-cubic caches cold, tower levels warm)
FRESH_PASSES = True
POINTS_PER_CONFIG = 1
KINDS = ("pair_skew", "single_conic", "pair_conic_disjoint",
         "correspondence_row", "lines_through_point")


def generate(seed):
    rng = random.Random("solve:%d" % seed)
    return [dict(gen.solve_config(rng, p, POINTS_PER_CONFIG), p=p)
            for p in FIELDS for _ in range(CONFIGS_PER_FIELD)]


def sizes(inputs):
    return [{"p": c["p"], "n": 4, "monomials": len(c["cubic"]["monomials"]),
             "ops": len(KINDS) - 1 + len(c["points"])} for c in inputs]


def _warmup_config():
    """The committed Fermat threefold over GF(7) with its conic and lines: the
    same warm-up for every seed."""
    def rows(name):
        return [list(r) for r in zip(*_read(name)["coords"])]
    return {"p": 7, "cubic": _read("fermat7_threefold"),
            "skew": [rows("line7_a"), rows("line7_b")],
            "conic": _read("conic7"), "disjoint": rows("disjline7"),
            "meet_once": rows("meetline7"), "points": [[1, 2, 3, 5, 0]]}


def _read(name):
    with open(os.path.join(INPUTS, name + ".json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup(inputs):
    """Import, one tower per field with levels 1..6 built, CubicForms and
    curves, one warm-up op per kind on the committed Fermat configuration."""
    fields, poly, cubic, curves, secant, fano = fresh_import(
        "fields", "poly", "cubic", "curves", "secant", "fano")
    towers = {p: kernels.build_levels(fields.FieldTower(p, budget=6, seed=0))
              for p in FIELDS}
    ops = []
    for cfg in inputs:
        ops.extend(_config_ops(cfg, towers[cfg["p"]], poly, cubic, curves,
                               secant, fano))
    for op in _config_ops(_warmup_config(), towers[7], poly, cubic, curves,
                          secant, fano):
        op.run()
    return ops


def _config_ops(cfg, tower, poly, cubic, curves, secant, fano):
    p = cfg["p"]
    lvl = tower.level(1)
    terms = gen.doc_terms(cfg["cubic"])
    X = cubic.CubicForm(lvl, 4, poly.MultiPoly.from_int_terms(
        lvl, cubic.xvars(4), terms))

    def modulus(k):
        return tower.level(k).modulus

    def line(rows):
        return cubic.ProjLine(lvl, [lvl.from_int(v) for v in rows[0]],
                              [lvl.from_int(v) for v in rows[1]])

    def as_curve(rows):
        return curves.line_as_curve(line(rows))

    conic = curves.curve_from_json(cfg["conic"], lvl)
    conic_int = (cfg["conic"]["coords"], 2)
    skew = [as_curve(r) for r in cfg["skew"]]
    disj = as_curve(cfg["disjoint"])
    meet = line(cfg["meet_once"])

    def int_line(rows):
        return (checks.line_rows_as_curve(rows), 1)

    def secant_op(kind, run, expected, curve_list, single):
        def verify(js):
            problems = checks.check_secant_lines(terms, p, modulus, js["lines"],
                                                 curve_list, single)
            return secant_status(js, expected, problems)
        return Op(kind, run, lambda rep: rep.to_json(), verify)

    ops = [
        secant_op("pair_skew",
                  lambda: secant.count_secants_pair(X, skew[0], skew[1], tower),
                  5, [int_line(r) for r in cfg["skew"]], False),
        secant_op("single_conic",
                  lambda: secant.count_secants_single(X, conic, tower),
                  1, [conic_int], True),
        secant_op("pair_conic_disjoint",
                  lambda: secant.count_secants_pair(X, conic, disj, tower),
                  10, [conic_int, int_line(cfg["disjoint"])], False),
    ]

    def row_summary(row):
        return {"row_total": row.row_total, "report": row.report.to_json(),
                "meeting": [row.meeting_level, plain(row.meeting_point)],
                "point": _ltp_summary(row.lines_at_point)}

    def row_verify(summary):
        rep, ltp = summary["report"], summary["point"]
        problems = checks.check_secant_lines(
            terms, p, modulus, rep["lines"],
            [conic_int, int_line(cfg["meet_once"])], False)
        level, point = summary["meeting"]
        if level == 1:
            problems += checks.check_point_lines(
                terms, p, modulus, point,
                [(l["level"], l["rows"]) for l in ltp["lines"]])
        status, reason = secant_status(rep, 5, problems)
        return _ltp_status(ltp) if status == OK else (status, reason)

    ops.append(Op("correspondence_row",
                  lambda: fano.correspondence_row(X, conic, meet, tower),
                  row_summary, row_verify))
    for pt in cfg["points"]:
        ops.append(_ltp_op(cubic, X, tower, lvl, pt, terms, p, modulus))
    return ops


def _ltp_summary(res):
    return {"point": plain(res.point), "eckardt": res.eckardt,
            "complete": res.complete,
            "total_multiplicity": res.total_multiplicity,
            "lines": [{"level": lv, "direction": plain(d), "multiplicity": m,
                       "rows": plain(line.rows)}
                      for (lv, d, m), line in zip(res.directions, res.lines)]}


def _ltp_status(summary):
    """Lines through a point: 6 with multiplicity unless Eckardt."""
    if summary["eckardt"]:
        return OK, ""
    if not summary["complete"]:
        return INCOMPLETE, "complete=False"
    if summary["total_multiplicity"] != 6:
        return FAILED, ("complete total multiplicity %d != 6, not Eckardt"
                        % summary["total_multiplicity"])
    return OK, ""


def _ltp_op(cubic, X, tower, lvl, pt, terms, p, modulus):
    point = [lvl.from_int(v) for v in pt]

    def verify(summary):
        problems = checks.check_point_lines(
            terms, p, modulus, pt,
            [(l["level"], l["rows"]) for l in summary["lines"]])
        return (FAILED, problems[0]) if problems else _ltp_status(summary)

    return Op("lines_through_point",
              lambda: cubic.lines_through_point(X, point, tower),
              _ltp_summary, verify)
