"""Workload ``cli``: each op is one fresh-interpreter run of the cubiclines
CLI, checked on its exit code and its report fields."""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys

import checks
import gen
from common import FAILED, INCOMPLETE, OK, Op, secant_status

# speed probe (probe.py): level-1 kernel; a child may run on the other
# core, so each op is rescaled by the median probe of its pass
PROBE = "int"
PROBE_WINDOW = 0
HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
ENTRY = os.path.join(HERE, "cli_entry.py")
OP_TIMEOUT_S = 120

CHOW_EXPRS = {                      # expression -> degree at e (closed form)
    "D[a]*D[a]": lambda e: e * e,
    "pair2[a]": lambda e: e * (e - 1) // 2,
    "delta[a]": lambda e: e,
    "pt": lambda e: 1,
}
RELATION_PARAMS = {"4.1": ("e", 2, 12), "4.2": ("e1", 1, 8), "4.3": ("e", 2, 12)}
RELATION_GRID = {"4.1": {"e": 11, "g": 11}, "4.2": {"e1": 8, "e2": 8, "r": 5},
                 "4.3": {"e": 11}}


def _fixture(name):
    return os.path.join(INPUTS, name + ".json")


def _read(name):
    with open(_fixture(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def generate(seed):
    """Plain data only: seeded documents and the argument lists of one pass."""
    rng = random.Random("cli:%d" % seed)
    cfg = gen.solve_config(rng, 7, 2)
    expr = sorted(CHOW_EXPRS)[rng.randrange(len(CHOW_EXPRS))]
    rel = sorted(RELATION_PARAMS)[rng.randrange(len(RELATION_PARAMS))]
    name, lo, hi = RELATION_PARAMS[rel]
    top = rng.randrange(lo, hi + 1)
    return {
        "docs": {
            "dense7_threefold": gen.random_smooth_cubic(rng, 7, 4),
            "dense11_surface": gen.random_smooth_cubic(rng, 11, 3),
            "config7": cfg["cubic"],
            "skew_a": {"e": 1, "coords": checks.line_rows_as_curve(cfg["skew"][0])},
            "skew_b": {"e": 1, "coords": checks.line_rows_as_curve(cfg["skew"][1])},
        },
        "points": cfg["points"],
        "disc_line": cfg["disjoint"],
        "chow": (expr, rng.randrange(2, 13)),
        "single": (rng.randrange(2, 13), rng.randrange(0, 11)),
        "pair": (rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 5)),
        "relation": (rel, name, lo, top),
    }


def sizes(inputs):
    return {"seeded_cubics": {k: {"p": d["p"], "n": d["n"],
                                  "monomials": len(d["monomials"])}
                              for k, d in inputs["docs"].items() if "p" in d},
            "ops_per_pass": len(_specs(inputs, "WORK"))}


def _line_arg(rows):
    return ";".join(",".join(str(int(x)) for x in r) for r in rows)


def _specs(inputs, work):
    """(kind, argv, expectation) for every op of one pass."""
    def path(name):
        return os.path.join(work, name + ".json")
    f7 = _fixture("fermat7_threefold")
    specs = [
        ("validate-cubic", ["validate-cubic", "--cubic", f7],
         _expect_smooth(_read("fermat7_threefold"))),
        ("secants", ["secants", "--cubic", f7, "--curve", _fixture("conic7")],
         _expect_secants(_read("fermat7_threefold"), [_read("conic7")], 1)),
        ("secants", ["secants", "--cubic", _fixture("fermatQ_threefold"),
                     "--curve", _fixture("conicQ")],
         _expect_secants(_read("fermatQ_threefold"), [_read("conicQ")], 1)),
        ("pair-secants", ["pair-secants", "--cubic", f7,
                          "--curve1", _fixture("line7_a"),
                          "--curve2", _fixture("line7_b")],
         _expect_secants(_read("fermat7_threefold"),
                         [_read("line7_a"), _read("line7_b")], 5)),
        ("enumerate-lines", ["enumerate-lines", "--cubic",
                             _fixture("fermat7_surface")],
         _expect_census(_read("fermat7_surface"), (27, 10))),
        ("lines-through-point", ["lines-through-point", "--cubic", f7,
                                 "--point", "1,2,3,5,0"],
         _expect_point(_read("fermat7_threefold"), [1, 2, 3, 5, 0])),
        ("chow-eval", ["chow-eval", "D[a]*D[a]", "--bind", "e=3"],
         _expect_value(9)),
        ("derive-count", ["derive-count", "--e", "4", "--g", "0"],
         _expect_value(16)),
        ("relation-check", ["relation-check", "--relation", "4.1"],
         _expect_relation(RELATION_GRID["4.1"])),
        # the README line is of second type: a singular discriminant, exit 1
        ("discriminant", ["discriminant", "--cubic", f7,
                          "--line", "1,6,0,0,0;0,0,1,6,0"],
         _expect_discriminant(must_fail=True)),
    ]
    docs = inputs["docs"]
    cfg = path("config7")
    expr, e = inputs["chow"]
    ce, cg = inputs["single"]
    e1, e2, r = inputs["pair"]
    rel, pname, lo, top = inputs["relation"]
    grid = dict(RELATION_GRID[rel], **{pname: top - lo + 1})
    specs += [
        ("validate-cubic", ["validate-cubic", "--cubic", path("dense7_threefold")],
         _expect_smooth(docs["dense7_threefold"])),
        ("validate-cubic", ["validate-cubic", "--cubic", path("dense11_surface")],
         _expect_smooth(docs["dense11_surface"])),
        ("pair-secants", ["pair-secants", "--cubic", cfg,
                          "--curve1", path("skew_a"), "--curve2", path("skew_b")],
         _expect_secants(docs["config7"], [docs["skew_a"], docs["skew_b"]], 5)),
    ]
    for pt in inputs["points"]:
        specs.append(("lines-through-point",
                      ["lines-through-point", "--cubic", cfg,
                       "--point", ",".join(map(str, pt))],
                      _expect_point(docs["config7"], pt)))
    specs += [
        ("chow-eval", ["chow-eval", expr, "--bind", "e=%d" % e],
         _expect_value(CHOW_EXPRS[expr](e))),
        ("derive-count", ["derive-count", "--e", str(ce), "--g", str(cg)],
         _expect_value(5 * ce * (ce - 3) // 2 + 6 - 6 * cg)),
        ("derive-count", ["derive-count", "--e1", str(e1), "--e2", str(e2),
                          "--r", str(r)],
         _expect_value(5 * e1 * e2 - 6 * r)),
        ("relation-check", ["relation-check", "--relation", rel,
                            "--range", "%s=%d..%d" % (pname, lo, top)],
         _expect_relation(grid)),
        ("discriminant", ["discriminant", "--cubic", cfg,
                          "--line", _line_arg(inputs["disc_line"])],
         _expect_discriminant(must_fail=False)),
    ]
    return specs


# -- expectations: report -> (status, reason, expected exit code) ----------------

_TOWERS = {}


def _modulus_fn(p):
    """Defining polynomials of the tower the CLI builds (budget 6, seed 0)."""
    if p not in _TOWERS:
        from cubiclines.fields import FieldTower
        _TOWERS[p] = FieldTower(p, budget=6, seed=0) if p else None
    tower = _TOWERS[p]
    return lambda k: tower.level(k).modulus


def _expect_smooth(doc):
    terms = gen.doc_terms(doc)

    def expect(res):
        if res["smooth_so_far"]:
            return OK, "", 0
        pt = res["singular_point"]
        k = len(pt[0]) if isinstance(pt[0], list) else 1
        K = checks.Field(doc["p"], _modulus_fn(doc["p"])(k))
        if not checks.is_singular_at(terms, [K.conv(x) for x in pt], K):
            return FAILED, "reported singular point is smooth", 1
        return OK, "", 1
    return expect


def _expect_secants(doc, curves, expected):
    terms = gen.doc_terms(doc)
    curve_list = [(c["coords"], c["e"]) for c in curves]
    single = len(curves) == 1

    def expect(res):
        problems = checks.check_secant_lines(terms, doc["p"],
                                             _modulus_fn(doc["p"]), res["lines"],
                                             curve_list, single)
        status, reason = secant_status(res, expected, problems)
        return status, reason, 0 if status == OK else 1
    return expect


def _expect_census(doc, known):
    terms = gen.doc_terms(doc)

    def expect(res):
        adj = checks.unpack_adjacency(res["adjacency"], res["count"])
        problems = checks.check_census(terms, doc["p"], doc["n"], res["lines"],
                                       adj, res["second_type"], known=known)
        return (FAILED, problems[0], 0) if problems else (OK, "", 0)
    return expect


def _expect_point(doc, point):
    terms = gen.doc_terms(doc)

    def expect(res):
        want = 0 if (res["eckardt"] or res["total_multiplicity"] == 6) else 1
        problems = checks.check_point_lines(
            terms, doc["p"], _modulus_fn(doc["p"]), point,
            [(l["level"], l["rows"]) for l in res["lines"]])
        if problems:
            return FAILED, problems[0], want
        if res["eckardt"]:
            return OK, "", want
        if not res["complete"]:
            return INCOMPLETE, "complete=False", want
        if res["total_multiplicity"] != 6:
            return FAILED, ("complete total multiplicity %d != 6, not Eckardt"
                            % res["total_multiplicity"]), want
        return OK, "", want
    return expect


def _expect_value(value):
    def expect(res):
        if res["value"] != value or res.get("formula_value", value) != value:
            return FAILED, "value %r != %r" % (res["value"], value), 0
        return OK, "", 0
    return expect


def _expect_relation(grid):
    rows_expected = 1
    for size in grid.values():
        rows_expected *= size

    def expect(res):
        if len(res["rows"]) != rows_expected:
            return FAILED, "%d rows, expected %d" % (len(res["rows"]),
                                                      rows_expected), 0
        if not res["passed"] or any(r["lhs"] != r["rhs"] for r in res["rows"]):
            return FAILED, "relation degrees differ", 0
        return OK, "", 0
    return expect


def _expect_discriminant(must_fail):
    def expect(res):
        want = 1 if must_fail else (0 if res["smooth_at_samples"] else 1)
        if (res["degree"], res["genus"], res["double_cover_genus"]) != (5, 6, 11):
            return FAILED, "degree/genus fields wrong", want
        smooth = bool(res["samples"]) and all(s["smooth"] for s in res["samples"])
        if res["smooth_at_samples"] != smooth:
            return FAILED, "smooth_at_samples disagrees with the samples", want
        return OK, "", want
    return expect


# -- ops ------------------------------------------------------------------------------

def _verify(expect, summary):
    code, stdout = summary["exit"], summary["stdout"]
    try:
        res = json.loads(stdout)["result"]
    except (ValueError, KeyError):
        return FAILED, "exit %d without a JSON report" % code
    status, reason, want = expect(res)
    if code != want and status != FAILED:
        return FAILED, "exit %d, expected %d" % (code, want)
    return status, reason


class Runner:
    """Writes the seeded input files and runs CLI children (traced or not)."""

    def __init__(self, inputs, work, src):
        self.inputs = inputs
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=src)
        self.stats_dir = None
        os.makedirs(work, exist_ok=True)
        for name, doc in inputs["docs"].items():
            with open(os.path.join(work, name + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.count = 0

    def command(self, argv):
        if self.stats_dir is None:
            return [sys.executable, "-m", "cubiclines.cli"] + argv
        self.count += 1
        out = os.path.join(self.stats_dir, "op%05d.json" % self.count)
        return [sys.executable, ENTRY, out] + argv

    def call(self, argv):
        proc = subprocess.run(self.command(argv), cwd=os.getcwd(), env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode("utf-8", "replace")

    def ops(self):
        out = []
        for kind, argv, expect in _specs(self.inputs, self.work):
            out.append(Op(kind, functools.partial(self.call, argv),
                          lambda res: {"exit": res[0], "stdout": res[1]},
                          functools.partial(_verify, expect)))
        return out


def setup(runner):
    """One warm-up run per subcommand (interpreter start, import, first use)."""
    ops = runner.ops()
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()
    return ops

