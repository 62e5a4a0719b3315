"""Workload ``census``: exhaustive level-1 line censuses with the CLI
defaults (second-type test on)."""

from __future__ import annotations

import random

import checks
import gen
from common import FAILED, OK, Op, fresh_import
from spans import line_space_size

# speed probe (probe.py): level-1 kernel; each op is rescaled by the probes
# just before and after it, which follow the machine's fast and slow phases
PROBE = "int"
PROBE_WINDOW = 1
# (p, n, copies) of the seeded dense cubics in one pass, cheapest first
MIX = ((7, 3, 2), (11, 3, 2), (13, 3, 1), (5, 4, 1))
KNOWN = {"fermat7_surface": (27, 10), "fermat7_threefold": (135, None)}


def generate(seed):
    rng = random.Random("census:%d" % seed)
    inputs = []
    for p, n, copies in MIX:
        for i in range(copies):
            inputs.append({"name": "dense%d_%s%d" % (p, "sf"[n - 3], i),
                           "doc": gen.random_smooth_cubic(rng, p, n)})
    inputs.append({"name": "fermat7_surface", "doc": gen.fermat_doc(7, 3)})
    inputs.append({"name": "fermat7_threefold", "doc": gen.fermat_doc(7, 4)})
    return inputs


def sizes(inputs):
    return [{"input": i["name"], "p": i["doc"]["p"], "n": i["doc"]["n"],
             "level": 1,
             "candidates": line_space_size(i["doc"]["p"], i["doc"]["n"])}
            for i in inputs]


def setup(inputs):
    """Import, one CubicForm and tower per input, one warm-up census."""
    cubic, fano = fresh_import("cubic", "fano")
    ops = []
    for inp in inputs:
        X, tower = cubic.cubic_from_json(inp["doc"])
        ops.append(_op(fano, X, tower, inp))
    warm = next(op for op, inp in zip(ops, inputs)
                if inp["name"] == "fermat7_surface")
    warm.run()
    return ops


def _op(fano, X, tower, inp):
    doc = inp["doc"]
    terms = gen.doc_terms(doc)

    def run():
        return fano.enumerate_lines(X, tower, level=1, with_second_type=True)

    def verify(js):
        adj = checks.unpack_adjacency(js["adjacency"], js["count"])
        problems = checks.check_census(terms, doc["p"], doc["n"], js["lines"],
                                       adj, js["second_type"],
                                       known=KNOWN.get(inp["name"]))
        return (FAILED, problems[0]) if problems else (OK, "")

    return Op("enumerate_lines", run, lambda census: census.to_json(), verify)
