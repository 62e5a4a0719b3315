"""Field-arithmetic kernel timings and cold tower builds (traced runs only)."""

from __future__ import annotations

import random
import statistics
import time

PRIMES = (7, 11)
LEVELS = range(1, 7)
BATCHES = 5


def _per_op_ns(fn, args):
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append((time.perf_counter() - t0) / len(args))
    return statistics.median(times) * 1e9


def build_levels(tower):
    """Builds levels 1..6 of ``tower`` with the embeddings between them."""
    for k in LEVELS:
        lk = tower.level(k)
        for j in range(2, k):
            if k % j == 0:
                lk.embed_from(tower.level(j).gen(), j)
    return tower


def measure(fields):
    """mul/inv ns per op by level and cold build ms of levels 1..6 with
    embeddings, for p = 7 and 11, on the unwrapped field code."""
    out = {}
    for p in PRIMES:
        builds = []
        for _ in range(3):
            t0 = time.perf_counter()
            tower = build_levels(fields.FieldTower(p, budget=6, seed=0))
            builds.append((time.perf_counter() - t0) * 1e3)
        out["fields.level_build_ms.p%d" % p] = statistics.median(builds)
        for k in LEVELS:
            lvl = tower.level(k)
            rng = random.Random("kernel:%d:%d" % (p, k))
            elems = [lvl.from_coeffs([rng.randrange(1, p) for _ in range(k)])
                     for _ in range(64)]
            pairs = [(elems[i % 64], elems[(i * 7 + 1) % 64])
                     for i in range(2000 if k == 1 else 400)]
            singles = [(elems[i % 64],) for i in range(400 if k == 1 else 40)]
            out["fields.mul_ns.p%d.L%d" % (p, k)] = _per_op_ns(lvl.mul, pairs)
            out["fields.inv_ns.p%d.L%d" % (p, k)] = _per_op_ns(lvl.inv, singles)
    return out
