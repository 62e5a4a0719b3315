"""The cubiclines benchmark: one command per workload.

    python3 perfbench/run.py --workload {census,solve,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  A run
generates its inputs from the seed (plain modular integers, no cubiclines
code), sets up SETUP_REPEATS times (import, towers, cubics, curves, one
warm-up op per op type) and reports the median, then runs whole passes over
the inputs closed-loop, one op at a time, until the next pass would overrun
``--seconds``.  The first pass is checked independently; every pass is
hashed, and repeated passes must give the same digests.  Each op's time is
its wall time rescaled to reference speed by the probes taken around the
ops of its pass (see probe.py), and then the minimum over the passes (the
median where every pass starts from a fresh set-up).  Set-up times are
rescaled the same way.  Raw wall-time figures are in the detail line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` an untraced pass is followed by a fresh set-up and the
same pass with span wrappers installed from outside the package, and the
last line carries the per-layer metrics.  Lines before it list failed ops
and a detail record (sample counts, fail and incomplete ratios, op_p90_ms
where a run has at least 100 ops, digests, the full span table).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import common  # noqa: E402
import metrics  # noqa: E402
import probe  # noqa: E402
from common import FAILED, INCOMPLETE  # noqa: E402

WORKLOADS = ("census", "solve", "cli")
SETUP_REPEATS = 3
SETUP_PROBES = 10                  # probes before the set-ups and after each
OP_TIMEOUT_S = 150
P90_MIN_OPS = 100


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded %d s" % OP_TIMEOUT_S)


class Record:
    __slots__ = ("kind", "wall_s", "scaled_s", "digest", "status", "reason")

    def __init__(self, kind, wall_s, digest, status, reason):
        self.kind = kind
        self.wall_s = wall_s
        self.scaled_s = wall_s
        self.digest = digest
        self.status = status
        self.reason = reason


def run_pass(ops, verify, wl, rec=None):
    """Run every op once; only ``op.run()`` is timed, with the speed probe
    and window the workload ``wl`` names.

    Without ``verify`` the status is None: a later pass is judged by its
    digests against the first one.
    """
    out = []
    sampler = probe.Sampler(wl.PROBE)
    for op in ops:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception as ex:      # a raised op is a failed op, not a crash
            res, err = None, ex
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        saved = (list(rec.mul_calls), list(rec.inv_calls)) if rec else None
        status, reason = None, ""
        if err is not None:
            summary = {"raised": type(err).__name__, "message": str(err)}
            status, reason = FAILED, "raised %s: %s" % (type(err).__name__, err)
        else:
            try:
                summary = op.summarize(res)
                if verify:
                    status, reason = op.verify(summary)
            except Exception as ex:  # malformed output
                summary = {"check_raised": type(ex).__name__}
                status, reason = FAILED, "check raised %s: %s" % (
                    type(ex).__name__, ex)
        if saved:                    # the summaries' own field calls are not counted
            rec.mul_calls[:], rec.inv_calls[:] = saved
        out.append(Record(op.kind, dt, common.digest(summary), status, reason))
        sampler.tick()
    for r, scale in zip(out, sampler.scales(len(out), wl.PROBE_WINDOW)):
        r.scaled_s = r.wall_s * scale
    return out


def pass_digest(records):
    return common.digest([r.digest for r in records])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = common.source_dir()
    sys.path.insert(0, src)
    problem = checks.selftest()
    if problem:
        sys.stderr.write("perfbench: checker self-test failed: %s\n" % problem)
        return 1
    signal.signal(signal.SIGALRM, _on_alarm)
    root = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=root)
    try:
        return _run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(root)
        except OSError:              # another run still uses it
            pass


def _run(args, src, work):
    wl = __import__("wl_" + args.workload)
    t0 = time.perf_counter()
    inputs = wl.generate(args.seed)
    generate_s = time.perf_counter() - t0
    runner = wl.Runner(inputs, work, src) if args.workload == "cli" else None
    setup_arg = runner if runner else inputs
    setup_wall = []
    sampler = probe.Sampler(wl.PROBE, SETUP_PROBES)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = wl.setup(setup_arg)
        setup_wall.append(time.perf_counter() - t0)
        sampler.tick(SETUP_PROBES)
    scale = sampler.scale()
    setup_s = [t * scale for t in setup_wall]

    detail = {"workload": args.workload, "seed": args.seed,
              "ops_per_pass": len(ops), "generate_s": generate_s,
              "setup_samples_s": setup_s, "setup_wall_s": setup_wall,
              "sizes": wl.sizes(inputs)}
    integrity = []
    if args.trace:
        records, result_metrics = _traced(wl, setup_arg, ops, runner, src,
                                          integrity, detail)
    else:
        records, times = _untraced(wl, setup_arg, ops, args.seconds,
                                   integrity, detail)
        result_metrics = _end_to_end(records, times, setup_s, runner, detail)

    failed = [r for r in records if r.status == FAILED]
    for i, r in enumerate(records):
        if r.status == FAILED:
            print("failed op: workload=%s seed=%d op=%d kind=%s reason=%s"
                  % (args.workload, args.seed, i, r.kind, r.reason))
    for msg in integrity:
        print("integrity: %s" % msg)
    detail["fail_ratio"] = len(failed) / len(records)
    detail["incomplete_ratio"] = (sum(1 for r in records
                                      if r.status == INCOMPLETE) / len(records))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not integrity, "attempted": len(records),
                      "failed": len(failed), "metrics": result_metrics},
                     sort_keys=True))
    return 0


def _check_repeat(first, records, integrity, what):
    for i, (a, b) in enumerate(zip(first, records)):
        if a.digest != b.digest:
            integrity.append("%s: op %d output digest differs" % (what, i))
            return


def _untraced(wl, setup_arg, ops, seconds, integrity, detail):
    """Whole passes until the next would overrun; returns the verified first
    pass and each op's time over the passes: the minimum, or the median where
    the workload sets FRESH_PASSES and every pass starts from a fresh set-up
    (untimed), so that all passes measure the same cold state."""
    fresh = getattr(wl, "FRESH_PASSES", False)
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        if fresh and passes:
            ops = wl.setup(setup_arg)
        t0 = time.perf_counter()
        passes.append(run_pass(ops, not passes, wl))
        walls.append(time.perf_counter() - t0)
        _check_repeat(passes[0], passes[-1], integrity, "repeated pass")
        next_pass = sum(r.wall_s for r in passes[-1])
        if time.perf_counter() - start + next_pass > seconds:
            break
    agg = statistics.median if fresh else min
    detail["passes"] = len(passes)
    detail["pass_wall_s"] = walls
    detail["digest"] = pass_digest(passes[0])
    raw = [agg(p[i].wall_s for p in passes) for i in range(len(ops))]
    detail["raw"] = {"ops_per_s": len(raw) / sum(raw),
                     "op_p50_ms": statistics.median(raw) * 1e3}
    detail["pass_scale"] = [sum(r.scaled_s for r in p) /
                            sum(r.wall_s for r in p) for p in passes]
    return passes[0], [agg(p[i].scaled_s for p in passes)
                       for i in range(len(ops))]


def _end_to_end(records, times, setup_s, runner, detail):
    who = resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail["samples"] = len(times) * detail["passes"]
    if len(times) >= P90_MIN_OPS:
        detail["op_p90_ms"] = statistics.quantiles(
            times, n=10, method="inclusive")[8] * 1e3
    kinds = {}
    for r, t in zip(records, times):
        kinds.setdefault(r.kind, []).append(t)
    detail["per_kind"] = {k: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3,
                              "sum_s": sum(v)} for k, v in kinds.items()}
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in metrics.END_TO_END}


def _traced(wl, setup_arg, ops, runner, src, integrity, detail):
    """An untraced pass, then a fresh set-up and the same pass traced, so both
    passes start from the same cache state.  The overhead ratio uses raw wall
    times, since the probe cannot see the core a CLI child runs on."""
    import kernels
    import spans
    first = run_pass(ops, True, wl)
    fields, = (common.fresh_import("fields") if runner
               else [sys.modules[common.PACKAGE + ".fields"]])
    kern = kernels.measure(fields)
    interp_ms = _interp_import_ms(src)
    rec = spans.Recorder()
    if runner:
        runner.stats_dir = tempfile.mkdtemp(dir=runner.work)
        traced = run_pass(ops, False, wl)
        for name in sorted(os.listdir(runner.stats_dir)):
            with open(os.path.join(runner.stats_dir, name), encoding="utf-8") as fh:
                rec.merge(json.load(fh))
    else:
        ops = wl.setup(setup_arg)
        rec.install(common.PACKAGE)
        traced = run_pass(ops, False, wl, rec=rec)
    _check_repeat(first, traced, integrity, "traced pass")
    plain_s = sum(r.wall_s for r in first)
    traced_s = sum(r.wall_s for r in traced)
    detail["digest"] = pass_digest(first)
    detail["traced_digest"] = pass_digest(traced)
    detail["pass_s"] = {"untraced": plain_s, "traced": traced_s}
    detail["layer_self_s"] = rec.module_self_s()
    detail["spans"] = rec.spans
    return first, metrics.layer_values(rec, kern, interp_ms, traced_s / plain_s)


def _interp_import_ms(src, repeats=5):
    """Median wall ms of a fresh interpreter that imports cubiclines.cli."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cubiclines.cli"],
                       env=env, check=True, timeout=OP_TIMEOUT_S)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
