"""The benchmark's opt-in tracing (``perfbench/spans.py``) still installs on
the package and leaves results unchanged: a secant count, the lines through
a point and a line census.  The secant count alone must record spans of the
root layer under the names the benchmark's per-layer metrics read
(``fields.upoly_powmod``, ``fields.roots_of_split_poly``).

The recorder rebinds functions and methods across the package, so it runs
in a fresh interpreter: nothing it wraps leaks into the other tests.
"""

import json
import os
import subprocess
import sys

from conftest import fixture_path

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

TRACED_RUN = """
import json
import sys

sys.path.insert(0, PERFBENCH)
from cubiclines import cubic, curves, fano, secant


def load(name):
    with open(FIXTURES + name) as fh:
        return json.load(fh)


def pair():
    X, tower = cubic.cubic_from_json(load("fermat7_threefold.json"))
    a, b = (curves.curve_from_json(load(n), X.field)
            for n in ("line7_a.json", "line7_b.json"))
    return secant.count_secants_pair(X, a, b, tower, max_level=4).to_json()


def rest():
    X, tower = cubic.cubic_from_json(load("fermat7_threefold.json"))
    point = [X.field.from_int(c) for c in (1, 2, 3, 5, 0)]
    ltp = cubic.lines_through_point(X, point, tower)
    S, stower = cubic.cubic_from_json(load("fermat7_surface.json"))
    census = fano.enumerate_lines(S, stower, level=1)
    return {"census": census.to_json(),
            "point": [ltp.eckardt, ltp.complete, ltp.total_multiplicity,
                      [list(d) for _lv, d, _m in ltp.directions],
                      [[list(r) for r in l.rows] for l in ltp.lines]]}


plain = dict(rest(), pair=pair())
import spans
recorder = spans.Recorder()
recorder.install("cubiclines")
traced_pair = pair()
# the root layer's spans of the one secant count, by the names the
# benchmark's per-layer metrics read
root_calls = {name: recorder.spans.get(name, [0])[0]
              for name in ("fields.upoly_powmod",
                           "fields.roots_of_split_poly")}
traced = dict(rest(), pair=traced_pair)
print(json.dumps({
    "same": traced == plain,
    "pair_same": traced_pair == plain["pair"],
    "root_calls": root_calls,
    "pair_calls": recorder.spans["secant.count_secants_pair"][0],
    "point_calls": recorder.spans["cubic.lines_through_point"][0],
    "solve_calls": recorder.spans["bihom.solve_bihomog"][0],
    "census_calls": recorder.spans["fano.enumerate_lines"][0],
    "lines": plain["pair"]["distinct_count"],
    "census_lines": plain["census"]["count"],
}))
"""


def test_spans_recorder_installs_and_keeps_results():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("PERFBENCH = %r\nFIXTURES = %r\n"
            % (os.path.join(ROOT, "perfbench"), fixture_path("")) + TRACED_RUN)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["same"] is True and doc["pair_same"] is True
    assert all(calls > 0 for calls in doc["root_calls"].values()), doc
    assert doc["pair_calls"] == 1 and doc["point_calls"] == 1
    assert doc["solve_calls"] >= 1 and doc["lines"] == 5
    assert doc["census_calls"] == 1 and doc["census_lines"] == 27
