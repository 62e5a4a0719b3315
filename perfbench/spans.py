"""Opt-in tracing of cubiclines from outside the package.

A :class:`Recorder` replaces each public function of each cubiclines module
with a timing wrapper, everywhere a caller looks it up: a function imported
by name (``from .poly import resultant``) is a separate module attribute,
so every module attribute bound to the original is rebound to the wrapper.
A few methods are wrapped on their class (``MultiPoly.eval_elems``,
``MultiPoly.eval_polys``, ``CubicForm.__init__``,
``CubicForm.line_in_x_points``), and ``FiniteLevel.mul`` / ``inv`` get call
counters per level without spans.

Spans are aggregated in memory per name (calls, total and self seconds; self
time is a span's duration minus the time its child spans cover) and are
read out when the run ends.  The library itself is not edited.
"""

from __future__ import annotations

import functools
import time
import types

MODULES = ("fields", "poly", "linalg", "cubic", "bihom", "curves", "secant",
           "chow", "fano", "cli")
MAX_LEVEL = 32


def line_space_size(q, n):
    """Number of lines in P^n over a field with q elements."""
    return ((q ** (n + 1) - 1) * (q ** n - 1)) // ((q ** 2 - 1) * (q - 1))


class Recorder:
    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counters = {}       # name -> int
        self.maxima = {}         # name -> int
        self.mul_calls = [0] * (MAX_LEVEL + 1)
        self.inv_calls = [0] * (MAX_LEVEL + 1)
        self.scan_s = 0.0
        self.candidates = 0
        self._stack = []
        self._depth = {}

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name, fn, observe=None, track_children=False):
        """A wrapper recording one span per call of fn under ``name``."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, {} if track_children else None]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    if parent[1] is not None:
                        parent[1][name] = parent[1].get(name, 0.0) + dt
            if observe is not None and depth[name] == 0:
                observe(args, kwargs, result, dt, frame[1])
            return result

        return wrapper

    def _count(self, fn, table):
        @functools.wraps(fn)
        def wrapper(self_, *args):
            table[self_.k] += 1
            return fn(self_, *args)
        return wrapper

    # -- observers for the problem-size metrics -------------------------------------

    def _obs_resultant(self, args, kwargs, result, dt, children):
        f, g, name = args[:3]
        deg_f = kwargs.get("deg_f", args[3] if len(args) > 3 else None)
        deg_g = kwargs.get("deg_g", args[4] if len(args) > 4 else None)
        m = deg_f if deg_f is not None else f.degree(name)
        n = deg_g if deg_g is not None else g.degree(name)
        key = "poly.resultant.sylvester_dim_max"
        self.maxima[key] = max(self.maxima.get(key, 0), m + n)

    def _obs_roots(self, args, kwargs, result, dt, children):
        key = "poly.roots_in_tower.unsplit"
        self.counters[key] = self.counters.get(key, 0) + len(result.unsplit)

    def _obs_bihom(self, args, kwargs, result, dt, children):
        key = "bihom.solve_bihomog.bezout_sum"
        self.counters[key] = self.counters.get(key, 0) + result.total_degree

    def _obs_census(self, args, kwargs, result, dt, children):
        cubic, tower = args[0], args[1]
        level = kwargs.get("level", args[2] if len(args) > 2 else 1)
        self.candidates += line_space_size(tower.p ** level, cubic.n)
        other = sum(t for nm, t in children.items()
                    if nm == "fano.second_type_test" or nm.startswith("linalg."))
        self.scan_s += dt - other

    # -- installation ----------------------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every cubiclines module in ``package``."""
        import importlib
        mods = {m: importlib.import_module("%s.%s" % (package, m))
                for m in MODULES}
        hooks = {
            "poly.resultant": {"observe": self._obs_resultant},
            "poly.roots_in_tower": {"observe": self._obs_roots},
            "bihom.solve_bihomog": {"observe": self._obs_bihom},
            "fano.enumerate_lines": {"observe": self._obs_census,
                                     "track_children": True},
        }
        replaced = {}
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(val, types.FunctionType)
                        or val.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (short, attr)
                replaced[val] = self.wrap(name, val, **hooks.get(name, {}))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in replaced:
                    setattr(mod, attr, replaced[val])
        mp = mods["poly"].MultiPoly
        mp.eval_elems = self.wrap("poly.eval_elems", mp.eval_elems)
        mp.eval_polys = self.wrap("poly.eval_polys", mp.eval_polys)
        cf = mods["cubic"].CubicForm
        cf.__init__ = self.wrap("cubic.CubicForm_init", cf.__init__)
        cf.line_in_x_points = self.wrap("cubic.line_in_x_points",
                                        cf.line_in_x_points)
        fl = mods["fields"].FiniteLevel
        fl.mul = self._count(fl.mul, self.mul_calls)
        fl.inv = self._count(fl.inv, self.inv_calls)

    # -- read-out ----------------------------------------------------------------------

    def merge(self, doc):
        """Add a dump() of another process (a traced CLI child) into this one."""
        for name, (calls, total, self_s) in doc["spans"].items():
            st = self.spans.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, v in doc["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + v
        for name, v in doc["maxima"].items():
            self.maxima[name] = max(self.maxima.get(name, 0), v)
        for k, v in enumerate(doc["mul_calls"]):
            self.mul_calls[k] += v
        for k, v in enumerate(doc["inv_calls"]):
            self.inv_calls[k] += v
        self.scan_s += doc["scan_s"]
        self.candidates += doc["candidates"]

    def dump(self):
        return {"spans": self.spans, "counters": self.counters,
                "maxima": self.maxima, "mul_calls": self.mul_calls,
                "inv_calls": self.inv_calls, "scan_s": self.scan_s,
                "candidates": self.candidates}

    def module_self_s(self):
        """Self seconds summed per module (layer)."""
        out = {}
        for name, (_c, _t, self_s) in self.spans.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self_s
        return out
