"""Shared pieces of the workloads: ops, their classification and digests."""

from __future__ import annotations

import hashlib
import json
import os
import sys

OK, INCOMPLETE, FAILED = "ok", "incomplete", "failed"
PACKAGE = "cubiclines"


class Op:
    """One closed-loop operation; only ``run()`` is timed.

    ``summarize(out)`` gives the JSON value hashed into the result digest, and
    ``verify(summary)`` checks it independently, returning (status, reason).
    """

    __slots__ = ("kind", "run", "summarize", "verify")

    def __init__(self, kind, run, summarize, verify):
        self.kind = kind
        self.run = run
        self.summarize = summarize
        self.verify = verify


def plain(x):
    """A JSON value for report data (tuples as lists, fractions as strings)."""
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    if getattr(x, "denominator", None) is not None:
        return int(x) if x.denominator == 1 else str(x)
    return str(x)


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_dir():
    """The checkout's src/ directory; exits when cubiclines is not there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        sys.stderr.write("perfbench: no %s sources under %s; run from the root "
                         "of a checkout\n" % (PACKAGE, src))
        sys.exit(2)
    return src


def fresh_import(*modules):
    """Import cubiclines modules afresh (a new module state)."""
    import importlib
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in modules]


def secant_status(rep, expected, line_checks):
    """Classify a secant report: independent line checks, then honesty flags,
    then the closed form."""
    if line_checks:
        return FAILED, line_checks[0]
    if rep["outcome"] != "ok":
        return FAILED, "outcome %s, closed form %d" % (rep["outcome"], expected)
    if not (rep["complete"] and rep["certified"]):
        return INCOMPLETE, "complete=%s certified=%s" % (rep["complete"],
                                                         rep["certified"])
    if rep["count_with_multiplicity"] != expected:
        kinds = sorted({l["kind"] for l in rep["lines"]})
        return FAILED, ("complete certified count %d != %d (%s)"
                        % (rep["count_with_multiplicity"], expected,
                           ",".join(kinds)))
    return OK, ""
