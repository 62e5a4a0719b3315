"""Command-line front end: JSON-in, JSON-out access to every computation.

Exit codes: 0 = success with all asserted counts matched; 1 = computation
finished but a count or check mismatched; 2 = usage, IO or parse errors,
unsupported cases (including a direction system that no tried coordinate
change puts in general position, a ``discriminant`` in characteristic 2
and a ``pair-secants`` line whose meeting points lie above the curve
level) and input the library refuses (``InvalidInputError``: a point or
line off X, a singular ``--point``, rows that span no line, a curve with
a base point, a line given to ``secants`` or a curve there that does not
validate, a ``discriminant`` of a surface or along a line too special
for it, a ``row-sum`` line that does not meet the curve once
transversally, a ``pair-secants`` curve with a base point or off X or a
pair whose images share a component or are two meeting lines, a point
scan over QQ); 3 = an expression evaluation had an unbound parameter.

Each subcommand imports the library modules it runs when it starts, so a
run compiles and loads only those (``chow-eval`` never loads the geometry,
``validate-cubic`` only the cubic and what it imports).
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]

SCHEMA = "cubiclines-report/1"


class UsageError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise UsageError("cannot read %s: %s" % (path, ex))


def _load_cubic(path, budget, seed):
    from .cubic import cubic_from_json
    doc = _load_json(path)
    try:
        return cubic_from_json(doc, budget=budget, seed=seed)[0]
    except (KeyError, TypeError, ValueError) as ex:
        raise UsageError("bad cubic file %s: %s" % (path, ex))


def _load_curve(path, cubic):
    from .curves import curve_from_json
    doc = _load_json(path)
    try:
        curve = curve_from_json(doc, cubic.field)
    except (KeyError, TypeError, ValueError) as ex:
        raise UsageError("bad curve file %s: %s" % (path, ex))
    if curve.n != cubic.n:
        raise UsageError("bad curve file %s: %d coordinates, the cubic needs "
                         "%d" % (path, curve.n + 1, cubic.n + 1))
    return curve


def _parse_vector(text, cubic):
    try:
        vec = [cubic.field.from_int(int(x)) for x in text.split(",")]
    except ValueError:
        raise UsageError("bad vector %r; expected comma-separated integers"
                         % text)
    if len(vec) != cubic.n + 1:
        raise UsageError("bad vector %r: %d coordinates, the cubic needs %d"
                         % (text, len(vec), cubic.n + 1))
    return vec


def _parse_line(text, cubic):
    from .cubic import ProjLine
    rows = text.split(";")
    if len(rows) != 2:
        raise UsageError("a line needs two rows separated by ';'")
    a, b = (_parse_vector(r, cubic) for r in rows)
    return ProjLine(cubic.field, a, b)


def _parse_bindings(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError("bad binding %r; expected name=value" % item)
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = int(v)
        except ValueError:
            raise UsageError("binding %r is not an integer" % item)
    return out


def _parse_ranges(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item or ".." not in item:
            raise UsageError("bad range %r; expected name=lo..hi" % item)
        k, v = item.split("=", 1)
        lo, hi = v.split("..", 1)
        try:
            out[k.strip()] = range(int(lo), int(hi) + 1)
        except ValueError:
            raise UsageError("range %r bounds are not integers" % item)
    return out


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if getattr(x, "denominator", None) is not None:
        return int(x) if x.denominator == 1 else str(x)
    return str(x)


def _emit(args, command, result, matched):
    report = {
        "schema": SCHEMA,
        "command": command,
        "config": {"seed": args.seed, "budget": args.budget,
                   "max_level": getattr(args, "max_level", None)},
        "matched": matched,
        "result": _jsonable(result),
    }
    text = json.dumps(report, indent=2 if args.pretty else None,
                      sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0 if matched else 1


# -- subcommand handlers ------------------------------------------------------

def _cmd_validate_cubic(args):
    from .cubic import smoothness_probe
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    cert = smoothness_probe(cubic, max_level=args.max_level or 2,
                            seed=args.seed)
    result = {
        "smooth_so_far": cert.smooth_so_far,
        "singular_point": cert.singular_point,
        "levels_exhausted": cert.levels_exhausted,
        "samples": cert.samples,
        "conclusive": cert.conclusive,
    }
    return _emit(args, "validate-cubic", result, cert.smooth_so_far)


def _cmd_validate_curve(args):
    from .curves import validate_curve
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    curve = _load_curve(args.curve, cubic)
    val = validate_curve(cubic, curve, max_level=args.max_level)
    result = {
        "e": val.e, "on_x": val.on_x, "base_point_free": val.base_point_free,
        "birational": val.birational, "nodes": val.nodes, "cusps": val.cusps,
        "complete": val.complete, "valid": val.valid,
    }
    return _emit(args, "validate-curve", result, val.valid)


def _secant_result(report):
    out = report.to_json()
    out["count_matches_formula"] = (
        report.outcome == "ok"
        and report.count_with_multiplicity == report.expected)
    return out


def _cmd_secants(args):
    from .secant import count_secants_single
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    curve = _load_curve(args.curve, cubic)
    report = count_secants_single(cubic, curve, max_level=args.max_level)
    result = _secant_result(report)
    matched = (result["count_matches_formula"] and report.complete
               and report.certified)
    return _emit(args, "secants", result, matched)


def _cmd_pair_secants(args):
    from .secant import count_secants_pair
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    curve1 = _load_curve(args.curve1, cubic)
    curve2 = _load_curve(args.curve2, cubic)
    report = count_secants_pair(cubic, curve1, curve2,
                                max_level=args.max_level)
    result = _secant_result(report)
    matched = (result["count_matches_formula"] and report.complete
               and report.certified)
    return _emit(args, "pair-secants", result, matched)


def _cmd_chow_eval(args):
    from . import chow
    expr = chow.parse(args.expr)
    result = {"normal_form": expr.to_str()}
    bindings = _parse_bindings(args.bind)
    value = chow.evaluate(expr, bindings)
    result["bindings"] = bindings
    result["value"] = value
    return _emit(args, "chow-eval", result, True)


def _cmd_derive_count(args):
    from . import chow
    pair_args = (args.e1, args.e2, args.r)
    if args.e is not None and args.g is not None:
        value, trace = chow.derive_secant_count(args.e, args.g)
        formula = 5 * args.e * (args.e - 3) // 2 + 6 - 6 * args.g
        params = {"e": args.e, "g": args.g}
        mode = "single"
    elif all(v is not None for v in pair_args):
        value, trace = chow.derive_pair_count(args.e1, args.e2, args.r)
        formula = 5 * args.e1 * args.e2 - 6 * args.r
        params = {"e1": args.e1, "e2": args.e2, "r": args.r}
        mode = "pair"
    else:
        raise UsageError("need either --e and --g, or --e1, --e2 and --r")
    result = {"mode": mode, "params": params, "value": value,
              "formula_value": formula, "trace": trace}
    return _emit(args, "derive-count", result, value == formula)


def _cmd_relation_check(args):
    from . import chow
    ranges = _parse_ranges(args.range)
    try:
        table = chow.relation_degree_check(args.relation, ranges or None)
    except ValueError as ex:
        raise UsageError(str(ex))
    return _emit(args, "relation-check", table, table["passed"])


def _cmd_enumerate_lines(args):
    from . import fano
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    census = fano.enumerate_lines(cubic, cubic.field.tower, level=args.level,
                                  with_second_type=not args.no_second_type)
    return _emit(args, "enumerate-lines", census.to_json(), True)


def _cmd_lines_through_point(args):
    from .cubic import lines_through_point
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    point = _parse_vector(args.point, cubic)
    res = lines_through_point(cubic, point, cubic.field.tower,
                              max_level=args.max_level,
                              seed=args.seed)
    result = {
        "point": res.point,
        "eckardt": res.eckardt,
        "complete": res.complete,
        "total_multiplicity": res.total_multiplicity,
        "lines": [{"level": lv, "direction": d, "multiplicity": m,
                   "rows": [list(r) for r in line.rows]}
                  for (lv, d, m), line in zip(res.directions, res.lines)],
    }
    # a point of a threefold lies on six lines (with multiplicity); a point
    # of a surface on zero to three, so there only the search must finish
    if cubic.n == 4:
        matched = res.eckardt or res.total_multiplicity == 6
    else:
        matched = res.complete
    return _emit(args, "lines-through-point", result, matched)


def _cmd_second_type(args):
    from . import fano
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    line = _parse_line(args.line, cubic)
    flag, witness = fano.second_type_test(cubic, line)
    result = {"second_type": flag,
              "witness_plane": witness if witness else None}
    return _emit(args, "second-type", result, True)


def _cmd_discriminant(args):
    from . import fano
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    line = _parse_line(args.line, cubic)
    curve = fano.discriminant_quintic(cubic, line)
    smooth = fano.sample_smoothness(curve, count=args.samples,
                                    max_level=min(4, args.budget),
                                    seed=args.seed)
    result = {
        "degree": curve.form.degree(),
        "expected_degree": 5,
        "genus": curve.genus,
        "double_cover_genus": curve.double_cover_genus,
        "monomials": len(curve.form.terms),
        "smooth_at_samples": smooth,
        "samples": [{"level": lv, "point": pt, "smooth": s}
                    for lv, pt, s in curve.samples],
    }
    matched = curve.form.degree() == 5 and smooth
    return _emit(args, "discriminant", result, matched)


def _cmd_row_sum(args):
    from . import fano
    cubic = _load_cubic(args.cubic, args.budget, args.seed)
    curve = _load_curve(args.curve, cubic)
    line = _parse_line(args.line, cubic)
    row = fano.correspondence_row(cubic, curve, line,
                                  max_level=args.max_level)
    expected = 5 * curve.e - 5
    result = {
        "row_total": row.row_total,
        "expected": expected,
        "meeting_level": row.meeting_level,
        "meeting_point": row.meeting_point,
        "lines_through_point_multiplicity": row.point_line_multiplicity,
        "eckardt": row.lines_at_point.eckardt,
        "report": _secant_result(row.report),
    }
    matched = (row.row_total == expected
               and row.point_line_multiplicity == 6)
    return _emit(args, "row-sum", result, matched)


# -- argument parsing ---------------------------------------------------------

def _positive_int(text):
    """argparse type for levels, budgets and sample counts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _build_parser():
    top = argparse.ArgumentParser(
        prog="cubiclines",
        description="Exact line geometry on cubic hypersurfaces.")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--budget", type=_positive_int, default=6)
    top.add_argument("--pretty", action="store_true")
    top.add_argument("--output", help="write the JSON report to this path")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag, kw in flags.items():
            p.add_argument("--" + flag if len(flag) > 1 else flag, **kw)
        return p

    p = add("validate-cubic", _cmd_validate_cubic,
            cubic={"required": True})
    p.add_argument("--max-level", type=_positive_int, default=2)

    p = add("validate-curve", _cmd_validate_curve,
            cubic={"required": True}, curve={"required": True})
    p.add_argument("--max-level", type=_positive_int, default=None)

    p = add("secants", _cmd_secants,
            cubic={"required": True}, curve={"required": True})
    p.add_argument("--max-level", type=_positive_int, default=None)

    p = add("pair-secants", _cmd_pair_secants, cubic={"required": True},
            curve1={"required": True}, curve2={"required": True})
    p.add_argument("--max-level", type=_positive_int, default=None)

    p = sub.add_parser("chow-eval")
    p.set_defaults(fn=_cmd_chow_eval)
    p.add_argument("expr")
    p.add_argument("--bind", default="")

    p = sub.add_parser("derive-count")
    p.set_defaults(fn=_cmd_derive_count)
    for flag in ("e", "g", "e1", "e2", "r"):
        p.add_argument("--" + flag, type=int, default=None)

    p = sub.add_parser("relation-check")
    p.set_defaults(fn=_cmd_relation_check)
    p.add_argument("--relation", required=True, choices=["4.1", "4.2", "4.3"])
    p.add_argument("--range", default="")

    p = add("enumerate-lines", _cmd_enumerate_lines,
            cubic={"required": True})
    p.add_argument("--level", type=_positive_int, default=1)
    p.add_argument("--no-second-type", action="store_true")

    p = add("lines-through-point", _cmd_lines_through_point,
            cubic={"required": True}, point={"required": True})
    p.add_argument("--max-level", type=_positive_int, default=None)

    add("second-type", _cmd_second_type,
        cubic={"required": True}, line={"required": True})

    p = add("discriminant", _cmd_discriminant,
            cubic={"required": True}, line={"required": True})
    p.add_argument("--samples", type=_positive_int, default=20)

    p = add("row-sum", _cmd_row_sum, cubic={"required": True},
            curve={"required": True}, line={"required": True})
    p.add_argument("--max-level", type=_positive_int, default=None)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except Exception as ex:
        code = _exit_code(ex)
        if code is None:
            raise
        sys.stderr.write("error: %s\n" % ex)
        return code


def _exit_code(ex):
    """The exit code for an error a subcommand raised, None for any other
    exception (the error classes are imported here, on the error path)."""
    from .chow import ChowError, UnboundParameterError
    from .cubic import CoordinateChangeError
    from .fields import BudgetError, InvalidInputError
    if isinstance(ex, UnboundParameterError):
        return 3
    if isinstance(ex, (ChowError, UsageError, BudgetError, NotImplementedError,
                       InvalidInputError, CoordinateChangeError)):
        return 2
    if isinstance(ex, (ValueError, AssertionError)):
        return 1
    return None


if __name__ == "__main__":
    sys.exit(main())
