"""Names and units of every metric the benchmark prints.

END_TO_END are printed by untraced runs, PER_LAYER by traced runs; both
lists match BENCHMARK.json.  ``layer_values`` turns a Recorder and the
kernel timings into the PER_LAYER values.
"""

from __future__ import annotations

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# spans reported as <name>.calls and <name>.self_s
SPANS = [
    "fields.upoly_powmod", "fields.roots_of_split_poly",
    "poly.eval_elems", "poly.eval_polys", "poly.resultant",
    "poly.roots_in_tower", "poly.binary_gcd", "poly.squarefree_decompose",
    "cubic.line_in_x_points", "cubic.lines_through_point",
    "cubic.CubicForm_init", "cubic.smoothness_probe",
    "bihom.solve_bihomog", "curves.validate_curve", "curves.curve_meeting_data",
    "secant.count_secants_single", "secant.count_secants_pair",
    "fano.enumerate_lines", "fano.second_type_test", "fano.correspondence_row",
]
# spans reported by self time only
SELF_ONLY = [
    "cubic.cubic_from_json", "bihom.divide_diagonal", "secant.build_system",
    "fano.discriminant_quintic", "fano.sample_smoothness",
    "chow.parse", "chow.evaluate", "chow.derive_secant_count",
    "chow.derive_pair_count", "chow.relation_degree_check", "cli.main",
]
PRIMES = (7, 11)
LEVELS = range(1, 7)


def _per_layer():
    out = []
    for p in PRIMES:
        for k in LEVELS:
            out.append(("fields.mul_ns.p%d.L%d" % (p, k), "ns", "lower"))
        for k in LEVELS:
            out.append(("fields.inv_ns.p%d.L%d" % (p, k), "ns", "lower"))
    for p in PRIMES:
        out.append(("fields.level_build_ms.p%d" % p, "ms", "lower"))
    for op in ("mul", "inv"):
        for k in LEVELS:
            out.append(("fields.%s.calls.L%d" % (op, k), "count", "lower"))
    for name in SPANS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    for name in SELF_ONLY:
        out.append((name + ".self_s", "s", "lower"))
    out += [
        ("poly.resultant.sylvester_dim_max", "count", "lower"),
        ("poly.roots_in_tower.unsplit", "count", "lower"),
        ("bihom.solve_bihomog.bezout_sum", "count", "lower"),
        ("linalg.calls", "count", "lower"),
        ("linalg.self_s", "s", "lower"),
        ("fano.candidates_per_s", "1/s", "higher"),
        ("cli.interp_import_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def layer_values(rec, kernels, interp_import_ms, overhead_ratio):
    """Every PER_LAYER value (0 where a workload never enters a layer)."""
    vals = dict(kernels)
    for k in LEVELS:
        vals["fields.mul.calls.L%d" % k] = rec.mul_calls[k]
        vals["fields.inv.calls.L%d" % k] = rec.inv_calls[k]
    for name in SPANS + SELF_ONLY:
        calls, _total, self_s = rec.spans.get(name, (0, 0.0, 0.0))
        vals[name + ".calls"] = calls
        vals[name + ".self_s"] = self_s
    lin = [v for n, v in rec.spans.items() if n.startswith("linalg.")]
    vals["linalg.calls"] = sum(v[0] for v in lin)
    vals["linalg.self_s"] = sum(v[2] for v in lin)
    vals["poly.resultant.sylvester_dim_max"] = rec.maxima.get(
        "poly.resultant.sylvester_dim_max", 0)
    for name in ("poly.roots_in_tower.unsplit", "bihom.solve_bihomog.bezout_sum"):
        vals[name] = rec.counters.get(name, 0)
    vals["fano.candidates_per_s"] = (rec.candidates / rec.scan_s
                                     if rec.scan_s > 0 else 0.0)
    vals["cli.interp_import_ms"] = interp_import_ms
    vals["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": vals[name], "unit": unit}
            for name, unit, _better in PER_LAYER}
