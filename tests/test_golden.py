"""Byte-identical CLI reports.

Every command-line example of the README, plus the secant count over the
rationals (the one CLI path over QQ) and five reports that run the
substitution layer (second-type witness, row sum, curve validation, the
line-meeting pair mode, lines through a point of a surface) and the census
of the threefold (incidence in P^4), is rerun and its report compared byte
for byte with the file under ``tests/golden/``.  Two more cases run on a
dense smooth threefold over GF(11) instead of a Fermat cubic, and two
more run the second-type test and the discriminant on it.  Two pin the
order of the point scans: the singular point that the exhaustive level-1
scan of ``validate-cubic`` finds first on a cone, and the shuffled zeros
of a discriminant whose 20 samples reach level 2.  Two row sums, on
dense threefolds over GF(7) and GF(11), report a second-type line.
Each case also fixes the exit code.
"""

import os

import pytest

from cubiclines.cli import main
from conftest import fixture_json, fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _line_arg(name):
    return ";".join(",".join(str(c) for c in row)
                    for row in zip(*fixture_json(name)["coords"]))


X7 = fixture_path("fermat7_threefold.json")

# the first GF(11) configuration of the `solve` benchmark's seed 1
# (perfbench/wl_solve.py, generate(1)): a dense cubic with 31 monomials,
# a conic on it and a line meeting the conic once
X11 = fixture_path("dense11_threefold.json")
MEET11 = _line_arg("dense11_meetline.json")

# the `cli` benchmark's seed-1 GF(7) configuration cubic (perfbench/wl_cli.py,
# generate(1)); its discriminant along the disjoint line below has 10
# zeros over GF(7), so the sample list reaches GF(49)
CONFIG7 = fixture_path("config7_threefold.json")

# configurations 0 (GF(7)) and 37 (GF(11)) of the `solve` benchmark's seed 1:
# at the point where the line meets the conic, one line of X lies in the
# plane of the two tangent directions (a second-type secant of the pair)
SOLVE0 = fixture_path("solve0_threefold.json")
SOLVE37 = fixture_path("solve37_threefold.json")


# name -> (expected exit code, argv after the global flags)
CASES = {
    "validate_cubic": (0, ["validate-cubic", "--cubic", X7]),
    "secants_conic7": (0, ["secants", "--cubic", X7,
                           "--curve", fixture_path("conic7.json")]),
    "pair_secants_skew7": (0, ["pair-secants", "--cubic", X7,
                               "--curve1", fixture_path("line7_a.json"),
                               "--curve2", fixture_path("line7_b.json")]),
    "enumerate_lines_surface7": (0, ["enumerate-lines", "--cubic",
                                     fixture_path("fermat7_surface.json")]),
    # incidence in P^4: 135 lines, adjacency over pairs of lines in P^4
    "enumerate_lines_threefold7": (0, ["enumerate-lines", "--cubic", X7]),
    "lines_through_point7": (0, ["lines-through-point", "--cubic", X7,
                                 "--point", "1,2,3,5,0"]),
    "chow_eval": (0, ["chow-eval", "D[a]*D[a]", "--bind", "e=3"]),
    "derive_count": (0, ["derive-count", "--e", "4", "--g", "0"]),
    "relation_check": (0, ["relation-check", "--relation", "4.1"]),
    # a second-type line: its discriminant is singular, an honest mismatch
    "discriminant7": (1, ["discriminant", "--cubic", X7,
                          "--line", "1,6,0,0,0;0,0,1,6,0"]),
    "secants_conicQ": (0, ["secants",
                           "--cubic", fixture_path("fermatQ_threefold.json"),
                           "--curve", fixture_path("conicQ.json")]),
    "second_type7": (0, ["second-type", "--cubic", X7,
                         "--line", "1,6,0,0,0;0,0,1,6,0"]),
    "row_sum7": (0, ["row-sum", "--cubic", X7,
                     "--curve", fixture_path("conic7.json"),
                     "--line", "1,0,0,0,3;0,1,0,3,0"]),
    "pair_secants_meeting7": (0, ["pair-secants", "--cubic", X7,
                                  "--curve1", fixture_path("conic7.json"),
                                  "--curve2", fixture_path("meetline7.json")]),
    "validate_curve7": (0, ["validate-curve", "--cubic", X7,
                            "--curve", fixture_path("conic7.json")]),
    # a surface point lies on 0-3 lines: matched means the search finished
    "lines_through_point_surface7": (0, [
        "lines-through-point",
        "--cubic", fixture_path("fermat7_surface.json"),
        "--point", "1,2,3,3"]),
    # the counts are right: six distinct lines (one multiplicity each, all
    # over GF(11^6)) through the configuration's first point
    "lines_through_point_dense11": (0, ["lines-through-point", "--cubic", X11,
                                        "--point", "4,6,6,0,8"]),
    # a second-type line of the dense threefold, witnessed by the plane
    # that adds the row (0, 0, 4, 6, 1)
    "second_type_dense11": (0, ["second-type", "--cubic", X11,
                                "--line", "1,0,0,1,9;0,1,2,8,8"]),
    # a first-type line: a quintic with 17 monomials, smooth at all 20
    # sampled zeros, so the report matches
    "discriminant_dense11": (0, ["discriminant", "--cubic", X11,
                                 "--line", "0,1,0,9,6;0,0,1,1,6"]),
    # the counts are right: the row total is 5 = 5e - 5, with 6 lines
    # through the meeting point and an excision of multiplicity 2 there
    "row_sum_dense11": (0, ["row-sum", "--cubic", X11,
                            "--curve", fixture_path("dense11_conic.json"),
                            "--line", MEET11]),
    # the counts are right: 4 secants and one second-type line, which takes
    # the multiplicity left over at the meeting point (3 excised, 2 expected)
    "row_sum_solve0": (0, ["row-sum", "--cubic", SOLVE0,
                           "--curve", fixture_path("solve0_conic.json"),
                           "--line", _line_arg("solve0_meetline.json")]),
    "row_sum_solve37": (0, ["row-sum", "--cubic", SOLVE37,
                            "--curve", fixture_path("solve37_conic.json"),
                            "--line", _line_arg("solve37_meetline.json")]),
    # a cone with vertex (1:2:0:3:1) over the Fermat surface: the level-1
    # scan reports the vertex, exit 1
    "validate_cone7": (1, ["validate-cubic", "--cubic",
                           fixture_path("cone7_threefold.json")]),
    "discriminant_config7": (0, ["discriminant", "--cubic", CONFIG7,
                                 "--line", "2,6,2,1,1;3,5,1,3,2"]),
}


def write_report(name, path):
    """Run one case, writing its report to ``path``; returns the exit code."""
    return main(["--output", str(path)] + CASES[name][1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    out = tmp_path / (name + ".json")
    assert write_report(name, out) == CASES[name][0]
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
