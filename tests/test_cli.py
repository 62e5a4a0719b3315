import json
import os
import subprocess
import sys

import pytest

from cubiclines.cli import main
from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_secants_conic(capsys):
    code, doc = run(capsys, "secants",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--curve", fixture_path("conic7.json"))
    assert code == 0
    assert doc["schema"] == "cubiclines-report/1"
    assert doc["matched"] is True
    assert doc["result"]["distinct_count"] == 1
    assert doc["result"]["expected"] == 1


def test_pair_secants_skew_lines(capsys):
    code, doc = run(capsys, "pair-secants",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--curve1", fixture_path("line7_a.json"),
                    "--curve2", fixture_path("line7_b.json"))
    assert code == 0
    assert doc["result"]["expected"] == 5
    assert doc["result"]["count_with_multiplicity"] == 5


def test_pair_secants_meeting_line(capsys):
    code, doc = run(capsys, "pair-secants",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--curve1", fixture_path("conic7.json"),
                    "--curve2", fixture_path("meetline7.json"))
    assert code == 0
    assert doc["result"]["expected"] == 5


def test_validate_cubic(capsys):
    code, doc = run(capsys, "validate-cubic",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--max-level", "1")
    assert code == 0
    assert doc["result"]["smooth_so_far"] is True


def test_validate_curve(capsys):
    code, doc = run(capsys, "validate-curve",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--curve", fixture_path("conic7.json"),
                    "--max-level", "4")
    assert code == 0
    assert doc["result"]["valid"] is True


def test_chow_eval_exit_codes(capsys):
    code, doc = run(capsys, "chow-eval", "D[a]*D[a]", "--bind", "e=3")
    assert code == 0 and doc["result"]["value"] == 9
    assert doc["result"]["normal_form"] == "delta[a] + 2*pair2[a]"
    code, _ = run(capsys, "chow-eval", "D[a]*D[a]")
    assert code == 3  # unbound parameter e
    code, _ = run(capsys, "chow-eval", "D[a] +")
    assert code == 2  # syntax error


@pytest.mark.parametrize("argv, message", [
    (["D[a]", "--bind", "e=3"], "grade-1 part"),
    (["D[a]*A1xC2"], "different ambient surfaces"),
    (["1/2*pt"], "degree is not an integer"),
])
def test_chow_eval_calculus_errors_exit_2(capsys, argv, message):
    code = main(["chow-eval"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_derive_count(capsys):
    code, doc = run(capsys, "derive-count", "--e", "3", "--g", "0")
    assert code == 0 and doc["result"]["value"] == 6
    code, doc = run(capsys, "derive-count", "--e1", "2", "--e2", "3",
                    "--r", "1")
    assert code == 0 and doc["result"]["value"] == 24
    code, _ = run(capsys, "derive-count", "--e", "3")
    assert code == 2


def test_relation_check(capsys):
    for rel in ("4.1", "4.2", "4.3"):
        code, doc = run(capsys, "relation-check", "--relation", rel)
        assert code == 0 and doc["result"]["passed"] is True
    code, _ = run(capsys, "relation-check", "--relation",
                  "4.1", "--range", "e=nope..3")
    assert code == 2


@pytest.mark.parametrize("relation, spec, message", [
    ("4.1", "e=5..3", "empty"),
    ("4.1", "x=1..3", "no parameter 'x'"),
    ("4.3", "g=0..2", "no parameter 'g'"),
])
def test_relation_check_rejects_bad_ranges(capsys, relation, spec, message):
    code = main(["relation-check", "--relation", relation, "--range", spec])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


def test_enumerate_lines_surface(capsys):
    code, doc = run(capsys, "enumerate-lines",
                    "--cubic", fixture_path("fermat7_surface.json"))
    assert code == 0
    assert doc["result"]["count"] == 27


def test_lines_through_point(capsys):
    code, doc = run(capsys, "lines-through-point",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--point", "1,-1,0,0,0")
    assert code == 0
    assert doc["result"]["eckardt"] is True
    code, doc = run(capsys, "lines-through-point",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--point", "1,0,0,0,0")
    assert code == 2  # point not on the hypersurface


def test_census_and_point_commands_pass_the_cubic_tower(capsys, monkeypatch):
    # wrappers that observe these calls read the tower positionally
    from cubiclines import cubic, fano
    seen = []

    def recording(fn):
        def wrapped(cubic, *args, **kwargs):
            seen.append(args[-1] is cubic.field.tower)
            return fn(cubic, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(fano, "enumerate_lines",
                        recording(fano.enumerate_lines))
    monkeypatch.setattr(cubic, "lines_through_point",
                        recording(cubic.lines_through_point))
    code, _ = run(capsys, "enumerate-lines",
                  "--cubic", fixture_path("fermat7_surface.json"))
    assert code == 0
    code, _ = run(capsys, "lines-through-point",
                  "--cubic", fixture_path("fermat7_threefold.json"),
                  "--point", "1,-1,0,0,0")
    assert code == 0
    assert seen == [True, True]


def test_second_type_and_discriminant(capsys):
    code, doc = run(capsys, "second-type",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--line", "1,6,0,0,0;0,0,1,6,0")
    assert code == 0 and doc["result"]["second_type"] is True
    # a second-type line has a singular discriminant: honest mismatch
    code, doc = run(capsys, "discriminant",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--line", "1,6,0,0,0;0,0,1,6,0")
    assert code == 1
    assert doc["result"]["degree"] == 5
    assert doc["result"]["smooth_at_samples"] is False


def test_row_sum(capsys):
    code, doc = run(capsys, "row-sum",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--curve", fixture_path("conic7.json"),
                    "--line", "1,0,0,0,3;0,1,0,3,0", "--max-level", "4")
    # the line meets the conic once, transversally: the row matches
    assert code == 0 and doc["matched"] is True


def test_row_sum_meet_once_line(capsys):
    import json as _json
    with open(fixture_path("conic7_lines.json")) as fh:
        rows = _json.load(fh)["meet_once"][0]
    line_arg = ";".join(",".join(str(x) for x in r) for r in rows)
    code, doc = run(capsys, "row-sum",
                    "--cubic", fixture_path("fermat7_threefold.json"),
                    "--curve", fixture_path("conic7.json"),
                    "--line", line_arg, "--max-level", "4")
    assert code == 0
    assert doc["result"]["row_total"] == 5
    assert doc["result"]["lines_through_point_multiplicity"] == 6


def test_usage_errors(capsys, tmp_path, monkeypatch):
    code, _ = run(capsys, "secants", "--cubic", "/nonexistent.json",
                  "--curve", fixture_path("conic7.json"))
    assert code == 2
    code, _ = run(capsys, "no-such-command")
    assert code == 2
    # root splitting needs odd characteristic: a clean error, no traceback
    docs = {
        "fermat2": {"p": 2, "n": 4, "monomials": [
            {"exps": [3 if i == j else 0 for j in range(5)], "coeff": 1}
            for i in range(5)]},
        "a": {"e": 1, "coords": [[1, 0], [1, 0], [0, 1], [0, 1], [0, 0]]},
        "b": {"e": 1, "coords": [[1, 0], [0, 1], [0, 0], [0, 1], [1, 0]]},
    }
    for name, doc in docs.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(doc))
    code, doc = run(capsys, "pair-secants",
                    "--cubic", str(tmp_path / "fermat2.json"),
                    "--curve1", str(tmp_path / "a.json"),
                    "--curve2", str(tmp_path / "b.json"))
    assert code == 2 and doc is None
    # curves that are not valid input: off X, with a base point, a line
    X7 = fixture_path("fermat7_threefold.json")
    base = {"e": 2, "coords": [[1, 1, 0], [0, 1, 0], [1, 0, 0],
                               [0, 0, 0], [0, 0, 0]]}
    (tmp_path / "base.json").write_text(json.dumps(base))
    for curve in (fixture_path("conic11.json"), str(tmp_path / "base.json"),
                  fixture_path("line7_a.json")):
        code, doc = run(capsys, "secants", "--cubic", X7, "--curve", curve)
        assert code == 2 and doc is None
    # the discriminant samples points of finite levels only
    code, doc = run(capsys, "discriminant",
                    "--cubic", fixture_path("fermatQ_threefold.json"),
                    "--line", "1,-1,0,0,0;0,0,1,-1,0")
    assert code == 2 and doc is None
    # levels, budgets and sample counts must be positive: a usage error
    S7 = fixture_path("fermat7_surface.json")
    conic = fixture_path("conic7.json")
    for argv in (["enumerate-lines", "--cubic", S7, "--level", "0"],
                 ["enumerate-lines", "--cubic", S7, "--level", "-1"],
                 ["secants", "--cubic", X7, "--curve", conic,
                  "--max-level", "0"],
                 ["lines-through-point", "--cubic", X7,
                  "--point", "1,2,3,5,0", "--max-level", "0"],
                 ["validate-cubic", "--cubic", X7, "--max-level", "-2"],
                 ["--budget", "0", "validate-cubic", "--cubic", X7],
                 ["discriminant", "--cubic", X7,
                  "--line", "1,6,0,0,0;0,0,1,6,0", "--samples", "0"],
                 ["enumerate-lines", "--cubic", S7, "--level", "one"]):
        code, doc = run(capsys, *argv)
        assert code == 2 and doc is None, argv
    # a direction system that no coordinate change puts in general position
    from cubiclines import cubic
    # (in every basis, c3^2 in the conic and c3^3 in the cubic vanish)
    monkeypatch.setattr(cubic, "_c3_arrays", lambda *args: (
        [[0], [1, 0], [0, 0, 0]], [[0], [1, 0], [0, 0, 0], [0, 0, 0, 0]]))
    code = main(["lines-through-point", "--cubic", X7, "--point", "1,2,3,5,0"])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: no usable coordinate change")


def test_budget_default_is_not_read_from_environment(capsys, monkeypatch):
    """--budget is set by the flag alone; without it the budget is 6."""
    for value in ("x", "0"):
        monkeypatch.setenv("CUBICLINES_BUDGET", value)
        code, doc = run(capsys, "derive-count", "--e", "4", "--g", "0")
        assert code == 0 and doc["config"]["budget"] == 6


def test_output_deterministic(tmp_path, capsys):
    paths = [tmp_path / ("out%d.json" % i) for i in range(2)]
    for p in paths:
        code = main(["--output", str(p), "secants",
                     "--cubic", fixture_path("fermat7_threefold.json"),
                     "--curve", fixture_path("conic7.json")])
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["lines-through-point", "--point", "1,6,0,0,0,0,0"],
    ["lines-through-point", "--point", "1,2,3"],
    ["second-type", "--line", "1,6,0;0,0,1"],
    ["discriminant", "--line", "1,6,0,0,0;0,0,1,6"],
    ["row-sum", "--curve", fixture_path("conic7.json"),
     "--line", "1,0,0,0,3,0;0,1,0,3,0,0"],
], ids=["point-7", "point-3", "line-3", "line-5-4", "row-sum-line-6"])
def test_wrong_length_vectors_exit_2(capsys, argv):
    """Points and lines on the P^4 threefold need five coordinates."""
    code = main([argv[0], "--cubic", fixture_path("fermat7_threefold.json")]
                + argv[1:])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: bad vector") and "needs 5" in err


X7, XQ = (fixture_path(name) for name in ("fermat7_threefold.json",
                                          "fermatQ_threefold.json"))
OFF_X = "1,0,0,0,0;0,1,0,0,0"
NO_LINE = "1,6,0,0,0;2,5,0,0,0"   # the second row is twice the first
DISJOINT = "0,1,0,0,3;0,0,1,5,0"  # the rows of disjline7, off conic7


@pytest.mark.parametrize("argv, message", [
    (["lines-through-point", "--cubic", X7, "--point", "0,0,0,0,0"],
     "the zero vector is not a point of P^4"),
    (["lines-through-point", "--cubic", X7, "--point", "1,0,0,0,0"],
     "point is not on X"),
    (["lines-through-point", "--cubic", fixture_path("cone7_threefold.json"),
      "--point", "1,2,0,3,1"], "singular point of X"),
    (["second-type", "--cubic", X7, "--line", NO_LINE],
     "points do not span a line"),
    (["second-type", "--cubic", X7, "--line", OFF_X],
     "line does not lie on the hypersurface"),
    (["discriminant", "--cubic", X7, "--line", OFF_X],
     "line does not lie on the hypersurface"),
    (["row-sum", "--cubic", X7, "--curve", fixture_path("conic7.json"),
      "--line", OFF_X], "line does not lie on the hypersurface"),
    (["validate-cubic", "--cubic", XQ], "use a finite tower"),
    (["enumerate-lines", "--cubic", XQ], "needs a finite field"),
    (["secants", "--cubic", X7, "--curve", fixture_path("line7_a.json")],
     "a line has no secant scheme"),
    (["discriminant", "--cubic", fixture_path("fermat7_surface.json"),
      "--line", "1,6,0,0;0,0,1,6"], "needs a threefold"),
    (["row-sum", "--cubic", X7, "--curve", fixture_path("conic7.json"),
      "--line", DISJOINT], "must meet the curve transversally"),
    (["pair-secants", "--cubic", X7, "--curve1", fixture_path("line7_a.json"),
      "--curve2", fixture_path("line7_a.json")],
     "curve images share a component"),
    (["secants", "--cubic", X7, "--curve", fixture_path("double_line7.json")],
     "curve must validate"),
    (["pair-secants", "--cubic", X7, "--curve1", fixture_path("line7_a.json"),
      "--curve2", fixture_path("line7_c.json")],
     "two meeting lines span a plane"),
    (["pair-secants", "--cubic", X7, "--curve1",
      fixture_path("base_point7.json"), "--curve2",
      fixture_path("line7_a.json")], "coordinate forms share a factor"),
    (["pair-secants", "--cubic", X7, "--curve1", fixture_path("line7_a.json"),
      "--curve2", fixture_path("base_point7.json")],
     "coordinate forms share a factor"),
    (["pair-secants", "--cubic", X7, "--curve1",
      fixture_path("offx_line7.json"), "--curve2",
      fixture_path("line7_b.json")], "F(phi(s)) is a nonzero form"),
], ids=["zero-point", "point-off-x", "singular-point", "rows-no-line", "second-type-off-x",
        "discriminant-off-x", "row-sum-off-x", "probe-over-qq",
        "census-over-qq", "secants-of-a-line", "discriminant-of-a-surface",
        "row-sum-disjoint-line", "pair-of-one-curve",
        "secants-of-a-double-line", "pair-of-meeting-lines",
        "pair-with-a-base-point", "pair-with-a-base-point-second",
        "pair-with-a-line-off-x"])
def test_input_the_library_refuses_exits_2(capsys, argv, message):
    """Points, lines and curves that are not valid input, and fields a
    point scan cannot enumerate: the library's refusal is a usage error."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["secants", "validate-curve"])
def test_wrong_length_curve_exits_2(capsys, tmp_path, command):
    """A conic with four coordinates is no curve in P^4."""
    with open(fixture_path("conic7.json")) as fh:
        doc = json.load(fh)
    doc["coords"] = doc["coords"][:4]
    path = tmp_path / "conic4.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--cubic", fixture_path("fermat7_threefold.json"),
                 "--curve", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: bad curve file") and "needs 5" in err


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"p": 7, "n": 4, "monomials": None},
    {"p": 7, "n": 4, "monomials": [5]},
], ids=["list", "null-monomials", "int-monomial"])
def test_malformed_cubic_file_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    code = main(["enumerate-lines", "--cubic", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: bad cubic file")


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"e": 2, "coords": None},
    {"e": 2, "coords": [5, 5, 5, 5, 5]},
], ids=["list", "null-coords", "int-coords"])
def test_malformed_curve_file_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    code = main(["secants", "--cubic", fixture_path("fermat7_threefold.json"),
                 "--curve", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith("error: bad curve file")


@pytest.mark.parametrize("argv, loaded, absent", [
    (["chow-eval", "D[a]*D[a]", "--bind", "e=3"], ["chow"],
     ["cubic", "curves", "secant", "fano"]),
    (["validate-cubic", "--cubic", fixture_path("fermat7_surface.json")],
     ["cubic"], ["chow", "curves", "secant", "fano"]),
])
def test_subcommand_loads_only_its_modules(argv, loaded, absent):
    # a fresh interpreter: this one has every module imported already
    script = ("import sys\nfrom cubiclines import cli\ncode = cli.main(%r)\n"
              "print(code, sorted(m.split('.')[1] for m in sys.modules\n"
              "                   if m.startswith('cubiclines.')))" % argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, mods = out.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert all(repr(m) in mods for m in loaded)
    assert not any(repr(m) in mods for m in absent)
