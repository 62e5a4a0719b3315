import random
from fractions import Fraction
from functools import reduce

import pytest

from cubiclines import chow
from cubiclines.chow import (COUNT_CLASSES, ChowExpr, ChowSyntaxError,
                             GradeError, MixedModelError, RELATION_RANGES,
                             UnboundParameterError, UnknownSymbolError,
                             count_class, derive_pair_count,
                             derive_secant_count, evaluate, parse,
                             relation_degree_check)
from oracle import is_zero_class

SYM_ATOMS = ["D[a]", "D[K_C]", "Delta0", "sumE", "E[1]", "E[2]", "E[3]",
             "pt", "delta[a]", "pair2[a]", "Delta0sq", "2", "-3", "e", "g",
             "N", "e*g", "0", "7/2"]
PROD_ATOMS = ["A1xC2", "C1xA2", "sumF", "F[1]", "F[2]", "E[1]", "sumE",
              "pt", "delta[a1]", "pair2[a2]", "1", "-2", "e1", "e2", "r",
              "N", "5/3"]


def rand_atoms(rng, pool, n):
    return [parse(rng.choice(pool)) for _ in range(n)]


def fold(op, items):
    return reduce(op, items)


def rfold(op, items):
    out = items[-1]
    for x in reversed(items[:-1]):
        out = op(x, out)
    return out


def test_confluence_random_expressions():
    """Normal forms agree across evaluation orders, 1000 random expressions."""
    rng = random.Random(99)
    for trial in range(1000):
        pool = SYM_ATOMS if trial % 2 == 0 else PROD_ATOMS
        op = (lambda a, b: a + b) if trial % 3 == 0 else (lambda a, b: a * b)
        atoms = rand_atoms(rng, pool, rng.randrange(2, 5))
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        left = fold(op, atoms)
        right = rfold(op, atoms)
        mixed = fold(op, shuffled)
        assert left == right == mixed


def test_ring_laws_random_triples():
    rng = random.Random(7)
    for trial in range(300):
        pool = SYM_ATOMS if trial % 2 == 0 else PROD_ATOMS
        a, b, c = rand_atoms(rng, pool, 3)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert is_zero_class(a - a)


def test_parse_round_trip_random():
    rng = random.Random(17)
    for trial in range(200):
        pool = SYM_ATOMS if trial % 2 == 0 else PROD_ATOMS
        atoms = rand_atoms(rng, pool, rng.randrange(2, 5))
        expr = atoms[0]
        for x in atoms[1:]:
            expr = expr * x if rng.random() < 0.5 else expr + x
        assert parse(expr.to_str()) == expr


def test_basic_products():
    assert parse("D[a]*D[a]").to_str() == "delta[a] + 2*pair2[a]"
    assert parse("D[a]*Delta0").to_str() == "-delta[a]"
    assert parse("Delta0*Delta0").to_str() == "Delta0sq"
    assert parse("sumE*sumE").to_str() == "-N*pt"
    assert is_zero_class(parse("E[1]*E[2]"))
    assert parse("E[1]*sumE").to_str() == "-pt"
    assert is_zero_class(parse("D[a]*E[1]"))
    assert parse("A1xC2*C1xA2").to_str() == "e1*e2*pt"
    assert is_zero_class(parse("A1xC2*A1xC2"))
    assert parse("D[a]*D[K_C]").to_str() == "(2*e*g - 2*e)*pt"


def test_xs_alias():
    assert parse("xS") == parse(RESIDUE_CLASSES["single"]["xi_S"])


def test_mixed_model_rejected():
    with pytest.raises(MixedModelError):
        parse("D[a]*A1xC2")


def test_evaluation():
    expr = parse("D[a]*D[a] + Delta0*Delta0")
    # e^2 points plus (1 - g) from the diagonal self-intersection
    assert evaluate(expr, {"e": 3, "g": 0}) == 10
    assert evaluate(parse("pt"), {}) == 1
    with pytest.raises(UnboundParameterError):
        evaluate(expr, {"e": 3})
    with pytest.raises(GradeError):
        evaluate(parse("D[a]"), {"e": 2, "g": 0})


def test_syntax_errors_report_position():
    with pytest.raises(ChowSyntaxError) as exc:
        parse("D[a] + ")
    assert exc.value.pos == 7
    with pytest.raises(UnknownSymbolError):
        parse("D[zzz]")
    with pytest.raises(ChowSyntaxError):
        parse("D[a] D[a]")


def test_single_count_class_normal_form():
    log = []
    cls = count_class("single", log)
    assert cls.to_str() == "6*Delta0sq - 5*delta[a] + 5*pair2[a]"
    assert log  # rewrite steps were recorded


def test_derive_secant_count_full_range():
    for e in range(2, 13):
        for g in range(0, 11):
            value, trace = derive_secant_count(e, g)
            assert value == (5 * e * (e - 3) + 2 * (6 - 6 * g)) // 2
            assert isinstance(trace, list) and trace


def test_derive_pair_count():
    for e1 in range(1, 6):
        for e2 in range(1, 6):
            for r in range(0, 4):
                value, trace = derive_pair_count(e1, e2, r)
                assert value == 5 * e1 * e2 - 6 * r
                assert trace


def test_pair_count_class_matches_formula():
    cls = count_class("pair")
    assert evaluate(cls, {"e1": 2, "e2": 3, "r": 1}) == 24


def test_chern_consistency():
    """The two routes to the Chern classes of the bundle twisted by a
    difference of two named divisors give the same normal form."""
    total = parse("(1 + D[a1] + Delta0 + pair2[a1]) * (1 - D[a2] + pair2[a2])")
    assert ChowExpr(g1=total.g1) == parse("Delta0 + D[a1] - D[a2]")
    assert ChowExpr(g2=total.g2) == parse(
        "pair2[a1] + pair2[a2] + delta[a2] - D[a1]*D[a2]")


# relative hyperplane xi_S, residual-line divisor D_S, self-restriction S_S
# and the twist class, restricted to the residue surface
RESIDUE_CLASSES = {
    "single": {"xi_S": "2*D[a] + 3*Delta0 - sumE",
               "D_S": "3*D[a] + 4*Delta0 - 2*sumE",
               "S_S": "3*D[a] + 5*Delta0 - sumE",
               "twist": COUNT_CLASSES["single"][2]},
    "pair": {"xi_S": "2*A1xC2 + 2*C1xA2 - 3*sumF - sumE",
             "D_S": "3*A1xC2 + 3*C1xA2 - 4*sumF - 2*sumE",
             "S_S": "3*A1xC2 + 3*C1xA2 - 5*sumF - sumE",
             "twist": COUNT_CLASSES["pair"][2]},
}


def test_residue_surface_classes():
    """The classes on the residue surface satisfy the linear consistency
    identities, and two independent expansions of xi_S^2 agree."""
    for texts in RESIDUE_CLASSES.values():
        xi, D_S, S_S, u = (parse(texts[name])
                           for name in ("xi_S", "D_S", "S_S", "twist"))
        assert is_zero_class(D_S + S_S - xi.scale(3))
        assert is_zero_class(D_S - xi.scale(2) + u)
        assert is_zero_class(S_S - xi - u)
        half = (D_S + u).scale(Fraction(1, 2))
        assert xi * xi == half * half


def test_relation_degree_checks():
    for rel in ("4.1", "4.2", "4.3"):
        out = relation_degree_check(rel)
        assert out["passed"], out
        assert out["rows"]
    assert set(RELATION_RANGES) == {"4.1", "4.2", "4.3"}
    with pytest.raises(KeyError):
        relation_degree_check("9.9")


@pytest.mark.parametrize("relation, ranges, message", [
    ("4.1", {"x": range(1, 3)}, "no parameter 'x'"),
    ("4.3", {"g": range(0, 3)}, "no parameter 'g'"),
    ("4.1", {"e": range(5, 3)}, "range for e is empty"),
    ("4.2", {"r": range(0)}, "range for r is empty"),
])
def test_relation_check_rejects_unknown_and_empty_ranges(relation, ranges,
                                                         message):
    """A range the relation does not use, or an empty one, is an error, not
    a vacuous pass."""
    with pytest.raises(ValueError, match=message):
        relation_degree_check(relation, ranges)


def test_relation_check_derives_its_count_class_once(monkeypatch):
    cases = []

    def counting(case, log=None):
        cases.append(case)
        return count_class(case, log)

    monkeypatch.setattr(chow, "count_class", counting)
    out = relation_degree_check("4.2")
    assert out["passed"] and len(out["rows"]) == 320
    assert cases == ["pair"]


def test_trace_determinism():
    a = derive_secant_count(4, 2)
    b = derive_secant_count(4, 2)
    assert a == b
    assert "\n".join(a[1]).encode() == "\n".join(b[1]).encode()
