import itertools
import random
from fractions import Fraction

import pytest

from cubiclines import linalg
from cubiclines.fields import QQ, upoly_mul, upoly_trim
from cubiclines.poly import (MultiPoly, binary_gcd, binary_roots,
                             roots_in_tower, squarefree_decompose,
                             sylvester_resultant)
from oracle import (STVARS, complete_basis, dense, divides_exactly, exact_div,
                    linear_forms, subs, to_dense)


def in_x(P, dx):
    """A polynomial P in (x, t) as a form in x of formal degree dx whose
    coefficients are binary forms in t of formal degree P.degree("t")."""
    exps = {(e[1], 0, e[0], 0): c for e, c in P.terms.items()}
    A = dense(MultiPoly(P.field, STVARS, exps), (max(P.degree("t"), 0), dx))
    return list(zip(*A))


def rand_poly(lvl, variables, rng, deg=2, terms=4):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(deg + 1) for _ in variables)
        out[e] = rng.randrange(1, lvl.p)
    return MultiPoly.from_int_terms(lvl, variables, out)


def test_ring_axioms_random(tower7):
    lvl = tower7.level(1)
    rng = random.Random(0)
    V = ("x", "y")
    for _ in range(50):
        f, g, h = (rand_poly(lvl, V, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f - f).is_zero()


def test_eval_commutes_with_arithmetic(tower7):
    lvl = tower7.level(2)
    rng = random.Random(1)
    V = ("x", "y")
    pts = [[lvl.from_int(rng.randrange(7)) for _ in V] for _ in range(10)]
    for _ in range(20):
        f, g = rand_poly(lvl, V, rng), rand_poly(lvl, V, rng)
        for p in pts:
            assert (f * g).eval_elems(p) == lvl.mul(f.eval_elems(p),
                                                    g.eval_elems(p))


def test_resultant_detects_common_root(tower7):
    lvl = tower7.level(1)
    V = ("x", "t")
    x = MultiPoly.var(lvl, V, "x")
    for a in range(7):
        for b in range(7):
            f = (x - MultiPoly.const(lvl, V, a)) * (x - MultiPoly.const(lvl, V, 2))
            g = x - MultiPoly.const(lvl, V, b)
            r = sylvester_resultant(in_x(f, 2), in_x(g, 1), lvl)
            has_common = b in (a, 2)
            assert all(map(lvl.is_zero, r)) == has_common


def test_resultant_multiplicative(tower7):
    lvl = tower7.level(1)
    rng = random.Random(5)
    V = ("x", "t")
    for _ in range(10):
        f = rand_poly(lvl, V, rng)
        g = rand_poly(lvl, V, rng)
        h = rand_poly(lvl, V, rng)
        df, dg, dh = (p.degree("x") for p in (f, g, h))
        if min(df, dg, dh) < 1:
            continue
        lhs = upoly_trim(sylvester_resultant(in_x(f * g, df + dg),
                                             in_x(h, dh), lvl), lvl)
        rhs = upoly_mul(sylvester_resultant(in_x(f, df), in_x(h, dh), lvl),
                        sylvester_resultant(in_x(g, dg), in_x(h, dh), lvl),
                        lvl)
        assert lhs == rhs


def test_squarefree_decompose(tower7):
    lvl = tower7.level(1)
    V = ("x",)
    x = MultiPoly.var(lvl, V, "x")
    c = lambda n: MultiPoly.const(lvl, V, n)
    f = (x - c(1)).pow(3) * (x - c(2)).pow(2) * (x - c(3))
    parts = squarefree_decompose(to_dense(f, "x"), lvl)
    by_mult = {m: g for g, m in parts if len(g) > 1}
    assert set(by_mult) == {1, 2, 3}
    assert by_mult[3] == to_dense(x - c(1), "x")
    assert by_mult[2] == to_dense(x - c(2), "x")


def test_roots_in_tower_vs_bruteforce(tower7):
    rng = random.Random(9)
    lvl = tower7.level(1)
    V = ("x",)
    for _ in range(30):
        coeffs = [rng.randrange(7) for _ in range(4)] + [1]
        f = MultiPoly.from_int_terms(lvl, V, {(i,): c for i, c in
                                              enumerate(coeffs) if c})
        rm = roots_in_tower(to_dense(f, "x"), lvl, max_level=4)
        assert rm.complete
        for k in (1, 2):
            ext = tower7.level(k)
            brute = []
            for a in ext.elements():
                fe = f.map_field(ext, lambda c: ext.embed_from(c, 1)) \
                    if k > 1 else f
                if ext.is_zero(fe.eval_elems([a])):
                    brute.append(ext.key(a))
            mine = []
            for lv, r, _m in rm.roots:
                if lv == k:
                    mine.append(tower7.level(k).key(r))
                elif k % lv == 0 and lv < k:
                    mine.append(ext.key(ext.embed_from(r, lv)))
            assert sorted(brute) == sorted(mine)


def test_root_multiplicities_sum_to_degree(tower7):
    lvl = tower7.level(1)
    V = ("x",)
    x = MultiPoly.var(lvl, V, "x")
    c = lambda n: MultiPoly.const(lvl, V, n)
    f = (x - c(2)).pow(4) * (x.pow(2) - c(3))  # 3 is a non-residue mod 7
    rm = roots_in_tower(to_dense(f, "x"), lvl, max_level=4)
    assert rm.complete
    assert sum(m for _, _, m in rm.roots) == 6
    assert {lv for lv, _, _ in rm.roots} == {1, 2}


def test_root_multiplicities_in_characteristic_p(tower7):
    # multiplicities divisible by 7 make the derivative of a squarefree
    # part vanish, so the decomposition must take p-th roots (at level 2
    # of coefficients too, through c -> c^7)
    def roots_of(lvl, factors):
        x = MultiPoly.var(lvl, ("x",), "x")
        f = MultiPoly.const(lvl, ("x",), lvl.one)
        for r, m in factors:
            f = f * (x - MultiPoly.const(lvl, ("x",), r)).pow(m)
        rm = roots_in_tower(to_dense(f, "x"), lvl, max_level=2)
        assert rm.complete
        return {(lv, tower7.level(lv).key(r)): m for lv, r, m in rm.roots}

    l1, l2 = tower7.level(1), tower7.level(2)
    assert roots_of(l1, [(1, 7), (2, 8), (3, 14), (4, 49)]) == {
        (1, (1,)): 7, (1, (2,)): 8, (1, (3,)): 14, (1, (4,)): 49}
    g = l2.gen()
    assert roots_of(l2, [(g, 8), (l2.one, 7)]) == {
        (2, l2.key(g)): 8, (2, l2.key(l2.one)): 7}
    h = l2.add(g, l2.one)  # (x - h)^14 takes the 7th root of h^7
    assert roots_of(l2, [(g, 8), (l2.one, 7), (h, 14)]) == {
        (2, l2.key(g)): 8, (2, l2.key(l2.one)): 7, (2, l2.key(h)): 14}
    # (x^2 - 3)^7 over GF(7): 3 is a non-residue, roots at level 2
    x = MultiPoly.var(l1, ("x",), "x")
    f = (x.pow(2) - MultiPoly.const(l1, ("x",), 3)).pow(7)
    rm = roots_in_tower(to_dense(f, "x"), l1, max_level=2)
    assert rm.complete and [(lv, m) for lv, _r, m in rm.roots] == [(2, 7)] * 2
    assert all(l2.mul(r, r) == l2.from_int(3) for _lv, r, _m in rm.roots)
    assert not roots_in_tower(to_dense(f, "x"), l1, max_level=1).complete


def test_binary_roots_infinity(tower7):
    lvl = tower7.level(1)
    V = ("s0", "s1")
    # s1^2 * (s0 - 3 s1): the two s1 factors plus the two formal-degree
    # excess factors all land on the point at infinity [1:0]
    form = MultiPoly.from_int_terms(lvl, V, {(1, 2): 1, (0, 3): -3})
    rm = binary_roots(dense(form, (5,)), lvl, max_level=2)
    inf = [r for r in rm.roots if r[1][1] == lvl.zero]
    assert len(inf) == 1 and inf[0][2] == 4
    finite = [r for r in rm.roots if r[1][1] != lvl.zero]
    assert [(lv, r, m) for lv, r, m in finite] == [(1, (3, 1), 1)]
    assert sum(m for _, _, m in rm.roots) == 5


def test_binary_roots_level_of_infinity_matches_form_field(tower7):
    lvl = tower7.level(2)
    V = ("t0", "t1")
    form = MultiPoly(lvl, V, {(1, 0): lvl.one})  # t0: root [0:1] only
    rm = binary_roots(dense(form, (2,)), lvl, max_level=4)
    for lv, (a, b), _m in rm.roots:
        ext = tower7.level(lv)
        assert lv % lvl.k == 0 or lv == lvl.k
        # elements live at their reported level
        ext.add(a, b)


def test_binary_gcd_with_infinity():
    from cubiclines.fields import FieldTower
    tw = FieldTower(7, budget=2, seed=0)
    lvl = tw.level(1)
    V = ("s0", "s1")
    f = MultiPoly.from_int_terms(lvl, V, {(1, 1): 1})        # s0 s1, deg 2
    g = MultiPoly.from_int_terms(lvl, V, {(1, 0): 1})        # s0 (deg 2 formal)
    h = binary_gcd([dense(f, (2,)), dense(g, (2,))], lvl)
    # common divisor: s0 and the infinity factor from g's formal degree
    assert len(h) - 1 == 2


def test_rational_roots():
    V = ("x",)
    x = MultiPoly.var(QQ, V, "x")
    c = lambda n: MultiPoly.const(QQ, V, Fraction(n))
    f = (x - c(2)) * (x + c(Fraction(1, 3))) * (x.pow(2) - c(2))
    rm = roots_in_tower(to_dense(f, "x"), QQ)
    vals = sorted(r for _, r, _m in rm.roots)
    assert vals == [Fraction(-1, 3), Fraction(2)]
    assert not rm.complete  # sqrt(2) factor has no rational roots


def test_exact_div_round_trip(tower7):
    lvl = tower7.level(1)
    rng = random.Random(11)
    V = ("x", "y")
    for _ in range(30):
        f, g = rand_poly(lvl, V, rng), rand_poly(lvl, V, rng)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f
        assert divides_exactly(f * g, g) == f


def dense_poly(lvl, variables, deg, rng):
    """Every monomial of total degree <= deg, with random coefficients."""
    terms = {e: lvl.from_int(rng.randrange(-4, 5))
             for e in itertools.product(range(deg + 1), repeat=len(variables))
             if sum(e) <= deg}
    return MultiPoly(lvl, variables, terms)


@pytest.mark.parametrize("over", ["GF7", "QQ"])
def test_subs_agrees_with_eval(tower7, over):
    rng = random.Random(3)
    V = ("x", "y", "z")
    if over == "GF7":
        base, lvl = tower7.level(1), tower7.level(2)
        draw = lambda: lvl.from_coeffs([rng.randrange(7) for _ in range(2)])
    else:
        base = lvl = QQ
        draw = lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    for _ in range(10):
        f = dense_poly(base, V, 3, rng)
        a, c = draw(), draw()
        # constants and a variable in eval_polys: the same polynomial in y
        args = [MultiPoly.const(lvl, ("y",), a), MultiPoly.var(lvl, ("y",), "y"),
                MultiPoly.const(lvl, ("y",), c)]
        part = subs(f, (a, None, c), lvl)
        assert part.vars == ("y",)
        assert part == f.over(lvl).eval_polys(args)
        # every variable fixed: the value of eval_elems
        vals = [a, draw(), c]
        assert subs(f, vals, lvl).constant_value() == f.over(lvl).eval_elems(vals)
        # nothing fixed: the same polynomial, carried to lvl
        assert subs(f, (None,) * 3, lvl) == f.over(lvl)


@pytest.mark.parametrize("over", ["GF7", "GF7^3", "QQ"])
def test_eval_elems_matches_naive(tower7, over):
    """eval_elems against term-by-term evaluation by repeated products, on
    dense cubics whose monomials share exponents (x^2*y and x^2*z, ...)."""
    rng = random.Random(5)
    V = ("x", "y", "z", "w")
    if over == "QQ":
        lvl = QQ
        draw = lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    else:
        lvl = tower7.level(1 if over == "GF7" else 3)
        draw = lambda: lvl.from_coeffs([rng.randrange(7) for _ in range(lvl.k)])
    for trial in range(10):
        f = MultiPoly(lvl, V, {e: draw() for e in itertools.product(
            range(4), repeat=len(V)) if sum(e) <= 3})
        vals = [draw() for _ in V]
        if trial % 2:
            vals[1] = vals[0]       # a repeated value
            vals[3] = lvl.zero
        naive = lvl.zero
        for exps, c in f.terms.items():
            t = c
            for v, e in zip(vals, exps):
                for _ in range(e):
                    t = lvl.mul(t, v)
            naive = lvl.add(naive, t)
        assert f.eval_elems(vals) == naive


@pytest.mark.parametrize("over", ["GF7", "GF7^3", "QQ"])
def test_eval_polys_matches_sum_of_terms(tower7, over):
    """eval_polys against the sum of its substituted terms, one MultiPoly
    addition per monomial: the same terms in the same order, on dense
    inputs where partial sums cancel and terms come back."""
    rng = random.Random(6)
    V, W = ("x", "y", "z", "w"), ("s", "t", "u")
    if over == "QQ":
        lvl = QQ
        draw = lambda: Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))
    else:
        lvl = tower7.level(1 if over == "GF7" else 3)
        draw = lambda: lvl.from_coeffs([rng.randrange(7) for _ in range(lvl.k)])
    for _ in range(6):
        f = MultiPoly(lvl, V, {e: draw() for e in itertools.product(
            range(4), repeat=len(V)) if sum(e) <= 3})
        args = [MultiPoly(lvl, W, {e: draw() for e in itertools.product(
            range(3), repeat=len(W)) if sum(e) <= 2}) for _ in V]
        summed = MultiPoly.zero(lvl, W)
        for exps, c in f.terms.items():
            term = MultiPoly.const(lvl, W, c)
            for a, e in zip(args, exps):
                term = term * a.pow(e)
            summed = summed + term
        got = f.eval_polys(args)
        assert got.vars == W
        assert list(got.terms.items()) == list(summed.terms.items())


def test_linear_forms_and_combine(tower7):
    lvl = tower7.level(1)
    rows = [[1, 0, 2], [0, 3, 0]]
    s, t = (MultiPoly.var(lvl, ("s", "t"), v) for v in ("s", "t"))
    assert linear_forms(lvl, ("s", "t"), rows) == [
        s, t.scale(3), s.scale(2)]
    assert linalg.combine([2, 5], rows, lvl) == [2, 1, 4]
    rng = random.Random(4)
    for _ in range(10):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
        c = [rng.randrange(7) for _ in range(3)]
        forms = linear_forms(lvl, ("a", "b", "c"), rows)
        assert [f.eval_elems(c) for f in forms] == linalg.combine(c, rows, lvl)


def test_complete_basis(tower7):
    lvl = tower7.level(1)
    assert complete_basis([[0, 1, 1]], lvl) == [
        [0, 1, 1], [1, 0, 0], [0, 1, 0]]
    # e0 is already in the span, so e1 is the first to raise the rank
    assert complete_basis([[1, 0, 0], [0, 0, 1]], lvl) == [
        [1, 0, 0], [0, 0, 1], [0, 1, 0]]
    full = [[1, 0], [0, 1]]
    assert complete_basis(full, lvl) == full


@pytest.mark.parametrize("over", ["GF7", "GF7^3", "QQ"])
def test_unchecked_results_match_checking_constructor(tower7, over):
    """Sums, products, negation, scaling, eval_polys and map_field build
    their results without the constructor's zero check:
    each equals the checking constructor on the raw (zero-holding) result
    and holds no zero coefficient, on dense inputs where terms cancel."""
    rng = random.Random(8)
    V, W = ("x", "y", "z"), ("s", "t")
    if over == "QQ":
        lvl = QQ
        draw = lambda: Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))
    else:
        lvl = tower7.level(1 if over == "GF7" else 3)
        draw = lambda: lvl.from_coeffs([rng.randrange(7) for _ in range(lvl.k)])
    monos = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
    for _ in range(5):
        fd, gd = ({e: draw() for e in monos} for _ in range(2))
        f, g = MultiPoly(lvl, V, fd), MultiPoly(lvl, V, gd)
        c = draw()
        prod = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = lvl.add(prod.get(e, lvl.zero), lvl.mul(c1, c2))
        args = [MultiPoly(lvl, W, {e: draw() for e in itertools.product(
            range(2), repeat=2)}) for _ in V]
        summed = MultiPoly.zero(lvl, W)
        for exps, a in f.terms.items():
            term = MultiPoly.const(lvl, W, a)
            for arg, e in zip(args, exps):
                term = term * arg.pow(e)
            summed = summed + term
        cases = [
            (f + g, V, {e: lvl.add(fd[e], gd[e]) for e in monos}),
            (f + (-f), V, {e: lvl.zero for e in monos}),
            (f * g, V, prod),
            (-f, V, {e: lvl.neg(a) for e, a in fd.items()}),
            (f.scale(c), V, {e: lvl.mul(c, a) for e, a in fd.items()}),
            (f.map_field(lvl, lambda a: lvl.sub(a, c)), V,
             {e: lvl.sub(a, c) for e, a in f.terms.items()}),
            (f.eval_polys(args), W, summed.terms),
        ]
        for got, variables, raw in cases:
            assert got == MultiPoly(lvl, variables, raw)
            assert isinstance(got.vars, tuple)
            assert all(isinstance(e, tuple) and not lvl.is_zero(a)
                       for e, a in got.terms.items())
