"""The dense binary and bihomogeneous forms of ``poly``: the Sylvester
resultant against sympy over GF(7) and GF(11) and against the sparse
Bareiss resultant of ``oracle`` at extension levels, and the checks that
certify the dense solver (solution substitution, the sharpness of the
diagonal division, exact division by a linear form)."""

import random

import pytest

from cubiclines import secant
from cubiclines.bihom import (PositiveDimensionalError, _verify_solutions,
                              divide_diagonal, solve_bihomog)
from cubiclines.fields import FieldTower, VerificationError, upoly_trim
from cubiclines.cubic import xvars
from cubiclines.poly import MultiPoly, linear_quotient, sylvester_resultant
import oracle

sp = pytest.importorskip("sympy")

BIDEGREES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (0, 2), (2, 0), (3, 2)]


def rand_elem(lvl, rng):
    return lvl.from_coeffs([rng.randrange(lvl.p) for _ in range(lvl.k)])


def rand_array(lvl, rng, a, b):
    return [[rand_elem(lvl, rng) for _ in range(b + 1)] for _ in range(a + 1)]


def rand_pair(lvl, rng):
    """Two random nonzero arrays; in about half the pairs one or both lose
    their leading coefficient in t0 (column 0) or in s0 (row 0), so the
    formal degree is above the actual one."""
    while True:
        (a1, b1), (a2, b2) = rng.choice(BIDEGREES), rng.choice(BIDEGREES)
        G1, G2 = rand_array(lvl, rng, a1, b1), rand_array(lvl, rng, a2, b2)
        for G in (G1, G2):
            if rng.random() < 0.35:
                for row in G:
                    row[0] = lvl.zero
            if rng.random() < 0.25:
                G[0] = [lvl.zero] * len(G[0])
        if all(any(not lvl.is_zero(x) for row in G for x in row)
               for G in (G1, G2)):
            return G1, G2


def columns(G):
    return list(zip(*G))


def at_ones(R, lvl):
    """A binary form at u1 = 1, low degree first."""
    return upoly_trim(list(R[::-1]), lvl)


def sympy_poly(G, s, t):
    """G at s1 = t1 = 1 as a sympy expression in s and t."""
    a, b = len(G) - 1, len(G[0]) - 1
    return sum(G[i][j] * s ** (a - i) * t ** (b - j)
               for i in range(a + 1) for j in range(b + 1))


def sympy_formal_resultant(G1, G2, p):
    """Res_t of the arrays at their formal t-degrees over GF(p), at s = 1,
    from sympy's resultant at the actual degrees: each vanishing leading
    coefficient of G1 contributes (-1)^n times that of G2, and each one of
    G2 the leading coefficient of G1 (expanding the Sylvester matrix along
    its first column); both vanishing gives zero."""
    s, t = sp.symbols("s t")
    f, g = sympy_poly(G1, s, t), sympy_poly(G2, s, t)
    m, n = len(G1[0]) - 1, len(G2[0]) - 1
    F, G = (sp.Poly(h, t, s, modulus=p) for h in (f, g))
    mf = F.degree(t) if not F.is_zero else -1
    ng = G.degree(t) if not G.is_zero else -1
    if mf < m and ng < n:
        return []
    res = sp.resultant(f, g, t, s, modulus=p)
    lead_g = sympy_poly([[row[0]] for row in G2], s, t)
    lead_f = sympy_poly([[row[0]] for row in G1], s, t)
    expr = res * ((-1) ** n * lead_g) ** (m - mf) * lead_f ** (n - ng)
    coeffs = [int(c) % p for c in sp.Poly(expr, s, modulus=p).all_coeffs()]
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    return coeffs[::-1]


@pytest.mark.parametrize("p", [7, 11])
def test_resultant_matches_sympy(p):
    lvl = FieldTower(p, budget=1, seed=0).level(1)
    rng = random.Random("sympy:%d" % p)
    excess = 0
    for _ in range(40):
        G1, G2 = rand_pair(lvl, rng)
        R = sylvester_resultant(columns(G1), columns(G2), lvl)
        (a1, b1), (a2, b2) = ((len(G) - 1, len(G[0]) - 1) for G in (G1, G2))
        assert len(R) - 1 == b2 * a1 + b1 * a2
        assert at_ones(R, lvl) == sympy_formal_resultant(G1, G2, p)
        excess += any(lvl.is_zero(row[0]) for G in (G1, G2) for row in G)
    assert excess >= 10


@pytest.mark.parametrize("p,k", [(7, 2), (7, 3), (11, 2), (11, 3)])
def test_resultant_matches_sparse_bareiss(p, k):
    """The dense resultant against the MultiPoly resultant with formal
    degrees, as the solver ran it at t1 = 1, on extension-level arrays."""
    lvl = FieldTower(p, budget=k, seed=0).level(k)
    rng = random.Random("bareiss:%d:%d" % (p, k))
    for _ in range(12):
        G1, G2 = rand_pair(lvl, rng)
        sparse = [MultiPoly(lvl, oracle.STVARS, {
            (len(G) - 1 - i, i, len(row) - 1 - j, j): c
            for i, row in enumerate(G) for j, c in enumerate(row)})
            for G in (G1, G2)]
        at_t1 = [oracle.subs(P, (None, None, None, lvl.one)) for P in sparse]
        (a1, b1), (a2, b2) = ((len(G) - 1, len(G[0]) - 1) for G in (G1, G2))
        want = oracle.resultant(*at_t1, "t0", deg_f=b1, deg_g=b2)
        got = sylvester_resultant(columns(G1), columns(G2), lvl)
        assert got == oracle.dense(want, (b2 * a1 + b1 * a2,))


def times_delta(H, lvl):
    """The array of H * (s0*t1 - s1*t0)."""
    a, b = len(H), len(H[0])
    def h(i, j):
        return H[i][j] if 0 <= i < a and 0 <= j < b else lvl.zero
    return [[lvl.sub(h(i, j - 1), h(i - 1, j)) for j in range(b + 1)]
            for i in range(a + 1)]


@pytest.mark.parametrize("k", [1, 2])
def test_diagonal_division_refuses_a_higher_order(k):
    """With the diagonal to the third power dividing G, dividing it out
    twice must fail the sharpness check; three times gives back H."""
    lvl = FieldTower(7, budget=2, seed=0).level(k)
    rng = random.Random("delta:%d" % k)
    for a, b in [(1, 1), (2, 1), (0, 2), (2, 3)]:
        H = rand_array(lvl, rng, a, b)
        # a multiple of the diagonal has a zero corner entry
        H[0][0] = lvl.one
        G = times_delta(times_delta(times_delta(H, lvl), lvl), lvl)
        assert divide_diagonal(G, 3, lvl) == H
        with pytest.raises(ValueError):
            divide_diagonal(G, 2, lvl)


def test_corrupted_solution_fails_substitution(tower7):
    """A solved pair passes its substitution check; moving one fiber point
    of one solution makes the check raise."""
    lvl = tower7.level(1)
    rng = random.Random("corrupt")
    while True:
        G1, G2 = rand_array(lvl, rng, 2, 1), rand_array(lvl, rng, 1, 2)
        try:
            sols = solve_bihomog(G1, G2, lvl, max_level=2)
        except PositiveDimensionalError:
            continue
        if sols.solutions:
            break
    _verify_solutions(sols, (G1, G2), lvl)
    lv, s, t, m = sols.solutions[0]
    up = tower7.level(lv)
    t = ((up.add(t[0], up.one), t[1]) if not up.is_zero(t[1])
         else (t[0], up.one))
    sols.solutions[0] = (lv, s, t, m)
    with pytest.raises(VerificationError):
        _verify_solutions(sols, (G1, G2), lvl)


def times_linear(f, p, lvl):
    """The binary form f times p1*u0 - p0*u1."""
    out = [lvl.zero] * (len(f) + 1)
    for i, c in enumerate(f):
        out[i] = lvl.add(out[i], lvl.mul(p[1], c))
        out[i + 1] = lvl.sub(out[i + 1], lvl.mul(p[0], c))
    return out


@pytest.mark.parametrize("in_t", [True, False])
def test_line_mode_division_is_exact_or_raises(tower7, in_t):
    """Line mode divides the rows (in t) or the columns (in s) by the
    linear form at a meeting parameter: exact on a multiple of it, and an
    error on an array that the form does not divide."""
    lvl = tower7.level(1)
    rng = random.Random("linear:%d" % in_t)
    p = (3, 1)
    H = rand_array(lvl, rng, 2, 2)
    if in_t:
        G = [times_linear(row, p, lvl) for row in H]
    else:
        G = [list(r) for r in zip(*(times_linear(c, p, lvl)
                                    for c in zip(*H)))]
    assert secant._divide_pair(G, p, in_t, lvl) == H
    G[1][1] = lvl.add(G[1][1], lvl.one)
    with pytest.raises(ValueError):
        secant._divide_pair(G, p, in_t, lvl)
    with pytest.raises(ValueError):
        linear_quotient([1, 0, 1], (3, 1), lvl)


def test_along_refuses_a_mixed_form(tower7):
    """A polynomial that is not homogeneous has no formal degree, so along
    raises, as it does for a curve without one coordinate per variable;
    the zero polynomial gives []."""
    lvl = tower7.level(1)
    n = 3
    line = ((1, 0), (0, 1), (2, 3), (5, 1))
    mixed = MultiPoly.from_int_terms(lvl, xvars(n), {(1, 0, 0, 0): 1,
                                                     (0, 2, 0, 0): 1})
    with pytest.raises(ValueError):
        mixed.along(line, lvl)
    with pytest.raises(ValueError):
        MultiPoly.from_int_terms(lvl, xvars(n), {(0, 2, 0, 0): 1}).along(
            line[:3], lvl)
    assert MultiPoly.zero(lvl, xvars(n)).along(line, lvl) == []
