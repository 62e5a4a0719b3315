"""Frobenius orbits in root finding: the linear Frobenius, the equal-degree
split at the base level and one root per factor by trace splits.

The references do not use the root finder or the tower's irreducibility
test: roots are checked by Horner substitution, pairwise distinctness and
their count, and against brute force on levels of at most 2,401 elements;
irreducibility at level 1 comes from sympy's factorization mod p.
"""

import random

import pytest
import sympy

from cubiclines import fields
from cubiclines.fields import (FieldTower, VerificationError, _equal_degree,
                               _one_root, roots_of_split_poly, upoly_mul)
from cubiclines.poly import roots_in_tower

BRUTE_FORCE_MAX = 7 ** 4


def rand_elem(lvl, rng):
    return lvl.from_coeffs([rng.randrange(lvl.p) for _ in range(lvl.k)])


def sympy_factors(h, p):
    """Monic factors with multiplicity of h over GF(p), by sympy."""
    x = sympy.Symbol("x")
    expr = sum(c * x ** i for i, c in enumerate(h))
    _, facs = sympy.Poly(expr, x, modulus=p).factor_list()
    return sorted([int(c) % p for c in reversed(g.all_coeffs())]
                  for g, e in facs for _ in range(e))


def is_irreducible(h, lvl):
    """Irreducibility over lvl: sympy at the prime level, else (degree <= 3)
    no root in lvl."""
    if len(h) == 2:
        return True
    if lvl.k == 1:
        return sympy_factors(h, lvl.p) == [h]
    assert len(h) - 1 <= 3
    return not any(horner(h, x, lvl) == lvl.zero for x in lvl.elements())


def horner(h, x, lvl):
    acc = lvl.zero
    for c in reversed(h):
        acc = lvl.add(lvl.mul(acc, x), c)
    return acc


def random_irreducibles(lvl, m, count, rng):
    """``count`` distinct monic irreducibles of degree m over lvl."""
    out = []
    while len(out) < count:
        h = [rand_elem(lvl, rng) for _ in range(m)] + [lvl.one]
        if h not in out and is_irreducible(h, lvl):
            out.append(h)
    return out


def product(polys, lvl):
    acc = [lvl.one]
    for h in polys:
        acc = upoly_mul(acc, h, lvl)
    return acc


def check_full_split(roots, h, base, tgt):
    """roots are all roots in tgt of the squarefree h over level base, which
    splits there: each is a root, they are pairwise distinct and as many as
    deg h, and on a small level they are every element where h vanishes."""
    lifted = [tgt.embed_from(c, base) for c in h]
    assert all(horner(lifted, r, tgt) == tgt.zero for r in roots)
    assert len(set(roots)) == len(roots) == len(h) - 1
    if tgt.q <= BRUTE_FORCE_MAX:
        brute = [x for x in tgt.elements() if horner(lifted, x, tgt) == tgt.zero]
        assert sorted(roots, key=tgt.key) == sorted(brute, key=tgt.key)


# (p, base level, relative degree m); the target level is base * m
ORBIT_CASES = ([(5, 1, m) for m in (2, 3, 4, 5, 6)]
               + [(7, 1, m) for m in (2, 3, 4, 5, 6)]
               + [(11, 1, m) for m in (2, 3, 4, 5)]
               + [(7, 2, 2), (7, 2, 3)])


@pytest.fixture(scope="module")
def towers():
    return {p: FieldTower(p, budget=6, seed=0) for p in (5, 7, 11)}


@pytest.mark.parametrize("p, base, m", ORBIT_CASES)
def test_orbit_path_matches_full_split(towers, p, base, m):
    """Pieces of one to three degree-m factors: the equal-degree factors are
    irreducible and multiply back to the piece, and the orbit roots are a
    full split of the piece at level base * m."""
    tower = towers[p]
    lvl, tgt = tower.level(base), tower.level(base * m)
    rng = random.Random("orbit:%d:%d:%d" % (p, base, m))
    for count in (1, 2, 3):
        chosen = random_irreducibles(lvl, m, count, rng)
        piece = product(chosen, lvl)
        factors = _equal_degree(piece, m, lvl, rng)
        assert all(len(h) - 1 == m and is_irreducible(h, lvl) for h in factors)
        assert product(factors, lvl) == piece
        assert sorted(factors) == sorted(chosen)
        check_full_split(roots_of_split_poly(piece, m, lvl, tgt, rng), piece,
                         base, tgt)


# irreducible binomials x^m - a whose roots are GF(p)-multiples of each
# other with square ratios: r and -r (-1 = 2^2 mod 5), r * {1, 2, 4} (the
# cube roots of unity mod 7 are squares), and r * GF(7)^*
BINOMIALS = [(5, [3, 0, 1]), (7, [4, 0, 0, 1]), (7, [4, 0, 0, 0, 0, 0, 1])]


@pytest.mark.parametrize("p, h", BINOMIALS)
def test_roots_with_square_ratios(towers, p, h):
    """A trace split Tr(c r) takes the same quadratic character at roots
    whose ratio is a square in GF(p), so only the shift Tr(c0) separates
    them: the roots are still found, each a root and as many as deg h."""
    lvl = towers[p].level(1)
    m = len(h) - 1
    assert is_irreducible(h, lvl)
    roots = roots_of_split_poly(h, m, lvl, towers[p].level(m),
                                random.Random("binomial:%d:%d" % (p, m)))
    check_full_split(roots, h, 1, towers[p].level(m))


def test_an_irreducible_quadratic_passed_as_split_raises(towers):
    """x^2 + 1 over GF(7) has no root there: the trace steps never split
    it, and give up with VerificationError instead of looping."""
    lvl = towers[7].level(1)
    with pytest.raises(VerificationError):
        _one_root([1, 0, 1], [[0, 1]], lvl, random.Random(0))
    with pytest.raises(VerificationError):
        roots_of_split_poly([1, 0, 1], 2, lvl, lvl, random.Random(0))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_equal_degree_split_matches_sympy(towers, p):
    """Level-1 equal-degree factors against sympy's factorization mod p."""
    lvl = towers[p].level(1)
    rng = random.Random(p)
    for m in (2, 3, 4):
        piece = product(random_irreducibles(lvl, m, 3, rng), lvl)
        assert sorted(_equal_degree(piece, m, lvl, rng)) == \
            sympy_factors(piece, p)


@pytest.mark.parametrize("p, base", [(5, 1), (7, 1), (11, 1), (7, 2)])
def test_roots_in_tower_matches_full_split(towers, p, base):
    """Seeded random polynomials, with repeated factors and factors of
    several degrees, including pieces of several same-degree factors: the
    roots of each known irreducible factor h of degree m are a full split
    of h at level base * m, with h's multiplicity, sorted by level and
    key."""
    tower = towers[p]
    lvl = tower.level(base)
    rng = random.Random("tower:%d:%d" % (p, base))
    for trial in range(12):
        parts = []
        for m in range(1, 6 // base + 1):
            parts += random_irreducibles(lvl, m, rng.randrange(3), rng)
        if not parts:
            continue
        f = product(parts, lvl)
        mults = [1] * len(parts)
        if trial % 3 == 0:
            f = upoly_mul(f, parts[0], lvl)
            mults[0] = 2
        if trial % 4 == 1:
            # irreducible of degree 7 over GF(p) and GF(p^2): stays unsplit
            h = random_irreducibles(tower.level(1), 7, 1, rng)[0]
            f = upoly_mul(f, [lvl.from_int(c) for c in h], lvl)
        f = [lvl.mul(c, lvl.from_int(3)) for c in f]
        rm = roots_in_tower(f, lvl)
        got = rm.roots
        assert got == sorted(got, key=lambda t: (t[0], tower.level(t[0]).key(t[1])))
        assert len(got) == sum(len(h) - 1 for h in parts)
        for h, mult in zip(parts, mults):
            tgt = tower.level(base * (len(h) - 1))
            lifted = [tgt.embed_from(c, base) for c in h]
            mine = [(r, mu) for lv, r, mu in got if lv == tgt.k
                    and horner(lifted, r, tgt) == tgt.zero]
            check_full_split([r for r, _ in mine], h, base, tgt)
            assert all(mu == mult for _, mu in mine)
        assert rm.unsplit == ([(7, base, 1)] if trial % 4 == 1 else [])


def _frob_by_power(lvl, a, t):
    return lvl.pow_(a, lvl.p ** t)


def _min_subfield_by_power(lvl, a):
    return min(j for j in range(1, lvl.k + 1)
               if lvl.k % j == 0 and lvl.pow_(a, lvl.p ** j) == a)


@pytest.mark.parametrize("p, k, samples", [(7, 2, None), (7, 3, None),
                                           (11, 6, 150)])
def test_frob_and_min_subfield_match_powers(p, k, samples):
    """Every element of GF(7^2) and GF(7^3), and a sample of GF(11^6)."""
    lvl = FieldTower(p, budget=6, seed=0).level(k)
    if samples is None:
        elems = list(lvl.elements())
    else:
        rng = random.Random(k)
        elems = [rand_elem(lvl, rng) for _ in range(samples)]
    for a in elems:
        for t in range(k + 1):
            assert lvl.frob(a, t) == _frob_by_power(lvl, a, t), (a, t)
        assert lvl.min_subfield(a) == _min_subfield_by_power(lvl, a), a


def test_orbit_certificate_rejects_a_wrong_orbit(monkeypatch):
    """With the Frobenius replaced by the identity, the orbit of x^2 + 1 over
    GF(7) is one root twice and must not pass."""
    lvl = FieldTower(7, budget=2, seed=0).level(1)
    monkeypatch.setattr(fields.FiniteLevel, "frob", lambda self, a, times=1: a)
    with pytest.raises(VerificationError):
        roots_in_tower([1, 0, 1], lvl)


def test_a_piece_of_mixed_degrees_raises_instead_of_looping():
    """(x - 1)(x^2 + 1) over GF(7) passed as a piece of degree-1 factors:
    the quadratic never splits, and the bounded Cantor-Zassenhaus steps
    give up with VerificationError."""
    lvl = FieldTower(7, budget=2, seed=0).level(1)
    piece = upoly_mul([6, 1], [1, 0, 1], lvl)
    with pytest.raises(VerificationError):
        roots_of_split_poly(piece, 1, lvl, lvl, random.Random(0))


def test_characteristic_two_is_refused():
    """The root path needs odd characteristic, for pieces of relative
    degree 2 and 1 alike."""
    lvl = FieldTower(2, budget=4, seed=0).level(1)
    with pytest.raises(NotImplementedError):
        roots_in_tower([1, 1, 1], lvl)          # irreducible of degree 2
    with pytest.raises(NotImplementedError):
        roots_in_tower([0, 1, 1], lvl)          # x(x + 1)
