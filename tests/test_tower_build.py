"""How a tower is built: its defining polynomials and generator images are
pinned, and checked against references that do not use the tower's own
root finder or irreducibility test.

The pinned values fix how level-k elements are written, so every report
and golden depends on them (``perfbench/checks.py`` also reads the moduli
from the program).
"""

import random

import pytest
import sympy

from cubiclines.fields import FieldTower, _distinct_degree

# moduli of levels 2..6 (level 1 is x), little-endian and monic
MODULI = {
    (5, 0): [[3, 0, 1], [1, 1, 3, 1], [3, 3, 1, 3, 1], [4, 1, 0, 0, 1, 1],
             [4, 1, 0, 4, 0, 1, 1]],
    (5, 1): [[2, 4, 1], [2, 4, 4, 1], [2, 0, 2, 4, 1], [1, 1, 3, 2, 4, 1],
             [2, 4, 0, 3, 0, 3, 1]],
    (5, 2): [[3, 0, 1], [3, 4, 1, 1], [3, 4, 4, 2, 1], [4, 2, 3, 1, 1, 1],
             [2, 3, 2, 1, 1, 1, 1]],
    (7, 0): [[6, 3, 1], [6, 3, 6, 1], [4, 4, 3, 6, 1], [6, 6, 3, 5, 2, 1],
             [6, 4, 5, 2, 0, 1, 1]],
    (7, 1): [[3, 6, 1], [6, 0, 3, 1], [5, 5, 3, 1, 1], [1, 3, 0, 4, 1, 1],
             [5, 5, 2, 0, 5, 4, 1]],
    (7, 2): [[4, 0, 1], [3, 5, 1, 1], [5, 1, 4, 1, 1], [2, 1, 0, 2, 0, 1],
             [3, 0, 6, 5, 5, 0, 1]],
    (11, 0): [[4, 2, 1], [1, 4, 2, 1], [1, 9, 6, 0, 1], [4, 10, 4, 1, 7, 1],
              [3, 3, 2, 4, 6, 6, 1]],
    (11, 1): [[8, 1, 1], [1, 2, 10, 1], [8, 4, 7, 8, 1], [3, 6, 5, 10, 2, 1],
              [7, 3, 8, 3, 1, 2, 1]],
    (11, 2): [[6, 9, 1], [8, 6, 0, 1], [4, 6, 2, 5, 1], [5, 4, 9, 5, 5, 1],
              [6, 8, 3, 9, 10, 2, 1]],
}

# images of the level-j generator in level k for (j, k) in EMBEDDINGS
EMBEDDINGS = ((2, 4), (2, 6), (3, 6))
GEN_IMAGES = {
    (5, 0): [(1, 2, 3, 2), (2, 0, 2, 1, 3, 2), (1, 2, 1, 4, 2, 3)],
    (5, 1): [(2, 0, 2, 1), (3, 2, 4, 3, 2, 2), (1, 0, 0, 2, 0, 4)],
    (5, 2): [(1, 0, 4, 3), (2, 3, 0, 2, 4, 2), (3, 0, 2, 0, 0, 3)],
    (7, 0): [(5, 6, 6, 5), (1, 2, 5, 0, 4, 5), (1, 2, 5, 6, 3, 5)],
    (7, 1): [(4, 2, 1, 3), (2, 4, 2, 5, 6, 4), (2, 1, 0, 3, 2, 6)],
    (7, 2): [(1, 4, 1, 0), (2, 6, 0, 6, 3, 0), (0, 1, 2, 2, 3, 2)],
    (11, 0): [(2, 0, 3, 4), (2, 7, 9, 0, 2, 9), (0, 5, 10, 10, 8, 2)],
    (11, 1): [(3, 2, 8, 6), (1, 0, 0, 2, 0, 5), (3, 6, 6, 3, 8, 3)],
    (11, 2): [(4, 9, 5, 2), (4, 4, 10, 10, 9, 0), (0, 3, 4, 9, 6, 9)],
}


def horner(f, x, lvl):
    acc = lvl.zero
    for c in reversed(f):
        acc = lvl.add(lvl.mul(acc, x), c)
    return acc


def sympy_irreducible(f, p):
    x = sympy.Symbol("x")
    expr = sum(c * x ** i for i, c in enumerate(f))
    _, facs = sympy.Poly(expr, x, modulus=p).factor_list()
    return len(facs) == 1 and facs[0][1] == 1


@pytest.mark.parametrize("p, seed", sorted(MODULI))
def test_tower_is_pinned(p, seed):
    """Moduli of levels 1..6 and the generator images between them."""
    tower = FieldTower(p, budget=6, seed=seed)
    assert [tower.level(k).modulus for k in range(1, 7)] == \
        [[0, 1]] + MODULI[(p, seed)]
    assert [tower._gen_image(j, k) for j, k in EMBEDDINGS] == \
        GEN_IMAGES[(p, seed)]


@pytest.mark.parametrize("p, seed", sorted(MODULI))
def test_pins_are_irreducible_and_roots(p, seed):
    """Independently of the tower code: each pinned modulus is irreducible
    by sympy's factorization mod p, and each pinned generator image is the
    least root (by coefficients) of the level-j modulus in level k, by
    Horner substitution, with j distinct conjugates under x -> x^p."""
    mods = [[0, 1]] + MODULI[(p, seed)]
    assert all(sympy_irreducible(f, p) for f in mods)
    tower = FieldTower(p, budget=6, seed=seed)
    for (j, k), img in zip(EMBEDDINGS, GEN_IMAGES[(p, seed)]):
        lk = tower.level(k)
        f = [lk.from_int(c) for c in mods[j - 1]]
        assert horner(f, img, lk) == lk.zero
        conj = [lk.pow_(img, p ** i) for i in range(j)]
        assert len(set(conj)) == j
        assert all(horner(f, r, lk) == lk.zero for r in conj)
        assert img == min(conj)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_linear_polynomials_are_irreducible(p):
    """The distinct-degree criterion that accepts a modulus says every monic
    linear polynomial is irreducible."""
    lvl = FieldTower(p, budget=1, seed=0).level(1)
    for a in range(p):
        assert _distinct_degree([a, 1], lvl) == [(1, [a, 1])]


@pytest.mark.parametrize("j, k", EMBEDDINGS)
def test_embedding_is_a_ring_map_into_its_descent(j, k):
    """embed_from(., j) respects sums and products, lands in the level-j
    subfield (its Frobenius orbit has length dividing j) and descends back."""
    tower = FieldTower(7, budget=6, seed=1)
    lj, lk = tower.level(j), tower.level(k)
    rng = random.Random(j * 10 + k)
    for _ in range(40):
        a, b = (lj.from_coeffs([rng.randrange(7) for _ in range(j)])
                for _ in range(2))
        ea, eb = lk.embed_from(a, j), lk.embed_from(b, j)
        assert lk.add(ea, eb) == lk.embed_from(lj.add(a, b), j)
        assert lk.mul(ea, eb) == lk.embed_from(lj.mul(a, b), j)
        assert j % lk.min_subfield(ea) == 0
        assert lk.descend(ea, j) == a
    assert lk.embed_from(lj.one, j) == lk.one
