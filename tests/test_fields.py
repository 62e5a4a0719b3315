import itertools
import random

import pytest

from cubiclines.fields import (QQ, BudgetError, FieldTower,
                               _distinct_degree, roots_of_split_poly,
                               upoly_divmod, upoly_gcd, upoly_mul,
                               upoly_trim)


def rand_elem(lvl, rng):
    if lvl.k == 1:
        return rng.randrange(lvl.p)
    return lvl.from_coeffs([rng.randrange(lvl.p) for _ in range(lvl.k)])


@pytest.fixture(scope="module")
def towers(tower7, tower11):
    return {3: FieldTower(3, budget=6, seed=0), 7: tower7, 11: tower11}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_field_axioms_sampled(towers, k):
    for tower in towers.values():
        _check_field_axioms(tower.level(k), random.Random(1000 + k))


def _check_field_axioms(lvl, rng):
    for _ in range(200):
        a, b, c = (rand_elem(lvl, rng) for _ in range(3))
        assert lvl.add(a, lvl.add(b, c)) == lvl.add(lvl.add(a, b), c)
        assert lvl.mul(a, lvl.mul(b, c)) == lvl.mul(lvl.mul(a, b), c)
        assert lvl.add(a, b) == lvl.add(b, a)
        assert lvl.mul(a, b) == lvl.mul(b, a)
        assert lvl.mul(a, lvl.add(b, c)) == lvl.add(lvl.mul(a, b),
                                                    lvl.mul(a, c))
        assert lvl.add(a, lvl.neg(a)) == lvl.zero
        if not lvl.is_zero(a):
            assert lvl.mul(a, lvl.inv(a)) == lvl.one


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_inverse_matches_fermat_power(towers, k):
    """The inverse equals a^(q-2): every element for q <= 343, else samples."""
    for p, tower in towers.items():
        lvl = tower.level(k)
        if lvl.q <= 343:
            elems = list(lvl.elements())
        else:
            rng = random.Random(2000 * p + k)
            elems = [rand_elem(lvl, rng) for _ in range(200)]
        for a in elems:
            if lvl.is_zero(a):
                with pytest.raises(ZeroDivisionError):
                    lvl.inv(a)
            else:
                assert lvl.inv(a) == lvl.pow_(a, lvl.q - 2), (p, k, a)


def test_frobenius_fixes_prime_field(tower7):
    lvl = tower7.level(3)
    for n in range(7):
        e = lvl.from_int(n)
        assert lvl.frob(e) == e


def test_multiplicative_order_divides_group(tower7):
    lvl = tower7.level(2)
    g = lvl.gen()
    acc = lvl.one
    order = None
    for i in range(1, 7 ** 2):
        acc = lvl.mul(acc, g)
        if acc == lvl.one:
            order = i
            break
    assert order is not None and (7 ** 2 - 1) % order == 0


def test_embedding_is_ring_hom(tower7):
    rng = random.Random(7)
    l1, l2 = tower7.level(1), tower7.level(2)
    for _ in range(100):
        a, b = rand_elem(l1, rng), rand_elem(l1, rng)
        ea, eb = l2.embed_from(a, 1), l2.embed_from(b, 1)
        assert l2.add(ea, eb) == l2.embed_from(l1.add(a, b), 1)
        assert l2.mul(ea, eb) == l2.embed_from(l1.mul(a, b), 1)


def test_descend_round_trip(tower7):
    rng = random.Random(17)
    l1, l3 = tower7.level(1), tower7.level(3)
    for _ in range(50):
        a = rand_elem(l1, rng)
        lifted = l3.embed_from(a, 1)
        assert l3.min_subfield(lifted) == 1
        assert l3.descend(lifted, 1) == a


def test_min_subfield_of_generator(tower7):
    l4 = tower7.level(4)
    assert l4.min_subfield(l4.gen()) == 4
    assert l4.min_subfield(l4.from_int(3)) == 1


def test_budget_enforced():
    tw = FieldTower(7, budget=2, seed=0)
    tw.level(2)
    with pytest.raises(BudgetError):
        tw.level(3)


def test_roots_of_split_poly(tower7):
    lvl = tower7.level(2)
    # (x - a)(x - b) for random a != b splits back into {a, b}
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_elem(lvl, rng), rand_elem(lvl, rng)
        if a == b:
            continue
        poly = upoly_mul([lvl.neg(a), lvl.one], [lvl.neg(b), lvl.one], lvl)
        roots = roots_of_split_poly(poly, 1, lvl, lvl, rng)
        assert sorted(map(lvl.key, roots)) == sorted(map(lvl.key, [a, b]))


def _upoly_add(a, b, lvl):
    n = max(len(a), len(b))
    a, b = (list(c) + [lvl.zero] * (n - len(c)) for c in (a, b))
    return upoly_trim([lvl.add(x, y) for x, y in zip(a, b)], lvl)


def test_upoly_divmod_identity(tower7):
    """f = q g + r with deg r < deg g; monic divisors at level 1, and at
    level 3 leading coefficients 1, the constants 2..6 and random ones."""
    for k in (1, 3):
        _check_divmod(tower7.level(k), random.Random(4))


def _check_divmod(lvl, rng):
    for trial in range(50):
        f = [rand_elem(lvl, rng) for _ in range(6)]
        g = [rand_elem(lvl, rng) for _ in range(3)]
        if lvl.k == 1 or trial % 3 == 0:
            lead = lvl.one
        elif trial % 3 == 1:
            lead = lvl.from_int(2 + trial % 5)
        else:
            lead = lvl.zero
            while lvl.is_zero(lead):
                lead = rand_elem(lvl, rng)
        g.append(lead)
        q, r = upoly_divmod(f, g, lvl)
        assert len(r) < len(g)
        assert _upoly_add(upoly_mul(q, g, lvl), r, lvl) == upoly_trim(f, lvl)


def test_rationals_exact():
    a = QQ.from_int(2)
    third = QQ.inv(QQ.from_int(3))
    assert QQ.mul(third, QQ.from_int(3)) == QQ.one
    assert QQ.sub(QQ.add(a, third), third) == a


def test_rationals_are_a_one_level_tower():
    assert QQ.tower.level(1) is QQ
    with pytest.raises(BudgetError):
        QQ.tower.level(2)
    assert (QQ.p, QQ.k, QQ.tower.p, QQ.tower.budget) == (0, 1, 0, 1)


def test_rational_subfield_maps_are_identities():
    for a in (QQ.zero, QQ.from_int(-4), QQ.inv(QQ.from_int(3))):
        assert QQ.embed_from(a, 1) == a
        assert QQ.descend(a, 1) == a
        assert QQ.min_subfield(a) == 1
    assert QQ.pow_(QQ.from_int(-2), 3) == QQ.from_int(-8)
    with pytest.raises(ValueError):
        QQ.embed_from(QQ.one, 2)


def test_secants_over_rationals_with_none_or_tower(threefoldQ, conicQ):
    from cubiclines.cubic import cubic_from_json
    from cubiclines.secant import count_secants_single
    from conftest import fixture_json
    _X, tower = cubic_from_json(fixture_json("fermatQ_threefold.json"))
    assert tower is QQ.tower
    by_none = count_secants_single(threefoldQ, conicQ, None)
    by_tower = count_secants_single(threefoldQ, conicQ, tower)
    assert by_none.to_json() == by_tower.to_json()
    assert by_none.distinct_count == 1


def test_cubic_transport_checks_its_target(tower7):
    from oracle import fermat_cubic
    with pytest.raises(ValueError):
        fermat_cubic(QQ, 4)._over(tower7.level(1))
    with pytest.raises(ValueError):
        fermat_cubic(tower7.level(1), 4)._over(QQ)
    # two towers of one characteristic: each level gets its own transport
    other = FieldTower(7, budget=2, seed=5)
    X = fermat_cubic(tower7.level(1), 4)
    for lvl in (tower7.level(2), other.level(2)):
        assert X._over(lvl).field is lvl


def test_distinct_degree_irreducibility_matches_trial_division(tower7):
    """The tower's irreducibility criterion, a distinct-degree split that
    is the whole polynomial, against trial division by every monic of
    degree at most half."""
    lvl = tower7.level(1)
    divisors = [list(c) + [1] for d in (1, 2)
                for c in itertools.product(range(7), repeat=d)]
    rng = random.Random(6)
    # (x^2 + 1)(x^2 + 2): squarefree, no root, x^(7^4) = x mod f
    cands = [[2, 0, 3, 0, 1]] + [[a, 1] for a in range(7)]
    cands += [[a * a % 7, 2 * a % 7, 1] for a in range(7)]        # (x + a)^2
    cands += [[b * b % 7, 0, 2 * b % 7, 0, 1] for b in range(7)]  # (x^2+b)^2
    cands += [[rng.randrange(7) for _ in range(k)] + [1]
              for k in (2, 3, 4) for _ in range(60)]
    for f in cands:
        k = len(f) - 1
        has_factor = any(not upoly_divmod(f, g, lvl)[1]
                         for g in divisors if len(g) - 1 <= k // 2)
        assert (_distinct_degree(f, lvl) == [(k, f)]) == (not has_factor), f
