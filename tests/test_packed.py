"""The packed univariate layer (``fields.upoly_mul``, ``upoly_divmod``,
``upoly_gcd``, ``upoly_powmod``), the packed Horner evaluations
(``poly._horner``, ``_horner2``), the packed point evaluation
(``MultiPoly.eval_elems``) and its restriction to one coordinate
(``MultiPoly.restrict``) against the element loops they replaced, which
``oracle`` keeps.

Every test runs at levels 1-6 of GF(p) for p in 3, 5, 7, 11 and 13.  The
inputs are random polynomials; zero and constant polynomials; moduli of
degree 1 and 2 and non-monic moduli; and worst-case slots, where every
coefficient of every element is p - 1, at the largest degrees that one
seed-1 ``solve`` pass of the benchmark reaches, and for forms at degree 5,
the degree of the discriminant quintic.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cubiclines.cubic import ProjLine, cubic_from_json
from cubiclines.fano import discriminant_quintic
from cubiclines.fields import (QQ, FieldTower, upoly_divmod, upoly_gcd,
                               upoly_mul, upoly_powmod)
from cubiclines.poly import MultiPoly, _horner, _horner2
from conftest import fixture_json
import oracle

PRIMES = (3, 5, 7, 11, 13)
CASES = [(p, k) for p in PRIMES for k in range(1, 7)]

# The largest degrees of a seed-1 solve pass.  At level 1 they are products
# of degree 8, dividends of degree 14 and moduli of degree 10, with
# exponents of up to 17 bits.  At level k > 1 a modulus has degree at most
# k.  Binary forms have degree 4, and arrays have bidegree (4, 2).
MAX_DEG = 14
MAX_MOD_DEG = 10
FORM_DEGREES = (0, 1, 2, 4, 8)

_TOWERS = {}


def level(p, k):
    if p not in _TOWERS:
        _TOWERS[p] = FieldTower(p, budget=6, seed=0)
    return _TOWERS[p].level(k)


def rand_elem(lvl, rng):
    return lvl.from_coeffs([rng.randrange(lvl.p) for _ in range(lvl.k)])


def rand_poly(lvl, deg, rng, monic=False):
    """A dense polynomial of degree exactly deg (monic on request)."""
    lead = lvl.one
    while not monic and lead == lvl.one:
        lead = rand_elem(lvl, rng)
        if lvl.is_zero(lead):
            lead = lvl.one
    return [rand_elem(lvl, rng) for _ in range(deg)] + [lead]


def top(lvl):
    """The element whose every coefficient is p - 1."""
    return lvl.from_coeffs([lvl.p - 1] * lvl.k)


def worst(lvl, deg):
    return [top(lvl)] * (deg + 1)


def edge_polys(lvl, rng):
    """Zero (also with a zero coefficient left in) and constants."""
    return [[], [lvl.zero], [lvl.one], [top(lvl)], [rand_elem(lvl, rng)]]


@pytest.mark.parametrize("p,k", CASES)
def test_mul_matches_element_loop(p, k):
    lvl = level(p, k)
    rng = random.Random("mul:%d:%d" % (p, k))
    polys = edge_polys(lvl, rng) + [rand_poly(lvl, d, rng)
                                    for d in (1, 2, 5, 8, MAX_DEG)]
    for a in polys:
        for b in polys:
            assert upoly_mul(a, b, lvl) == oracle.upoly_mul(a, b, lvl)


@pytest.mark.parametrize("p,k", CASES)
def test_mul_worst_case_slots(p, k):
    """All coefficients p - 1 fill the middle slot of the middle
    coefficient to its bound, min(len a, len b) * k * (p - 1)^2."""
    lvl = level(p, k)
    for da in (0, 1, 7, MAX_DEG):
        for db in (0, 3, MAX_DEG):
            a, b = worst(lvl, da), worst(lvl, db)
            assert upoly_mul(a, b, lvl) == oracle.upoly_mul(a, b, lvl)


@pytest.mark.parametrize("p,k", CASES)
def test_divmod_and_gcd_match_element_loop(p, k):
    """Dividends from zero to degree 14 by divisors of degree 0, 1, 2 and
    10, monic and not, random and worst-case."""
    lvl = level(p, k)
    rng = random.Random("divmod:%d:%d" % (p, k))
    dividends = edge_polys(lvl, rng) + [rand_poly(lvl, d, rng)
                                        for d in (1, 2, 6, MAX_DEG)]
    dividends.append(worst(lvl, MAX_DEG))
    divisors = [[lvl.one], [top(lvl)]]
    for d in (1, 2, MAX_MOD_DEG):
        divisors += [rand_poly(lvl, d, rng), rand_poly(lvl, d, rng, True),
                     worst(lvl, d)]
    for a in dividends:
        for b in divisors:
            assert upoly_divmod(a, b, lvl) == oracle.upoly_divmod(a, b, lvl)
            if a and not lvl.is_zero(a[-1]):
                assert upoly_gcd(a, b, lvl) == oracle.upoly_gcd(a, b, lvl)
                assert upoly_gcd(b, a, lvl) == oracle.upoly_gcd(b, a, lvl)
    for a in dividends:
        with pytest.raises(ZeroDivisionError):
            upoly_divmod(a, [], lvl)


@pytest.mark.parametrize("p,k", CASES)
def test_powmod_matches_element_loop(p, k):
    """Moduli of degree 1, 2, k and 10, monic, non-monic and worst-case;
    zero, constant, reduced and unreduced bases; small exponents, and the
    large ones of root splitting, up to (q^m - 1)/2, on moduli of degree at
    most max(k, 2) above level 1, as in a solve pass."""
    lvl = level(p, k)
    q = p ** k
    rng = random.Random("powmod:%d:%d" % (p, k))
    small = (0, 1, 2, 3, (p - 1) // 2, p)
    large = ((q - 1) // 2, q, (q ** (6 if k == 1 else 2) - 1) // 2)
    for d in sorted({1, 2, k, MAX_MOD_DEG}):
        moduli = [rand_poly(lvl, d, rng), rand_poly(lvl, d, rng, True),
                  worst(lvl, d), [top(lvl)] * d + [lvl.one]]
        for m in moduli:
            bases = edge_polys(lvl, rng) + [
                [lvl.zero, lvl.one], rand_poly(lvl, d + 3, rng),
                rand_poly(lvl, d - 1, rng), worst(lvl, d - 1)]
            cases = [(b, e) for b in bases for e in small]
            if k == 1 or d <= max(k, 2):
                cases += [(b, e) for b in bases[-2:] for e in large]
            for base, e in cases:
                assert (upoly_powmod(base, e, m, lvl)
                        == oracle.upoly_powmod(base, e, m, lvl)), (m, e)


def test_powmod_over_the_rationals():
    """Powers modulo a polynomial are taken over finite levels only (over
    QQ, root finding splits by rational roots): QQ is refused."""
    m = [Fraction(1, 2), Fraction(-3), Fraction(2)]
    base = [Fraction(5, 7), Fraction(1, 3)]
    for e in (0, 1, 7):
        with pytest.raises(ValueError, match="finite level"):
            upoly_powmod(base, e, m, QQ)


def coefficient_levels(k):
    """The levels a form's coefficients may come from: 1, the proper
    subfields of level k, and k."""
    return [j for j in range(1, k + 1) if k % j == 0]


@pytest.mark.parametrize("p,k", CASES)
def test_horner_matches_element_loop(p, k):
    """Binary forms of degree 0 to 8 and arrays of bidegree up to (4, 2)
    and (8, 8), with coefficients from each subfield, at random points,
    at points with a zero coordinate and at the worst-case point."""
    lvl = level(p, k)
    rng = random.Random("horner:%d:%d" % (p, k))
    points = [(rand_elem(lvl, rng), rand_elem(lvl, rng)) for _ in range(3)]
    points += [(lvl.one, lvl.zero), (lvl.zero, lvl.one), (top(lvl), top(lvl))]
    for j in coefficient_levels(k):
        sub = level(p, j)
        for d in FORM_DEGREES:
            forms = [[rand_elem(sub, rng) for _ in range(d + 1)],
                     [sub.zero] * (d + 1), worst(sub, d)]
            for form in forms:
                for u in points:
                    assert (_horner(form, u, lvl, j)
                            == oracle.horner(form, u, lvl, j))
        for a, b in ((0, 0), (1, 2), (4, 2), (8, 8)):
            arrays = [[[rand_elem(sub, rng) for _ in range(b + 1)]
                       for _ in range(a + 1)],
                      [worst(sub, b)] * (a + 1)]
            for G in arrays:
                for s in points[:3] + points[-1:]:
                    for t in points[-3:]:
                        want = oracle.horner(
                            [oracle.horner(row, t, lvl, j) for row in G], s,
                            lvl, k)
                        assert _horner2(G, s, t, lvl, j) == want


def test_horner_over_the_rationals():
    rng = random.Random("horner:QQ")

    def rat():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))

    for d in FORM_DEGREES:
        form = [rat() for _ in range(d + 1)]
        G = [[rat() for _ in range(3)] for _ in range(d + 1)]
        for u in ((rat(), rat()), (QQ.one, QQ.zero)):
            got = _horner(form, u, QQ, 1)
            assert got == oracle.horner(form, u, QQ, 1)
            assert isinstance(got, Fraction)
            want = oracle.horner([oracle.horner(row, u, QQ, 1) for row in G],
                                 u, QQ, 1)
            assert _horner2(G, u, u, QQ, 1) == want


def monomials(nvars, deg, homogeneous):
    return [e for e in itertools.product(range(deg + 1), repeat=nvars)
            if sum(e) == deg or (not homogeneous and sum(e) < deg)]


def eval_points(lvl, nvars, rng):
    """Random points, points with a repeated value and with zero values,
    the zero point, a unit point and the worst-case point."""
    pts = [[rand_elem(lvl, rng) for _ in range(nvars)] for _ in range(2)]
    a = rand_elem(lvl, rng)
    pts.append([a] * nvars)
    pts.append([a, lvl.zero] + [rand_elem(lvl, rng)] * (nvars - 2))
    pts.append([lvl.zero] * nvars)
    pts.append([lvl.one] + [lvl.zero] * (nvars - 1))
    pts.append([top(lvl)] * nvars)
    return pts


@pytest.mark.parametrize("p,k", CASES)
def test_eval_elems_matches_element_loop(p, k):
    """Forms of degree 1 to 5 in three variables and 1 to 3 in five: random
    sparse and dense ones, homogeneous and not, with coefficients from a
    subfield, the zero form, and the worst-case forms, all of whose
    monomials of degree d (or at most d) have the coefficient p - 1 in
    every slot.  Each form is evaluated at several points, so the packed
    terms it keeps are reused."""
    lvl = level(p, k)
    rng = random.Random("eval:%d:%d" % (p, k))
    for nvars, degrees in ((3, (1, 2, 3, 4, 5)), (5, (1, 2, 3))):
        V = tuple("x%d" % i for i in range(nvars))
        points = eval_points(lvl, nvars, rng)
        for d in degrees:
            sub = level(p, coefficient_levels(k)[-2 if k > 1 else 0])
            dense = monomials(nvars, d, False)
            forms = [
                MultiPoly(lvl, V, {e: rand_elem(lvl, rng)
                                   for e in rng.sample(dense, 4)}),
                MultiPoly(lvl, V, {e: rand_elem(lvl, rng)
                                   for e in monomials(nvars, d, True)}),
                MultiPoly(lvl, V, {e: rand_elem(lvl, rng) for e in dense}),
                MultiPoly(sub, V, {e: rand_elem(sub, rng)
                                   for e in dense}).over(lvl),
                MultiPoly.zero(lvl, V),
                MultiPoly(lvl, V, {e: top(lvl)
                                   for e in monomials(nvars, d, True)}),
                MultiPoly(lvl, V, {e: top(lvl) for e in dense}),
            ]
            for f in forms:
                for pt in points:
                    assert f.eval_elems(pt) == oracle.eval_elems(f, pt), \
                        (f, pt)


def test_eval_elems_over_the_rationals():
    """Over QQ a rational is its own packed form, so the packed sum is one
    of Fractions: on random sparse and dense forms of degree 1 to 5, with
    rational coefficients and values, it equals the term-by-term Fraction
    evaluation, and the zero form gives QQ.zero."""
    rng = random.Random("eval:QQ")

    def draw():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))

    for nvars, degrees in ((3, (1, 2, 3, 4, 5)), (5, (1, 2, 3))):
        V = tuple("x%d" % i for i in range(nvars))
        points = [[draw() for _ in range(nvars)] for _ in range(4)]
        points += [[QQ.zero] * nvars, [QQ.one] + [QQ.zero] * (nvars - 1)]
        for d in degrees:
            for _ in range(10):
                monos = monomials(nvars, d, rng.random() < 0.5)
                picked = rng.sample(monos, rng.randint(1, len(monos)))
                f = MultiPoly(QQ, V, {e: draw() for e in picked})
                for pt in points:
                    assert f.eval_elems(pt) == oracle.eval_elems(f, pt), \
                        (f, pt)
        for pt in points:
            value = MultiPoly.zero(QQ, V).eval_elems(pt)
            assert value == QQ.zero and isinstance(value, Fraction)


def assert_restrictions(f, points, ts, lvl):
    """f.restrict at each point and each coordinate j, evaluated at every t
    of ts by element Horner, equals the form at the point with t put at
    j."""
    for pt in points:
        for j in range(len(pt)):
            coeffs = f.restrict(pt, j)
            assert len(coeffs) == max([e[j] for e in f.terms], default=0) + 1
            for t in ts:
                at = pt[:j] + [t] + pt[j + 1:]
                assert (oracle.horner(coeffs, (lvl.one, t), lvl, lvl.k)
                        == oracle.eval_elems(f, at)), (f, pt, j, t)


@pytest.mark.parametrize("p,k", [(p, k) for p in PRIMES for k in (1, 2, 3)])
def test_restrict_matches_element_loop(p, k):
    """The restriction to one coordinate, on the packed terms of
    eval_elems, on random sparse and dense forms of degree 1 to 5 in three
    variables and 3 in five, the zero form, and the worst-case forms with
    every coefficient p - 1, at every t of the field (of 40 drawn t and
    the worst case above 50 elements)."""
    lvl = level(p, k)
    rng = random.Random("restrict:%d:%d" % (p, k))
    if lvl.q <= 50:
        ts = list(lvl.elements())
    else:
        ts = [rand_elem(lvl, rng) for _ in range(40)]
        ts += [lvl.zero, lvl.one, top(lvl)]
    for nvars, degrees in ((3, (1, 2, 3, 4, 5)), (5, (3,))):
        V = tuple("x%d" % i for i in range(nvars))
        points = eval_points(lvl, nvars, rng)[::3]
        for d in degrees:
            dense = monomials(nvars, d, False)
            forms = [
                MultiPoly(lvl, V, {e: rand_elem(lvl, rng)
                                   for e in rng.sample(dense, 4)}),
                MultiPoly(lvl, V, {e: rand_elem(lvl, rng) for e in dense}),
                MultiPoly.zero(lvl, V),
                MultiPoly(lvl, V, {e: top(lvl) for e in dense}),
            ]
            for f in forms:
                assert_restrictions(f, points, ts, lvl)
        assert MultiPoly.zero(lvl, V).restrict(points[0], 1) == [lvl.zero]


def test_restrict_over_the_rationals():
    """Over QQ the sums are of Fractions: random forms of degree 1 to 5
    restricted at rational points, at rational t, and the zero form gives
    [QQ.zero]."""
    rng = random.Random("restrict:QQ")

    def draw():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))

    ts = [draw() for _ in range(6)] + [QQ.zero, QQ.one]
    V = ("x0", "x1", "x2")
    points = [[draw() for _ in V] for _ in range(3)] + [[QQ.zero] * 3]
    for d in (1, 2, 3, 4, 5):
        for _ in range(4):
            monos = monomials(3, d, rng.random() < 0.5)
            picked = rng.sample(monos, rng.randint(1, len(monos)))
            f = MultiPoly(QQ, V, {e: draw() for e in picked})
            assert_restrictions(f, points, ts, QQ)
    coeffs = MultiPoly.zero(QQ, V).restrict(points[0], 0)
    assert coeffs == [QQ.zero] and isinstance(coeffs[0], Fraction)


@pytest.mark.parametrize("k", range(1, 7))
def test_eval_elems_on_the_discriminant_quintic(k):
    """The discriminant quintic of the cli benchmark's seed-1 GF(7) cubic
    along a disjoint line (21 monomials) and its three partials, moved to
    level k, at random points and at those of 400 more where the quintic
    vanishes."""
    X = cubic_from_json(fixture_json("config7_threefold.json"))[0]
    base = X.field
    line = ProjLine(base, [2, 6, 2, 1, 1], [3, 5, 1, 3, 2])
    quintic = discriminant_quintic(X, line).form
    lvl = base.tower.level(k)
    rng = random.Random("quintic:%d" % k)
    forms = [quintic.over(lvl)]
    forms += [forms[0].derivative(v) for v in quintic.vars]
    points = eval_points(lvl, 3, rng)
    points += [pt for pt in ([rand_elem(lvl, rng), rand_elem(lvl, rng),
                              lvl.one] for _ in range(400))
               if lvl.is_zero(oracle.eval_elems(forms[0], pt))]
    for f in forms:
        for pt in points:
            assert f.eval_elems(pt) == oracle.eval_elems(f, pt)
