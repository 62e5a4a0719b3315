"""Exact solving of bihomogeneous equation pairs on P^1 x P^1.

An equation of bidegree (a, b) is the (a+1) x (b+1) array of ``poly``
whose entry [i][j] multiplies s0^(a-i) s1^i t0^(b-j) t1^j; the shape is the
formal bidegree, so vanishing leading coefficients (solutions at the points
at infinity of either factor) are handled uniformly.  Elimination is by the
Sylvester resultant in the t-pair of the arrays' columns, at t1 = 1 and
s1 = 1 (``poly.sylvester_resultant``).  ``lift_fibers`` turns the roots of
a binary resultant into solutions with multiplicities, lifting one fiber
per Frobenius orbit of roots and mapping it to the orbit's other roots; a
fiber is the gcd of the columns evaluated at a root (``fiber_gcd``).  The
lines-through-a-point solver in ``cubic`` lifts its conic/cubic pair
through the same resultant, fibers and lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import VerificationError
from .poly import (
    _horner,
    _horner2,
    binary_gcd,
    binary_roots,
    diagonal_quotient,
    is_zero_array,
    sylvester_resultant,
)


class PositiveDimensionalError(Exception):
    """The solution set contains a curve; counts are undefined."""


def divide_diagonal(G, times, fld):
    """Divide an array by the diagonal form s0*t1 - s1*t0 exactly ``times``
    times.

    Asserts the claimed order is sharp: one more division must fail.
    """
    for _ in range(times):
        G = diagonal_quotient(G, fld)
    if is_zero_array(G, fld):
        return G
    try:
        diagonal_quotient(G, fld)
    except ValueError:
        return G
    raise ValueError("diagonal vanishing order exceeds %d" % times)


@dataclass
class BihomSolutions:
    """Common zeros of a bihomogeneous pair, with multiplicities.

    Each solution is (level, (s0, s1), (t0, t1), multiplicity) with both
    points normalized so their last nonzero coordinate is one.
    """

    solutions: list = field(default_factory=list)
    complete: bool = True
    certified: bool = True      # all multiplicities followed the exact rule
    total_degree: int = 0       # bihomogeneous Bezout number

    @property
    def total_multiplicity(self):
        return sum(m for _, _, _, m in self.solutions)


def solve_bihomog(G1, G2, fld, max_level=None):
    """All isolated common zeros of two bihomogeneous arrays over fld.

    Raises PositiveDimensionalError when the two forms share a component
    (including a whole fiber).
    """
    if is_zero_array(G1, fld) or is_zero_array(G2, fld):
        raise PositiveDimensionalError("an equation vanishes identically")
    (d1s, d1t), (d2s, d2t) = ((len(G) - 1, len(G[0]) - 1) for G in (G1, G2))
    if d1t == d2t == 0 < d1s + d2s:
        # both equations free of t: eliminate s instead
        sols = solve_bihomog(*(list(zip(*G)) for G in (G1, G2)), fld,
                             max_level=max_level)
        sols.solutions = [(lv, t, s, m) for lv, s, t, m in sols.solutions]
        _sort_solutions(sols, fld)
        return sols
    cols = [list(zip(*G)) for G in (G1, G2)]
    R = sylvester_resultant(*cols, fld)
    if all(map(fld.is_zero, R)):
        raise PositiveDimensionalError("equations share a common component")
    out = lift_fibers(R, fld, fiber_gcd(cols, fld), max_level)
    _verify_solutions(out, (G1, G2), fld)
    _sort_solutions(out, fld)
    return out


def fiber_gcd(forms, fld):
    """The ``fiber`` of :func:`lift_fibers` for forms in (t0, t1) given by
    their coefficients, binary forms in (s0, s1) over fld, as
    :func:`poly.sylvester_resultant` takes them: the gcd of the forms with
    every coefficient evaluated at the root.  Raises
    PositiveDimensionalError when all of them vanish there."""
    def fiber(lvl, a):
        specs = [[_horner(c, a, lvl, fld.k) for c in f] for f in forms]
        if all(lvl.is_zero(x) for f in specs for x in f):
            raise PositiveDimensionalError("a fiber line lies in the zero set")
        return binary_gcd(specs, lvl)
    return fiber


def lift_fibers(R, fld, fiber, max_level=None):
    """Common zeros over the roots of a binary resultant, with multiplicities.

    R is a binary form over fld in the base pair, of formal degree the
    Bezout number; ``fiber(lvl, a)`` returns the binary form (the gcd of
    the specialized equations) over lvl whose roots are the fiber points
    over the root a found at the level lvl.  A root's multiplicity goes
    whole to a lone fiber point of a complete split, is shared in
    proportion to the fiber multiplicities when that is integral, and
    otherwise falls back to the fiber multiplicity with ``certified``
    False.

    The equations must be defined over fld, of level b, so that the
    Frobenius sigma: x -> x^(p^b) maps the fiber over a onto the fiber
    over sigma(a).  Only the first root met in each orbit (lv // b roots
    at level lv) is lifted; the fiber over sigma^j(a) is the image of its
    points under sigma^j.  A conjugate that is missing from R's roots, or
    has another multiplicity, raises VerificationError.  Solutions are
    (level, base point, fiber point, multiplicity), in the order of R's
    roots and, over each, of ``binary_roots`` on its fiber; they are
    unverified.
    """
    tower = fld.tower
    base = fld.level
    rm = binary_roots(R, fld, max_level=max_level)
    out = BihomSolutions(total_degree=len(R) - 1, complete=rm.complete)
    conjugates = {}     # (level, root) -> (multiplicity, fiber points)
    for lv, a, mult in rm.roots:
        if (lv, a) in conjugates:
            cmult, pts = conjugates.pop((lv, a))
            if cmult != mult:
                raise VerificationError("Frobenius-conjugate roots of a "
                                        "resultant differ in multiplicity")
        else:
            lvl = tower.level(lv)
            g = fiber(lvl, a)
            tot = len(g) - 1
            frm = binary_roots(g, lvl, max_level=max_level)
            out.complete = out.complete and frm.complete
            pts = []
            for flv, b, fm in frm.roots:
                if len(frm.roots) == 1 and frm.complete:
                    m = mult
                elif (mult * fm) % tot == 0:
                    m = (mult * fm) // tot
                else:
                    m = fm
                    out.certified = False
                pts.append((flv, b, m))
            for j in range(1, lv // base):
                conj = tuple(lvl.frob(x, base * j) for x in a)
                conjugates[(lv, conj)] = (mult,
                                          _map_fiber(pts, base * j, fld))
        out.solutions.extend(
            (flv, tuple(tower.level(flv).embed_from(x, lv) for x in a), b, m)
            for flv, b, m in pts)
    if conjugates:
        raise VerificationError("a Frobenius conjugate of a resultant root "
                                "is missing from its roots")
    return out


def _map_fiber(pts, s, fld):
    """Fiber points (level, point, multiplicity) in the tower of fld under
    x -> x^(p^s), listed as ``binary_roots`` lists them: the point at
    infinity first, then by level and key."""
    level = fld.tower.level
    out = [(flv, tuple(level(flv).frob(x, s) for x in b), m)
           for flv, b, m in pts]
    out.sort(key=lambda pt: (not level(pt[0]).is_zero(pt[1][1]), pt[0],
                             level(pt[0]).key(pt[1][0])))
    return out


def _verify_solutions(out, eqs, fld):
    """Every solution must make every array (over fld) vanish."""
    tower = fld.tower
    for lv, s, t, _m in out.solutions:
        lvl = tower.level(lv)
        for G in eqs:
            if not lvl.is_zero(_horner2(G, s, t, lvl, fld.k)):
                raise VerificationError("solution fails substitution")


def _sort_solutions(out, F):
    def key(sol):
        lv, s, t, m = sol
        lvl = F.tower.level(lv)
        return (lv, tuple(lvl.key(x) for x in s), tuple(lvl.key(x) for x in t))
    out.solutions.sort(key=key)
