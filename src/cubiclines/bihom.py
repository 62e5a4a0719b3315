"""Exact solving of bihomogeneous equation pairs on P^1 x P^1.

Equations live in the four variables (s0, s1, t0, t1) and are homogeneous
in each pair separately.  Elimination is by the homogeneous Sylvester
resultant in the t-pair with formal bidegrees, so vanishing leading
coefficients (solutions at the points at infinity of either factor) are
handled uniformly.  ``lift_fibers`` turns the roots of a binary resultant
into solutions with multiplicities, lifting one fiber per Frobenius orbit
of roots and mapping it to the orbit's other roots; the
lines-through-a-point solver in ``cubic`` lifts its conic/cubic pair
through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import VerificationError
from .poly import (
    STVARS,
    SVARS,
    TVARS,
    MultiPoly,
    binary_gcd,
    binary_roots,
    resultant,
)


class PositiveDimensionalError(Exception):
    """The solution set contains a curve; counts are undefined."""


def bidegree(G):
    """(s-degree, t-degree) of a bihomogeneous form; raises if mixed."""
    if G.is_zero():
        return (-1, -1)
    degs = {(e[0] + e[1], e[2] + e[3]) for e in G.terms}
    if len(degs) != 1:
        raise ValueError("form is not bihomogeneous")
    return degs.pop()


def diagonal_form(fld):
    """The bidegree (1,1) form s0*t1 - s1*t0 cutting out the diagonal."""
    return MultiPoly(fld, STVARS, {(1, 0, 0, 1): fld.one,
                                   (0, 1, 1, 0): fld.neg(fld.one)})


def divide_diagonal(G, times):
    """Divide by the diagonal form exactly ``times`` times.

    Asserts the claimed order is sharp: one more division must fail.
    """
    delta = diagonal_form(G.field)
    out = G
    for _ in range(times):
        out = out.exact_div(delta)
    if not out.is_zero() and out.divides_exactly(delta) is not None:
        raise ValueError("diagonal vanishing order exceeds %d" % times)
    return out


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


def solve_bihomog(G1, G2, max_level=None, bidegrees=None):
    """All isolated common zeros of two bihomogeneous forms on P^1 x P^1.

    Raises PositiveDimensionalError when the two forms share a component
    (including a whole fiber).  ``bidegrees`` overrides the formal
    bidegrees, needed when leading coefficient forms vanish identically.
    """
    F = G1.field
    if G1.is_zero() or G2.is_zero():
        raise PositiveDimensionalError("an equation vanishes identically")
    if bidegrees is None:
        bidegrees = (bidegree(G1), bidegree(G2))
    (d1s, d1t), (d2s, d2t) = bidegrees
    bezout = d1s * d2t + d2s * d1t
    if d1t == 0 and d2t == 0:
        return _pure_s_case(G1, G2, d1s, d2s)
    if d1s == 0 and d2s == 0:
        sols = solve_bihomog(_swap_st(G1), _swap_st(G2), max_level=max_level,
                             bidegrees=((d1t, d1s), (d2t, d2s)))
        sols.solutions = [(lv, t, s, m) for lv, s, t, m in sols.solutions]
        _sort_solutions(sols, F)
        return sols
    # t1 = 1: polynomials in (s0, s1, t0)
    g1d, g2d = (G.subs((None, None, None, F.one)) for G in (G1, G2))
    R = resultant(g1d, g2d, "t0", deg_f=d1t, deg_g=d2t)
    if R.is_zero():
        raise PositiveDimensionalError("equations share a common component")

    def fiber(lvl, a):
        forms, degs = [], []
        for G, dt in ((G1, d1t), (G2, d2t)):
            spec = G.subs((a[0], a[1], None, None), lvl)
            if not spec.is_zero():
                forms.append(spec)
                degs.append(dt)
        if not forms:
            raise PositiveDimensionalError("a fiber line lies in the zero set")
        return binary_gcd(forms, degrees=degs)

    out = lift_fibers(R, bezout, fiber, max_level)
    _verify_solutions(out, (G1, G2))
    _sort_solutions(out, F)
    return out


def lift_fibers(R, degree, fiber, max_level=None):
    """Common zeros over the roots of a binary resultant, with multiplicities.

    R is a binary form of formal degree ``degree`` in the base pair;
    ``fiber(lvl, a)`` returns the binary form (the gcd of the specialized
    equations) whose roots are the fiber points over the root a found at
    the level lvl.  A root's multiplicity goes whole to a lone fiber point
    of a complete split, is shared in proportion to the fiber
    multiplicities when that is integral, and otherwise falls back to the
    fiber multiplicity with ``certified`` False.

    The equations must be defined over R's level b, so that the Frobenius
    sigma: x -> x^(p^b) maps the fiber over a onto the fiber over sigma(a).
    Only the first root met in each orbit (lv // b roots at level lv) is
    lifted; the fiber over sigma^j(a) is the image of its points under
    sigma^j.  A conjugate that is missing from R's roots, or has another
    multiplicity, raises VerificationError.  Solutions are (level, base
    point, fiber point, multiplicity), in the order of R's roots and, over
    each, of ``binary_roots`` on its fiber; they are unverified.
    """
    tower = R.field.tower
    base = R.field.level
    rm = binary_roots(R, max_level=max_level, formal_degree=degree)
    out = BihomSolutions(total_degree=degree, complete=rm.complete)
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
            tot = g.degree()
            frm = binary_roots(g, max_level=max_level)
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
                                          _map_fiber(pts, base * j, R.field))
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


def _swap_st(G):
    return MultiPoly(G.field, STVARS,
                     {(e[2], e[3], e[0], e[1]): c for e, c in G.terms.items()})


def _pure_s_case(G1, G2, d1s, d2s):
    """Both equations free of t: any common s-root gives a whole fiber."""
    one = G1.field.one
    f1, f2 = (G.subs((None, None, one, one)) for G in (G1, G2))
    g = binary_gcd([f1, f2], degrees=[d1s, d2s])
    if g.degree() > 0:
        raise PositiveDimensionalError("common fiber over a shared s-root")
    return BihomSolutions(total_degree=0)


def _verify_solutions(out, eqs):
    tower = eqs[0].field.tower
    cache = {}
    for lv, s, t, _m in out.solutions:
        lvl = tower.level(lv)
        if lv not in cache:
            cache[lv] = [G.over(lvl) for G in eqs]
        vals = list(s) + list(t)
        for G in cache[lv]:
            if not lvl.is_zero(G.eval_elems(vals)):
                raise VerificationError("solution fails substitution")


def _sort_solutions(out, F):
    def key(sol):
        lv, s, t, m = sol
        lvl = F.tower.level(lv)
        return (lv, tuple(lvl.key(x) for x in s), tuple(lvl.key(x) for x in t))
    out.solutions.sort(key=key)
