"""Brute-force oracles for line censuses and secant counts over small
finite fields.

The naive census tests every canonical echelon pair (u, v) by full
substitution, with no first-row prefilter.  The scheme length of
(line ∩ curve) is computed directly: the three hyperplane forms cutting
out the line are composed with the parameterization and their binary gcd
(with formal degrees, so the point at infinity of the parameter line
participates) measures the length.

The per-root fiber lift is the solver's lift before it took one fiber per
Frobenius orbit: it lifts the fiber over every root of the resultant.

The line certificate and the secant system are the solver's before it
substituted curves with ``MultiPoly.along``: F(a), P1(a;b), P2(a;b) and
F(b) by ``eval_elems`` on the cubic moved to the line's field, and the
polar forms composed with the curves' forms by ``eval_polys``.

The polar forms are the solver's before it read them from the gradient:
the coefficients of lam and lam^2 in F(x + lam*y), expanded in an
11-variable ring (``polarize``), so the certificate and the secant system
here share nothing with ``CubicForm.P1``/``P2``.  The second-type matrix
and the entries of the fiber conic of the projection from a line are the
solver's before it read them from the gradient too: F(s*r0 + t*r1 + u)
expanded by ``eval_polys`` and split by the powers of s and t.
"""

import functools
import itertools

from cubiclines import linalg
from cubiclines.bihom import SVARS, BihomSolutions, divide_diagonal
from cubiclines.cubic import ProjLine, xvars, yvars
from cubiclines.curves import _side_forms
from cubiclines.fano import enumerate_lines
from cubiclines.poly import MultiPoly, binary_gcd, binary_roots


def meets(l1, l2):
    """Two lines of P^n meet iff their four spanning rows have rank <= 3."""
    if l1.field is not l2.field:
        raise ValueError("lines live over different fields")
    return linalg.rank(list(l1.rows) + list(l2.rows), l1.field) <= 3


def line_hyperplanes(line):
    """Coefficient vectors of the linear forms vanishing on the line."""
    return linalg.kernel_basis([list(r) for r in line.rows], line.field)


def scheme_length(line, curve):
    """Length of the intersection of a line with a parameterized curve."""
    F = curve.field
    forms = []
    for v in line_hyperplanes(line):
        acc = MultiPoly.zero(F, SVARS)
        for c, phi in zip(v, curve.coords):
            acc = acc + phi.scale(c)
        if not acc.is_zero():
            forms.append(acc)
    if not forms:
        raise ValueError("curve image lies on the line")
    g = binary_gcd(forms, degrees=[curve.e] * len(forms))
    return g.degree()


@functools.lru_cache(maxsize=None)
def polarize(cubic):
    """(P1, P2) of the cubic: the coefficients of lam and lam^2 in
    F(x + lam*y)."""
    n = cubic.n
    xv, yv = xvars(n), yvars(n)
    ring_vars = xv + yv + ("lam",)
    fld = cubic.field
    args = []
    lam = MultiPoly.var(fld, ring_vars, "lam")
    for i in range(n + 1):
        xi = MultiPoly.var(fld, ring_vars, "x%d" % i)
        yi = MultiPoly.var(fld, ring_vars, "y%d" % i)
        args.append(xi + lam * yi)
    big = cubic.F.eval_polys(args)
    coeffs = big.coeffs_in("lam")
    xy = xv + yv
    P1 = coeffs[1] if len(coeffs) > 1 else MultiPoly.zero(fld, xy)
    P2 = coeffs[2] if len(coeffs) > 2 else MultiPoly.zero(fld, xy)
    return P1, P2


def polar_forms(cubic, fld=None):
    """``polarize`` with the coefficients embedded into fld: embedding is a
    ring map, so it commutes with polarization."""
    return tuple(P.over(fld or cubic.field) for P in polarize(cubic))


def line_values(cubic, a, b, fld=None):
    """F(a), P1(a;b), P2(a;b) and F(b): the coefficients of F(s0*a + s1*b)."""
    F = fld or cubic.field
    Fm = cubic.F.over(F)
    P1, P2 = polar_forms(cubic, F)
    ab = list(a) + list(b)
    return [Fm.eval_elems(list(a)), P1.eval_elems(ab),
            P2.eval_elems(ab), Fm.eval_elems(list(b))]


def line_in_x_points(cubic, a, b, fld=None):
    """F vanishes identically on the line through a and b over fld."""
    F = fld or cubic.field
    return all(F.is_zero(v) for v in line_values(cubic, a, b, F))


def build_system(cubic, curve_a, curve_b=None):
    """(G1, G2, bidegrees) of the secants of one curve or a pair."""
    F = curve_a.field
    P1, P2 = polar_forms(cubic, F)
    forms = (_side_forms(curve_a, "s")
             + _side_forms(curve_b if curve_b is not None else curve_a, "t"))
    G1 = P1.eval_polys(forms)
    G2 = P2.eval_polys(forms)
    ea = curve_a.e
    if curve_b is not None:
        eb = curve_b.e
        return G1, G2, ((2 * ea, eb), (ea, 2 * eb))
    return (divide_diagonal(G1, 2), divide_diagonal(G2, 2),
            ((2 * ea - 2, ea - 2), (ea - 2, 2 * ea - 2)))


def _complement_basis(line):
    """Standard basis vectors at the non-pivot columns of the line's rows."""
    fld = line.field
    n = line.n
    pivots = []
    for row in line.rows:
        pivots.append(next(c for c, x in enumerate(row) if not fld.is_zero(x)))
    out = []
    for c in range(n + 1):
        if c not in pivots:
            w = [fld.zero] * (n + 1)
            w[c] = fld.one
            out.append(tuple(w))
    return out


def _restrict_along(cubic, line, comp):
    """F(s*r0 + t*r1 + sum u_i w_i) as a polynomial in (s, t, u...)."""
    fld = line.field
    X = cubic._over(fld)
    pvars = ("s", "t") + tuple("u%d" % i for i in range(len(comp)))
    coords = MultiPoly.linear_forms(fld, pvars, list(line.rows) + comp)
    G = X.F.eval_polys(coords)
    if any(not any(exps[2:]) for exps in G.terms):
        raise ValueError("line does not lie on the hypersurface")
    return pvars, G


def _u_part(G, pvars, s_deg, t_deg):
    """Coefficient of s^a t^b as a polynomial in the u variables; it is a
    form of degree 3 - a - b, since F is a cubic."""
    terms = {exps[2:]: c for exps, c in G.terms.items()
             if exps[:2] == (s_deg, t_deg)}
    return MultiPoly(G.field, pvars[2:], terms)


def second_type_rows(cubic, line):
    """The 3 x (n-1) matrix of the second-type test: the s^2, st and t^2
    coefficients of the part of F(s*r0 + t*r1 + u) linear in u."""
    fld = line.field
    comp = _complement_basis(line)
    pvars, G = _restrict_along(cubic, line, comp)
    m = len(comp)
    rows = []
    for (sa, tb) in ((2, 0), (1, 1), (0, 2)):
        form = _u_part(G, pvars, sa, tb)
        row = [fld.zero] * m
        for exps, c in form.terms.items():
            i = next(k for k, e in enumerate(exps) if e)
            row[i] = c
        rows.append(row)
    return rows


def second_type_test(cubic, line):
    """(flag, witness plane basis) from ``second_type_rows``."""
    fld = line.field
    kern = linalg.kernel_basis(second_type_rows(cubic, line), fld)
    if not kern:
        return False, None
    direction = linalg.combine(kern[0], _complement_basis(line), fld)
    return True, [list(line.rows[0]), list(line.rows[1]), direction]


def fiber_conic(cubic, line):
    """The coefficients of s^2, st, t^2, s, t and 1 in F(s*r0 + t*r1 + u),
    as forms in u: alpha, beta, gamma, delta, epsilon and zeta of the
    projection discriminant."""
    pvars, G = _restrict_along(cubic, line, _complement_basis(line))
    return [_u_part(G, pvars, sa, tb)
            for sa, tb in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))]


def naive_census(cubic, tower, level=1):
    """Sorted lines, adjacency rows and second-type flags of the lines on
    the hypersurface at one level, from a per-candidate scan."""
    fld = tower.level(level)
    X = cubic._over(fld)
    n = cubic.n
    elems = list(fld.elements())
    lines = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            ufree = [c for c in range(i + 1, n + 1) if c != j]
            vfree = list(range(j + 1, n + 1))
            for uvals in itertools.product(elems, repeat=len(ufree)):
                u = [fld.zero] * (n + 1)
                u[i] = fld.one
                for c, x in zip(ufree, uvals):
                    u[c] = x
                for vvals in itertools.product(elems, repeat=len(vfree)):
                    v = [fld.zero] * (n + 1)
                    v[j] = fld.one
                    for c, x in zip(vfree, vvals):
                        v[c] = x
                    # (u, v) is already in echelon form: skip the RREF
                    # of a ProjLine for the candidates that fail
                    if line_in_x_points(X, u, v, fld):
                        lines.append(ProjLine(fld, u, v))
    lines.sort(key=lambda l: l.key())
    adjacency = [[int(a is not b and meets(a, b)) for b in lines]
                 for a in lines]
    second_type = [second_type_test(X, l)[0] for l in lines]
    return lines, adjacency, second_type


def level1_census(cubic, tower):
    return enumerate_lines(cubic, tower, level=1, with_second_type=False)


def report_level1_keys(report):
    """Sorted keys of the distinct level-1 lines in a secant report."""
    return sorted({l.line.key() for l in report.lines if l.level == 1})


def oracle_single(census, curve):
    """Level-1 lines meeting one curve with total length at least two."""
    return sorted(l.key() for l in census.lines if scheme_length(l, curve) >= 2)


def oracle_skew_pair(census, line1, line2):
    """Level-1 transversals of two disjoint lines on the hypersurface."""
    out = []
    for l in census.lines:
        if l in (line1, line2):
            continue
        if meets(l, line1) and meets(l, line2):
            out.append(l.key())
    return sorted(out)


def oracle_disjoint_pair(census, curve, line):
    """Level-1 secants of a curve/line pair with disjoint images."""
    out = []
    for l in census.lines:
        if l == line:
            continue
        if meets(l, line) and scheme_length(l, curve) >= 1:
            out.append(l.key())
    return sorted(out)


def oracle_meeting_pair(census, curve, line, meeting_point, tangent_rows):
    """Level-1 secants when the line passes through a point of the curve.

    Lines avoiding the common point must meet both images; lines through
    it count exactly when they lie in the plane spanned by the line and
    the curve's tangent direction there.
    """
    F = line.field
    plane_rows = [list(r) for r in line.rows] + [list(r) for r in tangent_rows]
    x = list(meeting_point)
    out = []
    for l in census.lines:
        if l == line:
            continue
        if l.contains(x):
            stacked = plane_rows + [list(r) for r in l.rows]
            if linalg.rank(stacked, F) == 3:
                out.append(l.key())
        elif meets(l, line) and scheme_length(l, curve) >= 1:
            out.append(l.key())
    return sorted(out)


def lift_fibers_per_root(R, degree, fiber, max_level=None):
    """``bihom.lift_fibers`` with one fiber lift per root of R."""
    tower = R.field.tower
    rm = binary_roots(R, max_level=max_level, formal_degree=degree)
    out = BihomSolutions(total_degree=degree, complete=rm.complete)
    for lv, a, mult in rm.roots:
        g = fiber(tower.level(lv), a)
        tot = g.degree()
        frm = binary_roots(g, max_level=max_level)
        out.complete = out.complete and frm.complete
        for flv, b, fm in frm.roots:
            if len(frm.roots) == 1 and frm.complete:
                m = mult
            elif (mult * fm) % tot == 0:
                m = (mult * fm) // tot
            else:
                m = fm
                out.certified = False
            flvl = tower.level(flv)
            out.solutions.append(
                (flv, tuple(flvl.embed_from(x, lv) for x in a), b, m))
    return out
