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
"""

import itertools

from cubiclines import linalg
from cubiclines.bihom import SVARS, BihomSolutions, divide_diagonal
from cubiclines.cubic import ProjLine
from cubiclines.curves import _side_forms
from cubiclines.fano import enumerate_lines, second_type_test
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


def line_values(cubic, a, b, fld=None):
    """F(a), P1(a;b), P2(a;b) and F(b): the coefficients of F(s0*a + s1*b)."""
    F = fld or cubic.field
    Fm = cubic._over(F)
    ab = list(a) + list(b)
    return [Fm.F.eval_elems(list(a)), Fm.P1.eval_elems(ab),
            Fm.P2.eval_elems(ab), Fm.F.eval_elems(list(b))]


def line_in_x_points(cubic, a, b, fld=None):
    """F vanishes identically on the line through a and b over fld."""
    F = fld or cubic.field
    return all(F.is_zero(v) for v in line_values(cubic, a, b, F))


def build_system(cubic, curve_a, curve_b=None):
    """(G1, G2, bidegrees) of the secants of one curve or a pair."""
    F = curve_a.field
    X = cubic._over(F)
    forms = (_side_forms(curve_a, "s")
             + _side_forms(curve_b if curve_b is not None else curve_a, "t"))
    G1 = X.P1.eval_polys(forms)
    G2 = X.P2.eval_polys(forms)
    ea = curve_a.e
    if curve_b is not None:
        eb = curve_b.e
        return G1, G2, ((2 * ea, eb), (ea, 2 * eb))
    return (divide_diagonal(G1, 2), divide_diagonal(G2, 2),
            ((2 * ea - 2, ea - 2), (ea - 2, 2 * ea - 2)))


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
