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

The sparse elimination is the solver's before it ran on dense arrays: the
Sylvester resultant of ``MultiPoly`` entries by Bareiss reduction
(``resultant``), division by the diagonal form with ``exact_div``
(``divide_diagonal``), the curves' coordinate forms in (s0, s1, t0, t1)
(``side_forms``) and the coefficient lists of ``to_dense``.  ``dense``
converts a sparse binary or bihomogeneous form of given formal degrees to
the solver's dense lists and arrays.

``meet_counts``, ``on_x`` and ``is_smooth_point`` are read-outs only tests
use, and so are ``secant_multiplicity`` (one line's multiplicity in a
secant report) and ``conic_residual_to_line`` (the conic residual to a
line in a plane section, parameterized from a point found on it).

The element loops are the dense univariate layer and the Horner evaluation
before they ran on packed ints: one field operation per coefficient
product in ``upoly_mul``, long division in ``upoly_divmod`` and
``upoly_gcd``, square-and-multiply with a long division per step in
``upoly_powmod``, and homogeneous Horner on elements in ``horner``.
``eval_elems`` is ``MultiPoly.eval_elems`` before it ran on packed ints:
one field operation per factor of every term.

The polar forms P1 and P2 are the solver's before it read them from the
gradient: the coefficients of lam and lam^2 in F(x + lam*y), expanded in
an 11-variable ring over x and y (``polarize``, with ``yvars`` naming the
second block), so the certificate and the secant system here share
nothing with ``CubicForm.grad``.  The second-type matrix
and the entries of the fiber conic of the projection from a line are the
solver's before it read them from the gradient too: F(s*r0 + t*r1 + u)
expanded by ``eval_polys`` and split by the powers of s and t.

The plane sections are the second-type search before it became a pencil
of directions: F restricted to a plane by ``eval_polys``
(``restrict_to_plane``), a linear factor found by exhaustive search over
the points of the dual plane (``_find_linear_factor``) or given as a
known line, the residual conic by exact division, classified by the rank
of its matrix and split at its vertex (``classify_conic``); and
``plane_lines_through`` keeps the lines of that decomposition through a
point.  ``c3_arrays`` is the conic/cubic pair of ``lines_through_point``
before it came from ``along``: Q and K built by ``eval_polys`` and moved
by a coordinate change substituted into both.  ``exact_div``,
``divides_exactly`` and ``_proj_points`` (every point of P^n in the
order of ``cubic._proj_zeros``) are used by tests only.

So are ``fermat_cubic`` (the cubic sum x_i^3), ``complete_basis`` (rows
extended to a basis by standard vectors), ``curve_forms`` (a curve's
coordinate forms as ``MultiPoly``s in (s0, s1), built from its dense
lists, which are all the curve keeps) and ``contains`` (a point on a
``ProjLine``, by rank).

``embed_line``, ``curve_json``, ``total_multiplicity`` and
``is_zero_class`` are read-outs that only tests use: a ``ProjLine`` over
a higher tower level, a level-1 curve's JSON document, the summed
multiplicities of a ``BihomSolutions`` and the zero test of a
``ChowExpr``.

``linear_forms`` (the linear forms of the columns of a matrix),
``polar`` (the polar quadric of a point, as a polynomial) and ``subs``
(partial substitution, one field operation per factor of every term)
are sparse forms that the library built before the fiber conic came from
``cubic._c3_arrays`` and the point scans from ``MultiPoly.restrict``;
the tests that build sparse forms use them.
"""

import functools
import itertools
from dataclasses import dataclass, field

from cubiclines import linalg
from cubiclines.bihom import BihomSolutions
from cubiclines.cubic import (CubicForm, ProjLine, _levels_over, _proj_zeros,
                              xvars)
from cubiclines.curves import RationalCurve
from cubiclines.fano import enumerate_lines
from cubiclines.fields import VerificationError, upoly_trim
from cubiclines.poly import MultiPoly, binary_gcd, binary_roots
from cubiclines.secant import count_secants_pair, count_secants_single

# the parameter pairs of curves' coordinate forms
SVARS = ("s0", "s1")
TVARS = ("t0", "t1")
STVARS = SVARS + TVARS


def yvars(n):
    return tuple("y%d" % i for i in range(n + 1))


def contains(line, pt):
    """The point pt lies on the line: its rows and pt have rank 2."""
    return linalg.rank(list(line.rows) + [list(pt)], line.field) == 2


def embed_line(line, k):
    """The line over tower level k, a multiple of its field's level."""
    F = line.field
    if F.k == k:
        return line
    lk = F.tower.level(k)
    rows = [[lk.embed_from(x, F.k) for x in row] for row in line.rows]
    return ProjLine(lk, rows[0], rows[1])


def curve_json(curve):
    """The JSON document of a curve with level-1 integer coefficients."""
    return {"e": curve.e, "coords": [[_as_int(curve.field, v) for v in d]
                                     for d in curve.dense]}


def _as_int(F, v):
    if F.char == 0 and v.denominator != 1:
        raise ValueError("non-integer coefficient in JSON export")
    if F.k > 1:
        raise ValueError("JSON export needs level-1 coefficients")
    return int(v)


def total_multiplicity(sols):
    """The sum of the multiplicities of a ``BihomSolutions``."""
    return sum(m for _, _, _, m in sols.solutions)


def is_zero_class(expr):
    """A ``ChowExpr`` with no scalar, grade-1 or grade-2 part."""
    return expr.g0.is_zero() and not expr.g1 and not expr.g2


def fermat_cubic(fld, n):
    """sum x_i^3; rejected in characteristic 3 where it is singular."""
    if fld.char == 3:
        raise ValueError("the Fermat cubic is singular in characteristic 3")
    terms = {tuple(3 * (i == j) for j in range(n + 1)): 1
             for i in range(n + 1)}
    return CubicForm(fld, n, MultiPoly.from_int_terms(fld, xvars(n), terms))


def complete_basis(rows, F):
    """Independent rows extended to a basis by standard vectors, in index
    order, each kept when it raises the rank."""
    n = len(rows[0])
    basis = [list(r) for r in rows]
    for i in range(n):
        if len(basis) == n:
            break
        e = [F.zero] * n
        e[i] = F.one
        if linalg.rank(basis + [e], F) == len(basis) + 1:
            basis.append(e)
    return basis


def linear_forms(fld, variables, rows):
    """For each column i, the form sum_j rows[j][i] * variables[j]."""
    units = [tuple(int(i == j) for i in range(len(variables)))
             for j in range(len(variables))]
    return [MultiPoly(fld, variables, {u: row[i] for u, row in zip(units, rows)})
            for i in range(len(rows[0]))]


def polar(cubic, pt):
    """The polar quadric of pt, sum_i pt_i * dF/dx_i, in the variables of
    F, as a polynomial."""
    out = MultiPoly.zero(cubic.field, cubic.F.vars)
    for c, g in zip(pt, cubic.grad):
        out = out + g.scale(c)
    return out


def subs(form, values, lvl=None):
    """Fix the variables whose entry in values is not None: the polynomial
    in the remaining variables, in their order, over lvl (default: the
    form's field), one field operation per factor of every term."""
    F = form.field
    lvl = lvl or F
    free = [i for i, v in enumerate(values) if v is None]
    out = {}
    for exps, c in form.terms.items():
        t = lvl.embed_from(c, F.k)
        for v, e in zip(values, exps):
            if v is not None and e:
                t = lvl.mul(t, lvl.pow_(v, e))
        key = tuple(exps[i] for i in free)
        out[key] = lvl.add(out[key], t) if key in out else t
    return MultiPoly(lvl, [form.vars[i] for i in free], out)


def curve_forms(curve):
    """A curve's coordinate forms as MultiPolys in (s0, s1), read from its
    dense lists: entry k multiplies s0^(e-k) s1^k."""
    e = curve.e
    return [MultiPoly(curve.field, SVARS,
                      {(e - k, k): c for k, c in enumerate(d)})
            for d in curve.dense]


def dense(P, degrees):
    """A MultiPoly in (s0, s1), of formal degree d = degrees[0], as a
    binary form, or one in (s0, s1, t0, t1), of formal bidegree (a, b) =
    degrees, as an array.  A term goes to the index d less its power of
    s0 (and b less its power of t0), so terms that only fix the power of
    the first variable of a pair land where ``to_dense`` put them."""
    F = P.field
    if len(degrees) == 1:
        d, = degrees
        out = [F.zero] * (d + 1)
        for e, c in P.terms.items():
            out[d - e[0]] = F.add(out[d - e[0]], c)
        return out
    a, b = degrees
    out = [[F.zero] * (b + 1) for _ in range(a + 1)]
    for e, c in P.terms.items():
        row = out[a - e[0]]
        row[b - e[2]] = F.add(row[b - e[2]], c)
    return out


def to_dense(f, name):
    """Coefficients of f by degree in name, with the other variables set
    to one."""
    i = f.vars.index(name)
    F = f.field
    out = [F.zero] * (f.degree(name) + 1)
    for exps, c in f.terms.items():
        out[exps[i]] = F.add(out[exps[i]], c)
    return upoly_trim(out, F)


def coeffs_in(P, name):
    """Coefficients of P as polynomials in the other variables, by degree
    in name."""
    i = P.vars.index(name)
    rest = P.vars[: i] + P.vars[i + 1:]
    by_deg = {}
    for exps, c in P.terms.items():
        by_deg.setdefault(exps[i], {})[exps[: i] + exps[i + 1:]] = c
    top = max(by_deg) if by_deg else -1
    return [MultiPoly(P.field, rest, by_deg.get(d, {}))
            for d in range(top + 1)]


def resultant(f, g, name, deg_f=None, deg_g=None):
    """Sylvester resultant of f and g eliminating one variable, with
    formal degrees deg_f and deg_g (by default the degrees in name), by
    Bareiss reduction over MultiPoly entries."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    cf = coeffs_in(f, name)
    cg = coeffs_in(g, name)
    m = deg_f if deg_f is not None else len(cf) - 1
    n = deg_g if deg_g is not None else len(cg) - 1
    if m < len(cf) - 1 or n < len(cg) - 1:
        raise ValueError("formal degree below actual degree")
    rest = cf[0].vars if cf else cg[0].vars
    F = f.field
    zero = MultiPoly.zero(F, rest)
    cf = cf + [zero] * (m + 1 - len(cf))
    cg = cg + [zero] * (n + 1 - len(cg))
    size = m + n
    if size == 0:
        return MultiPoly.const(F, rest, F.one)
    if m == 0:
        return cf[0].pow(n)
    if n == 0:
        return cg[0].pow(m)
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(cf)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(cg)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det(rows, F, rest)


def _bareiss_det(mat, F, variables):
    """Fraction-free determinant of a matrix of MultiPolys."""
    n = len(mat)
    mat = [row[:] for row in mat]
    sign = 1
    prev = MultiPoly.const(F, variables, F.one)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not mat[i][k].is_zero()), None)
        if piv is None:
            return MultiPoly.zero(F, variables)
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = exact_div(num, prev)
            mat[i][k] = MultiPoly.zero(F, variables)
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def diagonal_form(fld):
    """The bidegree (1,1) form s0*t1 - s1*t0 cutting out the diagonal."""
    return MultiPoly(fld, STVARS, {(1, 0, 0, 1): fld.one,
                                   (0, 1, 1, 0): fld.neg(fld.one)})


def divide_diagonal(G, times):
    """Divide a MultiPoly by the diagonal form exactly ``times`` times;
    one more division must fail."""
    delta = diagonal_form(G.field)
    out = G
    for _ in range(times):
        out = exact_div(out, delta)
    if not out.is_zero() and divides_exactly(out, delta) is not None:
        raise ValueError("diagonal vanishing order exceeds %d" % times)
    return out


def side_forms(curve, side):
    """The coordinate forms phi_i as forms in (s0, s1, t0, t1), in the
    parameter pair ``side`` ("s" or "t")."""
    pad = (0, 0)
    return [MultiPoly(curve.field, STVARS,
                      {(e + pad if side == "s" else pad + e): c
                       for e, c in p.terms.items()})
            for p in curve_forms(curve)]


def meet_counts(census):
    """How many other lines of the census each line meets."""
    return [sum(row) for row in census.adjacency]


def on_x(cubic, pt):
    """pt is on X: F vanishes there."""
    return cubic.field.is_zero(cubic.f_at(pt))


def is_smooth_point(cubic, pt):
    """pt is on X and some partial of F is nonzero there."""
    if not on_x(cubic, pt):
        return False
    return not all(cubic.field.is_zero(g) for g in cubic.gradient_at(pt))


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
        for c, phi in zip(v, curve_forms(curve)):
            acc = acc + phi.scale(c)
        if not acc.is_zero():
            forms.append(acc)
    if not forms:
        raise ValueError("curve image lies on the line")
    g = binary_gcd([dense(f, (curve.e,)) for f in forms], F)
    return len(g) - 1


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
    coeffs = coeffs_in(big, "lam")
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
    forms = (side_forms(curve_a, "s")
             + side_forms(curve_b if curve_b is not None else curve_a, "t"))
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
    """F(s*r0 + t*r1 + sum u_i w_i) as a polynomial in (s, t, u...), each
    u_i named x_c after the column c of its unit vector w_i."""
    fld = line.field
    X = cubic._over(fld)
    pvars = ("s", "t") + tuple(X.F.vars[w.index(fld.one)] for w in comp)
    coords = linear_forms(fld, pvars, list(line.rows) + comp)
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
        if contains(l, x):
            stacked = plane_rows + [list(r) for r in l.rows]
            if linalg.rank(stacked, F) == 3:
                out.append(l.key())
        elif meets(l, line) and scheme_length(l, curve) >= 1:
            out.append(l.key())
    return sorted(out)


def lift_fibers_per_root(R, fld, fiber, max_level=None):
    """``bihom.lift_fibers`` with one fiber lift per root of R."""
    tower = fld.tower
    rm = binary_roots(R, fld, max_level=max_level)
    out = BihomSolutions(total_degree=len(R) - 1, complete=rm.complete)
    for lv, a, mult in rm.roots:
        g = fiber(tower.level(lv), a)
        tot = len(g) - 1
        frm = binary_roots(g, tower.level(lv), max_level=max_level)
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


def upoly_mul(a, b, lvl):
    """Schoolbook product, one field multiplication per coefficient pair."""
    if not a or not b:
        return []
    out = [lvl.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not lvl.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] = lvl.add(out[i + j], lvl.mul(ai, bj))
    return upoly_trim(out, lvl)


def upoly_divmod(a, b, lvl):
    """Long division, one leading term at a time."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    monic = b[-1] == lvl.one
    binv = lvl.one if monic else lvl.inv(b[-1])
    db = len(b) - 1
    quot = [lvl.zero] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] if monic else lvl.mul(a[-1], binv)
        off = len(a) - 1 - db
        if not lvl.is_zero(c):
            quot[off] = c
            for i in range(db + 1):
                a[off + i] = lvl.sub(a[off + i], lvl.mul(c, b[i]))
        a.pop()
    return upoly_trim(quot, lvl), upoly_trim(a, lvl)


def upoly_gcd(a, b, lvl):
    """Monic gcd by Euclid's algorithm on ``upoly_divmod``."""
    a, b = list(a), list(b)
    while b:
        _, a = upoly_divmod(a, b, lvl)
        a, b = b, a
    if a:
        inv = lvl.inv(a[-1])
        a = [lvl.mul(c, inv) for c in a]
    return a


def upoly_powmod(base, e, m, lvl):
    """base^e mod m by square-and-multiply, dividing after every product."""
    _, r = upoly_divmod(base, m, lvl)
    result = [lvl.one]
    while e:
        if e & 1:
            _, result = upoly_divmod(upoly_mul(result, r, lvl), m, lvl)
        e >>= 1
        if e:
            _, r = upoly_divmod(upoly_mul(r, r, lvl), m, lvl)
    return result


def horner(form, u, lvl, k):
    """The binary form at u over lvl, one field operation per step; the
    coefficients, from level k, are embedded as they are read."""
    u0, u1 = u
    acc = lvl.embed_from(form[0], k)
    pw = lvl.one
    for c in form[1:]:
        pw = lvl.mul(pw, u1)
        acc = lvl.add(lvl.mul(acc, u0), lvl.mul(lvl.embed_from(c, k), pw))
    return acc


def eval_elems(form, values):
    """The form at field elements, one field operation per factor of every
    term, each value's powers computed once."""
    F = form.field
    powers = [{1: v} for v in values]
    acc = F.zero
    for exps, c in form.terms.items():
        t = c
        for v, e, pw in zip(values, exps, powers):
            if e:
                if e not in pw:
                    pw[e] = F.pow_(v, e)
                t = F.mul(t, pw[e])
        acc = F.add(acc, t)
    return acc


def secant_multiplicity(cubic, target, line, max_level=None):
    """Multiplicity of one line in the relevant secant scheme (0 if absent)."""
    if isinstance(target, tuple):
        report = count_secants_pair(cubic, target[0], target[1],
                                    max_level=max_level)
    else:
        report = count_secants_single(cubic, target, max_level=max_level)
    if report.outcome != "ok":
        raise ValueError("secant scheme is not zero dimensional")
    min_lv = line.min_level()
    probe = line.descend(min_lv)
    for rec in report.lines:
        if rec.level == min_lv and rec.line.key() == probe.key():
            return rec.multiplicity
    return 0


@dataclass
class ConicResidual:
    kind: str            # parameterized | two_lines | double_line | no_rational_point
    curve: object = None
    conic: object = None
    lines: list = field(default_factory=list)
    level: int = 1


def conic_residual_to_line(cubic, line, plane_basis, max_level=2):
    """Parameterize the conic residual to a known line in a plane section."""
    F = cubic.field
    if not cubic.line_in_x(line):
        raise ValueError("the given line does not lie on X")
    sec = plane_residual(cubic, plane_basis, known_line=line,
                         max_level=max_level)
    if sec.status == "plane_in_X":
        raise ValueError("the plane lies inside X")
    if sec.conic_class != "smooth":
        return ConicResidual(kind=sec.conic_class, conic=sec.conic,
                             lines=sec.conic_lines)
    found = _point_on_conic(sec.conic, F, max_level)
    if found is None:
        return ConicResidual(kind="no_rational_point", conic=sec.conic)
    lvl, p = found
    plane_param = _parameterize_conic(sec.conic, p, lvl)
    rows = [[lvl.embed_from(x, F.k) for x in b] for b in plane_basis]
    coords = [f.eval_polys(plane_param) for f in
              linear_forms(lvl, sec.conic.vars, rows)]
    curve = RationalCurve(lvl, 2, [dense(f, (2,)) for f in coords])
    return ConicResidual(kind="parameterized", curve=curve, conic=sec.conic,
                         level=lvl.k)


Q_BOUND = 12   # rational points of a conic over QQ: coordinates up to this


def _point_on_conic(C, F, max_level):
    if F.char == 0:
        rng = range(-Q_BOUND, Q_BOUND + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    if (a, b, c) == (0, 0, 0):
                        continue
                    pt = [F.from_int(a), F.from_int(b), F.from_int(c)]
                    if F.is_zero(C.eval_elems(pt)):
                        return F, pt
        return None
    for lvl in _levels_over(F, max_level):
        for pt in _proj_zeros(C.over(lvl), lvl, 2):
            return lvl, pt
    return None


def _parameterize_conic(C, p, lvl):
    """Degree-2 binary forms sweeping a smooth conic through its point p.

    The pencil of lines through p meets the conic once more; the second
    intersection Q(d) p - B(p, d) d gives the parameterization.
    """
    Cl = C.over(lvl)
    d = linear_forms(lvl, SVARS, complete_basis([p], lvl)[1:])
    pd = [dk + MultiPoly.const(lvl, SVARS, pk) for dk, pk in zip(d, p)]
    qd = Cl.eval_polys(d)
    bpd = Cl.eval_polys(pd) - qd  # C(p) = 0 drops out
    out = []
    for k in range(3):
        out.append(qd.scale(p[k]) - bpd * d[k])
    g = binary_gcd([[f.terms.get((2 - i, i), lvl.zero) for i in range(3)]
                    for f in out], lvl)
    if len(g) > 1:
        div = MultiPoly(lvl, SVARS, {(len(g) - 1 - i, i): c
                                     for i, c in enumerate(g)})
        out = [exact_div(f, div) for f in out]
    return out


# ---------------------------------------------------------------------------
# exact division, point enumeration and plane sections
# ---------------------------------------------------------------------------

def exact_div(f, divisor):
    """Exact division; raises ValueError if the division is not exact."""
    f._check(divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    F = f.field
    rem = dict(f.terms)
    # lex-leading term of divisor
    dlead = max(divisor.terms)
    dc = divisor.terms[dlead]
    dcinv = F.inv(dc)
    out = {}
    while rem:
        lead = max(rem)
        if any(l < d for l, d in zip(lead, dlead)):
            raise ValueError("inexact polynomial division")
        q = tuple(l - d for l, d in zip(lead, dlead))
        c = F.mul(rem[lead], dcinv)
        out[q] = c
        for e2, c2 in divisor.terms.items():
            e = tuple(a + b for a, b in zip(q, e2))
            s = F.sub(rem.get(e, F.zero), F.mul(c, c2))
            if F.is_zero(s):
                rem.pop(e, None)
            else:
                rem[e] = s
    return MultiPoly(F, f.vars, out)


def divides_exactly(f, divisor):
    try:
        return exact_div(f, divisor)
    except ValueError:
        return None


def _proj_points(lvl, n):
    """Canonical representatives of P^n over a finite level: the last
    nonzero coordinate is one, and the coordinates before it run with the
    first one slowest."""
    elems = list(lvl.elements())
    for i in range(n, -1, -1):
        tail = [lvl.one] + [lvl.zero] * (n - i)
        for head in itertools.product(elems, repeat=i):
            yield list(head) + tail


def c3_arrays(cubic, x, dirs, change=None):
    """The conic/cubic arrays of ``lines_through_point`` before they came
    from ``along``: Q = P2(x; y) and K = F(y) built by ``eval_polys`` on
    y = c1*b1 + c2*b2 + c3*b3 for the rows b of dirs, the coordinate
    change c = M c' substituted into both (``change`` is M), and the
    coefficients read by the power of c3."""
    F = cubic.field
    cvars = ("c1", "c2", "c3")
    args = linear_forms(F, cvars, dirs)
    Q = polar(cubic, x).eval_polys(args)
    K = cubic.F.eval_polys(args)
    if change is not None:
        forms = linear_forms(F, cvars, list(zip(*change)))
        Q, K = Q.eval_polys(forms), K.eval_polys(forms)
    return [[[P.terms.get((j - i, i, d - j), F.zero) for i in range(j + 1)]
             for j in range(d + 1)] for P, d in ((Q, 2), (K, 3))]


def plane_lines_through(cubic, x, w1, w2, max_level=2):
    """The lines of the plane section of X by the plane of x, w1 and w2
    that contain x, as a set of (level, key), from the decomposition of
    ``plane_residual``; None when the plane lies in X."""
    basis = [list(x), list(w1), list(w2)]
    sec = plane_residual(cubic, basis, max_level=max_level)
    if sec.status == "plane_in_X":
        return None
    if sec.status != "decomposed":
        return set()
    F = cubic.field
    out = set()
    for clv, ell in [(F.k, list(sec.line_form))] + sec.conic_lines:
        l2 = F.tower.level(clv)
        line = ambient_line_from_plane_form(basis, ell, l2, cubic)
        if contains(line, [l2.embed_from(v, F.k) for v in x]):
            out.add((clv, line.key()))
    return out


@dataclass
class PlaneSection:
    status: str                 # plane_in_X | decomposed | no_linear_factor
    cubic: object = None        # ternary restriction of F
    line_form: object = None    # linear factor divided out (plane coords)
    conic: object = None        # residual conic (plane coords)
    conic_class: str = ""       # smooth | two_lines | double_line
    conic_lines: list = field(default_factory=list)  # (level, linear form)
    components_degrees: list = field(default_factory=list)


def restrict_to_plane(cubic, plane_basis):
    """F restricted to the plane spanned by three rows, in coords (a,b,c)."""
    args = linear_forms(cubic.field, ("pa", "pb", "pc"), plane_basis)
    return cubic.F.eval_polys(args)


def plane_line_form(plane_basis, line, F):
    """Linear form (plane coords) cutting out a line contained in the plane."""
    cols = [[plane_basis[j][i] for j in range(3)] for i in range(len(plane_basis[0]))]
    pts = []
    for row in line.rows:
        sol = linalg.solve(cols, list(row), F)
        if sol is None:
            raise ValueError("line does not lie in the plane")
        pts.append(sol)
    p, q = pts
    ell = [F.sub(F.mul(p[1], q[2]), F.mul(p[2], q[1])),
           F.sub(F.mul(p[2], q[0]), F.mul(p[0], q[2])),
           F.sub(F.mul(p[0], q[1]), F.mul(p[1], q[0]))]
    if all(F.is_zero(e) for e in ell):
        raise ValueError("degenerate line data")
    return ell


def _linear_form_poly(ell, F, pv=("pa", "pb", "pc")):
    return MultiPoly(F, pv, {tuple(1 if i == j else 0 for i in range(3)): c
                             for j, c in enumerate(ell) if not F.is_zero(c)})


def plane_residual(cubic, plane_basis, known_line=None, max_level=2):
    """Decompose the plane section of X, dividing out a known line exactly."""
    F = cubic.field
    T = restrict_to_plane(cubic, plane_basis)
    if T.is_zero():
        return PlaneSection(status="plane_in_X")
    if known_line is not None:
        lvl, ell = F, plane_line_form(plane_basis, known_line, F)
    else:
        # full linear-factor search over low tower levels
        found = _find_linear_factor(T, F, max_level)
        if found is None:
            return PlaneSection(status="no_linear_factor", cubic=T,
                                components_degrees=[3])
        lvl, ell = found
    conic = exact_div(T.over(lvl), _linear_form_poly(ell, lvl))
    cls, lines = classify_conic(conic, lvl, max_level)
    degrees = [1, 2] if cls == "smooth" else [1, 1, 1]
    return PlaneSection(status="decomposed", cubic=T, line_form=ell,
                        conic=conic, conic_class=cls, conic_lines=lines,
                        components_degrees=degrees)


def _find_linear_factor(T, F, max_level):
    if F.char == 0:
        return None  # exhaustive factor search is finite-field machinery
    for lvl in _levels_over(F, max_level):
        Tl = T.over(lvl)
        for ell in _proj_points(lvl, 2):
            if divides_exactly(Tl, _linear_form_poly(ell, lvl)) is not None:
                return lvl, ell
    return None


def classify_conic(C, F, max_level=2):
    """Rank classification of a ternary conic, with split lines if cheap.

    Needs characteristic != 2 for the symmetric matrix criterion.
    """
    if F.char == 2:
        raise NotImplementedError("conic classification needs odd characteristic")
    two = F.from_int(2)
    c = {e: v for e, v in C.terms.items()}
    A = c.get((2, 0, 0), F.zero)
    B = c.get((1, 1, 0), F.zero)
    Cc = c.get((1, 0, 1), F.zero)
    D = c.get((0, 2, 0), F.zero)
    E = c.get((0, 1, 1), F.zero)
    G = c.get((0, 0, 2), F.zero)
    M = [[F.mul(two, A), B, Cc],
         [B, F.mul(two, D), E],
         [Cc, E, F.mul(two, G)]]
    r = linalg.rank(M, F)
    if r == 3:
        return "smooth", []
    if r == 1:
        row = next(row for row in M if any(not F.is_zero(x) for x in row))
        return "double_line", [(F.k, list(row))]
    # rank 2: vertex + binary quadratic along a complement
    vertex = linalg.kernel_basis(M, F)[0]
    lines = _split_rank2_conic(C, vertex, F, max_level)
    return "two_lines", lines


def _split_rank2_conic(C, vertex, F, max_level):
    """Two linear factors of a rank-2 conic, possibly over an extension."""
    basis = complete_basis([vertex], F)
    Cn = C.eval_polys(linear_forms(F, C.vars, basis))
    if any(e[0] for e in Cn.terms):
        raise VerificationError("rank-2 conic depends on its vertex coordinate")
    qf = [Cn.terms.get((0, 2 - i, i), F.zero) for i in range(3)]
    rm = binary_roots(qf, F, max_level=max_level)
    out = []
    for lv, (r0, r1), mult in rm.roots:
        lvl = F.tower.level(lv)
        # factor vanishing at [.:r0:r1] in the new coords: r1*b - r0*c -> pull back
        new_form = [lvl.zero, r1, lvl.neg(r0)]
        # in original coords ell_orig(sum_j c_j basis[j]) = ell_new(c),
        # so ell_orig is the unique solution of basis . ell_orig = ell_new
        rows = [[lvl.embed_from(x, F.k) for x in b] for b in basis]
        orig = linalg.solve(rows, new_form, lvl)
        out.extend([(lv, orig)] * mult)
    return out


def ambient_line_from_plane_form(plane_basis, ell, lvl, cubic):
    """ProjLine in P^n cut out on the plane by a linear plane-coord form."""
    F = cubic.field
    ker = linalg.kernel_basis([list(ell)], lvl)
    rows = [[lvl.embed_from(x, F.k) for x in b] for b in plane_basis]
    pts = [linalg.combine(v, rows, lvl) for v in ker[:2]]
    return ProjLine(lvl, pts[0], pts[1])
