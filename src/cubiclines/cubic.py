"""Cubic hypersurfaces X = V(F) in P^n, read through the gradient of F.

The two mixed polar forms are the coefficients in the characteristic-free
expansion F(x + t*y) = F(x) + t*P1(x;y) + t^2*P2(x;y) + t^3*F(y), and both
are the gradient paired with a point: P1(x;y) = sum_i y_i * dF/dx_i(x) and
P2(x;y) = P1(y;x).  The gradient drives the smoothness tests, the polar
quadric of a point, the lines-through-a-point solver and, with the polar
forms, the line-containment test and the secant systems downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from . import linalg
from .bihom import fiber_gcd, lift_fibers
from .fields import QQ, FieldTower, VerificationError, check_tower
from .poly import (_EXPONENTS, MultiPoly, _horner_bits, _packed_coeffs,
                   _packed_horner, binary_gcd, binary_roots,
                   sylvester_resultant)


def xvars(n):
    return tuple("x%d" % i for i in range(n + 1))


def yvars(n):
    return tuple("y%d" % i for i in range(n + 1))


class DegenerateSpanError(ValueError):
    """Two coincident points were asked to span a line."""


class SingularPointError(ValueError):
    """An operation requiring a smooth point was given a singular one."""


class CoordinateChangeError(Exception):
    """No tried coordinate change put a conic/cubic pair in general position."""


class ProjLine:
    """A line in P^n, canonicalized as the RREF of its 2x(n+1) span matrix."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, fld, a, b):
        n = len(a) - 1
        mat, pivots = linalg.rref([list(a), list(b)], fld)
        if len(pivots) != 2:
            raise DegenerateSpanError("points do not span a line")
        self.field = fld
        self.n = n
        self.rows = (tuple(mat[0]), tuple(mat[1]))

    def points(self):
        return [list(r) for r in self.rows]

    def plucker(self):
        F = self.field
        a, b = self.rows
        out = []
        for i in range(self.n + 1):
            for j in range(i + 1, self.n + 1):
                out.append(F.sub(F.mul(a[i], b[j]), F.mul(a[j], b[i])))
        return tuple(out)

    def contains(self, pt):
        return linalg.rank(list(self.rows) + [list(pt)], self.field) == 2

    def key(self):
        F = self.field
        return tuple(tuple(F.key(x) for x in row) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, ProjLine) and self.field is other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def min_level(self):
        """Smallest tower level over which this line is defined."""
        F = self.field
        return math.lcm(*(F.min_subfield(x) for row in self.rows for x in row))

    def descend(self, j):
        F = self.field
        if F.k == j:
            return self
        lj = F.tower.level(j)
        rows = [[F.descend(x, j) for x in row] for row in self.rows]
        return ProjLine(lj, rows[0], rows[1])

    def embed(self, k):
        F = self.field
        if F.k == k:
            return self
        lk = F.tower.level(k)
        rows = [[lk.embed_from(x, F.k) for x in row] for row in self.rows]
        return ProjLine(lk, rows[0], rows[1])

    def __repr__(self):
        return "ProjLine(%r)" % (self.rows,)


class CubicForm:
    """A homogeneous cubic F with its gradient and mixed polar forms.

    ``grad`` holds the n+1 partials dF/dx_i, computed once; every other
    derived form reads them.  P1(x;y) = sum_i y_i * dF/dx_i(x) (degree
    (2,1) in x and y) and P2(x;y) = P1(y;x) are the same terms with the two
    blocks of variables swapped; both identities hold in every
    characteristic.  Exponent tuples are shared through ``poly._EXPONENTS``,
    so the forms of many cubics hold one copy of each.
    """

    def __init__(self, fld, n, F):
        if F.is_zero():
            raise ValueError("zero cubic form")
        if any(sum(e) != 3 for e in F.terms):
            raise ValueError("form is not homogeneous of degree 3")
        if n not in (3, 4):
            raise ValueError("ambient dimension n must be 3 or 4")
        self.field = fld
        self.n = n
        self.F = F
        self.grad = tuple(
            MultiPoly._trusted(fld, F.vars, {_intern(e): c for e, c in
                                             F.derivative(v).terms.items()})
            for v in F.vars)
        units = [(0,) * i + (1,) + (0,) * (n - i) for i in range(n + 1)]
        p1, p2 = {}, {}
        for u, g in zip(units, self.grad):
            for e, c in g.terms.items():
                p1[_intern(e + u)] = c
                p2[_intern(u + e)] = c
        xy = xvars(n) + yvars(n)
        self.P1 = MultiPoly._trusted(fld, xy, p1)
        self.P2 = MultiPoly._trusted(fld, xy, p2)

    # -- evaluation -----------------------------------------------------------

    def f_at(self, pt):
        return self.F.eval_elems(list(pt))

    def gradient_at(self, pt):
        """All n+1 partials dF/dx_i at pt at once: the products of two
        coordinates are formed once and shared by the partials, the sums run
        on packed elements (``pack``), and each partial is reduced once."""
        fld = self.field
        # a term is a product of three elements
        bits = (len(self.F.terms) * fld.k ** 2 * fld.p ** 3).bit_length()
        pack = fld.pack
        x = [pack(c, bits) for c in pt]
        quad = {e: x[a] * x[b] for e, a, b in _coordinate_pairs(self.n)}
        zero = pack(fld.zero, bits)
        return [fld.unpack(sum([pack(c, bits) * quad[e]
                                for e, c in g.terms.items()], zero), bits)
                for g in self.grad]

    def polar(self, pt):
        """The polar quadric of pt, sum_i pt_i * dF/dx_i, in the variables
        of F: P2(pt; .) = P1(.; pt)."""
        out = MultiPoly.zero(self.field, self.F.vars)
        for c, g in zip(pt, self.grad):
            out = out + g.scale(c)
        return out

    # -- lines ------------------------------------------------------------------

    def line_in_x(self, line):
        """F vanishes identically on the line, over the line's field."""
        return self.line_in_x_points(*line.rows, line.field)

    def line_in_x_points(self, a, b, fld=None):
        """F vanishes identically on the line through a and b over fld.

        F(s0*a + s1*b) is the binary cubic with coefficients F(a), P1(a;b),
        P2(a;b) and F(b); all four are computed at once, at fld, by
        substituting the line as a degree-1 curve.
        """
        fld = fld or self.field
        return all(map(fld.is_zero, self.F.along((tuple(zip(a, b)),), fld)))

    def _over(self, fld):
        """This cubic with coefficients embedded into another tower level;
        its gradient and polar forms are derived there again."""
        if fld is self.field:
            return self
        if self.field.char != fld.char:
            raise ValueError("cannot move a cubic to another characteristic")
        return CubicForm(fld, self.n, self.F.over(fld))


def _intern(e):
    return _EXPONENTS.setdefault(e, e)


@functools.cache
def _coordinate_pairs(n):
    """(exponent, a, b) for each product x_a * x_b, a <= b, of the
    coordinates of P^n."""
    return tuple((tuple(int(i == a) + int(i == b) for i in range(n + 1)), a, b)
                 for a in range(n + 1) for b in range(a, n + 1))


def fermat_cubic(fld, n):
    """sum x_i^3; rejected in characteristic 3 where it is singular."""
    if fld.char == 3:
        raise ValueError("the Fermat cubic is singular in characteristic 3")
    terms = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 3
        terms[tuple(e)] = 1
    return CubicForm(fld, n, MultiPoly.from_int_terms(fld, xvars(n), terms))


def cubic_from_json(doc, budget=6, seed=0):
    """Build (CubicForm, tower) from the JSON cubic schema; p = 0 gives QQ."""
    p = int(doc["p"])
    n = int(doc["n"])
    tower = QQ.tower if p == 0 else FieldTower(p, budget=budget, seed=seed)
    fld = tower.level(1)
    terms = {}
    for mono in doc["monomials"]:
        exps = tuple(int(e) for e in mono["exps"])
        if len(exps) != n + 1:
            raise ValueError("monomial exponent length != n+1")
        terms[exps] = terms.get(exps, 0) + int(mono["coeff"])
    return CubicForm(fld, n, MultiPoly.from_int_terms(fld, xvars(n), terms)), tower


# ---------------------------------------------------------------------------
# lines through a point
# ---------------------------------------------------------------------------

@dataclass
class LinesThroughPoint:
    point: tuple
    eckardt: bool
    directions: list = field(default_factory=list)  # (level, dir pt, mult)
    lines: list = field(default_factory=list)       # ProjLine, aligned
    total_multiplicity: int = 0
    complete: bool = True
    certified: bool = True      # every multiplicity followed the exact rule


def lines_through_point(cubic, x, tower, max_level=None, seed=0):
    """Lines of X through a smooth point x, with multiplicities.

    Solves {P1(x;y)=0, P2(x;y)=0, F(y)=0} in the projective space of
    directions modulo x: the linear condition (the tangent hyperplane, from
    the gradient at x) is substituted first, and the remaining pair, the
    polar quadric of x and F, is eliminated by resultants.  A positive
    dimensional solution set is the Eckardt outcome, not an error.  Each
    reported line must pass the line certificate (``line_in_x``) at its
    own level, or VerificationError is raised.
    """
    F = cubic.field
    check_tower(tower, F)
    if len(x) != cubic.n + 1:
        raise ValueError("a point of P^%d needs %d coordinates"
                         % (cubic.n, cubic.n + 1))
    if not F.is_zero(cubic.f_at(x)):
        raise ValueError("point is not on X")
    grad = cubic.gradient_at(x)
    if all(F.is_zero(g) for g in grad):
        raise SingularPointError("singular point of X")
    n = cubic.n
    # basis of the hyperplane P1(x; .) = 0 containing x
    ker = linalg.kernel_basis([grad], F)
    coords = linalg.solve([[ker[j][i] for j in range(len(ker))]
                           for i in range(n + 1)], list(x), F)
    swap = next(i for i, c in enumerate(coords) if not F.is_zero(c))
    basis = [list(x)] + [k for i, k in enumerate(ker) if i != swap]
    m = len(basis) - 1  # = n - 1 direction coordinates
    cvars = tuple("c%d" % i for i in range(1, m + 1))
    args = MultiPoly.linear_forms(F, cvars, basis[1:])
    # P2(x; y(c)) and F(y(c))
    Q = cubic.polar(x).eval_polys(args)
    K = cubic.F.eval_polys(args)
    res = LinesThroughPoint(point=tuple(x), eckardt=False)
    if Q.is_zero() or K.is_zero():
        res.eckardt = True
        return res
    if m == 2:
        sols = _solve_binary_pair(Q, K, max_level)
    else:
        sols = _solve_conic_cubic(Q, K, max_level, seed)
    if sols is None:
        res.eckardt = True
        return res
    roots, res.complete, res.certified = sols
    for lv, cpt, mult in roots:
        lvl = F.tower.level(lv)
        dirs = [[lvl.embed_from(e, F.k) for e in b] for b in basis[1:]]
        direction = linalg.combine(cpt, dirs, lvl)
        line = ProjLine(lvl, [lvl.embed_from(e, F.k) for e in x], direction)
        if not cubic.line_in_x(line):
            raise VerificationError("a line through the point does not lie "
                                    "on X")
        res.directions.append((lv, tuple(direction), mult))
        res.lines.append(line)
        res.total_multiplicity += mult
    return res


def _solve_binary_pair(Q, K, max_level):
    """Common projective roots of two binary forms (n = 3 case), with
    complete and certified flags."""
    F = Q.field
    g = binary_gcd([[P.terms.get((d - i, i), F.zero) for i in range(d + 1)]
                    for P, d in ((Q, 2), (K, 3))], F)
    if len(g) == 1:
        return [], True, True
    rm = binary_roots(g, F, max_level=max_level)
    return rm.roots, rm.complete, True


def _solve_conic_cubic(Q, K, max_level, seed):
    """Solve a conic/cubic pair in P^2 exactly: (roots, complete,
    certified) from ``lift_fibers``, or None for positive dimension.

    After a coordinate change that puts the pair in general position
    (:func:`_c3_arrays`), (0:0:1) lies on neither curve, so the resultant
    in c3 sees every solution and each fiber over a root (a1:a2) is the
    binary form in (c3, w) of the points (w*a1 : w*a2 : c3).
    """
    F = Q.field
    cvars = Q.vars
    rng = random.Random("ltp:%d" % seed)
    for attempt in range(24):
        if attempt == 0:
            cols = None  # identity
            Qt, Kt = Q, K
        else:
            # c = M c': substitute the forms sum_j c'_j * (column j of M)
            cols = list(zip(*_random_unimodular(F, rng)))
            change = MultiPoly.linear_forms(F, cvars, cols)
            Qt, Kt = Q.eval_polys(change), K.eval_polys(change)
        arrays = _c3_arrays(Qt, Kt)
        if arrays is None:
            continue
        R = sylvester_resultant(*arrays, F)
        if all(map(F.is_zero, R)):
            return None
        sols = lift_fibers(R, F, fiber_gcd(arrays, F), max_level)
        roots = []
        for lv, a, b, m in sols.solutions:
            pt = (a[0], a[1], b[0])
            if cols is not None:
                # map each solution back: c = M c'
                lvl = F.tower.level(lv)
                rows = [[lvl.embed_from(x, F.k) for x in col] for col in cols]
                pt = tuple(linalg.combine(pt, rows, lvl))
            roots.append((lv, pt, m))
        return roots, sols.complete, sols.certified
    raise CoordinateChangeError("no usable coordinate change found for the "
                                "conic/cubic pair of directions")


def _c3_arrays(Q, K):
    """The conic Q and the cubic K in (c1, c2, c3) by the power of c3: entry
    j of a form of degree d is the binary form in (c1, c2) multiplying
    c3^(d-j).  None unless c3^2 in Q and c3^3 in K have nonzero constant
    coefficients."""
    F = Q.field
    out = [[[P.terms.get((j - i, i, d - j), F.zero) for i in range(j + 1)]
            for j in range(d + 1)] for P, d in ((Q, 2), (K, 3))]
    if any(F.is_zero(P[0][0]) for P in out):
        return None
    return out


def _random_unimodular(F, rng):
    # entries in [0, p) over GF(p^k), small signed integers over QQ
    lo, hi = (0, F.p) if F.p else (-3, 4)
    while True:
        M = [[F.from_int(rng.randrange(lo, hi)) for _ in range(3)]
             for _ in range(3)]
        if linalg.rank(M, F) == 3:
            return M


# ---------------------------------------------------------------------------
# plane sections
# ---------------------------------------------------------------------------

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
    args = MultiPoly.linear_forms(cubic.field, ("pa", "pb", "pc"), plane_basis)
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
    conic = T.over(lvl).exact_div(_linear_form_poly(ell, lvl))
    cls, lines = classify_conic(conic, lvl, max_level)
    degrees = [1, 2] if cls == "smooth" else [1, 1, 1]
    return PlaneSection(status="decomposed", cubic=T, line_form=ell,
                        conic=conic, conic_class=cls, conic_lines=lines,
                        components_degrees=degrees)


def _levels_over(F, max_level):
    """The tower levels that contain F, up to max_level and the budget."""
    for k in range(F.k, min(max_level, F.tower.budget) + 1, F.k):
        yield F.tower.level(k)


def _find_linear_factor(T, F, max_level):
    if F.char == 0:
        return None  # exhaustive factor search is finite-field machinery
    for lvl in _levels_over(F, max_level):
        Tl = T.over(lvl)
        for ell in _proj_points(lvl, 2):
            if Tl.divides_exactly(_linear_form_poly(ell, lvl)) is not None:
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
    basis = linalg.complete_basis([vertex], F)
    Cn = C.eval_polys(MultiPoly.linear_forms(F, C.vars, basis))
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


# ---------------------------------------------------------------------------
# smoothness probe
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessCertificate:
    smooth_so_far: bool
    singular_point: tuple | None
    levels_exhausted: list
    samples: int
    conclusive: bool


SAMPLE_BUDGET = 2000       # random points tried per level too big to scan
EXHAUST_LIMIT = 500_000    # largest projective point count scanned in full


def smoothness_probe(cubic, max_level=2, seed=0):
    """Search for common zeros of F and its partials over low tower levels.

    Exhaustive wherever the projective point count fits EXHAUST_LIMIT,
    SAMPLE_BUDGET seeded random points beyond; the certificate says which
    was which.  An exhaustive level tests the gradient only at the zeros
    of F, which come from one scan (:func:`_proj_zeros`).
    """
    F = cubic.field
    if F.char == 0:
        raise ValueError("the probe enumerates points; use a finite tower")
    n = cubic.n
    levels_done = []
    samples = 0
    rng = random.Random("smooth:%d" % seed)
    for lvl in _levels_over(F, max_level):
        count = sum(lvl.q ** i for i in range(n + 1))
        cub = cubic._over(lvl)
        if count <= EXHAUST_LIMIT:
            for pt in _proj_zeros(cub.F, lvl, n):
                if all(map(lvl.is_zero, cub.gradient_at(pt))):
                    return SmoothnessCertificate(False, tuple(pt), levels_done,
                                                 samples, True)
            levels_done.append(lvl.k)
        else:
            for _ in range(SAMPLE_BUDGET):
                pt = [lvl.from_coeffs([rng.randrange(lvl.p)
                                       for _ in range(lvl.k)])
                      for _ in range(n + 1)]
                if all(lvl.is_zero(c) for c in pt):
                    continue
                samples += 1
                if _is_singular_at(cub, pt):
                    return SmoothnessCertificate(False, tuple(pt), levels_done,
                                                 samples, True)
    conclusive = bool(levels_done) and samples == 0
    return SmoothnessCertificate(True, None, levels_done, samples, conclusive)


def _is_singular_at(cub, pt):
    zero = cub.field.is_zero
    return zero(cub.f_at(pt)) and all(map(zero, cub.gradient_at(pt)))


def _proj_points(lvl, n):
    """Canonical representatives of P^n over a finite level: the last
    nonzero coordinate is one, and the coordinates before it run with the
    first one slowest."""
    elems = list(lvl.elements())
    for i in range(n, -1, -1):
        tail = [lvl.one] + [lvl.zero] * (n - i)
        for head in itertools.product(elems, repeat=i):
            yield list(head) + tail


def _proj_zeros(form, lvl, n):
    """The points of :func:`_proj_points` where a form over lvl vanishes,
    in the same order.

    The points that differ only in their fastest coordinate, the one
    before the last nonzero, are b + t*e_c for t in the field's order, so
    the form is substituted once per such group (:func:`_zeros_along`);
    the last point, e_0, is evaluated on its own.
    """
    elems = list(lvl.elements())
    for i in range(n, 0, -1):
        tail = [lvl.one] + [lvl.zero] * (n - i)
        for head in itertools.product(elems, repeat=i - 1):
            for t in _zeros_along(form, list(head) + [None] + tail, elems):
                yield list(head) + [t] + tail
    e0 = [lvl.one] + [lvl.zero] * n
    if lvl.is_zero(form.eval_elems(e0)):
        yield e0


def _zeros_along(form, base, elems):
    """The t in elems, in their order, where the form vanishes at base
    with t at its one None entry: the form is substituted once, as a
    polynomial in that coordinate, and evaluated at each t by packed
    Horner (every t is a zero when the substitution is zero)."""
    lvl = form.field
    part = form.subs(base).terms
    if not part:
        yield from elems
        return
    d = max(part)[0]
    bits = _horner_bits(d, d + 1, lvl)
    # coefficient i multiplies u0^(d-i) u1^i: the polynomial at u = (1, t)
    coeffs = _packed_coeffs([part.get((i,), lvl.zero) for i in range(d + 1)],
                            lvl, lvl.k, bits)
    one = lvl.one
    for t in elems:
        if lvl.is_zero(lvl.unpack(_packed_horner(coeffs, (one, t), lvl, bits),
                                  bits)):
            yield t
