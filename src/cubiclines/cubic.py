"""Cubic hypersurfaces X = V(F) in P^n, read through the gradient of F.

The two mixed polar forms are the coefficients in the characteristic-free
expansion F(x + t*y) = F(x) + t*P1(x;y) + t^2*P2(x;y) + t^3*F(y), and both
are the gradient paired with a point: P1(x;y) = sum_i y_i * dF/dx_i(x) and
P2(x;y) = P1(y;x).  So every polar form is read from the gradient: it
drives the smoothness tests, the polar quadric of a point, the
lines-through-a-point solver and, downstream, the secant systems; the
line-containment test substitutes the line into F.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from . import linalg
from .bihom import fiber_gcd, lift_fibers
from .fields import (QQ, FieldTower, InvalidInputError, VerificationError,
                     check_tower)
from .poly import (_EXPONENTS, MultiPoly, _horner_bits, _packed_coeffs,
                   _packed_horner, binary_gcd, binary_roots,
                   sylvester_resultant)


def xvars(n):
    return tuple("x%d" % i for i in range(n + 1))


class DegenerateSpanError(InvalidInputError):
    """Two coincident points were asked to span a line."""


class SingularPointError(InvalidInputError):
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

    def plucker(self):
        F = self.field
        a, b = self.rows
        out = []
        for i in range(self.n + 1):
            for j in range(i + 1, self.n + 1):
                out.append(F.sub(F.mul(a[i], b[j]), F.mul(a[j], b[i])))
        return tuple(out)

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

    def __repr__(self):
        return "ProjLine(%r)" % (self.rows,)


class CubicForm:
    """A homogeneous cubic F with its gradient.

    ``grad`` holds the n+1 partials dF/dx_i, computed once; every derived
    form reads them.  The mixed polar forms are the gradient paired with a
    point, P1(x;y) = y . grad F(x) and P2(x;y) = x . grad F(y), so they are
    never built as polynomials: the solver pairs ``gradient_at`` or the
    partials along a curve with the other point.  Both identities hold in
    every characteristic.  Exponent tuples are shared through
    ``poly._EXPONENTS``, so the gradients of many cubics hold one copy of
    each.
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

    # -- evaluation -----------------------------------------------------------

    def f_at(self, pt):
        return self.F.eval_elems(list(pt))

    def gradient_at(self, pt):
        """All n+1 partials dF/dx_i at pt at once: the products of two
        coordinates are formed once and shared by the partials, the sums run
        on packed elements (``pack``), and each partial is reduced once."""
        fld = self.field
        # a term is a product of three elements
        bits = _horner_bits(2, len(self.F.terms), fld)
        pack = fld.pack
        x = [pack(c, bits) for c in pt]
        quad = {e: x[a] * x[b] for e, a, b in _coordinate_pairs(self.n)}
        zero = pack(fld.zero, bits)
        return [fld.unpack(sum([pack(c, bits) * quad[e]
                                for e, c in g.terms.items()], zero), bits)
                for g in self.grad]

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
        return all(map(fld.is_zero, self.F.along(tuple(zip(a, b)), fld)))

    def _over(self, fld):
        """This cubic with coefficients embedded into another tower level;
        its gradient is derived there again."""
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


def _levels_over(F, max_level):
    """The tower levels that contain F, up to max_level and the budget."""
    for k in range(F.k, min(max_level, F.tower.budget) + 1, F.k):
        yield F.tower.level(k)


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
    directions modulo x: the directions are taken in the tangent
    hyperplane (the kernel of the gradient at x), where P1 vanishes, and
    the remaining pair, the polar quadric Q of x and F, is solved as the
    common roots of :func:`pencil_forms` on a surface, as in
    :func:`lines_in_plane`, and by resultants on a threefold
    (:func:`_solve_conic_cubic`).  ``eckardt`` says that Q vanishes on the
    tangent space: a surface then lists the lines, the roots of F there,
    and a threefold none, since its lines through x form a cone.  Each
    reported line must pass the line certificate (``line_in_x``) at its own
    level, or VerificationError is raised.
    """
    F = cubic.field
    check_tower(tower, F)
    if len(x) != cubic.n + 1:
        raise InvalidInputError("a point of P^%d needs %d coordinates"
                                % (cubic.n, cubic.n + 1))
    if all(map(F.is_zero, x)):
        raise InvalidInputError("the zero vector is not a point of P^%d"
                                % cubic.n)
    if not F.is_zero(cubic.f_at(x)):
        raise InvalidInputError("point is not on X")
    grad = cubic.gradient_at(x)
    if all(F.is_zero(g) for g in grad):
        raise SingularPointError("singular point of X")
    # n - 1 directions that span the hyperplane P1(x; .) = 0 with x
    ker = linalg.kernel_basis([grad], F)
    coords = linalg.solve([[ker[j][i] for j in range(len(ker))]
                           for i in range(cubic.n + 1)], list(x), F)
    swap = next(i for i, c in enumerate(coords) if not F.is_zero(c))
    dirs = [k for i, k in enumerate(ker) if i != swap]
    if cubic.n == 3:
        # the lines of the tangent plane through x; Eckardt when Q vanishes
        forms = pencil_forms(cubic, x, grad, *dirs)
        eckardt = _vanishes([forms[1]], F)
        sols = None if _vanishes(forms, F) else (
            *_pencil_roots(forms, dirs, F, max_level), True)
    else:
        sols = _solve_conic_cubic(cubic, x, grad, dirs, max_level, seed)
        eckardt = sols is None
    res = LinesThroughPoint(point=tuple(x), eckardt=eckardt)
    if sols is None:
        return res
    roots, res.complete, res.certified = sols
    for lv, direction, mult in roots:
        line = _line_through(x, direction, F, lv)
        if not cubic.line_in_x(line):
            raise VerificationError("a line through the point does not lie "
                                    "on X")
        res.directions.append((lv, tuple(direction), mult))
        res.lines.append(line)
        res.total_multiplicity += mult
    return res


def pencil_forms(cubic, x, gx, w1, w2):
    """The binary forms L, Q and K in (u0, u1) of the direction
    d = u0*w1 + u1*w2, for a point x of X over the cubic's field with
    gradient gx there.

    F(x + t*d) = t*L + t^2*Q + t^3*K with L = P1(x; d) = d . gx,
    Q = P2(x; d) = x . grad F(d), the polar quadric of x along the pencil
    (:func:`_polar_quadrics`), and K = F(d); so the lines of X through x
    in the plane of x, w1 and w2 are the common roots of the three forms.
    """
    F = cubic.field
    return ([linalg.dot(gx, w1, F), linalg.dot(gx, w2, F)],
            _polar_quadrics(cubic, w1, w2, x)[0],
            cubic.F.along(tuple(zip(w1, w2)), F))


def _polar_quadrics(cubic, w1, w2, *pts):
    """For each point p, its polar quadric q(d) = p . grad F(d) on
    d = u0*w1 + u1*w2, from the gradients at w1, w2 and w1 + w2: the u0*u1
    coefficient is the polarization q(w1 + w2) - q(w1) - q(w2), in every
    characteristic."""
    F = cubic.field
    grads = [cubic.gradient_at(w) for w in (w1, w2, list(map(F.add, w1, w2)))]
    out = []
    for p in pts:
        a, c, ac = (linalg.dot(p, g, F) for g in grads)
        out.append([a, F.sub(F.sub(ac, a), c), c])
    return out


def lines_in_plane(cubic, x, w1, w2, max_level=None):
    """The lines of X through x in the plane of x, w1 and w2 (three
    independent points over the cubic's field), each over the level where
    its direction is found, up to max_level; None when the plane lies in
    X.  The directions are the roots of the gcd of :func:`pencil_forms`.
    """
    F = cubic.field
    forms = pencil_forms(cubic, x, cubic.gradient_at(x), w1, w2)
    if _vanishes(forms, F):
        return None
    roots, _complete = _pencil_roots(forms, (w1, w2), F, max_level)
    return [_line_through(x, d, F, lv) for lv, d, _m in roots]


def _vanishes(forms, F):
    return all(map(F.is_zero, itertools.chain.from_iterable(forms)))


def _pencil_roots(forms, w, F, max_level):
    """The common roots of binary forms in the pencil of w = (w1, w2), as
    (level, direction, multiplicity), with the flag that every root was
    found."""
    g = binary_gcd(forms, F)
    if len(g) == 1:
        return [], True
    rm = binary_roots(g, F, max_level=max_level)
    roots = [(lv, _direction(r, w, F, lv), m) for lv, r, m in rm.roots]
    return roots, rm.complete


def _direction(coeffs, w, F, lv):
    """The combination of the vectors w over F with coefficients at level lv."""
    lvl = F.tower.level(lv)
    return linalg.combine(coeffs, [[lvl.embed_from(e, F.k) for e in b]
                                   for b in w], lvl)


def _line_through(x, direction, F, lv):
    lvl = F.tower.level(lv)
    return ProjLine(lvl, [lvl.embed_from(e, F.k) for e in x], direction)


def _solve_conic_cubic(cubic, x, gx, dirs, max_level, seed):
    """Lines through x, where the gradient is gx, on a threefold: the
    conic/cubic pair of directions y = c1*b1 + c2*b2 + c3*b3 solved
    exactly, as (roots, complete, certified) from ``lift_fibers``, or None
    for positive dimension.

    The basis b starts as the three tangent directions and is recombined
    by random unimodular changes until (0:0:1) lies on neither curve
    (:func:`_c3_arrays`); then the resultant in c3 sees every solution,
    and each fiber over a root (a1:a2) is the binary form in (c3, w) of
    the points (w*a1 : w*a2 : c3), whose direction is a1*b1 + a2*b2 + b3
    in the basis of that change.
    """
    F = cubic.field
    rng = random.Random("ltp:%d" % seed)
    b = dirs
    for attempt in range(24):
        if attempt:
            b = [linalg.combine(col, dirs, F)
                 for col in zip(*_random_unimodular(F, rng))]
        Q, K = _c3_arrays(cubic, x, gx, b)
        if _vanishes(Q, F) or _vanishes(K, F):
            return None
        if F.is_zero(Q[0][0]) or F.is_zero(K[0][0]):
            continue
        R = sylvester_resultant(Q, K, F)
        if all(map(F.is_zero, R)):
            return None
        sols = lift_fibers(R, F, fiber_gcd((Q, K), F), max_level)
        return ([(lv, _direction((a[0], a[1], c[0]), b, F, lv), m)
                 for lv, a, c, m in sols.solutions],
                sols.complete, sols.certified)
    raise CoordinateChangeError("no usable coordinate change found for the "
                                "conic/cubic pair of directions")


def _c3_arrays(cubic, x, gx, b):
    """The conic Q(y) = P2(x; y) and the cubic K(y) = F(y) on
    y = v + c3*b3, v = c1*b1 + c2*b2, by the power of c3: entry j of a form
    of degree d is the binary form in (c1, c2) multiplying c3^(d-j).  gx is
    the gradient at x.

    With q(y) = x . grad F(y), the polar quadric of x, and its bilinear
    form B(u, w) = q(u + w) - q(u) - q(w) (in every characteristic),
    Q = q(b3)*c3^2 + (B(b1, b3)*c1 + B(b2, b3)*c2)*c3 + q(v), where
    B(b_i, b3) = b_i . (grad F(x + b3) - gx - grad F(b3)), since B(u, w)
    is the coefficient of abc in F(a*u + b*w + c*x), symmetric in u, w and
    x.  From the expansion of F(v + c3*b3),
    K = F(b3)*c3^3 + P2(v; b3)*c3^2 + P1(v; b3)*c3 + F(v), where
    P2(v; b3) = v . grad F(b3) and P1(v; b3) = b3 . grad F(v) is the polar
    quadric of b3 on v (:func:`_polar_quadrics`).
    """
    F = cubic.field
    b1, b2, b3 = b
    qx, q3 = _polar_quadrics(cubic, b1, b2, x, b3)
    g3 = cubic.gradient_at(b3)
    h = [F.sub(F.sub(s, t), u) for s, t, u in
         zip(cubic.gradient_at(list(map(F.add, x, b3))), gx, g3)]
    Q = [[linalg.dot(x, g3, F)], [linalg.dot(b1, h, F), linalg.dot(b2, h, F)],
         qx]
    K = [[cubic.f_at(b3)], [linalg.dot(g3, b1, F), linalg.dot(g3, b2, F)],
         q3, cubic.F.along(tuple(zip(b1, b2)), F)]
    return Q, K


def _random_unimodular(F, rng):
    # entries in [0, p) over GF(p^k), small signed integers over QQ
    lo, hi = (0, F.p) if F.p else (-3, 4)
    while True:
        M = [[F.from_int(rng.randrange(lo, hi)) for _ in range(3)]
             for _ in range(3)]
        if linalg.rank(M, F) == 3:
            return M


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
        raise InvalidInputError("the probe enumerates points; use a finite "
                                "tower")
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


def _proj_zeros(form, lvl, n):
    """The points of P^n over a finite level where a form over lvl
    vanishes, as canonical representatives whose last nonzero coordinate
    is one.  The points with x_n = 1 come first, then those with x_n = 0
    and x_(n-1) = 1, and so on down to e_0; within each block the
    coordinates before the one run through the field's elements in their
    order, the first coordinate slowest.

    The points that differ only in their fastest coordinate, the one
    before the last nonzero, are b + t*e_c for t in the field's order, so
    the form is restricted to that coordinate once per such group
    (:func:`_zeros_along`); the last point, e_0, is evaluated on its own.
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
    with t at its one None entry: the form is restricted once to that
    coordinate (``MultiPoly.restrict``, on the packed terms of
    ``eval_elems``) and the polynomial in t is evaluated at each t by
    packed Horner (every t is a zero when it is zero)."""
    lvl = form.field
    part = form.restrict(base, base.index(None))
    d = len(part) - 1
    bits = _horner_bits(d, d + 1, lvl)
    # coefficient i multiplies u0^(d-i) u1^i: the polynomial at u = (1, t)
    coeffs = _packed_coeffs(part, lvl, lvl.k, bits)
    one = lvl.one
    for t in elems:
        if lvl.is_zero(lvl.unpack(_packed_horner(coeffs, (one, t), lvl, bits),
                                  bits)):
            yield t
