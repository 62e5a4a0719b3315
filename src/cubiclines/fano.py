"""Finite-field line geometry on cubic surfaces and threefolds.

Exhaustive enumeration of the lines contained in a cubic hypersurface over
a small finite field, with incidence data; detection of second-type lines
(lines carried doubly by some plane section); the discriminant quintic of
the conic bundle obtained by projecting a threefold from a line; and the
secant-correspondence row attached to a line meeting a curve once.
"""

from __future__ import annotations

import base64
import itertools
import random
from dataclasses import dataclass, field

from . import linalg
from .curves import _normalize, curve_meeting_data, line_as_curve
from .cubic import (ProjLine, _c3_arrays, _levels_over, _proj_zeros,
                    _zeros_along, lines_through_point)
from .fields import (BudgetError, InvalidInputError, VerificationError,
                     check_tower)
from .poly import MultiPoly
from .secant import _enc_vec, count_secants_pair, expected_line_meeting

CANDIDATE_GUARD = 10 ** 8


class DegenerateConfigurationError(ValueError):
    """The chosen line is too special for the requested construction."""


def _line_space_size(q, n):
    """Number of lines in P^n over a field with q elements."""
    return ((q ** (n + 1) - 1) * (q ** n - 1)) // ((q ** 2 - 1) * (q - 1))


@dataclass
class LineCensus:
    """All lines on a cubic hypersurface rational over one field level."""

    level: int
    n: int
    lines: list = field(default_factory=list)
    adjacency: list = field(default_factory=list)   # rows of 0/1
    second_type: list = field(default_factory=list)

    @property
    def count(self):
        return len(self.lines)

    def to_json(self):
        packed = bytearray()
        bits = [b for row in self.adjacency for b in row]
        for i in range(0, len(bits), 8):
            byte = 0
            for j, b in enumerate(bits[i:i + 8]):
                byte |= b << j
            packed.append(byte)
        return {
            "schema": "line-census/1",
            "level": self.level,
            "n": self.n,
            "count": self.count,
            "lines": [[_enc_vec(r) for r in l.rows] for l in self.lines],
            "second_type": list(self.second_type),
            "adjacency": base64.b64encode(bytes(packed)).decode("ascii"),
        }


def _first_rows_on_x(X, elems):
    """Canonical echelon first rows u of the lines of P^n with F(u) = 0.

    Yields (u, j, vfree): u has a one at its pivot i, zeros before i and at
    j, and any values at the other columns after i; the second rows paired
    with u have a one at the pivot column j, zeros before it, and any values
    at the columns vfree.  The rows that differ only at the last free column
    c are b + t*e_c for their common part b (with b_c = 0), so F on them is
    one cubic in t per such group, F restricted to x_c
    (``MultiPoly.restrict``), and only the t where it vanishes are formed
    (all of them when it is zero).  The pivot pair with no free column has
    the single first row e_i.
    """
    fld, n = X.field, X.n
    zero, one = fld.zero, fld.one
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            ufree = [c for c in range(i + 1, n + 1) if c != j]
            vfree = list(range(j + 1, n + 1))
            if not ufree:
                u = [zero] * (n + 1)
                u[i] = one
                if fld.is_zero(X.f_at(u)):
                    yield u, j, vfree
                continue
            *rest, c = ufree
            for vals in itertools.product(elems, repeat=len(rest)):
                base = [zero] * (n + 1)
                base[i] = one
                for col, x in zip(rest, vals):
                    base[col] = x
                base[c] = None
                for t in _zeros_along(X.F, base, elems):
                    u = list(base)
                    u[c] = t
                    yield u, j, vfree


def _polar_cut(fld, elems, grad, j, vfree):
    """Second rows v of first row u with grad F(u) . v = 0.

    v has a one at the pivot column j and free values at the columns vfree.
    The equation is solved for one free column where the gradient is
    nonzero while the other free columns run over the field; when the
    gradient vanishes on every free column, every v passes if grad[j] = 0
    and none does otherwise.
    """
    solvable = [c for c in vfree if not fld.is_zero(grad[c])]
    if solvable:
        c0 = solvable[0]
        rest = [c for c in vfree if c != c0]
        scale = fld.neg(fld.inv(grad[c0]))
    elif fld.is_zero(grad[j]):
        c0, rest = None, vfree
    else:
        return
    for vals in itertools.product(elems, repeat=len(rest)):
        v = [fld.zero] * len(grad)
        v[j] = fld.one
        dot = grad[j]
        for c, x in zip(rest, vals):
            v[c] = x
            dot = fld.add(dot, fld.mul(grad[c], x))
        if c0 is not None:
            v[c0] = fld.mul(scale, dot)
        yield v


def incidence(fld, spans):
    """0/1 meeting matrix of distinct lines given by spanning pairs (a, b).

    Two distinct lines defined over fld meet exactly when they share a
    point over fld, because their intersection is a linear subspace
    defined over fld.  The q + 1 points s*a + t*b of each line, (1:t) for t
    in fld and (0:1), are normalized and bucketed; the lines in a bucket
    meet pairwise.
    """
    elems = list(fld.elements())
    buckets = {}
    for idx, (a, b) in enumerate(spans):
        pts = [[fld.add(x, fld.mul(t, y)) for x, y in zip(a, b)]
               for t in elems]
        pts.append(list(b))
        for pt in pts:
            buckets.setdefault(tuple(_normalize(pt, fld)), []).append(idx)
    m = len(spans)
    adjacency = [[0] * m for _ in range(m)]
    for idxs in buckets.values():
        for i, k in itertools.combinations(idxs, 2):
            adjacency[i][k] = adjacency[k][i] = 1
    return adjacency


def enumerate_lines(cubic, tower, level=1, with_second_type=True):
    """Exhaustive census of the lines on the hypersurface at one level.

    Scans the canonical echelon representatives (u, v) of the lines of P^n,
    refusing scans above the candidate guard.  F is restricted once per
    group of first rows that differ only at their last free coordinate, to
    a cubic in that coordinate, and only the rows where it vanishes are
    kept (:func:`_first_rows_on_x`).  For each such u the second rows v are
    cut by the linear condition grad F(u) . v = 0, which is the polar form
    P1(u; v), read from the cubic's stored gradient; the condition is solved
    for one coordinate of v rather than tested, so only 1/q of the second
    rows are formed.  F(s*u + t*v) has the coefficients F(u), P1(u; v),
    P2(u; v) and F(v), so a cut row is on a line of X exactly when F(v) = 0
    and P2(u; v) = sum_i u_i dF/dx_i(v) = 0; F(v) and grad F(v) are
    evaluated once per distinct second row.  Every survivor is certified by
    full substitution before it is reported.  Incidence comes from shared
    rational points (see :func:`incidence`), with no rank per pair of lines.
    """
    if cubic.field.char == 0:
        raise InvalidInputError("line enumeration needs a finite field (p > 0)")
    check_tower(tower, cubic.field)
    fld = cubic.field.tower.level(level)
    q = fld.p ** fld.k
    n = cubic.n
    total = _line_space_size(q, n)
    if total > CANDIDATE_GUARD:
        raise BudgetError(
            "line scan needs %d candidates (guard %d)" % (total, CANDIDATE_GUARD))
    X = cubic._over(fld)
    census = LineCensus(level=level, n=n)
    elems = list(fld.elements())
    # grad F(v) where F(v) = 0, else None, per second row: they lie in the
    # hyperplane x0 = 0 and recur for many first rows
    v_grad = {}
    for u, j, vfree in _first_rows_on_x(X, elems):
        for v in _polar_cut(fld, elems, X.gradient_at(u), j, vfree):
            key = tuple(v)
            if key not in v_grad:
                v_grad[key] = (X.gradient_at(v) if fld.is_zero(X.f_at(v))
                               else None)
            grad_v = v_grad[key]
            if grad_v is None:
                continue
            # F(u) = P1(u; v) = F(v) = 0 here, so P2(u; v) decides
            p2 = fld.zero
            for x, g in zip(u, grad_v):
                p2 = fld.add(p2, fld.mul(x, g))
            if not fld.is_zero(p2):
                continue
            if not X.line_in_x_points(u, v, fld):
                raise VerificationError(
                    "scan candidate %r, %r fails the line certificate" % (u, v))
            census.lines.append(ProjLine(fld, u, v))
    census.lines.sort(key=lambda l: l.key())
    census.adjacency = incidence(fld, [l.rows for l in census.lines])
    if with_second_type:
        census.second_type = [second_type_test(X, l)[0] for l in census.lines]
    else:
        census.second_type = [False] * census.count
    return census


def _normal_rows(cubic, line):
    """The columns c off the pivots of the line's echelon rows, and the
    s^2, st and t^2 coefficients of dF/dx_c(s*r0 + t*r1), one column per c:
    the part of F(s*r0 + t*r1 + u) linear in a vector u supported on those
    columns."""
    fld = line.field
    if not cubic.line_in_x(line):
        raise InvalidInputError("line does not lie on the hypersurface")
    pivots = {next(c for c, x in enumerate(row) if not fld.is_zero(x))
              for row in line.rows}
    cols = [c for c in range(line.n + 1) if c not in pivots]
    block = tuple(zip(*line.rows))
    # a zero partial (F free of x_c) substitutes to []
    return cols, [list(r) for r in zip(*(
        cubic.grad[c].along(block, fld) or [fld.zero] * 3 for c in cols))]


def second_type_test(cubic, line):
    """Whether some plane through the line cuts the hypersurface in the
    line doubled plus a residual line; returns (flag, witness plane basis).

    The planes through the line form a projective space of directions u,
    supported on the columns off the line's pivots; double containment is
    three conditions linear in u (:func:`_normal_rows`), so the witness is
    a kernel vector of a 3 x (n-1) matrix over the line's own field.
    """
    fld = line.field
    cols, rows = _normal_rows(cubic, line)
    kern = linalg.kernel_basis(rows, fld)
    if not kern:
        return False, None
    direction = [fld.zero] * (line.n + 1)
    for c, x in zip(cols, kern[0]):
        direction[c] = x
    plane_basis = [list(line.rows[0]), list(line.rows[1]), direction]
    return True, plane_basis


@dataclass
class DiscriminantCurve:
    """Degeneration locus of the conic bundle from projecting along a line."""

    form: MultiPoly          # ternary quintic in the direction coordinates
    level_field: object
    degree: int = 5
    genus: int = 6                   # smooth plane quintic
    double_cover_genus: int = 11     # connected etale double cover
    samples: list = field(default_factory=list)


def discriminant_quintic(cubic, line):
    """Determinant of the fiber conic of the projection from the line.

    The fibers over the P^2 of directions u are conics in coordinates
    (s, t, z); their symmetric matrix has entries of degrees (1,1,2 /
    1,1,2 / 2,2,3) in u, so the determinant is a quintic.
    """
    fld = line.field
    if cubic.n != 4:
        raise InvalidInputError("projection discriminant needs a threefold")
    if fld.char == 2:
        raise ValueError("conic matrices need characteristic != 2")
    alpha, beta, gamma, delta, eps, zeta = _fiber_conic(cubic, line)
    two = fld.add(fld.one, fld.one)
    a2, g2, z2 = (f.scale(two) for f in (alpha, gamma, zeta))
    det = (a2 * (g2 * z2 - eps * eps)
           - beta * (beta * z2 - eps * delta)
           + delta * (beta * eps - g2 * delta))
    if det.is_zero():
        raise DegenerateConfigurationError(
            "fiber conics degenerate everywhere; the line is special")
    if det.degree() != 5 or {sum(e) for e in det.terms} != {5}:
        raise DegenerateConfigurationError(
            "discriminant is not a quintic; the line is special")
    return DiscriminantCurve(form=det, level_field=fld)


def _fiber_conic(cubic, line):
    """The coefficients of F(s*r0 + t*r1 + u) by s^2, st, t^2, s, t and 1,
    as forms in the coordinates x_c of the columns c off the line's pivots,
    where u is supported.

    The first three are linear (:func:`_normal_rows`); the s and t parts
    are the polar quadrics of r0 and r1, and the last is F, on the plane of
    the unit vectors e_c (``cubic._c3_arrays`` at r0 and r1).
    """
    fld = line.field
    X = cubic._over(fld)
    cols, rows = _normal_rows(X, line)
    plane = [[fld.one if i == c else fld.zero for i in range(line.n + 1)]
             for c in cols]
    (delta, zeta), (eps, _) = (_c3_arrays(X, r, X.gradient_at(r), plane)
                               for r in line.rows)
    names = tuple(X.F.vars[c] for c in cols)
    # a linear form as the arrays hold it: c3's coefficient, then c1's, c2's
    linear = [[[row[2]], row[:2]] for row in rows]
    return [_ternary(A, names, fld) for A in linear + [delta, eps, zeta]]


def _ternary(arrays, names, fld):
    """The form in (c1, c2, c3) of a list of binary forms by the power of
    c3 (the layout of ``cubic._c3_arrays``): entry j of a form of degree d
    multiplies c3^(d-j), and its coefficient i multiplies c1^(j-i) c2^i."""
    d = len(arrays) - 1
    return MultiPoly(fld, names, {(j - i, i, d - j): c
                                  for j, form in enumerate(arrays)
                                  for i, c in enumerate(form)})


def sample_smoothness(curve, count=20, max_level=3, seed=0):
    """Check the Jacobian criterion at sampled zeros of the discriminant.

    Collects projective zeros level by level (the levels that contain the
    curve's field, up to max_level and the budget) until ``count`` are found,
    records (level, point, smooth) per sample, and returns True when every
    sampled zero is a smooth point of the curve.
    """
    base = curve.form.field
    if base.char == 0:
        raise InvalidInputError("smoothness sampling enumerates points; needs "
                                "p > 0")
    rng = random.Random(seed)
    curve.samples = []
    for lvl in _levels_over(base, max_level):
        form = curve.form.over(lvl)
        parts = [form.derivative(v) for v in form.vars]
        pts = list(_proj_zeros(form, lvl, 2))
        rng.shuffle(pts)
        for p in pts:
            if len(curve.samples) >= count:
                break
            smooth = any(not lvl.is_zero(d.eval_elems(list(p))) for d in parts)
            curve.samples.append((lvl.k, tuple(p), smooth))
        if len(curve.samples) >= count:
            break
    return bool(curve.samples) and all(s for _, _, s in curve.samples)


@dataclass
class CorrespondenceRow:
    """One row of the secant correspondence attached to a line on the
    hypersurface meeting a curve transversally at a single point."""

    report: object                  # SecantReport in line-meeting mode
    meeting_level: int
    meeting_point: tuple
    lines_at_point: object          # LinesThroughPoint at the meeting point
    row_total: int
    point_line_multiplicity: int    # total multiplicity of lines through x


def correspondence_row(cubic, curve, line, tower=None, max_level=None):
    """Row total of the secant correspondence for a line meeting a curve.

    Requires a single transversal meeting point; asserts the row total
    with multiplicity equals 5e - 5 and attaches the full census of lines
    through the meeting point.
    """
    check_tower(tower, curve.field)
    if not cubic.line_in_x(line):
        raise InvalidInputError("line does not lie on the hypersurface")
    line_curve = line_as_curve(line)
    meeting = curve_meeting_data(curve, line_curve, max_level)
    if meeting.r != 1 or not meeting.all_transversal:
        raise InvalidInputError(
            "the line must meet the curve transversally at exactly one point")
    report = count_secants_pair(cubic, curve, line_curve, max_level=max_level,
                                meeting=meeting)
    expected = expected_line_meeting(curve.e)
    if (report.outcome == "ok"
            and report.count_with_multiplicity != expected):
        raise VerificationError(
            "row total %d != %d" % (report.count_with_multiplicity, expected))
    mp = meeting.points[0]
    X = cubic._over(curve.field.tower.level(mp.level))
    ltp = lines_through_point(X, list(mp.point), None, max_level=max_level)
    return CorrespondenceRow(
        report=report,
        meeting_level=mp.level,
        meeting_point=tuple(mp.point),
        lines_at_point=ltp,
        row_total=report.count_with_multiplicity,
        point_line_multiplicity=ltp.total_multiplicity,
    )
