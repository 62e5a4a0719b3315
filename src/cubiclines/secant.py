"""Secant-line schemes of curves on a cubic hypersurface.

A line through two points of X lies on X iff both mixed polar forms vanish
on the pair, so secants of one curve (or of a pair) are cut out by two
bihomogeneous equations on P^1 x P^1.  Single mode removes the universal
order-2 diagonal vanishing exactly; pair mode excises the coincidence
solutions at common points of the two images (and, in line mode, the
degenerate fibers of a line through such a point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .bihom import PositiveDimensionalError, divide_diagonal, solve_bihomog
from .cubic import ProjLine, lines_in_plane
from .curves import (_check_map_on_x, _normalize, curve_meeting_data,
                     validate_curve)
from .fields import InvalidInputError, VerificationError, check_tower
from .poly import linear_quotient


def expected_single(e, g=0):
    """Count of secants of a degree-e genus-g curve, with multiplicity."""
    num = 5 * e * (e - 3) + 2 * (6 - 6 * g)
    if num % 2:
        raise VerificationError("odd secant count numerator %d" % num)
    return num // 2


def expected_pair(e1, e2, r):
    return 5 * e1 * e2 - 6 * r


def expected_line_meeting(e):
    """Pair count when one member is a line through a point of the other."""
    return 5 * e - 5


def build_system(cubic, curve_a, curve_b=None):
    """The two mixed-polar equations for secants of one curve or a pair.

    Both polar forms are the gradient paired with a point, so with the
    partials of F along the curves (``MultiPoly.along`` on ``cubic.grad``
    at the curves' level), G1 = P1(phi(s); psi(t)) is
    sum_c dF/dx_c(phi(s)) * psi_c(t) and G2 = P2(phi(s); psi(t)) is
    sum_c phi_c(s) * dF/dx_c(psi(t)), with psi = phi for one curve.
    Returns the pair of arrays to solve, whose shapes are their formal
    bidegrees, (2 e_a, e_b) and (e_a, 2 e_b).  For one curve G1 is first
    divided by the diagonal twice, its universal vanishing order, and G2
    is its transpose: P2(phi(s); phi(t)) = P1(phi(t); phi(s)), and
    swapping s and t leaves the square of the diagonal form unchanged.
    """
    F = curve_a.field
    if curve_b is not None and curve_b.field is not F:
        raise ValueError("curves must live over the same level")
    a, b = curve_a.dense, (curve_b or curve_a).dense
    G1 = _outer_sum(_partials_along(cubic, a, F), b, F)
    if curve_b is None:
        G1 = divide_diagonal(G1, 2, F)
        return G1, [list(col) for col in zip(*G1)]
    return G1, _outer_sum(a, _partials_along(cubic, b, F), F)


def _partials_along(cubic, dense, F):
    """The partials of F along a curve's dense coordinates over F, as
    binary forms of formal degree 2e (a zero partial gives zeros)."""
    zero = [F.zero] * (2 * len(dense[0]) - 1)
    return [g.along(dense, F) or zero for g in cubic.grad]


def _outer_sum(us, vs, F):
    """The array sum_c us[c] (x) vs[c] of two lists of binary forms: entry
    [i][j] is sum_c us[c][i] * vs[c][j]."""
    return [[linalg.dot(u, v, F) for v in zip(*vs)] for u in zip(*us)]


@dataclass
class SecantLine:
    level: int              # minimal definition level of the line
    param_level: int
    s: tuple
    t: tuple
    line: ProjLine
    multiplicity: int
    kind: str               # secant | tangent


@dataclass
class SecantReport:
    mode: str
    expected: int
    outcome: str = "ok"                 # ok | infinitely_many
    lines: list = field(default_factory=list)
    complete: bool = True
    certified: bool = True
    spurious: int = 0
    excised: list = field(default_factory=list)   # (level, point, multiplicity)
    excision_consistent: bool = True

    @property
    def distinct_count(self):
        return len(self.lines)

    @property
    def count_with_multiplicity(self):
        return sum(l.multiplicity for l in self.lines)

    @property
    def levels_used(self):
        return sorted({l.param_level for l in self.lines}
                      | {l.level for l in self.lines})

    @property
    def well_positioned(self):
        return (self.outcome == "ok" and self.complete and self.certified
                and self.distinct_count == self.expected
                and all(l.multiplicity == 1 for l in self.lines))

    def to_json(self):
        return {
            "schema": "secant-report/1",
            "mode": self.mode,
            "outcome": self.outcome,
            "expected": self.expected,
            "distinct_count": self.distinct_count,
            "count_with_multiplicity": self.count_with_multiplicity,
            "well_positioned": self.well_positioned,
            "complete": self.complete,
            "certified": self.certified,
            "spurious": self.spurious,
            "excised": [{"level": lv, "point": _enc_vec(pt),
                         "multiplicity": m} for lv, pt, m in self.excised],
            "excision_consistent": self.excision_consistent,
            "levels_used": self.levels_used,
            "lines": [{
                "level": l.level,
                "param_level": l.param_level,
                "multiplicity": l.multiplicity,
                "kind": l.kind,
                "rows": [_enc_vec(row) for row in l.line.rows],
                "plucker": _enc_vec(l.line.plucker()),
            } for l in self.lines],
        }


def _enc_vec(vec):
    return [list(x) if isinstance(x, tuple) else
            (str(x) if getattr(x, "denominator", 1) != 1 else int(x))
            for x in vec]


# ---------------------------------------------------------------------------
# single mode
# ---------------------------------------------------------------------------

def count_secants_single(cubic, curve, tower=None, max_level=None):
    """All secants of one curve, with multiplicity, against N(e, 0)."""
    e = curve.e
    if e < 2:
        raise InvalidInputError("a line has no secant scheme; degree must be "
                                ">= 2")
    check_tower(tower, curve.field)
    if not validate_curve(cubic, curve, max_level).valid:
        raise InvalidInputError("curve must validate as birational and "
                                "node-free")
    Gt1, Gt2 = build_system(cubic, curve)
    report = SecantReport(mode="single", expected=expected_single(e))
    try:
        sols = solve_bihomog(Gt1, Gt2, curve.field, max_level=max_level)
    except PositiveDimensionalError:
        report.outcome = "infinitely_many"
        return report
    report.complete = sols.complete
    report.certified = sols.certified
    off = {}
    for lv, s, t, m in sols.solutions:
        lvl = curve.field.tower.level(lv)
        ks = tuple(lvl.key(x) for x in s)
        kt = tuple(lvl.key(x) for x in t)
        if ks == kt:
            _handle_diagonal(report, cubic, curve, lvl, s, m)
            continue
        key = (lv, min(ks, kt), max(ks, kt))
        off.setdefault(key, []).append((s, t, m))
    for (lv, _a, _b), entries in sorted(off.items()):
        mults = {m for _s, _t, m in entries}
        if len(entries) != 2 or len(mults) != 1:
            # swap partner missing or mismatched: only from incomplete splits
            report.certified = False
        s, t, m = entries[0]
        lvl = curve.field.tower.level(lv)
        line = ProjLine(lvl, curve.point_at(s, lvl), curve.point_at(t, lvl))
        _assert_secant_line(cubic, line)
        report.lines.append(_finish_line(line, s, t, m, "secant"))
    _sort_report(report)
    return report


def _handle_diagonal(report, cubic, curve, lvl, s, m):
    """A diagonal residual solution is kept only as a true tangent secant."""
    rows = curve.tangent_rows_at(list(s), lvl)
    if rows is None:
        report.spurious += m
        return
    line = ProjLine(lvl, rows[0], rows[1])
    if not cubic.line_in_x(line):
        report.spurious += m
        return
    if m % 2 == 0:
        mult = m // 2   # the ordered model sees the diagonal doubly
    else:
        mult = m
        report.certified = False
    report.lines.append(_finish_line(line, s, s, mult, "tangent"))


# ---------------------------------------------------------------------------
# pair mode
# ---------------------------------------------------------------------------

def count_secants_pair(cubic, curve1, curve2, tower=None, max_level=None,
                       meeting=None):
    """Secants meeting both curves once each, against 5 e1 e2 - 6 r.

    Line mode: when one member is a line through r >= 1 points of the
    other curve, the whole fiber over each meeting parameter of the other
    curve degenerates.  Its linear factor is divided out, which lowers the
    formal bidegrees (the arrays lose a row or a column); the solutions at
    any meeting parameter are excised with the coincidences; the Bezout
    excess left at each meeting point is 2 instead of 6; and the expected
    count switches to 5 e - 5.
    """
    F = curve1.field
    if curve2.field is not F:
        raise ValueError("curves must live over the same level")
    check_tower(tower, F)
    for curve in (curve1, curve2):
        _check_map_on_x(cubic, curve)
    if meeting is None:
        meeting = curve_meeting_data(curve1, curve2, max_level)
    r = meeting.r
    line_sides = [curve1.e == 1, curve2.e == 1]
    if r > 0 and all(line_sides):
        raise InvalidInputError("two meeting lines span a plane; no secant "
                                "count")
    G1, G2 = build_system(cubic, curve1, curve2)
    bad_s, bad_t = [], []
    if r > 0 and any(line_sides):
        expected = expected_line_meeting(curve2.e if line_sides[0]
                                         else curve1.e)
        # after the linear divisions the Bezout excess at each meeting point
        # is 2, plus the multiplicities of the second-type secants there
        base_excess = 2
        for mp in meeting.points:
            if mp.level != F.k:
                raise NotImplementedError("meeting parameters above the curve "
                                          "level are not supported in line "
                                          "mode")
            bad_s.extend(mp.s_params)
            bad_t.extend(mp.t_params)
        # the fibers over the other curve's meeting parameters degenerate:
        # divide the rows (forms in t) or the columns (forms in s)
        for p in bad_t if line_sides[0] else bad_s:
            G1, G2 = (_divide_pair(G, p, line_sides[0], F) for G in (G1, G2))
    else:
        expected = expected_pair(curve1.e, curve2.e, r)
        base_excess = 6
    report = SecantReport(mode="pair", expected=expected)
    try:
        sols = solve_bihomog(G1, G2, F, max_level=max_level)
    except PositiveDimensionalError:
        report.outcome = "infinitely_many"
        return report
    report.complete = sols.complete
    report.certified = sols.certified
    excised = {}
    for lv, s, t, m in sols.solutions:
        lvl = F.tower.level(lv)
        a = curve1.point_at(s, lvl)
        b = curve2.point_at(t, lvl)
        if (_param_matches(s, bad_s, lvl, F) or _param_matches(t, bad_t, lvl, F)
                or _proportional(a, b, lvl)):
            key = (lv, tuple(lvl.key(x) for x in _normalize(a, lvl)))
            excised[key] = excised.get(key, 0) + m
            continue
        line = ProjLine(lvl, a, b)
        _assert_secant_line(cubic, line)
        report.lines.append(_finish_line(line, s, t, m, "secant"))
    report.excised = [(lv, pt, excised[(lv, pt)]) for lv, pt in sorted(excised)]
    _absorb_second_type(report, cubic, curve1, curve2, meeting, max_level,
                        excised, base_excess)
    _sort_report(report)
    return report


def _divide_pair(G, p, in_t, fld):
    """The array divided by the linear form vanishing at p in the pair t
    (``in_t``) or s."""
    if in_t:
        return [linear_quotient(row, p, fld) for row in G]
    return [list(r) for r in zip(*(linear_quotient(col, p, fld)
                                   for col in zip(*G)))]


def _absorb_second_type(report, cubic, curve1, curve2, meeting, max_level,
                        excised, base_excess):
    """Assign the leftover coincidence multiplicity to second-type secants.

    At a common point x of the two images, lines of X through x lying in
    the plane of the two tangent directions count as secants of the pair
    without meeting the images anywhere else; they surface in the ordered
    model only inside the local multiplicity at the coincidence solution.
    """
    consistent = True
    for mp in meeting.points:
        lvl = curve1.field.tower.level(mp.level)
        key = (mp.level, tuple(lvl.key(x) for x in mp.point))
        m_exc = excised.get(key, 0)
        leftover = m_exc - base_excess
        if leftover == 0:
            continue
        if leftover < 0:
            consistent = False
            continue
        cands = _second_type_lines(cubic, curve1, curve2, mp, max_level)
        if not cands:
            consistent = False
            continue
        if leftover % len(cands) == 0:
            each = leftover // len(cands)
        else:
            each = 1
            consistent = False
            report.certified = False
        for line in cands:
            _assert_secant_line(cubic, line)
            report.lines.append(_finish_line(line, mp.s_params[0],
                                             mp.t_params[0], each,
                                             "second_type"))
    report.excision_consistent = consistent


def _second_type_lines(cubic, curve1, curve2, mp, max_level):
    """Lines of X through a meeting point inside the node plane there: the
    plane of the point and the two tangent directions, searched as a pencil
    of directions (``lines_in_plane``) up to max_level, or level 2 by
    default; a line among the two curves is not one of them."""
    if len(mp.s_params) != 1 or len(mp.t_params) != 1:
        return []
    c1 = curve1.embed(mp.level)
    c2 = curve2.embed(mp.level)
    lvl = c1.field
    rows1 = c1.tangent_rows_at(list(mp.s_params[0]), lvl)
    rows2 = c2.tangent_rows_at(list(mp.t_params[0]), lvl)
    if rows1 is None or rows2 is None:
        return []
    (x, w1), w2 = rows1, rows2[1]
    if linalg.rank([x, w1, w2], lvl) != 3:
        return []
    lines = lines_in_plane(cubic._over(lvl), x, w1, w2, max_level or 2)
    known = [ProjLine(lvl, c.point_at([lvl.one, lvl.zero]),
                      c.point_at([lvl.zero, lvl.one]))
             for c in (c1, c2) if c.e == 1]
    return [line for line in lines or [] if line not in known]


def _param_matches(p, bads, lvl, F):
    return any(_proportional(p, [lvl.embed_from(x, F.k) for x in q], lvl)
               for q in bads)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _proportional(a, b, lvl):
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            d = lvl.sub(lvl.mul(a[i], b[j]), lvl.mul(a[j], b[i]))
            if not lvl.is_zero(d):
                return False
    return True


def _assert_secant_line(cubic, line):
    if not cubic.line_in_x(line):
        raise VerificationError("reported secant is not contained in X")


def _finish_line(line, s, t, mult, kind):
    """The report entry of a line found over its parameters' level."""
    lv = line.field.k
    min_lv = line.min_level()
    if min_lv < lv:
        line = line.descend(min_lv)
    return SecantLine(level=min_lv, param_level=lv, s=tuple(s), t=tuple(t),
                      line=line, multiplicity=mult, kind=kind)


def _sort_report(report):
    report.lines.sort(key=lambda l: (l.level, l.line.key(), l.param_level))
