"""Parameterized rational curves on a cubic hypersurface.

A curve is n+1 binary forms of a common degree e.  Validation checks the
parameterization is base-point-free, lands on X, and is birational onto
its image; image singularities are located through the coincidence system
(all 2x2 minors of [phi(s); phi(t)] after removing the diagonal factor),
each the bihomogeneous array of outer products of two coordinates' dense
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .bihom import PositiveDimensionalError, solve_bihomog
from .fields import InvalidInputError
from .poly import (_horner, _horner2, binary_gcd, diagonal_quotient,
                   is_zero_array)


class BasePointError(InvalidInputError):
    """All coordinate forms share a root: the map is undefined there."""


class NotOnXError(InvalidInputError):
    """The composed form F(phi(s)) is not identically zero."""


class RationalCurve:
    """A degree-e map P^1 -> P^n given by n+1 binary forms in (s0, s1).

    ``dense`` holds the forms as coefficient lists over the curve's field,
    entry k multiplying s0^(e-k) s1^k: the form in which
    ``MultiPoly.along`` substitutes the curve and points are evaluated.
    """

    __slots__ = ("field", "n", "e", "dense")

    def __init__(self, fld, e, dense):
        dense = tuple(tuple(d) for d in dense)
        if e < 1:
            raise ValueError("curve degree must be >= 1")
        if any(len(d) != e + 1 for d in dense):
            raise ValueError("coefficient list length must be e+1")
        if all(fld.is_zero(c) for d in dense for c in d):
            raise ValueError("zero parameterization")
        self.field = fld
        self.n = len(dense) - 1
        self.e = e
        self.dense = dense

    def point_at(self, s, lvl=None):
        """The image point phi(s) of a parameter s over the level lvl."""
        lvl = lvl or self.field
        return [_horner(d, s, lvl, self.field.k) for d in self.dense]

    def jacobian_at(self, s, lvl=None):
        """Rows d(phi)/d(s0) and d(phi)/d(s1) evaluated at the parameter."""
        lvl = lvl or self.field
        F, e = self.field, self.e
        # the partials of sum_k d[k] s0^(e-k) s1^k, as dense lists of degree e-1
        ds0 = [[F.mul(F.from_int(e - k), d[k]) for k in range(e)]
               for d in self.dense]
        ds1 = [[F.mul(F.from_int(k + 1), d[k + 1]) for k in range(e)]
               for d in self.dense]
        return [[_horner(d, s, lvl, F.k) for d in rows] for rows in (ds0, ds1)]

    def tangent_rows_at(self, s, lvl=None):
        """Spanning rows of the embedded tangent line at a smooth parameter."""
        lvl = lvl or self.field
        pt = self.point_at(s, lvl)
        jac = self.jacobian_at(s, lvl)
        for row in jac:
            if linalg.rank([pt, row], lvl) == 2:
                return [pt, row]
        return None

    def embed(self, k):
        F = self.field
        if F.k == k:
            return self
        lvl = F.tower.level(k)
        return RationalCurve(lvl, self.e, [[lvl.embed_from(c, F.k) for c in d]
                                           for d in self.dense])

    def __repr__(self):
        return "RationalCurve(e=%d, n=%d over %r)" % (self.e, self.n, self.field)


def curve_from_json(doc, fld):
    """Curve from {"e": int, "coords": [[c_0..c_e] per coordinate]}.

    Coefficient k of a coordinate multiplies s0^(e-k) s1^k.
    """
    return RationalCurve(fld, int(doc["e"]),
                         [[fld.from_int(int(c)) for c in d]
                          for d in doc["coords"]])


def line_as_curve(line):
    """Degree-1 parameterization s0*a + s1*b of a ProjLine."""
    return RationalCurve(line.field, 1, zip(*line.rows))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CurveValidation:
    e: int
    on_x: bool
    base_point_free: bool
    birational: bool
    nodes: list = field(default_factory=list)   # (level, s pair, t pair)
    cusps: list = field(default_factory=list)   # (level, s pair)
    complete: bool = True
    composition_formal_degree: int = 0

    @property
    def node_free(self):
        return not self.nodes and not self.cusps

    @property
    def valid(self):
        return (self.on_x and self.base_point_free and self.birational
                and self.node_free)


def _pair_minors(curve1, curve2):
    """The nonzero arrays phi1_i(s) phi2_j(t) - phi1_j(s) phi2_i(t), i < j,
    of bidegree (e1, e2)."""
    F = curve1.field
    a, b = curve1.dense, curve2.dense
    out = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            M = [[F.sub(F.mul(x, y), F.mul(x2, y2))
                  for y, y2 in zip(b[j], b[i])] for x, x2 in zip(a[i], a[j])]
            if not is_zero_array(M, F):
                out.append(M)
    return out


def coincidence_minors(curve):
    """The arrays (phi_i(s) phi_j(t) - phi_j(s) phi_i(t)) / (s0 t1 - s1 t0)."""
    return [diagonal_quotient(M, curve.field)
            for M in _pair_minors(curve, curve)]


def _check_map_on_x(cubic, curve):
    """Raise BasePointError when the coordinate forms share a factor and
    NotOnXError when F does not vanish along the curve."""
    F = curve.field
    g = binary_gcd(curve.dense, F)
    if len(g) > 1:
        raise BasePointError("coordinate forms share a factor of degree %d"
                             % (len(g) - 1))
    if not all(map(F.is_zero, cubic.F.along(curve.dense, F))):
        raise NotOnXError("F(phi(s)) is a nonzero form of degree %d"
                          % (3 * curve.e))


def validate_curve(cubic, curve, max_level=None):
    """Full validation report; raises on base points or a curve off X."""
    F = curve.field
    e = curve.e
    _check_map_on_x(cubic, curve)
    report = CurveValidation(e=e, on_x=True, base_point_free=True,
                             birational=True,
                             composition_formal_degree=3 * e)
    mins = coincidence_minors(curve)
    if not mins:
        raise ValueError("image of the parameterization is a single point")
    if e == 1:
        return report
    sols = _solve_system(mins, F, max_level)
    if sols is None:
        report.birational = False
        return report
    report.complete = sols.complete
    seen = set()
    for lv, s, t, _m in sols.solutions:
        lvl = F.tower.level(lv)
        ks = tuple(lvl.key(x) for x in s)
        kt = tuple(lvl.key(x) for x in t)
        if ks == kt:
            if (lv, ks) not in seen:
                seen.add((lv, ks))
                report.cusps.append((lv, s))
        elif (lv, kt, ks) not in seen:
            seen.add((lv, ks, kt))
            report.nodes.append((lv, s, t))
    return report


def _solve_system(forms, F, max_level):
    """Common zeros of nonzero bihomogeneous arrays over F of one shared
    bidegree, other than (0, 0).

    Solves a pair with a nonzero resultant and filters by the rest;
    returns None when every pairing is positive dimensional (the common
    zero locus contains a curve), as for a single form.
    """
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            try:
                sols = solve_bihomog(forms[i], forms[j], F,
                                     max_level=max_level)
            except PositiveDimensionalError:
                continue
            rest = [f for k, f in enumerate(forms) if k not in (i, j)]
            sols.solutions = [sol for sol in sols.solutions
                              if _vanishes_all(rest, F, sol)]
            return sols
    return None


def _vanishes_all(forms, F, sol):
    lv, s, t, _m = sol
    lvl = F.tower.level(lv)
    return all(lvl.is_zero(_horner2(f, s, t, lvl, F.k)) for f in forms)


# ---------------------------------------------------------------------------
# meeting data of a pair
# ---------------------------------------------------------------------------

@dataclass
class MeetingPoint:
    level: int
    point: tuple
    s_params: list
    t_params: list
    transversal: bool


@dataclass
class MeetingData:
    points: list
    complete: bool = True

    @property
    def r(self):
        return len(self.points)

    @property
    def all_transversal(self):
        return all(p.transversal for p in self.points)


def curve_meeting_data(curve1, curve2, max_level=None):
    """Common image points of two distinct curves, with transversality."""
    F = curve1.field
    if curve2.field is not F:
        raise ValueError("curves must live over the same level")
    mins = _pair_minors(curve1, curve2)
    if not mins:
        raise ValueError("images coincide in a single point")
    sols = _solve_system(mins, F, max_level)
    if sols is None:
        raise InvalidInputError("curve images share a component")
    by_point = {}
    for lv, s, t, _m in sols.solutions:
        lvl = F.tower.level(lv)
        pt = _normalize(curve1.point_at(s, lvl), lvl)
        key = (lv, tuple(lvl.key(x) for x in pt))
        rec = by_point.setdefault(key, MeetingPoint(lv, tuple(pt), [], [], True))
        if s not in rec.s_params:
            rec.s_params.append(s)
        if t not in rec.t_params:
            rec.t_params.append(t)
    for rec in by_point.values():
        lvl = F.tower.level(rec.level)
        rec.transversal = _is_transversal(curve1, curve2, rec, lvl)
    points = [by_point[k] for k in sorted(by_point)]
    return MeetingData(points=points, complete=sols.complete)


def _normalize(pt, lvl):
    """Projective point scaled so its last nonzero coordinate is one."""
    idx = max(i for i, x in enumerate(pt) if not lvl.is_zero(x))
    inv = lvl.inv(pt[idx])
    return [lvl.mul(x, inv) for x in pt]


def _is_transversal(curve1, curve2, rec, lvl):
    if len(rec.s_params) != 1 or len(rec.t_params) != 1:
        return False
    rows1 = curve1.tangent_rows_at(rec.s_params[0], lvl)
    rows2 = curve2.tangent_rows_at(rec.t_params[0], lvl)
    if rows1 is None or rows2 is None:
        return False
    return linalg.rank(rows1 + rows2, lvl) >= 3
