"""Seeded benchmark inputs, built with plain modular integers.

Nothing here imports cubiclines: every cubic, curve and point is made from
the seed alone, so the program under test only ever sees the finished
JSON-shaped inputs.  Cubics that must contain a configuration (skew lines,
a plane section splitting as line + conic, lines meeting the conic) are cut
out by the linear conditions that configuration puts on the coefficients.
Inputs are rejected only when they are invalid as inputs (a rational
singular point, a plane inside X, degenerate spans), never on what the
program would answer.
"""

from __future__ import annotations

import itertools

import checks
from checks import eval_form


def monomials(n):
    """Exponent tuples of the cubic monomials in n+1 variables (fixed order)."""
    return [e for e in itertools.product(range(4), repeat=n + 1) if sum(e) == 3]


def cubic_doc(p, n, coeffs):
    mons = monomials(n)
    return {"p": p, "n": n,
            "monomials": [{"exps": list(e), "coeff": c % p}
                          for e, c in zip(mons, coeffs) if c % p]}


def doc_terms(doc):
    """{exps: coeff} of a cubic document, reduced mod p (0 for QQ inputs)."""
    p = doc["p"]
    out = {}
    for m in doc["monomials"]:
        e = tuple(m["exps"])
        out[e] = out.get(e, 0) + m["coeff"]
    return {e: (c % p if p else c) for e, c in out.items() if (c % p if p else c)}


def fermat_doc(p, n):
    return {"p": p, "n": n,
            "monomials": [{"exps": [3 if j == i else 0 for j in range(n + 1)],
                           "coeff": 1} for i in range(n + 1)]}


# -- modular linear algebra ----------------------------------------------------

def rank_mod(rows, p):
    return checks.rank([[x % p for x in r] for r in rows], checks.Field(p))


def random_solution(rows, rhs, p, rng):
    """A uniformly random solution of rows * x = rhs over GF(p)."""
    ncols = len(rows[0])
    mat, pivots = checks.rref([[x % p for x in r] + [b % p]
                               for r, b in zip(rows, rhs)], checks.Field(p))
    if ncols in pivots:
        raise ValueError("inconsistent linear conditions")
    x = [0] * ncols
    free = [c for c in range(ncols) if c not in pivots]
    for c in free:
        x[c] = rng.randrange(p)
    for row, pc in zip(mat, pivots):
        x[pc] = (row[ncols] - sum(row[c] * x[c] for c in free)) % p
    return x


# -- polynomials as {exps: coeff} dicts ------------------------------------------

def _pmul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def _ppow(a, k, p, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = _pmul(out, a, p)
    return out


def restriction_rows(n, pts, p):
    """Rows mapping cubic coefficients to the coefficients of F(sum u_j pts[j]).

    Returns (rows, image_monomials): row k holds, per cubic monomial, its
    contribution to image monomial k of the restricted form in len(pts)
    variables u_j.
    """
    m = len(pts)
    lin = []
    for i in range(n + 1):
        lin.append({tuple(1 if j == jj else 0 for jj in range(m)): pts[j][i] % p
                    for j in range(m) if pts[j][i] % p})
    cols = []
    for e in monomials(n):
        poly = {(0,) * m: 1}
        for i, k in enumerate(e):
            if k:
                poly = _pmul(poly, _ppow(lin[i], k, p, m), p)
        cols.append(poly)
    image = sorted({e for poly in cols for e in poly} |
                   {e for e in itertools.product(range(4), repeat=m)
                    if sum(e) == 3})
    rows = [[poly.get(mu, 0) for poly in cols] for mu in image]
    return rows, image


def proj_points(p, n):
    """Canonical representatives of P^n(GF(p)), first nonzero entry 1."""
    for lead in range(n + 1):
        for tail in itertools.product(range(p), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def rational_singular_point(terms, p, n):
    """A GF(p)-point where all partials vanish, or None.

    For p != 3 Euler's relation sum x_i dF/dx_i = 3F makes F vanish there too.
    """
    if p == 3:
        raise ValueError("the gradient test needs p != 3")
    parts = []
    for i in range(n + 1):
        part = []
        for e, c in terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                part.append((c * e[i] % p, d))
        parts.append(part)
    for pt in proj_points(p, n):
        pw = [(1, x, x * x) for x in pt]
        for part in parts:
            acc = 0
            for c, d in part:
                t = c
                for i, k in enumerate(d):
                    if k:
                        t *= pw[i][k]
                acc += t
            if acc % p:
                break
        else:
            return pt
    return None


def _rand_vec(rng, p, n):
    while True:
        v = [rng.randrange(p) for _ in range(n + 1)]
        if any(v):
            return v


def _rand_independent(rng, p, n, k, extra=()):
    """k random vectors independent of each other and of ``extra``."""
    while True:
        vs = [_rand_vec(rng, p, n) for _ in range(k)]
        if rank_mod(list(extra) + vs, p) == len(extra) + k:
            return vs


def random_smooth_cubic(rng, p, n):
    """Dense random cubic (every monomial present, so the cost of evaluating
    it does not vary between seeds) with no GF(p)-rational singular point."""
    mons = monomials(n)
    while True:
        coeffs = [rng.randrange(1, p) for _ in mons]
        terms = dict(zip(mons, coeffs))
        if rational_singular_point(terms, p, n) is None:
            return cubic_doc(p, n, coeffs)


# -- the solve configuration ------------------------------------------------------

def _binary_quadratic_coeffs(poly2):
    """{(a, b): c} homogeneous of degree 2 in (s0, s1) -> [c_s0^2, c_s0s1, c_s1^2]."""
    return [poly2.get((2 - k, k), 0) for k in range(3)]


def _conic_param(qmat, r, v, w, p):
    """Degree-2 forms phi_k(s) (plane coords) sweeping the conic q through r.

    d(s) = s0 v + s1 w; the second intersection of the line r + lambda d
    with the conic is q(d) r - B(r, d) d with B the polar form.
    """
    def q_of(a, b):  # bilinear form a^T Q b with Q symmetric (halves avoided)
        return sum(a[i] * qmat[i][j] * b[j] for i in range(3) for j in range(3))
    # q(d) = q(v) s0^2 + 2 q(v,w) s0 s1 + q(w) s1^2
    qd = {(2, 0): q_of(v, v) % p, (1, 1): (2 * q_of(v, w)) % p,
          (0, 2): q_of(w, w) % p}
    # B(r, d) = 2 r^T Q d, linear in s
    brd = {(1, 0): (2 * q_of(r, v)) % p, (0, 1): (2 * q_of(r, w)) % p}
    out = []
    for k in range(3):
        f = {e: (c * r[k]) % p for e, c in qd.items()}
        for e, c in brd.items():
            for e2, c2 in (((1, 0), v[k]), ((0, 1), w[k])):
                ee = (e[0] + e2[0], e[1] + e2[1])
                f[ee] = (f.get(ee, 0) - c * c2) % p
        out.append(f)
    return out


def solve_config(rng, p, n_points):
    """A smooth threefold over GF(p) with a configuration for every solve op.

    The cubic contains two skew lines, a plane section splitting as a line L
    plus a smooth conic C, a line disjoint from the plane, and a line
    meeting C transversally at one point; plus ``n_points`` smooth points.
    """
    n = 4
    mons = monomials(n)
    while True:
        l1 = _rand_independent(rng, p, n, 2)
        l2 = _rand_independent(rng, p, n, 2, extra=l1)
        plane = _rand_independent(rng, p, n, 3)
        disj = _rand_independent(rng, p, n, 2, extra=plane)
        # conic in plane coordinates u: a smooth ternary quadratic
        while True:
            a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            qmat = [[(a[i][j] + a[j][i]) * pow(2, p - 2, p) % p
                     for j in range(3)] for i in range(3)]
            if rank_mod(qmat, p) == 3:
                break
        qpoly = {}
        for i in range(3):
            for j in range(3):
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                qpoly[tuple(e)] = (qpoly.get(tuple(e), 0) + qmat[i][j]) % p
        target = _pmul(qpoly, {(0, 0, 1): 1}, p)     # L = {u2 = 0}
        cpts = [u for u in proj_points(p, 2)
                if sum(u[i] * qmat[i][j] * u[j]
                       for i in range(3) for j in range(3)) % p == 0]
        r = list(cpts[rng.randrange(len(cpts))])
        basis = [r]
        for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            if rank_mod(basis + [e], p) == len(basis) + 1:
                basis.append(e)
        v, w = basis[1:]
        phi = _conic_param(qmat, r, v, w, p)
        conic_coords = []
        for i in range(n + 1):
            f = {}
            for k in range(3):
                for e, c in phi[k].items():
                    f[e] = (f.get(e, 0) + c * plane[k][i]) % p
            conic_coords.append(_binary_quadratic_coeffs(f))
        # a point of C at a random rational parameter, and a line through it
        s = (1, rng.randrange(p)) if rng.randrange(p + 1) else (0, 1)
        x = [sum(c[k] * s[0] ** (2 - k) * s[1] ** k for k in range(3)) % p
             for c in conic_coords]
        if not any(x):
            continue
        d = _rand_independent(rng, p, n, 1, extra=plane)[0]
        rows, rhs = [], []
        for pts in (l1, l2, disj, [x, d]):
            rr, _ = restriction_rows(n, pts, p)
            rows += rr
            rhs += [0] * len(rr)
        rr, image = restriction_rows(n, plane, p)
        rows += rr
        rhs += [target.get(mu, 0) for mu in image]
        try:
            coeffs = random_solution(rows, rhs, p, rng)
        except ValueError:
            continue
        terms = {e: c for e, c in zip(mons, coeffs) if c}
        if rational_singular_point(terms, p, n) is not None:
            continue
        points = []
        K = checks.Field(p)
        while len(points) < n_points:
            pt = _rand_vec(rng, p, n)
            if (eval_form(terms, pt, K) == 0
                    and not checks.is_singular_at(terms, pt, K)):
                points.append(pt)
        return {
            "cubic": cubic_doc(p, n, coeffs),
            "skew": [l1, l2],
            "plane": plane,
            "residual_line": plane[:2],
            "conic": {"e": 2, "coords": conic_coords},
            "disjoint": disj,
            "meet_once": [x, d],
            "points": points,
        }
