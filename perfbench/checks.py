"""Independent output checks, written with plain modular integers.

None of this imports cubiclines.  A field level GF(p^k) is rebuilt here
from its defining polynomial (the only thing taken from the program, since
it fixes how level-k coordinates are written); all arithmetic, ranks and
gcds are this file's own.  Run ``python3 perfbench/checks.py`` for the
self-test: the checks must accept the 27 lines of the Fermat surface over
GF(7) and reject a perturbed line.
"""

from __future__ import annotations

import base64
import itertools
import sys
from fractions import Fraction

SURFACE_COUNTS = frozenset({0, 1, 2, 3, 5, 7, 9, 15, 27})


class Field:
    """GF(p^k): ints at k = 1, coefficient tuples modulo ``modulus`` above;
    p = 0 gives the rationals."""

    def __init__(self, p, modulus=None):
        self.p = p
        self.modulus = list(modulus) if modulus else [0, 1]
        self.k = len(self.modulus) - 1
        self.q = p ** self.k

    def conv(self, c):
        """An int, or a coefficient list (or "a/b" string) as in a report."""
        if self.p == 0:
            return Fraction(c)
        if self.k == 1:
            return int(c) % self.p
        if isinstance(c, (list, tuple)):
            v = [int(x) % self.p for x in c] + [0] * self.k
            return tuple(v[:self.k])
        return (int(c) % self.p,) + (0,) * (self.k - 1)

    def zero(self):
        return self.conv(0)

    def one(self):
        return self.conv(1)

    def is_zero(self, a):
        return a == 0 if self.k == 1 else not any(a)

    def add(self, a, b):
        if self.p == 0:
            return a + b
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.p == 0:
            return a - b
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p = self.p
        if p == 0:
            return a * b
        if self.k == 1:
            return (a * b) % p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        m = self.modulus
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top] % p
            if c:
                off = top - self.k
                for i in range(self.k):
                    prod[off + i] -= c * m[i]
            prod[top] = 0
        return tuple(x % p for x in prod[:self.k])

    def pow(self, a, e):
        out, b = self.one(), a
        while e:
            if e & 1:
                out = self.mul(out, b)
            e >>= 1
            if e:
                b = self.mul(b, b)
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        if self.p == 0:
            return 1 / a
        return self.pow(a, self.q - 2)


def rref(rows, K):
    """Reduced row echelon form over K: (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if not K.is_zero(mat[i][c])),
                   None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = K.inv(mat[r][c])
        mat[r] = [K.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not K.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [K.sub(x, K.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def rank(rows, K):
    return len(rref(rows, K)[1])


def kernel(rows, K):
    """Basis of the right kernel of a matrix over K."""
    mat, pivots = rref(rows, K)
    ncols = len(rows[0])
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [K.zero()] * ncols
        v[fc] = K.one()
        for row, pc in zip(mat, pivots):
            v[pc] = K.sub(K.zero(), row[fc])
        out.append(v)
    return out


def eval_form(terms, pt, K):
    """Value of a form given as {exps: int coeff} at a point over K."""
    acc = K.zero()
    for e, c in terms.items():
        t = K.conv(c)
        for x, k in zip(pt, e):
            for _ in range(k):
                t = K.mul(t, x)
        acc = K.add(acc, t)
    return acc


def _span_points(rows, K):
    a, b = rows
    two = K.conv(2)
    return [a, b, [K.add(x, y) for x, y in zip(a, b)],
            [K.add(x, K.mul(two, y)) for x, y in zip(a, b)]]


def line_on_cubic(terms, rows, K):
    """F vanishes at four distinct points of the line spanned by rows."""
    if rank(rows, K) != 2:
        return False
    return all(K.is_zero(eval_form(terms, pt, K)) for pt in _span_points(rows, K))


def lines_meet(rows1, rows2, K):
    return rank(list(rows1) + list(rows2), K) < 4


def point_on_line(pt, rows, K):
    return rank(list(rows) + [list(pt)], K) == 2


def is_singular_at(terms, pt, K):
    """F and every partial derivative vanish at pt."""
    if not K.is_zero(eval_form(terms, pt, K)):
        return False
    n = len(pt)
    for i in range(n):
        part = {}
        for e, c in terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                part[tuple(d)] = part.get(tuple(d), 0) + c * e[i]
        if not K.is_zero(eval_form(part, pt, K)):
            return False
    return True


# -- univariate polynomials over K (little-endian element lists) ---------------

def _trim(f, K):
    while f and K.is_zero(f[-1]):
        f.pop()
    return f


def _pmod(a, b, K):
    a = list(a)
    inv = K.inv(b[-1])
    while len(a) >= len(b):
        c = K.mul(a[-1], inv)
        off = len(a) - len(b)
        for i, y in enumerate(b):
            a[off + i] = K.sub(a[off + i], K.mul(c, y))
        a.pop()
        _trim(a, K)
    return a


def _gcd(a, b, K):
    a, b = _trim(list(a), K), _trim(list(b), K)
    while b:
        a, b = b, _pmod(a, b, K)
    return a


def contact_length(rows, curve_coords, e, K):
    """Length of (line ∩ curve) for a curve of degree e given per coordinate
    by integer lists [c_0..c_e], c_k multiplying s0^(e-k) s1^k."""
    forms = []
    for h in kernel(rows, K):
        f = [K.zero()] * (e + 1)
        for hi, coords in zip(h, curve_coords):
            for k, c in enumerate(coords):
                f[k] = K.add(f[k], K.mul(hi, K.conv(c)))
        if any(not K.is_zero(x) for x in f):
            forms.append(f)
    if not forms:
        return e      # the curve image lies on the line
    g = forms[0]
    at_inf = []
    for f in forms:
        at_inf.append(e - (len(_trim(list(f), K)) - 1))
        g = _gcd(g, f, K)
    return (len(g) - 1) + min(at_inf)


def check_secant_lines(terms, p, modulus, lines, curves, single):
    """Problems with the lines of a secant report (empty list = all good).

    Each line must lie on X and meet every curve, twice for a single curve;
    ``curves`` holds (integer coordinate lists, degree) pairs and
    ``modulus(level)`` gives a level's defining polynomial.
    """
    need = 2 if single else 1
    problems = []
    for i, l in enumerate(lines):
        K = Field(p, modulus(l["level"]) if p else None)
        rows = [[K.conv(x) for x in r] for r in l["rows"]]
        if not line_on_cubic(terms, rows, K):
            problems.append("secant line %d not on X" % i)
        for coords, e in curves:
            if contact_length(rows, coords, e, K) < need:
                problems.append("secant line %d misses a curve" % i)
    return problems


def check_point_lines(terms, p, modulus, point, lines):
    """Problems with lines through a point: each lies on X and contains it."""
    problems = []
    for i, (level, rows) in enumerate(lines):
        K = Field(p, modulus(level) if p else None)
        rows = [[K.conv(x) for x in r] for r in rows]
        if not line_on_cubic(terms, rows, K):
            problems.append("line %d through the point not on X" % i)
        elif not point_on_line([K.conv(x) for x in point], rows, K):
            problems.append("line %d misses the point" % i)
    return problems


def line_rows_as_curve(rows):
    """Integer curve coordinates s0*a + s1*b of a level-1 line."""
    a, b = rows
    return [[int(x), int(y)] for x, y in zip(a, b)]


# -- second type ---------------------------------------------------------------

def _mul_lin(poly, lin, p):
    out = {}
    for e, c in poly.items():
        for i, a in lin:
            ee = list(e)
            ee[i] += 1
            ee = tuple(ee)
            out[ee] = (out.get(ee, 0) + c * a) % p
    return out


def second_type(terms, rows, p):
    """Whether some plane through the level-1 line cuts X in the line doubled.

    With F restricted to s*r0 + t*r1 + sum u_i w_i (w_i completing the line to
    a basis), the parts linear in u of s^2, st and t^2 are three linear forms
    in u; the line is of second type when they have a common nonzero zero.
    """
    K = Field(p)
    r0, r1 = [[int(x) % p for x in r] for r in rows]
    n = len(r0) - 1
    comp = []
    for c in range(n + 1):
        w = [0] * (n + 1)
        w[c] = 1
        if rank([r0, r1] + comp + [w], K) == 2 + len(comp) + 1:
            comp.append(w)
    basis = [r0, r1] + comp
    nv = len(basis)
    lin = [[(j, basis[j][i] % p) for j in range(nv) if basis[j][i] % p]
           for i in range(n + 1)]
    restricted = {}
    for e, c in terms.items():
        poly = {(0,) * nv: c % p}
        for i, k in enumerate(e):
            for _ in range(k):
                poly = _mul_lin(poly, lin[i], p)
        for ee, v in poly.items():
            if sum(ee[2:]) == 1:
                restricted[ee] = (restricted.get(ee, 0) + v) % p
    mat = []
    for sa, tb in ((2, 0), (1, 1), (0, 2)):
        row = []
        for i in range(nv - 2):
            u = [0] * (nv - 2)
            u[i] = 1
            row.append(restricted.get((sa, tb) + tuple(u), 0))
        mat.append(row)
    return rank(mat, K) < nv - 2


# -- census checks ---------------------------------------------------------------

def check_census(terms, p, n, lines, adjacency, second, known=None):
    """Problems found in a level-1 census, as a list of strings (empty = ok).

    ``lines`` are row pairs of ints, ``adjacency`` 0/1 rows, ``second`` the
    second-type flags; ``known`` optionally fixes (count, meet counts).
    """
    K = Field(p)
    problems = []
    keys = [tuple(tuple(int(x) for x in r) for r in l) for l in lines]
    if len(set(keys)) != len(keys):
        problems.append("duplicate census rows")
    m = len(lines)
    if len(adjacency) != m or any(len(row) != m for row in adjacency):
        problems.append("adjacency shape")
        return problems
    for i in range(m):
        if not line_on_cubic(terms, keys[i], K):
            problems.append("line %d not on X" % i)
        if adjacency[i][i]:
            problems.append("adjacency diagonal at %d" % i)
        for j in range(i + 1, m):
            if adjacency[i][j] != adjacency[j][i]:
                problems.append("adjacency asymmetric at %d,%d" % (i, j))
            elif bool(adjacency[i][j]) != lines_meet(keys[i], keys[j], K):
                problems.append("adjacency wrong at %d,%d" % (i, j))
        if bool(second[i]) != second_type(terms, keys[i], p):
            problems.append("second-type flag wrong at %d" % i)
    if n == 3 and m not in SURFACE_COUNTS:
        problems.append("surface line count %d impossible" % m)
    if known is not None:
        count, meets = known
        if m != count:
            problems.append("count %d != %d" % (m, count))
        elif meets is not None and [sum(r) for r in adjacency] != [meets] * m:
            problems.append("meet counts differ from %d" % meets)
    return problems


def unpack_adjacency(b64, m):
    raw = base64.b64decode(b64)
    bits = [(raw[i // 8] >> (i % 8)) & 1 for i in range(m * m)]
    return [bits[i * m:(i + 1) * m] for i in range(m)]


# -- self-test -------------------------------------------------------------------

def fermat_surface_lines(p):
    """The 27 lines x_i = -a x_j, x_k = -b x_l (a^3 = b^3 = 1) over GF(p)."""
    roots = [a for a in range(1, p) if pow(a, 3, p) == 1]
    out = []
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        for a, b in itertools.product(roots, repeat=2):
            u = [0] * 4
            v = [0] * 4
            u[j], u[i] = 1, (-a) % p
            v[l], v[k] = 1, (-b) % p
            out.append([u, v])
    return out


def selftest():
    """Checks accept the Fermat surface's 27 lines and reject a perturbed one."""
    p = 7
    terms = {tuple(3 if j == i else 0 for j in range(4)): 1 for i in range(4)}
    K = Field(p)
    lines = fermat_surface_lines(p)
    if len(lines) != 27:
        return "expected 27 Fermat lines, built %d" % len(lines)
    adj = [[int(i != j and lines_meet(a, b, K)) for j, b in enumerate(lines)]
           for i, a in enumerate(lines)]
    problems = check_census(terms, p, 3, lines, adj, [False] * 27,
                            known=(27, 10))
    if problems:
        return "Fermat lines rejected: %s" % problems[:3]
    bad = [list(r) for r in lines[0]]
    bad[1][0] = (bad[1][0] + 1) % p
    if line_on_cubic(terms, bad, K):
        return "perturbed line accepted"
    if not check_census(terms, p, 3, [bad] + lines[1:], adj,
                        [False] * 27, known=(27, 10)):
        return "census with a perturbed line accepted"
    return None


if __name__ == "__main__":
    err = selftest()
    print("checks self-test: %s" % ("ok" if err is None else err))
    sys.exit(0 if err is None else 1)
