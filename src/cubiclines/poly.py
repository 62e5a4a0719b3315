"""Sparse multivariate polynomials over an exact field, and the dense
binary and bihomogeneous forms that the solver runs on, from substitution
to the roots.

A binary form of formal degree d in a pair (u0, u1) is a list of d + 1
elements, entry i multiplying u0^(d-i) u1^i (the convention of
``RationalCurve.dense``).  A bihomogeneous form of formal bidegree (a, b)
in (s0, s1; t0, t1) is a list of a + 1 rows of b + 1 entries, entry [i][j]
multiplying s0^(a-i) s1^i t0^(b-j) t1^j.  The shape carries the formal
degree, so a vanishing leading coefficient needs no separate bookkeeping.
``MultiPoly.along`` writes the binary forms (the secant system's arrays
are sums of products of them); the Sylvester resultant, the exact
divisions, the fiber evaluations and the root finder read them.

No floating point anywhere; elimination is resultant-based (Sylvester
determinants with fraction-free Bareiss reduction) by design.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from .fields import (
    QQ,
    BudgetError,
    _distinct_degree,
    _exact_quo,
    roots_of_split_poly,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_sub,
    upoly_trim,
)

# one shared tuple per exponent vector of the gradients that
# cubic.CubicForm builds: many cubics hold the same few vectors (15 in P^4)
_EXPONENTS = {}


class MultiPoly:
    """Sparse polynomial: exponent tuples -> nonzero field elements."""

    __slots__ = ("field", "vars", "terms", "_packed", "_plan")

    def __init__(self, field, variables, terms=None):
        self.field = field
        self.vars = tuple(variables)
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if not field.is_zero(c):
                    self.terms[tuple(exps)] = c

    @classmethod
    def _trusted(cls, field, variables, terms):
        """Wrap a variables tuple and a dict keyed by exponent tuples that
        holds no zero coefficient, without checking either."""
        out = object.__new__(cls)
        out.field = field
        out.vars = variables
        out.terms = terms
        return out

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables)

    @classmethod
    def const(cls, field, variables, c):
        return cls(field, variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, field, variables, name):
        i = tuple(variables).index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(field, variables, {tuple(e): field.one})

    @classmethod
    def from_int_terms(cls, field, variables, int_terms):
        """Build from {exps: integer} with coefficients reduced into the field."""
        return cls(field, variables,
                   {e: field.from_int(c) for e, c in int_terms.items()})

    # -- basic queries ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        if self.is_zero():
            return self.field.zero
        (exps, c), = self.terms.items()
        if any(exps):
            raise ValueError("not a constant")
        return c

    def degree(self, name=None):
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, F.zero), c)
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly._trusted(F, self.vars, out)

    def __neg__(self):
        F = self.field
        return MultiPoly._trusted(F, self.vars,
                                  {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = F.add(out.get(e, F.zero), F.mul(c1, c2))
                if F.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly._trusted(F, self.vars, out)

    def scale(self, c):
        F = self.field
        if F.is_zero(c):
            return MultiPoly.zero(F, self.vars)
        return MultiPoly._trusted(F, self.vars,
                                  {e: F.mul(c, v) for e, v in self.terms.items()})

    def pow(self, n):
        out = MultiPoly.const(self.field, self.vars, self.field.one)
        b = self
        while n:
            if n & 1:
                out = out * b
            n >>= 1
            if n:
                b = b * b
        return out

    # -- substitution -------------------------------------------------------------

    def eval_elems(self, values):
        """Evaluate at field elements of this field, one per variable.

        The value is one sum on packed elements (``pack``; over QQ and a
        prime field an element is its own packed form): each variable's
        powers are packed products, each term is its packed coefficient
        times those powers, and the sum is reduced once, with slots wide
        enough for every term.  The packed terms are built on the first
        call and kept on the form.
        """
        bits, _tops, terms = self._packed_values(values)
        return self.field.unpack(sum(terms), bits)

    def restrict(self, values, j):
        """The form at values with x_j set to t (values[j] is not read), as
        its coefficients by power of t, t^0 first: the packed terms of
        ``eval_elems`` with x_j's packed value one, each in the sum for its
        exponent of x_j (it fits the slots of the whole sum), each sum
        reduced once.  The zero form gives [0]."""
        F = self.field
        values = list(values)
        values[j] = F.one
        bits, tops, terms = self._packed_values(values)
        sums = [F.pack(F.zero, bits)] * (tops[j] + 1 if tops else 1)
        for v, exps in zip(terms, self.terms):
            sums[exps[j]] += v
        return [F.unpack(s, bits) for s in sums]

    def _packed_values(self, values):
        """The slot width, each variable's largest exponent and the list of
        packed terms at values, unreduced (``_pack_terms``)."""
        F = self.field
        try:
            bits, tops, packed = self._packed
        except AttributeError:
            bits, tops, packed = self._packed = self._pack_terms()
        pw = []
        for v, top in zip(values, tops):
            if top:
                x = F.pack(v, bits)
                pw.append(x)
                for _ in range(top - 1):
                    pw.append(pw[-1] * x)
        get = pw.__getitem__
        return bits, tops, [math.prod(map(get, idx), start=c)
                            for c, idx in packed]

    def _pack_terms(self):
        """For ``eval_elems``: the slot width, each variable's largest
        exponent, and per term, in the order of ``terms``, the packed
        coefficient with the positions of its powers in the list of packed
        powers (the powers 1..top of each variable in turn).  The zero form
        is one packed zero term, so its value is the field's zero."""
        F = self.field
        deg = max(map(sum, self.terms), default=0)
        bits = _horner_bits(deg, len(self.terms), F)
        tops = [max(col) for col in zip(*self.terms)]
        starts = [sum(tops[:i]) - 1 for i in range(len(tops))]
        packed = [(F.pack(c, bits),
                   tuple(s + e for s, e in zip(starts, exps) if e))
                  for exps, c in self.terms.items()]
        return bits, tops, packed or [(F.pack(F.zero, bits), ())]

    def eval_polys(self, args):
        """Substitute a MultiPoly (all over the same field/vars) per variable."""
        F = self.field
        tvars = args[0].vars
        out = {}
        pow_cache = [{0: MultiPoly.const(F, tvars, F.one)} for _ in args]
        for exps, c in self.terms.items():
            term = MultiPoly.const(F, tvars, c)
            for i, e in enumerate(exps):
                if e:
                    if e not in pow_cache[i]:
                        pow_cache[i][e] = args[i].pow(e)
                    term = term * pow_cache[i][e]
            # in place, in the order that summing term by term gives
            for e, t in term.terms.items():
                s = F.add(out[e], t) if e in out else t
                if F.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        return MultiPoly._trusted(F, tvars, out)

    def along(self, curve, lvl):
        """Substitute a rational curve for the variables.

        The curve is the tuple of its dense coordinates over lvl, one list
        per variable, where c[i] multiplies u0^(e-i) u1^i in its parameter
        pair; a line a*u0 + b*u1 is the degree-1 curve ((a_0, b_0), (a_1,
        b_1), ...).  Returns, over lvl, the binary form in (u0, u1) of
        formal degree d*e for a form of degree d (the dense form of this
        module); the zero polynomial gives [].  A polynomial that is not
        homogeneous raises ValueError.  Coefficients are embedded into lvl
        as they are read.

        Each curve coordinate is one int (Kronecker substitution in the
        parameter over ``pack``'s substitution in the element): its packed
        elements sit in parameter slots of B bits, wide enough for a packed
        product of d + 1 elements with a spare bit.  Terms are grouped by
        their exponent less its last variable (the head); each group costs
        one multiply of the product of its head's coordinates by its
        combined rest, each term's coefficient times the coordinate of its
        last variable.  The head products come from one chain of multiplies
        fixed per form, and the form is one int sum, cut into balanced
        B-bit digits and reduced once per slot (``unpack``).  Over QQ the
        coefficients and the curve are first scaled to integers by their
        common denominators, and the digits are divided by the scale that
        homogeneity puts on the output.
        """
        F = self.field
        if lvl.char != F.char:
            raise ValueError("cannot substitute across characteristics")
        if len(curve) != len(self.vars):
            raise ValueError("need one curve coordinate per variable")
        try:
            plan = self._plan
        except AttributeError:
            plan = self._plan = self._along_plan()
        if plan is None:
            return []
        d, chain, heads, bounds, terms, tails = plan
        coeffs = list(self.terms.values())
        if lvl.char:
            top, scale = (lvl.p - 1) ** (d + 1), 1
        else:
            (coeffs,), scale, top = _integral([coeffs])
            curve, den, big = _integral(curve)
            scale *= den ** d
            top *= big ** d
        # the most products of packed elements that can meet in one slot
        k, n = lvl.k, max(map(len, curve))
        meet = len(self.terms) * _spread(k, d + 1) * _spread(n, d)
        bits = (meet * top).bit_length()
        # a packed product of d + 1 elements, and one spare bit for the
        # balanced digits
        B = bits * (d * (k - 1) + k) + 1
        coeffs = _packed_coeffs(coeffs, lvl, F.k, bits)
        coords = [_kronecker([lvl.pack(x, bits) for x in c], B) for c in curve]
        head = _chain_products(chain, coords)
        tail = [1] + coords
        rest = list(map(operator.mul, map(coeffs.__getitem__, terms),
                        map(tail.__getitem__, tails)))
        total = sum([head[h] * sum(rest[a:b])
                     for h, a, b in zip(heads, bounds, bounds[1:])])
        out = [lvl.unpack(v, bits)
               for v in _balanced(total, B, d * (n - 1) + 1)]
        if not lvl.char:
            out = [Fraction(v, scale) for v in out]
        return out

    def _along_plan(self):
        """For ``along``: the degree d; the chain (``_Chain.chain``) of the
        heads; and the terms in groups by head, as each group's head (its
        number in the chain), the bounds of the groups' runs, and per term,
        in run order, its position in ``terms`` and its tail, 1 + its last
        variable (0 for a constant).  A term is its head's monomial times
        its tail's variable.  None for the zero polynomial.  Built on the
        first call and kept on the form, in tuples of small ints."""
        degrees = set(map(sum, self.terms))
        if len(degrees) > 1:
            raise ValueError("the form is not homogeneous")
        if not degrees:
            return None
        heads = _Chain(len(self.vars))
        groups = {}
        for i, exps in enumerate(self.terms):
            j = _last_nonzero(exps)
            if j >= 0:
                exps = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
            groups.setdefault(heads[exps], []).append((i, j + 1))
        (d,) = degrees
        runs = list(groups.values())
        bounds = tuple(itertools.accumulate(map(len, runs), initial=0))
        terms, tails = zip(*[m for run in runs for m in run])
        return d, heads.chain(), tuple(groups), bounds, terms, tails

    def map_field(self, new_field, conv):
        """Transport coefficients through conv into another field."""
        out = {}
        for e, c in self.terms.items():
            v = conv(c)
            if not new_field.is_zero(v):
                out[e] = v
        return MultiPoly._trusted(new_field, self.vars, out)

    def over(self, lvl):
        """This polynomial with coefficients embedded into the level lvl."""
        if lvl is self.field:
            return self
        k = self.field.k
        return self.map_field(lvl, lambda c: lvl.embed_from(c, k))

    # -- structure -------------------------------------------------------------

    def derivative(self, name):
        F = self.field
        i = self.vars.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                ne = exps[: i] + (e - 1,) + exps[i + 1:]
                v = F.mul(c, F.from_int(e))
                if not F.is_zero(v):
                    out[ne] = F.add(out.get(ne, F.zero), v) if ne in out else v
        return MultiPoly(F, self.vars, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join("%s^%d" % (v, e) if e > 1 else v
                            for v, e in zip(self.vars, exps) if e)
            bits.append("(%s)%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)


class _Chain(dict):
    """Monomials in w variables numbered in an order where each, past the
    constant 1 (number 0), is an earlier one times one variable.  Looking
    a monomial up numbers it and the prefixes it needs."""

    def __init__(self, w):
        super().__init__({(0,) * w: 0})
        self.steps = []

    def __missing__(self, exps):
        j = _last_nonzero(exps)
        self.steps.append((self[exps[:j] + (exps[j] - 1,) + exps[j + 1:]], j))
        n = self[exps] = len(self.steps)
        return n

    def chain(self):
        """The numbers of the earlier monomials and the variables that
        give monomials 1, 2, ..., as two tuples."""
        return tuple(zip(*self.steps)) or ((), ())


def _chain_products(chain, coords):
    """The products of coords along a ``_Chain.chain``, monomial 0 first."""
    out = [1]
    for i, j in zip(*chain):
        out.append(out[i] * coords[j])
    return out


def _last_nonzero(exps):
    """The index of the last nonzero entry, -1 when there is none."""
    j = len(exps) - 1
    while j >= 0 and not exps[j]:
        j -= 1
    return j


def _kronecker(row, stride):
    """The ints of row, entry i at bit stride * i (signed entries
    allowed: the sum borrows, and ``_balanced`` gives them back)."""
    out = 0
    for v in reversed(row):
        out = (out << stride) + v
    return out


def _balanced(n, width, count):
    """The count lowest digits of n in base 2^width, each taken in
    [-2^(width-1), 2^(width-1)), lowest first."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(count):
        v = n & mask
        n >>= width
        if v >= half:
            v -= mask + 1
            n += 1
        out.append(v)
    return out


@functools.cache
def _spread(n, m):
    """The largest coefficient of (1 + x + ... + x^(n-1))^m: the most
    products that meet in one slot when m rows of n slots are multiplied."""
    row = [1]
    for _ in range(m):
        row = [sum(row[max(0, i - n + 1):i + 1])
               for i in range(len(row) + n - 1)]
    return max(row)


def _integral(rows):
    """Rows of rationals (or ints) times their least common denominator
    d: the integer rows, d, and the largest absolute entry."""
    d = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [[v.numerator * (d // v.denominator) for v in row] for row in rows]
    return ints, d, max((abs(v) for row in ints for v in row), default=0)


# ---------------------------------------------------------------------------
# dense binary and bihomogeneous forms
# ---------------------------------------------------------------------------

def _horner(form, u, lvl, k):
    """The binary form at the point u over lvl, by homogeneous Horner; the
    coefficients, from level k, are embedded into lvl as they are read.

    The sum runs on packed elements (``pack``), unreduced, with slots wide
    enough for d + 1 products of d + 1 elements, and is reduced once: at
    level 1 and over QQ the packed form is the element itself.
    """
    d = len(form) - 1
    bits = _horner_bits(d, d + 1, lvl)
    acc = _packed_horner(_packed_coeffs(form, lvl, k, bits), u, lvl, bits)
    return lvl.unpack(acc, bits)


def _horner2(G, s, t, lvl, k):
    """The bihomogeneous array at (s, t) over lvl: each row at t, then the
    binary form of the row values at s, all packed and reduced once."""
    a, b = len(G) - 1, len(G[0]) - 1
    bits = _horner_bits(a + b, (a + 1) * (b + 1), lvl)
    rows = [_packed_horner(_packed_coeffs(row, lvl, k, bits), t, lvl, bits)
            for row in G]
    return lvl.unpack(_packed_horner(rows, s, lvl, bits), bits)


def _horner_bits(deg, terms, lvl):
    """Slot width for a sum of ``terms`` products of deg + 1 packed
    elements."""
    return (terms * lvl.k ** deg * lvl.p ** (deg + 1)).bit_length()


def _packed_coeffs(form, lvl, k, bits):
    """Coefficients from level k, embedded into lvl and packed; a
    prime-field (or rational) coefficient is its own packed embedding."""
    if k == 1:
        return form
    return [lvl.pack(lvl.embed_from(c, k), bits) for c in form]


def _packed_horner(coeffs, u, lvl, bits):
    """sum_i coeffs[i] u0^(d-i) u1^i on packed ints, unreduced."""
    u0, u1 = lvl.pack(u[0], bits), lvl.pack(u[1], bits)
    acc, pw = coeffs[0], 1
    for c in coeffs[1:]:
        pw *= u1
        acc = acc * u0 + c * pw
    return acc


def is_zero_array(G, lvl):
    """Whether every entry of a bihomogeneous array is zero."""
    return all(lvl.is_zero(x) for row in G for x in row)


def diagonal_quotient(G, lvl):
    """The array of G / (s0*t1 - s1*t0); raises ValueError unless exact.

    A quotient H of bidegree (a-1, b-1) has G[i][j] = H[i][j-1] - H[i-1][j]
    (entries outside H are zero).  Read row by row this solves for every
    entry of H; the equations left over, in column 0 and in the last row,
    check that the division is exact.
    """
    if not G:
        return G
    a, b = len(G) - 1, len(G[0]) - 1
    H = [[None] * b for _ in range(a)]
    for i, row in enumerate(G):
        for j, g in enumerate(row):
            v = lvl.add(g, H[i - 1][j]) if i and j < b else g
            if i < a and j:
                H[i][j - 1] = v
            elif not lvl.is_zero(v):
                raise ValueError("inexact division by the diagonal")
    return H


def linear_quotient(f, p, lvl):
    """The binary form f divided by p1*u0 - p0*u1, the linear form that
    vanishes at p = (p0 : p1); raises ValueError unless exact.

    At u0 = 1 the division is one of polynomials in u1; it is exact as a
    division of forms when it leaves no remainder and a quotient of degree
    below that of f.
    """
    q, r = upoly_divmod(f, upoly_trim([p[1], lvl.neg(p[0])], lvl), lvl)
    if r or len(q) >= len(f):
        raise ValueError("inexact division by a linear form")
    return q + [lvl.zero] * (len(f) - 1 - len(q))


def sylvester_resultant(f, g, lvl):
    """Resultant of two forms in a pair (t0, t1) whose coefficients are
    binary forms in (s0, s1).

    f[j] multiplies t0^(m-j) t1^j, m = len(f) - 1, and likewise g[j] with
    n = len(g) - 1; the formal degrees of the coefficients (their lengths
    less one) must grow by one common step along f and along g, as they
    do for the columns of two bihomogeneous arrays (step 0).  Then the
    resultant is a binary form of formal degree n*deg f[0] + m*deg g[n],
    which is returned.  It is the fraction-free (Bareiss) determinant of
    the Sylvester matrix at t1 = 1, whose entries are the coefficients at
    s1 = 1: dense polynomials in s0.
    """
    m, n = len(f) - 1, len(g) - 1
    cf, cg = ([upoly_trim(list(c[::-1]), lvl) for c in h] for h in (f, g))
    mat = ([[[]] * i + cf + [[]] * (n - 1 - i) for i in range(n)]
           + [[[]] * i + cg + [[]] * (m - 1 - i) for i in range(m)])
    det = _bareiss_det(mat, lvl)
    degree = n * (len(f[0]) - 1) + m * (len(g[-1]) - 1)
    return [lvl.zero] * (degree + 1 - len(det)) + det[::-1]


def _bareiss_det(mat, lvl):
    """Fraction-free determinant of a square matrix of dense polynomials."""
    if not mat:
        return [lvl.one]
    n = len(mat)
    sign = 1
    prev = [lvl.one]
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            return []
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        for row in mat[k + 1:]:
            lead = row[k]
            row[k + 1:] = [
                _exact_quo(upoly_sub(upoly_mul(x, top[k], lvl),
                                     upoly_mul(lead, y, lvl), lvl), prev, lvl)
                for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = top[k]
    det = mat[-1][-1]
    return [lvl.neg(c) for c in det] if sign < 0 else det


# ---------------------------------------------------------------------------
# univariate root finding on dense element lists (coefficients by degree)
# ---------------------------------------------------------------------------

def squarefree_decompose(f, F):
    """Squarefree decomposition of a nonzero dense polynomial over F.

    Returns [(factor, multiplicity)] with monic, pairwise coprime,
    squarefree dense factors.  Uses Yun's walk over the rationals and the
    p-th-power refinement in positive characteristic.
    """
    if not f:
        raise ValueError("squarefree decomposition of zero")
    inv = F.inv(f[-1])
    return _sqfree_dense([F.mul(c, inv) for c in f], F)


def _deriv_dense(f, F):
    return upoly_trim([F.mul(c, F.from_int(i)) for i, c in enumerate(f)][1:], F)


def _sqfree_dense(f, F, mult=1):
    """Monic squarefree factors of a dense monic polynomial."""
    if len(f) - 1 == 0:
        return []
    df = _deriv_dense(f, F)
    if not df:
        # characteristic p: f is a polynomial in x^p
        p = F.char
        if p == 0:
            raise AssertionError("zero derivative in characteristic 0")
        root = _pth_root_dense(f, F)
        return _sqfree_dense(root, F, mult * p)
    out = []
    a = upoly_gcd(f, df, F)
    b = _exact_quo(f, a, F)
    # b = product of squarefree part; walk multiplicities
    i = 1
    while len(b) - 1 > 0:
        c = upoly_gcd(a, b, F)
        fac = _exact_quo(b, c, F)
        if len(fac) - 1 > 0:
            out.append((fac, i * mult))
        a = _exact_quo(a, c, F)
        b = c
        i += 1
    if len(a) - 1 > 0:
        # residual p-th power content
        out.extend(_sqfree_dense(a, F, mult))
    return out


def _pth_root_dense(f, F):
    p = F.char
    out = []
    for i in range(0, len(f), p):
        c = f[i]
        # coefficient p-th root: c^(p^(k-1)) in GF(p^k)
        out.append(F.frob(c, F.k - 1))
    for i, c in enumerate(f):
        if i % p and not F.is_zero(c):
            raise AssertionError("not a p-th power despite zero derivative")
    return out


class RootMultiset:
    """Roots of a univariate polynomial found inside a field tower.

    ``roots`` holds (level, root, multiplicity) entries; ``unsplit`` holds
    (relative degree, base level, multiplicity) for each piece whose roots
    lie beyond the level budget, and ``complete`` says there is none.
    """

    def __init__(self, roots, unsplit):
        self.roots = roots
        self.unsplit = unsplit

    @property
    def complete(self):
        return not self.unsplit


def roots_in_tower(f, lvl, max_level=None):
    """All roots of a nonzero dense polynomial over lvl, up to max_level.

    Each squarefree factor is cut into pieces whose roots share a level:
    over GF(p^k) by the distinct-degree split, a piece of relative degree
    m having its roots at level k*m, and over QQ, which has no extension
    levels and so ignores max_level, into its rational linear factors and
    one unsplit rest.  Every piece, m = 1 included, takes one path
    (:func:`fields.roots_of_split_poly`): it is split at level k into its
    irreducible factors of degree m, and each factor's roots are one
    Frobenius orbit at level k*m, found from one root and checked by
    multiplying the orbit back to the factor.
    """
    if not f:
        raise ValueError("zero polynomial")
    tower = lvl.tower
    K = max_level if max_level is not None and lvl.char else tower.budget
    if K > tower.budget:
        raise BudgetError("max level %d exceeds budget %d" % (K, tower.budget))
    base = lvl.level
    roots = []
    unsplit = []
    rng = random.Random("roots:%d:%d" % (tower.p, tower.seed))
    for fac, m in squarefree_decompose(f, lvl):
        pieces = _distinct_degree(fac, lvl) if lvl.char else _rational_split(fac)
        for rel_deg, piece in pieces:
            target = base * rel_deg
            if target > K:
                unsplit.append((rel_deg, base, m))
                continue
            found = roots_of_split_poly(piece, rel_deg, lvl, tower.level(target),
                                        rng)
            roots.extend((target, r, m) for r in found)
    roots.sort(key=lambda t: (t[0], tower.level(t[0]).key(t[1])))
    return RootMultiset(roots, unsplit)


def _rational_split(f):
    """Linear factors of a monic squarefree f over QQ, then the rest.

    Candidates come from the rational root theorem; the rest, of degree
    m > 1, is one piece of relative degree m.
    """
    found = []
    if f[0] == 0:
        f = f[1:]
        found.append(QQ.zero)
    lcm = math.lcm(*(c.denominator for c in f))
    # f is monic, so lcm is its leading coefficient once cleared
    for num in _divisors(int(f[0] * lcm)):
        for den in _divisors(lcm):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if len(f) > 1 and sum(c * cand ** i for i, c in enumerate(f)) == 0:
                    f = _exact_quo(f, [-cand, QQ.one], QQ)
                    found.append(cand)
    rest = [(len(f) - 1, f)] if len(f) > 1 else []
    return [(1, [-r, QQ.one]) for r in found] + rest


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# roots and gcds of binary forms
# ---------------------------------------------------------------------------

def binary_roots(form, lvl, max_level=None):
    """Projective roots [a:1] and possibly [1:0] of a binary form over lvl.

    Returns a RootMultiset whose root values are pairs (a, b) of field
    elements normalized so the last nonzero coordinate is 1; the point at
    infinity is ((one, zero)), with the multiplicity by which the degree
    at u1 = 1 falls short of the formal degree.
    """
    dense = upoly_trim(list(form[::-1]), lvl)
    rm = roots_in_tower(dense, lvl, max_level=max_level)
    roots = [(lv, (r, lvl.tower.level(lv).one), m) for lv, r, m in rm.roots]
    inf_mult = len(form) - len(dense)
    if inf_mult > 0:
        roots.insert(0, (lvl.k, (lvl.one, lvl.zero), inf_mult))
    return RootMultiset(roots, rm.unsplit)


def binary_gcd(forms, lvl):
    """Gcd of binary forms over lvl (their common projective divisor), as
    a binary form: monic at u1 = 1 when there are two nonzero forms or more,
    times u1 to the smallest multiplicity of the point at infinity.  Zero
    forms are skipped."""
    g = inf = None
    for f in forms:
        d = upoly_trim(list(f[::-1]), lvl)
        if d:
            g = d if g is None else upoly_gcd(g, d, lvl)
            inf = len(f) - len(d) if inf is None else min(inf, len(f) - len(d))
    if g is None:
        raise ValueError("gcd of zero forms")
    return [lvl.zero] * inf + g[::-1]
