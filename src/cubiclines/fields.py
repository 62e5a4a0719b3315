"""Exact ground fields: the rationals and towers of finite fields.

A :class:`FieldTower` holds the prime field GF(p) together with one
extension GF(p^k) for each level k up to a budget K.  Elements are plain
data (an ``int`` at level 1, a coefficient ``tuple`` at higher levels) and
all arithmetic goes through the level object, so elements stay hashable
and cheap to sort.  Defining polynomials are found by seeded search, so
two towers built with the same seed are identical.

A product at level k is the schoolbook product of the coefficient lists,
reduced once by the monic defining polynomial.  An inverse at level k > 1
comes from the extended Euclidean algorithm in GF(p)[x] against the
defining polynomial (von zur Gathen and Gerhard, *Modern Computer
Algebra*, sec. 4.2), run on plain ints; at level 1 it is a^(p-2) mod p.
The Frobenius a -> a^p is GF(p)-linear, so at level k > 1 it is a k x k
matrix over GF(p) acting on the coefficients: its columns are the powers
of x^p, computed once per level on first use; embedding level j into
level k is the GF(p) matrix that descent solves against.

Over a finite level the dense univariate layer runs on packed ints: a
product of polynomials is one int product (Kronecker substitution, sec.
8.4 of the same book), and a power modulo h folds each product back by a
packed table of x^j mod h.  The layer ends in the one root finder (ch.
14): ``_distinct_degree`` cuts a squarefree polynomial into pieces whose
irreducible factors share a degree m, and :func:`roots_of_split_poly`
splits a piece into them by Cantor-Zassenhaus, finds one root of each by
Berlekamp's trace algorithm (Math. Comp. 24, 1970), which needs only p-th
powers, that is the linear Frobenius, and takes the rest as its Frobenius
orbit.  The tower is built with the same code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from . import linalg


class BudgetError(Exception):
    """A requested extension level exceeds the tower budget."""


class InvalidInputError(ValueError):
    """An argument the computation does not accept: a vector that is not a
    point of P^n, a point, line or curve off X, rows that span no line, a
    curve with a base point, one with no secant scheme or one that does
    not validate, a surface given to the discriminant, a line that does
    not meet a curve once transversally, a curve of a pair with a base
    point or off X, two curves whose images share a component, two meeting
    lines as a pair, or a field that a point scan cannot enumerate."""


class VerificationError(AssertionError):
    """A computed result failed its substitution check.

    Raised explicitly, so the check also runs under ``python -O``; it
    subclasses AssertionError so callers that caught the former bare
    ``assert`` behave as before.
    """


class RationalTower:
    """The rationals as a one-level tower: no extensions of QQ are modeled.

    Gives QQ the interface of a :class:`FieldTower`, so code written for
    tower levels runs unchanged over the rationals.
    """

    p = 0
    budget = 1
    seed = 0

    def level(self, k):
        if k < 1:
            raise ValueError("level must be >= 1")
        if k > 1:
            raise BudgetError("the rationals have no extension level %d" % k)
        return QQ

    def __repr__(self):
        return "RationalTower()"


class Rationals:
    """Field interface for exact rational arithmetic (characteristic 0).

    Level 1 of :class:`RationalTower`: the subfield maps of a finite level
    (``embed_from``, ``descend``, ``min_subfield``) are identities here.
    """

    char = 0
    p = 0
    k = 1
    level = 1
    tower = RationalTower()

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow_(self, a, e):
        return a ** e

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def key(self, a):
        return a

    def embed_from(self, a, j):
        if j != 1:
            raise ValueError("no embedding of level %d into QQ" % j)
        return a

    def pack(self, a, bits):
        """A rational is its own packed form (see FiniteLevel.pack)."""
        return a

    def unpack(self, n, bits):
        return n

    def descend(self, a, j):
        return a

    def min_subfield(self, a):
        return 1

    def __repr__(self):
        return "QQ"


QQ = Rationals()


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


# ---------------------------------------------------------------------------
# finite field levels
# ---------------------------------------------------------------------------

class FiniteLevel:
    """The field GF(p^k) inside a :class:`FieldTower`.

    Level 1 elements are ints in [0, p); higher levels use length-k
    coefficient tuples with respect to the defining polynomial.
    """

    def __init__(self, tower, k, modulus):
        self.tower = tower
        self.p = tower.p
        self.k = k
        self.q = tower.p ** k
        self.modulus = modulus  # little-endian int list, monic, len k+1
        self.char = tower.p
        self.level = k
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self._frob_rows = None

    # -- element construction ------------------------------------------------

    def from_int(self, n):
        n %= self.p
        if self.k == 1:
            return n
        return (n,) + (0,) * (self.k - 1)

    def gen(self):
        if self.k == 1:
            raise ValueError("prime field has no tower generator")
        return (0, 1) + (0,) * (self.k - 2)

    def from_coeffs(self, coeffs):
        c = [x % self.p for x in coeffs]
        if self.k == 1:
            return c[0] if c else 0
        c = c[: self.k] + [0] * max(0, self.k - len(c))
        return tuple(c)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        p = self.p
        if self.k == 1:
            return (a + b) % p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        if self.k == 1:
            return (a - b) % p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        if self.k == 1:
            return (-a) % p
        return tuple([(-x) % p for x in a])

    def mul(self, a, b):
        p = self.p
        k = self.k
        if k == 1:
            return (a * b) % p
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        # clear x^top, top = 2k-2 .. k, by subtracting c * x^(top-k) * modulus
        m = self.modulus
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top] % p
            if c:
                off = top - k
                for i in range(k):
                    prod[off + i] -= c * m[i]
        return tuple([c % p for c in prod[:k]])

    def pow_(self, a, e):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = self.one
        b = a
        while e:
            if e & 1:
                result = self.mul(result, b)
            e >>= 1
            if e:
                b = self.mul(b, b)
        return result

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0 in GF(%d^%d)" % (self.p, self.k))
        p = self.p
        if self.k == 1:
            return pow(a, p - 2, p)
        # Extended Euclid in GF(p)[x], one leading term at a time, keeping
        # r0 = s0 * a and r1 = s1 * a mod the (irreducible) modulus.
        r0, s0 = list(self.modulus), []
        r1, s1 = _trim(list(a)), [1]
        while len(r1) > 1:
            lead_inv = pow(r1[-1], p - 2, p)
            while len(r0) >= len(r1):
                c = r0[-1] * lead_inv % p
                off = len(r0) - len(r1)
                for i, x in enumerate(r1, off):
                    r0[i] = (r0[i] - c * x) % p
                s0 += [0] * (len(s1) + off - len(s0))
                for i, x in enumerate(s1, off):
                    s0[i] = (s0[i] - c * x) % p
                _trim(r0)
            r0, s0, r1, s1 = r1, s1, r0, _trim(s0)
        # r1 is the nonzero constant s1 * a: divide it out
        c = pow(r1[0], p - 2, p)
        return tuple([x * c % p for x in s1] + [0] * (self.k - len(s1)))

    def is_zero(self, a):
        return a == self.zero

    def key(self, a):
        if self.k == 1:
            return (a,)
        return a

    def frob(self, a, times=1):
        """Frobenius a -> a^(p^times), by the matrix of a -> a^p."""
        t = times % self.k
        if t == 0:
            return a
        rows = self._frob_rows
        if rows is None:
            xp = self.pow_(self.gen(), self.p)
            cols = [self.one]
            for _ in range(self.k - 1):
                cols.append(self.mul(cols[-1], xp))
            rows = self._frob_rows = list(zip(*cols))
        p = self.p
        for _ in range(t):
            a = tuple([sum(map(mul, row, a)) % p for row in rows])
        return a

    # -- packed elements -------------------------------------------------------

    def pack(self, a, bits):
        """a as one int, one slot of ``bits`` bits per coefficient
        (Kronecker substitution).  Sums and products of packed elements
        are packed sums and products of the unreduced coefficient
        polynomials, as long as no slot reaches 2^bits; a prime-field
        element is its own packed form.  The substitution kernel
        (``MultiPoly.along``, which nests these ints inside the slots of
        one int per curve coordinate and decodes each parameter slot with
        one ``unpack``), the Horner evaluations of ``poly`` and the dense
        univariate polynomials below (``_pack_poly``, 2k - 1 slots per
        coefficient) all run on it."""
        if self.k == 1:
            return a
        out = 0
        for c in reversed(a):
            out = (out << bits) | c
        return out

    def unpack(self, n, bits):
        """The element of a packed sum of products of packed elements, of
        any number of slots: a product of d + 1 elements has d(k - 1) + k.
        The slots above k - 1 are folded down by the modulus, top first,
        and the k that remain are reduced modulo p."""
        if self.k == 1:
            return n % self.p
        p, k, m = self.p, self.k, self.modulus
        mask = (1 << bits) - 1
        prod = []
        while n:
            prod.append(n & mask)
            n >>= bits
        prod += [0] * (k - len(prod))
        # mul's reduction, for a list of any length (mul keeps its own copy
        # inline: a call there costs 5-14% of a multiplication)
        for top in range(len(prod) - 1, k - 1, -1):
            c = prod[top] % p
            if c:
                off = top - k
                for i in range(k):
                    prod[off + i] -= c * m[i]
        return tuple([c % p for c in prod[:k]])

    # -- subfield structure ----------------------------------------------------

    def embed_from(self, a, j):
        """Embed an element of level j into this level (requires j | k).

        Above level 1 this is the GF(p)-linear map whose matrix
        :meth:`descend` solves against.
        """
        if j == self.k:
            return a
        if self.k % j != 0:
            raise ValueError("no embedding of level %d into level %d" % (j, self.k))
        if j == 1:
            return self.from_int(a)
        p = self.p
        return tuple([sum(map(mul, row, a)) % p
                      for row in self.tower._descend_matrix(j, self.k)])

    def min_subfield(self, a):
        """Smallest j | k with a in GF(p^j): the length of a's Frobenius orbit."""
        b = a
        for j in range(1, self.k):
            b = self.frob(b)
            if b == a:
                return j
        return self.k

    def descend(self, a, j):
        """Write an element known to lie in GF(p^j) as a level-j element."""
        if j == self.k:
            return a
        if self.k % j != 0:
            raise ValueError("level %d is not a subfield of level %d" % (j, self.k))
        sol = linalg.solve(self.tower._descend_matrix(j, self.k), self._vec(a),
                           self.tower.level(1))
        if sol is None:
            raise ValueError("element does not lie in level %d" % j)
        return self.tower.level(j).from_coeffs(sol)

    def _vec(self, a):
        return [a] if self.k == 1 else list(a)

    def elements(self):
        """Iterate all field elements (used by exhaustive scans)."""
        if self.k == 1:
            yield from range(self.p)
        else:
            idx = [0] * self.k
            while True:
                yield tuple(idx)
                i = 0
                while i < self.k:
                    idx[i] += 1
                    if idx[i] < self.p:
                        break
                    idx[i] = 0
                    i += 1
                else:
                    return

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k) if self.k > 1 else "GF(%d)" % self.p


class FieldTower:
    """GF(p) plus extensions GF(p^k), k <= budget, with compatible embeddings.

    Moduli and generator images come from the root path that solving
    uses, and embedding and descent share one GF(p) matrix per pair of
    levels.  Embeddings exist between levels j | k.  Maps out of the prime
    field are canonical, and for budget <= 6 no two composable proper
    extensions stack, so all embedding diagrams commute by construction.
    """

    def __init__(self, p, budget=6, seed=0):
        if p < 2 or not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.budget = budget
        self.seed = seed
        self._levels = {}
        self._gen_images = {}
        self._descend_cache = {}
        self._rng = random.Random("tower:%d:%d" % (p, seed))

    def level(self, k):
        if k < 1:
            raise ValueError("level must be >= 1")
        if k > self.budget:
            raise BudgetError("level %d exceeds tower budget %d" % (k, self.budget))
        if k not in self._levels:
            self._levels[k] = FiniteLevel(self, k, self._defining_poly(k))
        return self._levels[k]

    def _defining_poly(self, k):
        if k == 1:
            return [0, 1]
        rng = random.Random("defpoly:%d:%d:%d" % (self.p, self.seed, k))
        while True:
            coeffs = [rng.randrange(self.p) for _ in range(k)] + [1]
            if _distinct_degree(coeffs, self.level(1)) == [(k, coeffs)]:
                return coeffs

    def _gen_image(self, j, k):
        """Canonical image of the level-j generator in level k (j | k, j > 1):
        the least root of the level-j modulus, whose roots in level k are
        one Frobenius orbit."""
        key = (j, k)
        if key not in self._gen_images:
            lk = self.level(k)
            roots = roots_of_split_poly(self.level(j).modulus, j, self.level(1),
                                        lk, self._rng)
            self._gen_images[key] = min(roots, key=lk.key)
        return self._gen_images[key]

    def _descend_matrix(self, j, k):
        """GF(p) matrix whose columns are the level-j basis image in level k."""
        key = (j, k)
        if key not in self._descend_cache:
            lk = self.level(k)
            img = self._gen_image(j, k) if j > 1 else lk.one
            cols = []
            power = lk.one
            for _ in range(j):
                cols.append(lk._vec(power))
                power = lk.mul(power, img)
            self._descend_cache[key] = [list(row) for row in zip(*cols)]
        return self._descend_cache[key]

    def __repr__(self):
        return "FieldTower(p=%d, budget=%d, seed=%d)" % (self.p, self.budget, self.seed)


def check_tower(tower, fld):
    """Reject a tower other than the one ``fld`` belongs to.

    A level carries its tower (``fld.tower``), which is where every
    extension level below the entry points comes from; an entry point's
    ``tower`` argument may only be None or that same tower.
    """
    if tower is not None and tower is not fld.tower:
        raise ValueError("%r is not the tower of the input field %r"
                         % (tower, fld))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# generic dense univariate polynomials over a level (element lists)
# ---------------------------------------------------------------------------
#
# Over a finite level the products run on packed ints (Kronecker
# substitution; von zur Gathen and Gerhard, *Modern Computer Algebra*,
# sec. 8.4).  Coefficient i of a polynomial over GF(p^k) is packed by
# ``FiniteLevel.pack`` at slot i*(2k - 1), which leaves room for the 2k - 1
# coefficients of an unreduced product of two elements, so the product of
# two packed polynomials is one int product whose coefficient chunks are
# sums of products of packed elements, each reduced once by ``unpack``.
# Over QQ no slot width bounds a coefficient, so the loops run on elements.

def upoly_trim(f, lvl):
    while f and lvl.is_zero(f[-1]):
        f.pop()
    return f


def upoly_sub(a, b, lvl):
    z = lvl.zero
    n = max(len(a), len(b))
    a, b = list(a) + [z] * (n - len(a)), list(b) + [z] * (n - len(b))
    return upoly_trim([lvl.sub(x, y) for x, y in zip(a, b)], lvl)


def _slot_bits(terms, lvl):
    """Slot width for a sum of ``terms`` products of two packed elements."""
    return (terms * lvl.k * (lvl.p - 1) ** 2).bit_length()


def _pack_poly(f, lvl, bits):
    """The dense polynomial f over a finite level as one int."""
    stride = (2 * lvl.k - 1) * bits
    out = 0
    if lvl.k == 1:
        for c in reversed(f):
            out = (out << stride) | c
    else:
        pack = lvl.pack
        for c in reversed(f):
            out = (out << stride) | pack(c, bits)
    return out


def _unpack_poly(n, length, lvl, bits):
    """The first ``length`` coefficients of a packed polynomial whose
    coefficient chunks are sums of products of packed elements."""
    stride = (2 * lvl.k - 1) * bits
    mask = (1 << stride) - 1
    if lvl.k == 1:
        p = lvl.p
        return [(n >> i & mask) % p for i in range(0, length * stride, stride)]
    unpack = lvl.unpack
    return [unpack(n >> i & mask, bits)
            for i in range(0, length * stride, stride)]


def upoly_mul(a, b, lvl):
    if not a or not b:
        return []
    if lvl.char:
        bits = _slot_bits(min(len(a), len(b)), lvl)
        return upoly_trim(_unpack_poly(
            _pack_poly(a, lvl, bits) * _pack_poly(b, lvl, bits),
            len(a) + len(b) - 1, lvl, bits), lvl)
    out = [lvl.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not lvl.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] = lvl.add(out[i + j], lvl.mul(ai, bj))
    return upoly_trim(out, lvl)


def upoly_divmod(a, b, lvl):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if lvl.k == 1 and lvl.char:
        return _divmod_ints(a, b, lvl.p)
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


def _divmod_ints(a, b, p):
    """upoly_divmod over GF(p) on plain ints, each reduced modulo p when
    it is read as a leading coefficient or returned."""
    if not b[-1] % p:
        raise ZeroDivisionError("inverse of 0 in GF(%d)" % p)
    a = list(a)
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    low = b[:-1]
    quot = [0] * max(0, len(a) - db)
    for off in range(len(a) - 1 - db, -1, -1):
        c = a[off + db] * binv % p
        if c:
            quot[off] = c
            a[off:off + db] = [x - c * y for x, y in zip(a[off:off + db], low)]
    return _trim(quot), _trim([x % p for x in a[:db]])


def _exact_quo(a, b, lvl):
    """Quotient of dense polynomials whose division must leave no remainder."""
    q, r = upoly_divmod(a, b, lvl)
    if r:
        raise VerificationError("inexact polynomial division")
    return q


def upoly_gcd(a, b, lvl):
    a, b = list(a), list(b)
    while b:
        _, a = upoly_divmod(a, b, lvl)
        a, b = b, a
    if a:
        inv = lvl.inv(a[-1])
        a = [lvl.mul(c, inv) for c in a]
    return a


def upoly_powmod(base, e, m, lvl):
    """base^e modulo m, over a finite level (root finding over QQ takes
    rational roots and no powers).

    With d = deg m, each square or product is one packed product; its
    coefficients j >= d are folded back by one packed sum
    sum_j c_j * (x^j mod m) over a table of x^j mod m, d <= j <= 2d - 2,
    and one unpack reduces the result: there is no long division.  The
    table is made once per call, each row folded from the one before.
    """
    if not lvl.char:
        raise ValueError("upoly_powmod needs a finite level")
    _, r = upoly_divmod(base, m, lvl)
    if not e:
        return [lvl.one]
    if not r:
        return []
    d = len(m) - 1
    # a chunk sums the d products of a square and d - 1 folded products
    bits = _slot_bits(2 * d - 1, lvl)
    stride = (2 * lvl.k - 1) * bits
    low = (1 << d * stride) - 1
    mask = (1 << stride) - 1
    p, pack, unpack = lvl.p, lvl.pack, lvl.unpack
    if m[-1] != lvl.one:
        inv = lvl.inv(m[-1])
        m = [lvl.mul(c, inv) for c in m]
    table = [_pack_poly([lvl.neg(c) for c in m[:-1]], lvl, bits)]

    def fold(n):
        acc, n = n & low, n >> d * stride
        for row in table:
            if not n:
                break
            c = n & mask
            acc += (c % p if lvl.k == 1 else pack(unpack(c, bits), bits)) * row
            n >>= stride
        return _pack_poly(_unpack_poly(acc, d, lvl, bits), lvl, bits)

    for _ in range(d - 2):
        table.append(fold(table[-1] << stride))
    sq = _pack_poly(r, lvl, bits)
    result = None
    while True:
        if e & 1:
            result = sq if result is None else fold(result * sq)
        e >>= 1
        if not e:
            return upoly_trim(_unpack_poly(result, d, lvl, bits), lvl)
        sq = fold(sq * sq)


def roots_of_split_poly(f, m, lvl, tgt, rng):
    """Roots in tgt of a monic squarefree f over lvl whose irreducible
    factors all have degree m; tgt must contain them.

    Each factor h of f over lvl is lifted to tgt, where one root r is found
    from the powers x^(p^i) mod h, i < [tgt : GF(p)], computed once at the
    level of lvl; its conjugates over lvl are r^(q^i), q = |lvl|, i < m.
    An orbit that does not multiply back to its lifted factor raises
    VerificationError.  Needs odd characteristic.
    """
    if lvl.p == 2:
        raise NotImplementedError("root splitting needs odd characteristic")
    base = lvl.level
    out = []
    for h in _equal_degree(f, m, lvl, rng):
        lifted = [tgt.embed_from(c, base) for c in h]
        powers = [[tgt.embed_from(c, base) for c in y]
                  for y in _frobenius_powers(h, tgt.k, lvl)] if m > 1 else []
        orbit = [_one_root(lifted, powers, tgt, rng)]
        for _ in range(m - 1):
            orbit.append(tgt.frob(orbit[-1], base))
        prod = [tgt.neg(orbit[0]), tgt.one]
        for r in orbit[1:]:
            prod = upoly_mul(prod, [tgt.neg(r), tgt.one], tgt)
        if prod != lifted:
            raise VerificationError("a Frobenius orbit of roots does not "
                                    "multiply back to its factor")
        out.extend(orbit)
    return out


def _frobenius_powers(h, n, lvl):
    """[x^(p^i) mod h for i < n] over lvl, for a monic h of degree >= 2."""
    out = [[lvl.zero, lvl.one]]
    for _ in range(n - 1):
        out.append(upoly_powmod(out[-1], lvl.p, h, lvl))
    return out


def _equal_degree(f, m, lvl, rng):
    """Monic irreducible factors of a monic squarefree f over lvl whose
    irreducible factors all have degree m (Cantor-Zassenhaus equal-degree
    split)."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == m:
            out.append(g)
            continue
        w = _cz_factor(g, m, lvl, rng)
        stack += [w, _exact_quo(g, w, lvl)]
    return out


def _one_root(g, powers, lvl, rng):
    """One root of a monic squarefree g that splits over lvl = GF(p^k), by
    absolute-trace splits that keep only the smaller factor.

    ``powers`` holds x^(p^i) mod g for i < k (it may be empty when g is
    linear).  For random c and c0 in lvl, T = sum_i c^(p^i) x^(p^i) +
    Tr(c0) takes the value Tr(c r + c0) in GF(p) at each root r, and those
    values are independent and uniform for two distinct roots, so
    gcd(g, T^((p-1)/2) - 1) is proper with probability about 1/2
    (Berlekamp's trace algorithm; von zur Gathen and Gerhard, *Modern
    Computer Algebra*, sec. 14.4).  The shift c0 is needed: without it,
    roots whose ratio is a square in GF(p), such as those of x^2 + 3 over
    GF(5), are never separated.  The kept factor's powers are reduced
    modulo it.  100 failed steps in a row mean that g does not split over
    lvl, and VerificationError is raised instead of looping on.
    """
    e = (lvl.p - 1) // 2
    while len(g) > 2:
        for _ in range(100):
            c, c0 = _random_elem(lvl, rng), _random_elem(lvl, rng)
            t = [lvl.zero] * (len(g) - 1)
            tr = lvl.zero
            for y in powers:
                for j, a in enumerate(y):
                    t[j] = lvl.add(t[j], lvl.mul(c, a))
                tr = lvl.add(tr, c0)
                c, c0 = lvl.frob(c), lvl.frob(c0)
            t[0] = lvl.add(t[0], tr)
            w = _gcd_minus_one(upoly_powmod(upoly_trim(t, lvl), e, g, lvl),
                               g, lvl)
            if 0 < len(w) - 1 < len(g) - 1:
                break
        else:
            raise VerificationError("trace steps do not split a polynomial "
                                    "that should split over its level")
        g = w if 2 * len(w) <= len(g) + 1 else _exact_quo(g, w, lvl)
        powers = [upoly_divmod(y, g, lvl)[1] for y in powers]
    return lvl.neg(g[0])


def _random_elem(lvl, rng):
    return lvl.from_coeffs([rng.randrange(lvl.p) for _ in range(lvl.k)])


def _cz_factor(g, m, lvl, rng):
    """A proper monic factor of a monic squarefree g over lvl whose
    irreducible factors all have degree m < deg g.

    Cantor-Zassenhaus steps (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, sec. 14.3): with e = (q^m - 1)/2, a^e is +-1 or 0 modulo
    each irreducible factor, so gcd(a^e - 1, g) is proper for about half
    of the splitting polynomials a, drawn monic of degree below
    min(deg g, 2m) (x + c at m = 1).  A step fails with probability near
    1/2 (at most 0.6 in the small fields checked, at q = 5), so 100
    failed steps mean that g breaks the precondition, and
    VerificationError is raised instead of looping on.
    """
    d = len(g) - 1
    e = (lvl.q ** m - 1) // 2
    for _ in range(100):
        a = [_random_elem(lvl, rng) for _ in range(min(d, 2 * m) - 1)]
        w = _gcd_minus_one(upoly_powmod(a + [lvl.one], e, g, lvl), g, lvl)
        if 0 < len(w) - 1 < d:
            return w
    raise VerificationError("Cantor-Zassenhaus steps do not split a "
                            "polynomial whose factors share a degree")


def _gcd_minus_one(h, g, lvl):
    """gcd(h - 1, g) for a dense h reduced modulo g."""
    h = h or [lvl.zero]
    h[0] = lvl.sub(h[0], lvl.one)
    return upoly_gcd(upoly_trim(h, lvl), g, lvl)


def _distinct_degree(f, lvl):
    """Distinct-degree split [(i, product of the degree-i factors)] of a
    monic squarefree dense polynomial over a finite level.

    Any monic f of degree k is irreducible exactly when the split is
    [(k, f)]: a reducible f has a factor of degree at most k/2.
    """
    out = []
    rem = list(f)
    power = [lvl.zero, lvl.one]
    i = 0
    while len(rem) - 1 > 0:
        i += 1
        if 2 * i > len(rem) - 1:
            out.append((len(rem) - 1, rem))
            break
        power = upoly_powmod(power, lvl.q, rem, lvl)
        diff = list(power) + [lvl.zero] * (2 - len(power))
        diff[1] = lvl.sub(diff[1], lvl.one)
        g = upoly_gcd(upoly_trim(diff, lvl), rem, lvl)
        if len(g) - 1 > 0:
            out.append((i, g))
            rem = _exact_quo(rem, g, lvl)
            _, power = upoly_divmod(power, rem, lvl)
    return out
