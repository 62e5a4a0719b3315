"""Graded symbolic intersection calculus for surfaces built from a curve.

Two ambient surface models share one expression type:

* the symmetric square of a curve, with divisor classes ``D[a]`` (locus of
  pairs meeting a named divisor) and ``Delta0`` (half the diagonal), and
  zero-cycle classes ``delta[a]`` (diagonal pushforward), ``pair2[a]``
  (pairs of distinct points of the divisor) and ``pt``;
* blow-ups of a product of two curves (or of the symmetric square), with
  pullback classes ``A1xC2``/``C1xA2`` and exceptional classes ``E[i]``,
  ``F[i]`` and their formal sums ``sumE``/``sumF``.

Coefficients are polynomials over the rationals in the formal parameters
``e, g, e1, e2, r, N``.  Products of grade-1 classes are rewritten to a
grade-2 normal form; grades above 2 vanish (surface dimension).
Evaluation computes the integer degree of a grade-2 class under the
general-position degree map: ``delta[a] -> deg a``, ``pair2[a] ->
binomial(deg a, 2)``, ``pt -> 1`` and ``Delta0sq -> 1 - g``.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, VerificationError
from .poly import MultiPoly

PARAMS = ("e", "g", "e1", "e2", "r", "N")


class ChowError(Exception):
    """Base class for expression-calculus errors."""


class ChowSyntaxError(ChowError):
    """Malformed expression text; carries the character position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class UnknownSymbolError(ChowSyntaxError):
    """An identifier outside the declared symbol table."""


class UnboundParameterError(ChowError):
    """Evaluation requested with a formal parameter left unbound."""

    def __init__(self, name):
        super().__init__("unbound parameter: %s" % name)
        self.name = name


class GradeError(ChowError):
    """Evaluation of a class with a nonzero grade-1 part."""


class MixedModelError(ChowError):
    """Product of divisor classes living on different ambient surfaces."""


def _pconst(n):
    return MultiPoly.const(QQ, PARAMS, Fraction(n))


def _pvar(name):
    return MultiPoly.var(QQ, PARAMS, name)


_P_ZERO = MultiPoly.zero(QQ, PARAMS)
_P_ONE = _pconst(1)

# Named divisors and their formal degrees.
DIVISOR_DEGREES = {
    "a": _pvar("e"),
    "a1": _pvar("e1"),
    "a2": _pvar("e2"),
    "K_C": _pvar("g").scale(Fraction(2)) - _pconst(2),
}


def _sym_str(sym):
    kind = sym[0]
    if kind in ("D", "delta", "pair2", "E", "F"):
        return "%s[%s]" % (kind, sym[1])
    return kind


def _sym_model(sym):
    kind = sym[0]
    if kind in ("D", "Delta0"):
        return "sym"
    if kind in ("A1xC2", "C1xA2"):
        return "prod"
    return "exc"


def _rule(lhs_a, lhs_b, result_terms):
    rhs = " + ".join(
        "%s*%s" % (_poly_str(c), _sym_str(s)) if c != _P_ONE else _sym_str(s)
        for s, c in result_terms.items()) or "0"
    return "%s*%s -> %s" % (_sym_str(lhs_a), _sym_str(lhs_b), rhs)


def _mul_grade1(sa, sb):
    """Product of two grade-1 symbols: (grade-2 terms, rule description)."""
    a, b = sorted((sa, sb))
    ka, kb = a[0], b[0]
    ma, mb = _sym_model(a), _sym_model(b)
    if {ma, mb} == {"sym", "prod"}:
        raise MixedModelError(
            "cannot multiply %s with %s: different ambient surfaces"
            % (_sym_str(sa), _sym_str(sb)))
    if "exc" in (ma, mb) and ma != mb:
        # exceptional classes are orthogonal to pullbacks from the base
        return {}, _rule(a, b, {})
    if ka == "D" and kb == "D":
        if a[1] == b[1]:
            out = {("delta", a[1]): _P_ONE, ("pair2", a[1]): _pconst(2)}
        else:
            deg = DIVISOR_DEGREES[a[1]] * DIVISOR_DEGREES[b[1]]
            out = {("pt",): deg}
        return out, _rule(a, b, out)
    if ka == "D" and kb == "Delta0":
        out = {("delta", a[1]): _pconst(-1)}
        return out, _rule(a, b, out)
    if ka == "Delta0" and kb == "Delta0":
        out = {("Delta0sq",): _P_ONE}
        return out, _rule(a, b, out)
    if ka in ("A1xC2", "C1xA2") and kb in ("A1xC2", "C1xA2"):
        out = {} if ka == kb else {("pt",): _pvar("e1") * _pvar("e2")}
        return out, _rule(a, b, out)
    # both exceptional
    out = {}
    if ka == kb == "E":
        if a[1] == b[1]:
            out = {("pt",): _pconst(-1)}
    elif ka == kb == "F":
        if a[1] == b[1]:
            out = {("pt",): _pconst(-1)}
    elif (ka, kb) == ("E", "sumE") or (ka, kb) == ("F", "sumF"):
        out = {("pt",): _pconst(-1)}
    elif ka == kb == "sumE":
        out = {("pt",): _pvar("N").scale(Fraction(-1))}
    elif ka == kb == "sumF":
        out = {("pt",): _pvar("r").scale(Fraction(-1))}
    # all E-vs-F mixes vanish (disjoint exceptional loci)
    return out, _rule(a, b, out)


def _merge(dst, sym, coeff):
    cur = dst.get(sym, _P_ZERO) + coeff
    if cur.is_zero():
        dst.pop(sym, None)
    else:
        dst[sym] = cur


class ChowExpr:
    """A graded class: scalar part, grade-1 part and grade-2 part."""

    __slots__ = ("g0", "g1", "g2")

    def __init__(self, g0=None, g1=None, g2=None):
        self.g0 = g0 if g0 is not None else _P_ZERO
        self.g1 = {s: c for s, c in (g1 or {}).items() if not c.is_zero()}
        self.g2 = {s: c for s, c in (g2 or {}).items() if not c.is_zero()}

    @classmethod
    def scalar(cls, value):
        poly = value if isinstance(value, MultiPoly) else _pconst(value)
        return cls(g0=poly)

    @classmethod
    def grade1(cls, sym):
        return cls(g1={sym: _P_ONE})

    @classmethod
    def grade2(cls, sym):
        return cls(g2={sym: _P_ONE})

    def __add__(self, other):
        g1 = dict(self.g1)
        g2 = dict(self.g2)
        for s, c in other.g1.items():
            _merge(g1, s, c)
        for s, c in other.g2.items():
            _merge(g2, s, c)
        return ChowExpr(self.g0 + other.g0, g1, g2)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        poly = value if isinstance(value, MultiPoly) else _pconst(value)
        return ChowExpr(self.g0 * poly,
                        {s: c * poly for s, c in self.g1.items()},
                        {s: c * poly for s, c in self.g2.items()})

    def mul(self, other, log=None):
        """Graded product; grade-3 and higher parts vanish on a surface."""
        g0 = self.g0 * other.g0
        g1 = {}
        g2 = {}
        for s, c in self.g1.items():
            _merge(g1, s, c * other.g0)
        for s, c in other.g1.items():
            _merge(g1, s, c * self.g0)
        for s, c in self.g2.items():
            _merge(g2, s, c * other.g0)
        for s, c in other.g2.items():
            _merge(g2, s, c * self.g0)
        for sa, ca in self.g1.items():
            for sb, cb in other.g1.items():
                terms, rule = _mul_grade1(sa, sb)
                if log is not None:
                    log.append(rule)
                coeff = ca * cb
                for sym, mult in terms.items():
                    _merge(g2, sym, coeff * mult)
        return ChowExpr(g0, g1, g2)

    def __mul__(self, other):
        return self.mul(other)

    def is_zero(self):
        return self.g0.is_zero() and not self.g1 and not self.g2

    def __eq__(self, other):
        return (isinstance(other, ChowExpr) and self.g0 == other.g0
                and self.g1 == other.g1 and self.g2 == other.g2)

    def __hash__(self):
        return hash((self.g0, frozenset(self.g1), frozenset(self.g2)))

    def normalize(self):
        """Canonical copy (terms pruned; held in sorted order)."""
        return ChowExpr(
            self.g0,
            {s: self.g1[s] for s in sorted(self.g1)},
            {s: self.g2[s] for s in sorted(self.g2)})

    def params_used(self):
        used = _poly_params(self.g0)
        for part in (self.g1, self.g2):
            for sym, coeff in part.items():
                used |= _poly_params(coeff)
                if sym[0] in ("delta", "pair2"):
                    used |= _poly_params(DIVISOR_DEGREES[sym[1]])
                if sym == ("Delta0sq",):
                    used.add("g")
        return used

    def to_str(self):
        bits = []
        if not self.g0.is_zero():
            bits.append(_poly_str(self.g0))
        for part in (self.g1, self.g2):
            for sym in sorted(part):
                coeff = part[sym]
                name = _sym_str(sym)
                if coeff == _P_ONE:
                    bits.append(name)
                elif coeff == _pconst(-1):
                    bits.append("-%s" % name)
                else:
                    bits.append("%s*%s" % (_poly_str(coeff), name))
        if not bits:
            return "0"
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self):
        return self.to_str()


def _poly_params(poly):
    return {v for exps in poly.terms for v, p in zip(PARAMS, exps) if p}


def _poly_str(poly):
    """Render a coefficient polynomial in the expression grammar."""
    if poly.is_zero():
        return "0"
    bits = []
    for exps in sorted(poly.terms, reverse=True):
        c = poly.terms[exps]
        factors = []
        for v, p in zip(PARAMS, exps):
            factors.extend([v] * p)
        if c == 1 and factors:
            head = ""
        elif c == -1 and factors:
            head = "-"
        elif c.denominator == 1:
            head = str(c.numerator)
        else:
            head = "%d/%d" % (c.numerator, c.denominator)
        mono = "*".join(factors)
        if head in ("", "-"):
            bits.append(head + mono)
        else:
            bits.append(head + ("*" + mono if mono else ""))
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return "(%s)" % out if len(bits) > 1 else out


# -- parsing ---------------------------------------------------------------

_PLAIN_SYMBOLS = {
    "Delta0": ("Delta0",),
    "Delta0sq": ("Delta0sq",),
    "pt": ("pt",),
    "sumE": ("sumE",),
    "sumF": ("sumF",),
    "A1xC2": ("A1xC2",),
    "C1xA2": ("C1xA2",),
}

_GRADE2_HEADS = {"delta", "pair2"}


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/()[]":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ChowSyntaxError("unexpected character %r" % ch, i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ChowSyntaxError("expected %r" % kind, tok[2])
        self.i += 1
        return tok

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ChowSyntaxError("trailing input", tok[2])
        return out

    def expr(self):
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                if rhs.g1 or rhs.g2 or not rhs.g0.is_constant():
                    raise ChowSyntaxError("division only by constants", pos)
                c = rhs.g0.constant_value()
                if c == 0:
                    raise ChowSyntaxError("division by zero", pos)
                out = out.scale(_pconst(Fraction(1, 1) / c))
        return out

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        if self.peek()[0] == "+":
            self.take()
            return self.factor()
        return self.atom()

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return ChowExpr.scalar(val)
        if kind == "(":
            out = self.expr()
            self.take(")")
            return out
        if kind != "ident":
            raise ChowSyntaxError("expected a term", pos)
        name = val
        if name in PARAMS:
            return ChowExpr.scalar(_pvar(name))
        if name in _PLAIN_SYMBOLS:
            sym = _PLAIN_SYMBOLS[name]
            if sym in (("Delta0sq",), ("pt",)):
                return ChowExpr.grade2(sym)
            return ChowExpr.grade1(sym)
        if name == "K_C":
            return ChowExpr.grade1(("D", "K_C"))
        if name == "xS":
            # hyperplane class restricted to the residue surface
            return (ChowExpr.grade1(("D", "a")).scale(2)
                    + ChowExpr.grade1(("Delta0",)).scale(3)
                    - ChowExpr.grade1(("sumE",)))
        if name in {"D", "E", "F"} | _GRADE2_HEADS:
            self.take("[")
            akind, aval, apos = self.take()
            self.take("]")
            if name in ("E", "F"):
                if akind != "num":
                    raise ChowSyntaxError("index must be an integer", apos)
                return ChowExpr.grade1((name, aval))
            if akind != "ident" or aval not in DIVISOR_DEGREES:
                raise UnknownSymbolError("unknown divisor %r" % (aval,), apos)
            if name == "D":
                return ChowExpr.grade1((name, aval))
            return ChowExpr(g2={(name, aval): _P_ONE})
        raise UnknownSymbolError("unknown symbol %r" % name, pos)


def parse(text):
    """Parse an expression into normal form.

    Grammar: ``+ - * /`` with parentheses; atoms are integers, the formal
    parameters, and the symbols D[a], Delta0, delta[a], pair2[a], pt,
    Delta0sq, E[i], F[i], sumE, sumF, A1xC2, C1xA2, K_C, xS.
    """
    return _Parser(text).parse().normalize()


# -- evaluation -------------------------------------------------------------

def _eval_poly(poly, values):
    return poly.eval_elems(values)


def evaluate(expr, bindings):
    """Integer degree of a grade-2 (or scalar) class at integer parameters."""
    if expr.g1:
        raise GradeError("cannot evaluate a class with a grade-1 part")
    for name in sorted(expr.params_used()):
        if name not in bindings:
            raise UnboundParameterError(name)
    values = [Fraction(bindings.get(p, 0)) for p in PARAMS]
    total = _eval_poly(expr.g0, values)
    for sym, coeff in expr.g2.items():
        if sym[0] == "delta":
            v = _eval_poly(DIVISOR_DEGREES[sym[1]], values)
        elif sym[0] == "pair2":
            d = _eval_poly(DIVISOR_DEGREES[sym[1]], values)
            v = d * (d - 1) / 2
        elif sym == ("pt",):
            v = Fraction(1)
        else:  # Delta0sq
            v = 1 - Fraction(bindings["g"])
        total += _eval_poly(coeff, values) * v
    if total.denominator != 1:
        raise ChowError("degree is not an integer: %s" % total)
    return int(total)


# -- derivations ------------------------------------------------------------

def single_count_class(log=None):
    """Second Chern class of the twisted secant bundle on the symmetric
    square: c2 + c1*(D+2*Delta0) + (D+2*Delta0)^2 with c1 = D + Delta0 and
    c2 = pair2[a]."""
    D = ChowExpr.grade1(("D", "a"))
    delta0 = ChowExpr.grade1(("Delta0",))
    c1 = D + delta0
    c2 = ChowExpr.grade2(("pair2", "a"))
    twist = D + delta0.scale(2)
    return (c2 + c1.mul(twist, log) + twist.mul(twist, log)).normalize()


def pair_count_class(log=None):
    """Second Chern class of the twisted bundle on the blown-up product:
    c2 + c1*(A-2*sumF) + (A-2*sumF)^2 with A = A1xC2 + C1xA2,
    c1 = A - sumF and c2 = A1xC2*C1xA2."""
    A = ChowExpr.grade1(("A1xC2",)) + ChowExpr.grade1(("C1xA2",))
    sumF = ChowExpr.grade1(("sumF",))
    c1 = A - sumF
    c2 = ChowExpr.grade1(("A1xC2",)).mul(ChowExpr.grade1(("C1xA2",)), log)
    twist = A - sumF.scale(2)
    return (c2 + c1.mul(twist, log) + twist.mul(twist, log)).normalize()


def derive_secant_count(e, g):
    """Secant-line count of a degree-e genus-g curve, with a rewrite trace."""
    log = []
    cls = single_count_class(log)
    trace = [
        "c1 = D[a] + Delta0",
        "c2 = pair2[a]",
        "twist = D[a] + 2*Delta0",
        "count class = c2 + c1*twist + twist*twist",
    ]
    trace += ["rewrite: " + r for r in log]
    trace.append("normal form: " + cls.to_str())
    value = evaluate(cls, {"e": e, "g": g})
    trace.append("evaluate at e=%d, g=%d: %d" % (e, g, value))
    return value, trace


def derive_pair_count(e1, e2, r):
    """Secant-line count of a pair of curves meeting at r points."""
    log = []
    cls = pair_count_class(log)
    trace = [
        "c1 = A1xC2 + C1xA2 - sumF",
        "c2 = A1xC2*C1xA2",
        "twist = A1xC2 + C1xA2 - 2*sumF",
        "count class = c2 + c1*twist + twist*twist",
    ]
    trace += ["rewrite: " + r_ for r_ in log]
    trace.append("normal form: " + cls.to_str())
    value = evaluate(cls, {"e1": e1, "e2": e2, "r": r})
    trace.append("evaluate at e1=%d, e2=%d, r=%d: %d" % (e1, e2, r, value))
    return value, trace


def secant_bundle_chern_consistent():
    """Check the two routes to the Chern classes of the bundle twisted by
    a difference of two named divisors give the same normal form."""
    D1 = ChowExpr.grade1(("D", "a1"))
    D2 = ChowExpr.grade1(("D", "a2"))
    delta0 = ChowExpr.grade1(("Delta0",))
    stated_c2 = (ChowExpr.grade2(("pair2", "a1"))
                 + ChowExpr.grade2(("pair2", "a2"))
                 + ChowExpr.grade2(("delta", "a2"))
                 - D1 * D2)
    # product expansion (1 + D1 + Delta0 + pair2[a1]) * (1 - D2 + pair2[a2])
    lhs = (ChowExpr.scalar(1) + D1 + delta0 + ChowExpr.grade2(("pair2", "a1")))
    rhs = (ChowExpr.scalar(1) - D2 + ChowExpr.grade2(("pair2", "a2")))
    total = lhs * rhs
    expanded_c1 = ChowExpr(g1=total.g1)
    expanded_c2 = ChowExpr(g2=total.g2)
    stated_c1 = delta0 + D1 - D2
    return (expanded_c1.normalize() == stated_c1.normalize()
            and expanded_c2.normalize() == stated_c2.normalize())


def residue_surface_classes(case):
    """Divisor classes restricted to the residue surface, in normal form.

    Returns xi_S (relative hyperplane), D_S (residual-line divisor), S_S
    (self-restriction), the twist class and xi_S squared, after asserting
    the linear consistency identities and the agreement of two independent
    expansions of xi_S^2.
    """
    if case == "single":
        base = ChowExpr.grade1(("D", "a"))
        delta0 = ChowExpr.grade1(("Delta0",))
        sumE = ChowExpr.grade1(("sumE",))
        xi = base.scale(2) + delta0.scale(3) - sumE
        d_s = base.scale(3) + delta0.scale(4) - sumE.scale(2)
        s_s = base.scale(3) + delta0.scale(5) - sumE
        twist = base + delta0.scale(2)
    elif case == "pair":
        A = ChowExpr.grade1(("A1xC2",)) + ChowExpr.grade1(("C1xA2",))
        sumF = ChowExpr.grade1(("sumF",))
        sumE = ChowExpr.grade1(("sumE",))
        xi = A.scale(2) - sumF.scale(3) - sumE
        d_s = A.scale(3) - sumF.scale(4) - sumE.scale(2)
        s_s = A.scale(3) - sumF.scale(5) - sumE
        twist = A - sumF.scale(2)
    else:
        raise ValueError("case must be 'single' or 'pair'")
    for identity in (d_s + s_s - xi.scale(3), d_s - xi.scale(2) + twist,
                     s_s - xi - twist):
        if not identity.is_zero():
            raise VerificationError("residue class identity fails: %s"
                                    % identity.to_str())
    sq_direct = (xi * xi).normalize()
    half = (d_s + twist).scale(Fraction(1, 2))
    sq_via_d = (half * half).normalize()
    if sq_direct != sq_via_d:
        raise VerificationError("two expansions of xi_S^2 disagree")
    return {"xi_S": xi.normalize(), "D_S": d_s.normalize(),
            "S_S": s_s.normalize(), "twist": twist.normalize(),
            "xi_S_sq": sq_direct}


# -- degree checks for the 1-cycle relations --------------------------------

RELATION_RANGES = {
    "4.1": {"e": range(2, 13), "g": range(0, 11)},
    "4.2": {"e1": range(1, 9), "e2": range(1, 9), "r": range(0, 5)},
    "4.3": {"e": range(2, 13)},
}


def relation_degree_check(relation, ranges=None):
    """Verify deg(LHS) == 3 * (hyperplane-section coefficient) for one of
    the three 1-cycle relations, over a grid of parameters."""
    ranges = dict(RELATION_RANGES[relation], **(ranges or {}))
    rows = []
    if relation == "4.1":
        for e in ranges["e"]:
            for g in ranges["g"]:
                count, _ = derive_secant_count(e, g)
                lhs = (2 * e - 3) * e + count
                rhs = 3 * ((e - 1) * (3 * e - 4) // 2 - 2 * g)
                rows.append({"params": {"e": e, "g": g},
                             "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    elif relation == "4.2":
        for e1 in ranges["e1"]:
            for e2 in ranges["e2"]:
                for r in ranges["r"]:
                    count, _ = derive_pair_count(e1, e2, r)
                    lhs = 2 * e2 * e1 + 2 * e1 * e2 + count
                    rhs = 3 * (3 * e1 * e2 - 2 * r)
                    rows.append({"params": {"e1": e1, "e2": e2, "r": r},
                                 "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    elif relation == "4.3":
        for e in ranges["e"]:
            lhs = (2 * e - 1) + 2 * e + (5 * e - 5)
            rhs = 3 * (3 * e - 2)
            rows.append({"params": {"e": e},
                         "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    else:
        raise ValueError("unknown relation %r" % relation)
    return {"relation": relation, "rows": rows,
            "passed": all(row["ok"] for row in rows)}
