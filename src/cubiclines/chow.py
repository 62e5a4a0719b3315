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

from .fields import QQ
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


def _signed_join(bits):
    """Join rendered terms with " + ", writing a leading minus as " - "."""
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def _rule(sa, sb, result_terms):
    rhs = " + ".join(
        "%s*%s" % (_poly_str(c), _sym_str(s)) if c != _P_ONE else _sym_str(s)
        for s, c in result_terms.items()) or "0"
    a, b = sorted((sa, sb))
    return "%s*%s -> %s" % (_sym_str(a), _sym_str(b), rhs)


def _mul_grade1(sa, sb):
    """Grade-2 terms of the product of two grade-1 symbols."""
    a, b = sorted((sa, sb))
    ka, kb = a[0], b[0]
    ma, mb = _sym_model(a), _sym_model(b)
    if {ma, mb} == {"sym", "prod"}:
        raise MixedModelError(
            "cannot multiply %s with %s: different ambient surfaces"
            % (_sym_str(sa), _sym_str(sb)))
    if "exc" in (ma, mb) and ma != mb:
        # exceptional classes are orthogonal to pullbacks from the base
        return {}
    if ka == kb == "D":
        if a[1] == b[1]:
            return {("delta", a[1]): _P_ONE, ("pair2", a[1]): _pconst(2)}
        return {("pt",): DIVISOR_DEGREES[a[1]] * DIVISOR_DEGREES[b[1]]}
    if (ka, kb) == ("D", "Delta0"):
        return {("delta", a[1]): _pconst(-1)}
    if ka == kb == "Delta0":
        return {("Delta0sq",): _P_ONE}
    if ma == "prod":
        return {} if ka == kb else {("pt",): _pvar("e1") * _pvar("e2")}
    # both exceptional; all E-vs-F mixes vanish (disjoint exceptional loci)
    if a == b == ("sumE",):
        return {("pt",): _pvar("N").scale(Fraction(-1))}
    if a == b == ("sumF",):
        return {("pt",): _pvar("r").scale(Fraction(-1))}
    if a == b or (ka, kb) in (("E", "sumE"), ("F", "sumF")):
        return {("pt",): _pconst(-1)}
    return {}


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
        """Graded product; grade-3 and higher parts vanish on a surface.

        The rewrite rule of each grade-1 product is appended to ``log``.
        """
        out = (ChowExpr(g1=self.g1, g2=self.g2).scale(other.g0)
               + other.scale(self.g0))
        for sa, ca in self.g1.items():
            for sb, cb in other.g1.items():
                terms = _mul_grade1(sa, sb)
                if log is not None:
                    log.append(_rule(sa, sb, terms))
                for sym, mult in terms.items():
                    _merge(out.g2, sym, ca * cb * mult)
        return out

    def __mul__(self, other):
        return self.mul(other)

    def is_zero(self):
        return self.g0.is_zero() and not self.g1 and not self.g2

    def __eq__(self, other):
        return (isinstance(other, ChowExpr) and self.g0 == other.g0
                and self.g1 == other.g1 and self.g2 == other.g2)

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
        bits = [] if self.g0.is_zero() else [_poly_str(self.g0)]
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
        return _signed_join(bits) if bits else "0"

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
    out = _signed_join(bits)
    return "(%s)" % out if len(bits) > 1 else out


# -- parsing ---------------------------------------------------------------

_GRADE1_NAMES = {"Delta0", "sumE", "sumF", "A1xC2", "C1xA2"}
_GRADE2_NAMES = {"Delta0sq", "pt"}


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
    def __init__(self, text, log=None):
        self.toks = _tokenize(text)
        self.i = 0
        self.log = log

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
                out = out.mul(rhs, self.log)
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
        if name in _GRADE1_NAMES:
            return ChowExpr.grade1((name,))
        if name in _GRADE2_NAMES:
            return ChowExpr.grade2((name,))
        if name == "K_C":
            return ChowExpr.grade1(("D", "K_C"))
        if name == "xS":
            # hyperplane class restricted to the residue surface
            return _Parser("2*D[a] + 3*Delta0 - sumE", self.log).parse()
        if name in ("D", "E", "F", "delta", "pair2"):
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
            return ChowExpr.grade2((name, aval))
        raise UnknownSymbolError("unknown symbol %r" % name, pos)


def parse(text, log=None):
    """Parse an expression into normal form.

    Grammar: ``+ - * /`` with parentheses; atoms are integers, the formal
    parameters, and the symbols D[a], Delta0, delta[a], pair2[a], pt,
    Delta0sq, E[i], F[i], sumE, sumF, A1xC2, C1xA2, K_C, xS.  The rewrite
    rule of each grade-1 product is appended to ``log``.
    """
    return _Parser(text, log).parse()


# -- evaluation -------------------------------------------------------------

def evaluate(expr, bindings):
    """Integer degree of a grade-2 (or scalar) class at integer parameters."""
    if expr.g1:
        raise GradeError("cannot evaluate a class with a grade-1 part")
    for name in sorted(expr.params_used()):
        if name not in bindings:
            raise UnboundParameterError(name)
    values = [Fraction(bindings.get(p, 0)) for p in PARAMS]
    total = expr.g0.eval_elems(values)
    for sym, coeff in expr.g2.items():
        if sym[0] == "delta":
            v = DIVISOR_DEGREES[sym[1]].eval_elems(values)
        elif sym[0] == "pair2":
            d = DIVISOR_DEGREES[sym[1]].eval_elems(values)
            v = d * (d - 1) / 2
        elif sym == ("pt",):
            v = Fraction(1)
        else:  # Delta0sq
            v = 1 - Fraction(bindings["g"])
        total += coeff.eval_elems(values) * v
    if total.denominator != 1:
        raise ChowError("degree is not an integer: %s" % total)
    return int(total)


# -- derivations ------------------------------------------------------------

# (c1, c2, twist) of the secant bundle: on the symmetric square of one curve
# ("single") and on the blown-up product of two curves ("pair")
COUNT_CLASSES = {
    "single": ("D[a] + Delta0", "pair2[a]", "D[a] + 2*Delta0"),
    "pair": ("A1xC2 + C1xA2 - sumF", "A1xC2*C1xA2", "A1xC2 + C1xA2 - 2*sumF"),
}


def count_class(case, log=None):
    """Second Chern class of the twisted secant bundle,
    c2 + c1*twist + twist*twist, for ``case`` "single" or "pair"."""
    c1, c2, twist = (parse(text, log) for text in COUNT_CLASSES[case])
    return c2 + c1.mul(twist, log) + twist.mul(twist, log)


def _derive(case, bindings):
    log = []
    cls = count_class(case, log)
    trace = ["%s = %s" % pair
             for pair in zip(("c1", "c2", "twist"), COUNT_CLASSES[case])]
    trace.append("count class = c2 + c1*twist + twist*twist")
    trace += ["rewrite: " + rule for rule in log]
    trace.append("normal form: " + cls.to_str())
    value = evaluate(cls, bindings)
    trace.append("evaluate at %s: %d" % (
        ", ".join("%s=%d" % kv for kv in bindings.items()), value))
    return value, trace


def derive_secant_count(e, g):
    """Secant-line count of a degree-e genus-g curve, with a rewrite trace."""
    return _derive("single", {"e": e, "g": g})


def derive_pair_count(e1, e2, r):
    """Secant-line count of a pair of curves meeting at r points."""
    return _derive("pair", {"e1": e1, "e2": e2, "r": r})


# -- degree checks for the 1-cycle relations --------------------------------

RELATION_RANGES = {
    "4.1": {"e": range(2, 13), "g": range(0, 11)},
    "4.2": {"e1": range(1, 9), "e2": range(1, 9), "r": range(0, 5)},
    "4.3": {"e": range(2, 13)},
}


def relation_degree_check(relation, ranges=None):
    """Verify deg(LHS) == 3 * (hyperplane-section coefficient) for one of
    the three 1-cycle relations, over a grid of parameters.

    ``ranges`` overrides the default range of some of the relation's
    parameters; a name the relation does not have, or an empty range,
    raises ValueError.
    """
    defaults = RELATION_RANGES[relation]
    for name, span in (ranges or {}).items():
        if name not in defaults:
            raise ValueError("relation %s has no parameter %r" % (relation, name))
        if not span:
            raise ValueError("range for %s is empty" % name)
    ranges = dict(defaults, **(ranges or {}))
    rows = []
    if relation == "4.1":
        cls = count_class("single")
        for e in ranges["e"]:
            for g in ranges["g"]:
                lhs = (2 * e - 3) * e + evaluate(cls, {"e": e, "g": g})
                rhs = 3 * ((e - 1) * (3 * e - 4) // 2 - 2 * g)
                rows.append({"params": {"e": e, "g": g},
                             "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    elif relation == "4.2":
        cls = count_class("pair")
        for e1 in ranges["e1"]:
            for e2 in ranges["e2"]:
                for r in ranges["r"]:
                    count = evaluate(cls, {"e1": e1, "e2": e2, "r": r})
                    lhs = 2 * e2 * e1 + 2 * e1 * e2 + count
                    rhs = 3 * (3 * e1 * e2 - 2 * r)
                    rows.append({"params": {"e1": e1, "e2": e2, "r": r},
                                 "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    else:  # 4.3
        for e in ranges["e"]:
            lhs = (2 * e - 1) + 2 * e + (5 * e - 5)
            rhs = 3 * (3 * e - 2)
            rows.append({"params": {"e": e},
                         "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    return {"relation": relation, "rows": rows,
            "passed": all(row["ok"] for row in rows)}
