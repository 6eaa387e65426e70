"""Scalar expression trees: parsing, printing, and derivative construction.

Grammar (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-" factor) | power
    power  := atom ("^" factor)?
    atom   := number | ident | func "(" expr ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "ln" | "sqrt"

so ``^`` binds tighter than unary minus and is right-associative, and
``-x^2`` means ``-(x^2)``.  Trees are immutable; identical sub-objects may be
shared freely, which the evaluators exploit for memoisation.

:data:`FUNCTIONS` is the one table of elementary functions (f, f', f'' and
the derivative-tree rule); the parser, :func:`cached_derivative` and every
evaluation mode of :class:`~algmech.jets.PointEvaluator` read it.

Derivative trees apply light constant folding (0/1 absorption) so repeated
differentiation stays compact; folding never changes the value of any
expression at any point.  Derivatives are memoised by node identity, so a
subtree shared in the input is differentiated once and its derivative is
shared in the output: :func:`differentiate` keeps a memo for one call, and
:func:`cached_derivative` takes a memo that the caller keeps across calls
(each :class:`~algmech.algebroid.Algebroid` owns one for its system).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "parse_expression",
    "to_source",
    "variables",
    "literal_value",
    "differentiate",
    "cached_derivative",
    "e_num",
    "e_add",
    "e_sub",
    "e_mul",
    "e_div",
    "e_neg",
    "e_pow",
    "e_sum",
    "ZERO",
    "ONE",
]

@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    operand: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

ZERO = Num(0.0)
ONE = Num(1.0)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            mo = _NUM_RE.match(source, i)
            if mo is None:
                raise ExprSyntaxError("malformed number", _byte_offset(source, i))
            tokens.append(("num", mo.group(), i))
            i = mo.end()
            continue
        if ch.isalpha() or ch == "_":
            mo = _IDENT_RE.match(source, i)
            tokens.append(("ident", mo.group(), i))
            i = mo.end()
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(source, i))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, coords: frozenset[str]):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.coords = coords

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, message: str, index: int):
        raise ExprSyntaxError(message, _byte_offset(self.source, index))

    def parse(self) -> Expr:
        kind, _, index = self._peek()
        if kind == "end":
            self._fail("empty expression", index)
        node = self.expr()
        kind, text, index = self._peek()
        if kind != "end":
            self._fail(f"unexpected trailing input {text!r}", index)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self._peek()[0] in ("+", "-"):
            op = self._take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._peek()[0] in ("*", "/"):
            op = self._take()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self._peek()[0] == "-":
            self._take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self._peek()[0] == "^":
            self._take()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, index = self._take()
        if kind == "num":
            value = float(text)
            if value != value or value in (float("inf"), float("-inf")):
                self._fail("numeric literal overflows a double", index)
            return Num(value)
        if kind == "ident":
            if text in FUNCTIONS and self._peek()[0] == "(":
                self._take()
                inner = self.expr()
                k, t, i = self._take()
                if k != ")":
                    self._fail(f"expected ')' after argument of {text}", i)
                return Call(text, inner)
            if text not in self.coords:
                raise UnknownIdentifierError(text, _byte_offset(self.source, index))
            return Var(text)
        if kind == "(":
            inner = self.expr()
            k, t, i = self._take()
            if k != ")":
                self._fail("expected ')'", i)
            return inner
        self._fail(f"unexpected token {text!r}" if text else "unexpected end of input", index)


def parse_expression(source: str, coords: Sequence[str]) -> Expr:
    """Parse ``source`` against the declared coordinate names.

    Raises :class:`ExprSyntaxError` with the byte offset of the problem, or
    :class:`UnknownIdentifierError` if an identifier is not a declared
    coordinate (the names in :data:`FUNCTIONS` are reserved when followed by
    ``(``).
    """
    return _Parser(source, frozenset(coords)).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence: + - (1), * / (2), unary - (3), ^ (4), atoms (9).  A node is
# parenthesized when its precedence is below what the position requires.


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[e.op]
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Num) and e.value < 0:
        return 3  # prints with a leading minus
    return 9


def _fmt(e: Expr, ctx: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Neg):
        s = "-" + _fmt(e.operand, 3)
    elif isinstance(e, Call):
        return f"{e.func}({_fmt(e.operand, 0)})"
    elif e.op == "^":
        s = _fmt(e.left, 9) + "^" + _fmt(e.right, 3)
    elif e.op in "*/":
        s = _fmt(e.left, 2) + e.op + _fmt(e.right, 3)
    else:
        s = _fmt(e.left, 1) + e.op + _fmt(e.right, 2)
    if _prec(e) < ctx:
        return "(" + s + ")"
    return s


def to_source(e: Expr) -> str:
    """Print a tree so that re-parsing yields a structurally identical tree.

    (For parsed trees this is exact; folded constants may print a negative
    literal, which re-parses as a unary minus of equal value.)
    """
    return _fmt(e, 0)


def variables(e: Expr) -> frozenset[str]:
    """All identifiers occurring in the tree."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Neg, Call)):
        return variables(e.operand)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    return frozenset()


def literal_value(e: Expr) -> float | None:
    """The value of a numeric literal: a ``Num``, or the ``Neg`` of one (the
    parser reads ``x^-2`` as ``x ^ Neg(2)``); None for any other tree."""
    if isinstance(e, Neg) and isinstance(e.operand, Num):
        return -e.operand.value
    return e.value if isinstance(e, Num) else None


# ---------------------------------------------------------------------------
# Folding constructors
# ---------------------------------------------------------------------------


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def e_num(v: float) -> Num:
    return Num(float(v))


def e_add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def e_sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return e_neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def e_mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def e_div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def e_neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def e_pow(base: Expr, exponent: Expr) -> Expr:
    if _is_const(exponent, 1.0):
        return base
    if _is_const(exponent, 0.0):
        return ONE
    return BinOp("^", base, exponent)


def e_sum(terms: Iterable[Expr]) -> Expr:
    acc: Expr = ZERO
    for t in terms:
        acc = e_add(acc, t)
    return acc


# ---------------------------------------------------------------------------
# Elementary functions and derivative construction
# ---------------------------------------------------------------------------


class Elementary(NamedTuple):
    """f, f', f'' on floats (math's errors mark the domain); rule(x, dx) = d f(x)."""

    f: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    rule: Callable[[Expr, Expr], Expr]


FUNCTIONS: dict[str, Elementary] = {
    "sin": Elementary(math.sin, math.cos, lambda v: -math.sin(v),
                      lambda x, dx: e_mul(Call("cos", x), dx)),
    "cos": Elementary(math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v),
                      lambda x, dx: e_neg(e_mul(Call("sin", x), dx))),
    "exp": Elementary(math.exp, math.exp, math.exp,
                      lambda x, dx: e_mul(Call("exp", x), dx)),
    "ln": Elementary(math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v),
                     lambda x, dx: e_div(dx, x)),
    "sqrt": Elementary(math.sqrt, lambda v: 0.5 / math.sqrt(v),
                       lambda v: -0.25 / (math.sqrt(v) * v),
                       lambda x, dx: e_div(dx, e_mul(Num(2.0), Call("sqrt", x)))),
}


def differentiate(e: Expr, name: str) -> Expr:
    """Partial derivative tree with respect to the named coordinate."""
    return cached_derivative(e, name, {})


def cached_derivative(e: Expr, name: str, memo: dict) -> Expr:
    """:func:`differentiate` through a caller-owned memo.

    ``memo`` maps ``(id(node), name)`` to ``(node, derivative)``; the stored
    node keeps its id from being reused while the entry lives.  An entry only
    ever receives a structurally identical tree, so concurrent writers agree.
    Leaves are answered without an entry.
    """
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    key = (id(e), name)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(e, Neg):
        r = e_neg(cached_derivative(e.operand, name, memo))
    elif isinstance(e, Call):
        r = FUNCTIONS[e.func].rule(e.operand, cached_derivative(e.operand, name, memo))
    else:
        da = cached_derivative(e.left, name, memo)
        db = cached_derivative(e.right, name, memo)
        if e.op == "+":
            r = e_add(da, db)
        elif e.op == "-":
            r = e_sub(da, db)
        elif e.op == "*":
            r = e_add(e_mul(da, e.right), e_mul(e.left, db))
        elif e.op == "/":
            r = e_div(
                e_sub(e_mul(da, e.right), e_mul(e.left, db)), e_mul(e.right, e.right)
            )
        elif (c := literal_value(e.right)) is not None:  # constant exponent
            r = e_mul(e_mul(e.right, e_pow(e.left, Num(c - 1.0))), da)
        else:  # general exponent: a^b * (db*ln(a) + b*da/a)
            r = e_mul(
                e,
                e_add(e_mul(db, Call("ln", e.left)), e_div(e_mul(e.right, da), e.left)),
            )
    memo[key] = (e, r)
    return r
