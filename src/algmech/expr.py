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

Every tree walk (printing, :func:`variables`, :func:`cached_derivative`, and
each evaluation mode of :mod:`algmech.jets`) is one loop over :func:`postorder`,
an explicit-stack post-order pruned by the caller's memo, with one rule per
node kind chosen by the node's type.  The parser keeps explicit stacks too, so
no depth of nesting is limited by Python's call stack.

A :class:`Solve` is component ``index`` of the solution of G x = b, sharing
one :class:`System` node (operands: G row by row, then b) with the others.
Its derivative, d(G^-1 b) = G^-1 (db - dG G^-1 b) (Giles, "An extended
collection of matrix derivative results for forward and reverse mode AD",
2008), is a system on the same G, built once per system and name, so an
evaluator factorises each G once.

:data:`FUNCTIONS` is the one table of elementary functions (f, f' and the
derivative-tree rule); the parser, :func:`cached_derivative`, every
evaluation mode of :class:`~algmech.jets.SampleEvaluator` and the compiled
RK4 loop read it.

Derivative trees apply light constant folding (0/1 absorption) so repeated
differentiation stays compact; folding never changes the value of any
expression at any point.  :func:`e_dot` is the one constructor of a sum of
products (every index contraction of the package): it skips a term with a
constant-zero factor, 0.0 or -0.0, before building any of it, which for
terms of two or more factors gives the tree that folding it would.
Derivatives are memoised by node identity, so a subtree shared in the input
is differentiated once and its derivative is shared in the output:
:func:`differentiate` keeps a memo for one call, and
:func:`cached_derivative` takes a memo that the caller keeps across calls
(each :class:`~algmech.algebroid.Algebroid` owns one for its system), and
walks only the subtrees that contain the variable, by the support :func:`variables` reads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence, Union

from . import linalg
from .errors import ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "System",
    "Solve",
    "FUNCTIONS",
    "parse_expression",
    "postorder",
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
    "e_dot",
    "solve",
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


@dataclass(frozen=True, eq=False)
class System:
    """G x = b, G (``matrix``) a tuple of rows that callers keep (evaluators
    factorise it once, by identity); ``solution``: a :class:`Solve` each."""

    matrix: tuple[tuple["Expr", ...], ...]
    rhs: tuple["Expr", ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", (*(g for row in self.matrix for g in row), *self.rhs))
        object.__setattr__(self, "solution", tuple(Solve(self, i) for i in range(len(self.rhs))))


@dataclass(frozen=True, slots=True)
class Solve:
    """Component ``index`` of the solution of ``system``."""

    system: System
    index: int


Expr = Union[Num, Var, Neg, BinOp, Call, Solve]

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
        mo = _IDENT_RE.match(source, i)  # ASCII only: other letters are unexpected
        if mo is not None:
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


# binding powers; "neg" is unary minus, and ^ alone is right-associative
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def parse_expression(source: str, coords: Sequence[str]) -> Expr:
    """Parse ``source`` against the declared coordinate names.

    Raises :class:`ExprSyntaxError` with the byte offset of the problem, or
    :class:`UnknownIdentifierError` if an identifier is not a declared
    coordinate (the names in :data:`FUNCTIONS` are reserved when followed by
    ``(``).

    Precedence climbing over two explicit stacks, the finished operands and
    the pending operators and open groups, so any nesting depth parses; the
    tree is the one the grammar above derives, operators of equal precedence
    grouped left to right (``^`` right to left).
    """
    known = frozenset(coords)
    tokens = _tokenize(source)

    def fail(message: str, index: int):
        raise ExprSyntaxError(message, _byte_offset(source, index))

    def reduce(limit: int) -> None:
        while pending and _PREC.get(pending[-1], 0) >= limit:
            op = pending.pop()
            if op == "neg":
                operands[-1] = Neg(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = BinOp(op, operands[-1], right)

    if tokens[0][0] == "end":
        fail("empty expression", tokens[0][2])
    operands: list[Expr] = []
    pending: list[str] = []  # operators, "neg", and open groups: "(" or a function name
    pos = 0
    while True:  # operand position: unary minus, an open group, or an atom
        kind, text, index = tokens[pos]
        pos += 1
        if kind in ("-", "("):
            pending.append("neg" if kind == "-" else "(")
            continue
        if kind == "ident" and text in FUNCTIONS and tokens[pos][0] == "(":
            pending.append(text)
            pos += 1
            continue
        if kind == "num":
            value = float(text)
            if value != value or value in (float("inf"), float("-inf")):
                fail("numeric literal overflows a double", index)
            operands.append(Num(value))
        elif kind == "ident":
            if text not in known:
                raise UnknownIdentifierError(text, _byte_offset(source, index))
            operands.append(Var(text))
        else:
            fail(f"unexpected token {text!r}" if text else "unexpected end of input", index)
        while True:  # operator position: a binary operator, a ")", or the end
            kind, text, index = tokens[pos]
            pos += 1
            prec = _PREC.get(kind)
            if prec is not None:
                reduce(prec + 1 if kind == "^" else prec)
                pending.append(kind)
                break
            reduce(1)
            if not pending:
                if kind != "end":
                    fail(f"unexpected trailing input {text!r}", index)
                return operands[0]
            group = pending.pop()
            if kind != ")":
                after = "" if group == "(" else f" after argument of {group}"
                fail(f"expected ')'{after}", index)
            if group != "(":
                operands[-1] = Call(group, operands[-1])


# ---------------------------------------------------------------------------
# Traversal and printing
# ---------------------------------------------------------------------------

_EXIT = object()  # stack marker: the node below it has had its children walked


def postorder(root: Expr, done: Container[int]) -> Iterator[Expr]:
    """Every node under ``root`` whose ``id`` is not in ``done``, children
    before parents and the left child first (a :class:`System` under each
    :class:`Solve`), from an explicit stack.

    ``done`` is the caller's memo, read lazily: a node is skipped, with its
    subtree, if its id is in ``done`` when the walk reaches it, so a caller
    that records each node it is handed sees each shared node once, and one
    that records nothing (``done=()``) sees every occurrence.
    """
    stack = [root]
    pop = stack.pop
    while stack:
        e = pop()
        if e is _EXIT:
            yield pop()
        elif id(e) not in done:
            t = type(e)
            if t is BinOp:
                stack += (e, _EXIT, e.right, e.left)
            elif t is Neg or t is Call:
                stack += (e, _EXIT, e.operand)
            elif t is Solve:
                stack += (e, _EXIT, e.system)
            elif t is System:
                stack += (e, _EXIT, *reversed(e.operands))
            else:
                yield e


# A printed operand is parenthesized when its precedence (``_PREC``, 9 for an
# atom) is below what its position requires: the (left, right) minimum of
# each binary operator.
_OPERAND_PREC = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (9, 3)}


def _wrapped(part: tuple[str, int], ctx: int) -> str:
    text, prec = part
    return "(" + text + ")" if prec < ctx else text


def to_source(e: Expr) -> str:
    """Print a tree so that re-parsing yields a structurally identical tree.

    (For parsed trees this is exact; folded constants may print a negative
    literal, which re-parses as a unary minus of equal value.  A solve prints
    as ``solve([[G row], ...], [b])[index]``, which the grammar does not
    parse.)
    """
    parts: list[tuple[str, int]] = []  # (source, precedence) of the pending operands
    for n in postorder(e, ()):
        t = type(n)
        if t is System:
            m, texts = len(n.rhs), [text for text, _ in parts[-len(n.operands) :]]
            del parts[-len(n.operands) :]
            rows = ", ".join(f"[{', '.join(texts[i : i + m])}]" for i in range(0, m * m, m))
            parts.append((f"solve([{rows}], [{', '.join(texts[m * m :])}])", 9))
        elif t is Solve:
            parts[-1] = (f"{parts[-1][0]}[{n.index}]", 9)
        elif t is BinOp:
            right = parts.pop()
            lc, rc = _OPERAND_PREC[n.op]
            text = _wrapped(parts[-1], lc) + n.op + _wrapped(right, rc)
            parts[-1] = (text, _PREC[n.op])
        elif t is Num:
            parts.append((repr(n.value), 3 if n.value < 0 else 9))  # -x prints like a unary minus
        elif t is Var:
            parts.append((n.name, 9))
        elif t is Neg:
            parts[-1] = ("-" + _wrapped(parts[-1], 3), 3)
        else:
            parts[-1] = (f"{n.func}({parts[-1][0]})", 9)
    return parts[0][0]


def variables(e: Expr, supports: dict | None = None) -> frozenset[str]:
    """All identifiers occurring in the tree: its support, read from
    ``supports`` (see :func:`cached_derivative`), or a new memo if None."""
    return _support(e, {} if supports is None else supports)[2]


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


def e_dot(terms: Iterable[Sequence[Expr]]) -> Expr:
    """The sum of products ``t[0] * t[1] * ...`` over the ``terms``, added
    from ``ZERO`` in order with :func:`e_add`, each multiplied left to right
    with :func:`e_mul`.  A term with a constant-zero factor (0.0 or -0.0) is
    skipped unbuilt and folded as adding ``ZERO`` folds: for terms of two or
    more factors this is the tree :func:`e_sum` of the products builds, but a
    lone ``Num(-0.0)`` term counts as ``ZERO``."""
    acc: Expr = ZERO
    for factors in terms:
        for f in factors:
            if type(f) is Num and f.value == 0.0:
                if _is_const(acc, 0.0):  # e_add's fold of a ZERO product
                    acc = ZERO
                break
        else:
            p = factors[0]
            for f in factors[1:]:
                p = e_mul(p, f)
            acc = e_add(acc, p)
    return acc


def solve(matrix: tuple[tuple[Expr, ...], ...], rhs: Sequence[Expr]) -> tuple[Expr, ...]:
    """The solution components of ``matrix`` x = ``rhs``, ``matrix`` a tuple
    the caller keeps: zeros for a zero ``rhs``; for a regular matrix of
    constants, the sums ``inv[i][k] * rhs[k]`` in the order a solve adds
    them; for a diagonal matrix, the quotients ``rhs[i] / matrix[i][i]``;
    else the :class:`Solve` nodes of a new :class:`System`."""
    if all(_is_const(b, 0.0) for b in rhs):
        return (ZERO,) * len(rhs)
    if all(type(g) is Num for row in matrix for g in row):
        inv, k = linalg.inverse([[[g.value for g in row] for row in matrix]])
        if k:  # regular
            return tuple(e_dot(zip(map(Num, row), rhs)) for row in inv[0].tolist())
    if all(_is_const(g, 0.0) for i, row in enumerate(matrix) for g in row[:i] + row[i + 1 :]):
        return tuple(e_div(b, row[i]) for i, (row, b) in enumerate(zip(matrix, rhs)))
    return System(matrix, tuple(rhs)).solution


# ---------------------------------------------------------------------------
# Elementary functions and derivative construction
# ---------------------------------------------------------------------------


class Elementary(NamedTuple):
    """f and f' on floats (math's errors mark the domain); rule(x, dx) = d f(x)."""

    f: Callable[[float], float]
    d1: Callable[[float], float]
    rule: Callable[[Expr, Expr], Expr]


FUNCTIONS: dict[str, Elementary] = {
    "sin": Elementary(math.sin, math.cos, lambda x, dx: e_mul(Call("cos", x), dx)),
    "cos": Elementary(math.cos, lambda v: -math.sin(v),
                      lambda x, dx: e_neg(e_mul(Call("sin", x), dx))),
    "exp": Elementary(math.exp, math.exp, lambda x, dx: e_mul(Call("exp", x), dx)),
    "ln": Elementary(math.log, lambda v: 1.0 / v, lambda x, dx: e_div(dx, x)),
    "sqrt": Elementary(math.sqrt, lambda v: 0.5 / math.sqrt(v),
                       lambda x, dx: e_div(dx, e_mul(Num(2.0), Call("sqrt", x)))),
}


def _support(e: Expr, supports: dict) -> tuple:
    """``supports[id(e)]``, filled in under ``e`` by one post-order: (node, its
    derivative by any variable it lacks, ``ZERO`` or ``Num(-0.0)`` alike for all
    as the rules read the variable only at a ``Var``, the variables it has)."""
    for n in postorder(e, supports):
        t = type(n)
        if t is BinOp:  # e_add of two zeros gives the right one, e_sub the left; * / ^ zero each term
            _, ca, va = supports[id(n.left)]
            _, cb, vb = supports[id(n.right)]
            c = cb if n.op == "+" else ca if n.op == "-" else ZERO
            v = va if vb <= va else vb if va <= vb else va | vb  # shared where one holds both
        elif t is Var or t is Num:
            c, v = ZERO, frozenset((n.name,) if t is Var else ())
        elif t is Solve:
            c, v = ZERO, supports[id(n.system)][2]
        elif t is System:
            c, v = None, frozenset().union(*(supports[id(o)][2] for o in n.operands))
        else:
            _, c, v = supports[id(n.operand)]
            c = e_neg(c) if t is Neg else FUNCTIONS[n.func].rule(n.operand, c)
        supports[id(n)] = (n, c, v)
    return supports[id(e)]


class _Derivatives(dict):
    """One variable's derivative memo for the nodes that contain it: the walk
    skips any other node (``in``), read as its ``supports`` entry (item 1)."""

    def __contains__(self, key) -> bool:
        return dict.__contains__(self, key) or self.name not in self.supports[key][2]

    def __missing__(self, key):
        return self.supports[key]


def differentiate(e: Expr, name: str) -> Expr:
    """Partial derivative tree with respect to the named coordinate."""
    return cached_derivative(e, name, {}, {})


def cached_derivative(e: Expr, name: str, memo: dict, supports: dict) -> Expr:
    """:func:`differentiate` through caller-owned memos: ``supports`` (see
    ``_support``) and ``memo``, which maps ``name`` to the post-order's memo of
    that derivative, ``id(node)`` to ``(node, derivative)``, for the nodes that
    contain ``name``: no other subtree is walked.  A stored node keeps its id
    from being reused while the entry lives.  An entry only ever receives a
    structurally identical tree, so concurrent writers agree.
    """
    _, c, v = _support(e, supports)
    if name not in v:
        return c
    done = memo.get(name)
    if done is None:
        done = _Derivatives()
        done.name, done.supports = name, supports
        memo[name] = done
    for n in postorder(e, done):
        t = type(n)
        if t is BinOp:
            da = done[id(n.left)][1]
            db = done[id(n.right)][1]
            op = n.op
            if op == "+":
                r = e_add(da, db)
            elif op == "-":
                r = e_sub(da, db)
            elif op == "*":
                r = e_add(e_mul(da, n.right), e_mul(n.left, db))
            elif op == "/":
                r = e_div(e_sub(e_mul(da, n.right), e_mul(n.left, db)), e_mul(n.right, n.right))
            elif (c := literal_value(n.right)) is not None:  # constant exponent
                r = e_mul(e_mul(n.right, e_pow(n.left, Num(c - 1.0))), da)
            else:  # general exponent: a^b * (db*ln(a) + b*da/a)
                log_term = e_mul(db, Call("ln", n.left))
                r = e_mul(n, e_add(log_term, e_div(e_mul(n.right, da), n.left)))
        elif t is Var:  # the variable itself: no other leaf is walked
            r = ONE
        elif t is Neg:
            r = e_neg(done[id(n.operand)][1])
        elif t is Solve:
            r = done[id(n.system)][1][n.index]
        elif t is System:  # G^-1 (db - dG x), x this system's solution
            dG = ([done[id(g)][1] for g in row] for row in n.matrix)
            dGx = (e_dot(zip(ds, n.solution)) for ds in dG)
            r = solve(n.matrix, [e_sub(done[id(b)][1], d) for b, d in zip(n.rhs, dGx)])
        else:
            r = FUNCTIONS[n.func].rule(n.operand, done[id(n.operand)][1])
        done[id(n)] = (n, r)
    return done[id(e)][1]
