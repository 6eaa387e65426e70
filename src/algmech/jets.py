"""Jets: exact values and gradients of expressions.

A :class:`Jet` over ``k`` coordinates carries ``(value, grad)``, a (P, 1)
value column over P samples and its (P, k) gradient.  All arithmetic
propagates the gradient exactly (no numeric differencing): first-order
forward mode, which is all the semispray, the connection, nabla and the
Jacobi endomorphism read (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., 2008, ch. 3).  A second derivative is the jet of a derivative tree.

Trees are evaluated by one rule table, written once: one loop over
:func:`~algmech.expr.postorder` with one branch per node kind, which holds
the kind's value form and its jet form side by side, reading a node's
operands from the memo of its mode, so shared subtrees are visited once and
a tree of any depth evaluates.  A :class:`~algmech.expr.System` applies
its matrix's inverse (:meth:`SampleEvaluator.inverse`, once per evaluator
and matrix), with jets dx = G^-1 (db - dG x); a
:class:`~algmech.expr.Solve` picks a component.  A math error in a rule
becomes an :class:`EvaluationDomainError` naming the subexpression.

:class:`SampleEvaluator` runs the rules at a sample set on (P, 1) float64
columns, which :class:`Jet`'s arithmetic broadcasts against (P, k)
gradients, and hands out (P,) values (``value``) and jets (``jet``).  A
point is a sample set of one (:meth:`~algmech.algebroid.Algebroid.evaluator`),
so every quantity has a leading sample axis.  A jet's value can differ from
``value`` in the last bit (``a/b`` is ``a * (1/b)`` in jet arithmetic), so
callers comparing a value with a gradient read both from one jet.  Every
quantity takes the caller's evaluator
(:meth:`~algmech.algebroid.Algebroid.sample_evaluator`), so they share its
memo; :meth:`SampleEvaluator.array` keeps arrays of trees.

:class:`Lowering` is the one lowering of trees to straight-line Python:
one statement per unique inner node, each the walker's own float operation,
so compiled code gets ``value``'s bits, bit for bit, at any point.  The RK4
loop of :func:`~algmech.lagrangian.integrate_sode` is built on it: it
inlines the statements of the flow four times per step, and those of the
energy once, into one compiled loop over every step.  A batch and compiled
code get the same bits for every node kind, solves included.  Compiled code
formats no errors: a walk of the trees that raised, at their inputs, names it.
Integer powers come from one routine, :func:`int_power`, so their cost
grows with log2 of the exponent; compiled code writes its products out for
exponents up to 3 in size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import linalg
from .errors import EvaluationDomainError, SingularMetricError
from .expr import FUNCTIONS, BinOp, Expr, Neg, Num, Solve, System, Var, literal_value, postorder

__all__ = ["EvalPoint", "Jet", "Lowering", "SampleEvaluator", "int_power"]


@dataclass(frozen=True)
class EvalPoint:
    """A point of the total space: base coordinates ``x``, fiber coordinates ``y``."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    @staticmethod
    def of(x: Sequence[float], y: Sequence[float]) -> "EvalPoint":
        return EvalPoint(tuple(float(v) for v in x), tuple(float(v) for v in y))

    def values(self) -> tuple[float, ...]:
        return self.x + self.y

    def __str__(self) -> str:
        return f"(x={list(self.x)}, y={list(self.y)})"


class Jet:
    """Truncated Taylor data of a scalar quantity to first order: a value
    and its gradient.  The value may be a (P, 1) column over a (P, k)
    gradient: every operation broadcasts, giving each row the bits of the
    scalar jet."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: np.ndarray):
        self.value = value
        self.grad = grad

    def __add__(self, o: "Jet") -> "Jet":
        return Jet(self.value + o.value, self.grad + o.grad)

    def __sub__(self, o: "Jet") -> "Jet":
        return Jet(self.value - o.value, self.grad - o.grad)

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.grad)

    def __mul__(self, o: "Jet") -> "Jet":
        return Jet(self.value * o.value, self.value * o.grad + o.value * self.grad)

    def chain(self, f0, f1) -> "Jet":
        """Compose with a scalar function given f(v) and f'(v)."""
        return Jet(f0, f1 * self.grad)

    def reciprocal(self) -> "Jet":
        v = self.value
        return self.chain(1.0 / v, -1.0 / (v * v))

    def __truediv__(self, o: "Jet") -> "Jet":
        return self * o.reciprocal()


def int_power(a, k: int, one):
    """``a^k`` for an integer ``k >= 0`` and any ``a`` with ``*`` (floats and
    jets alike), by binary exponentiation from the leading bit: a square per
    further bit, times ``a`` where the bit is set, so at most 2 log2(k)
    products; ``one`` is the result for ``k = 0``.  Up to ``k = 3`` this is
    ``a*a`` and ``(a*a)*a``, the products of repeated multiplication."""
    if k == 0:
        return one
    r = a
    for bit in bin(k)[3:]:
        r = r * r
        if bit == "1":
            r = r * a
    return r


# math's errors, and numpy's division by zero, which a batch raises
_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)


def _domain_error(what: str, at: str, node: Expr, err: Exception) -> EvaluationDomainError:
    """The guard: the domain error for a math error raised by ``what`` at ``at``."""
    verb = "overflows" if isinstance(err, OverflowError) else "is undefined"
    return EvaluationDomainError(f"{what} {verb} at {at}", node)


def _integer_exponent(node: BinOp) -> int | None:
    """The exponent of a ``^`` node when it is a literal integer of size up
    to 1e6 (an integer power, defined for every nonzero base), else None."""
    c = literal_value(node.right)
    if c is not None and abs(c) <= 1_000_000 and c == int(c):
        return int(c)
    return None


def _power(a, c, k: int | None, one=1.0):
    """``a^c`` as every value path computes it: :func:`int_power` of ``|k|``
    (``one`` over it for ``k < 0``) for an integer exponent ``k`` (see
    ``_integer_exponent``), else ``exp(c ln a)``; the rules apply that exp and
    ln per element (``_ELEMENTWISE``), so only compiled code runs this float
    form.  Outside the domain math's own errors signal it: ``ln`` of a
    non-positive base, or ``1/0`` for a zero base and ``k < 0``."""
    if k is None:
        return math.exp(c * math.log(a))
    r = int_power(a, abs(k), one)
    return one / r if k < 0 else r


def _dot(row, items):
    """``row[0] * items[0] + row[1] * items[1] + ...`` in order, on floats,
    columns and gradients alike: how a solve applies an inverse."""
    r = row[0] * items[0]
    for c, v in zip(row[1:], items[1:]):
        r = r + c * v
    return r


def _each(f, column: np.ndarray) -> np.ndarray:
    """``f`` applied per element to Python floats."""
    out = np.fromiter(map(f, column.ravel().tolist()), float, column.size)
    return out.reshape(column.shape)


# FUNCTIONS with f and f' applied per element: numpy's exp and log do not
# always round as math's do (on x86-64 with AVX-512 they differed on 4.6% and
# 0.16% of inputs, while sin, cos and sqrt matched)
_ELEMENTWISE = {
    name: fn._replace(f=partial(_each, fn.f), d1=partial(_each, fn.d1))
    for name, fn in FUNCTIONS.items()
}


def _operand(x: np.ndarray) -> str:
    """An operand as an error names it: its first element as a Python float,
    the failing one in a batch of one (a larger batch's error is replaced by
    that of its failing sample, walked as a batch of one)."""
    return repr(float(x.flat[0]))


def identity_memo(memo: dict, build, owner, args: tuple):
    """``build(owner, *args)``, computed once per ``memo``, ``build`` and
    tuple of argument objects, keyed by their identity: the entry keeps
    ``args`` alive, so their ids are never reused."""
    key = (build, *map(id, args))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (args, build(owner, *args))
    return hit[1]


def _table(ev, *args) -> dict:
    return {}


def _read_only(column: np.ndarray) -> np.ndarray:
    """A (P, 1) memo column as the read-only (P,) array handed out."""
    out = column[:, 0]
    out.flags.writeable = False
    return out


def _head_rows(r, k: int):
    """The first ``k`` rows of a memo entry: arrays (columns, gradients, a
    matrix's dG or inverse) have the sample axis second to last."""
    t = type(r)
    if t is Jet:
        return Jet(r.value[:k], r.grad[:k])
    if t is list or t is tuple:
        return t(_head_rows(c, k) for c in r)
    return r[..., :k, :]


class _Head(dict):
    """A memo over a parent evaluator's first rows: a parent entry is sliced
    (``rows``) and kept when it is first read."""

    def __init__(self, parent: dict, rows):
        super().__init__()
        self.parent, self.rows = parent, rows

    def __missing__(self, key):
        hit = self.parent[key]
        hit = self[key] = (hit[0], self.rows(hit[1]))
        return hit

    def __contains__(self, key) -> bool:
        return dict.__contains__(self, key) or key in self.parent

    def get(self, key, default=None):
        return self[key] if key in self else default


class SampleEvaluator:
    """Evaluates trees at P sample points at once, over a leading sample axis.

    ``value`` returns a (P,) array and ``jet`` a :class:`Jet` with a (P,)
    value and a (P, k) gradient; ``values_of`` and ``array`` put the sample
    axis first, and ``values`` is the (P, k) array of coordinates.  One loop
    runs the rules on (P, 1) columns, memoised per node in a memo per mode; a
    node's entry also keeps the read-only (P,) view or jet handed out for it,
    so every call for the node hands out that one object.

    Every row has the bits of the batch of one at its sample: ``+ - * /``,
    :func:`int_power` and solves run elementwise on float64, and elementary
    functions are ``FUNCTIONS``' own float functions applied per element.
    So :meth:`head` can hand its first rows' memo to an evaluator over its
    first points, as a report's sweep evaluator does for the frames.

    A singular solve matrix raises :class:`SingularMetricError` naming its
    first singular sample.  Where a rule raises
    :class:`EvaluationDomainError`, a batch of one appends its point; a
    larger batch walks its samples again in order, each as a batch of one,
    so the first failing one raises with its point.
    """

    def __init__(self, names: Sequence[str], points: Sequence[EvalPoint]):
        self.names = tuple(names)
        self.points = tuple(points)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.k = len(self.names)
        P = len(self.points)
        values = np.array([p.values() for p in self.points], dtype=float)
        self.values = values.reshape(P, self.k)
        columns = np.array(self.values.T)[..., None]
        for a in (self.values, columns):
            a.flags.writeable = False
        self._coords = tuple(columns)
        self._one = np.ones((P, 1))
        # memos of (node, result), a system's result its components (the node
        # keeps the id unique for the memo's lifetime; ``value`` and ``jet``
        # append what they handed out for the node)
        self._floats: dict[int, tuple] = {}
        self._jets: dict[int, tuple] = {}
        self._arrays: dict[int, tuple[tuple, np.ndarray]] = {}
        self._inverses: dict[int, tuple[tuple, tuple]] = {}
        self._derived: dict[tuple, tuple] = {}

    def value(self, e: Expr) -> np.ndarray:
        return self._hand_out(e, False)

    def jet(self, e: Expr) -> Jet:
        """The jets of ``e``: a (P,) value and a (P, k) gradient."""
        return self._hand_out(e, True)

    def _hand_out(self, e: Expr, jet: bool):
        """The read-only (P,) value or jet of ``e``, kept in its memo entry."""
        memo = self._jets if jet else self._floats
        hit = memo.get(id(e))  # a memo hit needs no errstate
        if hit is None:
            self._batch(e, jet)
            hit = memo[id(e)]
        if len(hit) == 2:  # computed by the rules, not handed out yet
            r = hit[1]
            if jet:
                r.grad.flags.writeable = False
            hit = memo[id(e)] = (e, r, Jet(_read_only(r.value), r.grad) if jet else _read_only(r))
        return hit[2]

    def values_of(self, exprs: Sequence[Expr]) -> np.ndarray:
        return np.stack([self.value(x) for x in exprs], axis=-1)

    def array(self, trees: tuple) -> np.ndarray:
        """Values of a nested tuple of trees, as a (P, *shape) array,
        computed once per evaluator: keyed by the identity of ``trees``,
        which the entry keeps alive, so callers pass a tuple they keep.
        Read-only, since every later reader gets the same array.  Constant
        entries are written in one operation, bits and all; only others are walked."""
        hit = self._arrays.get(id(trees))
        if hit is None:
            shape, flat = [], [trees]  # flattened a level at a time, row-major
            while flat and isinstance(flat[0], tuple):
                shape.append(len(flat[0]))
                flat = [u for t in flat for u in t]
            out = np.empty((len(self.points), len(flat)))
            live = [j for j, e in enumerate(flat) if type(e) is not Num]
            if len(live) < len(flat):  # the constants' row, broadcast: no walk, no memo entry
                out[:] = [e.value if type(e) is Num else 0.0 for e in flat]
            for j in live:
                out[:, j] = self.value(flat[j])
            out = out.reshape(len(self.points), *shape)
            out.flags.writeable = False
            hit = self._arrays[id(trees)] = (trees, out)
        return hit[1]

    def derived(self, build, *args):
        """``build(self, *args)``, computed once per evaluator and tuple of
        argument objects (:func:`identity_memo`): for what callers derive from
        this evaluator's outputs, such as a tree's anchored gradient."""
        return identity_memo(self._derived, build, self, args)

    def rows(self, build, args: tuple, items: Sequence) -> list:
        """``build(self, *args, items)``'s row for each of ``items``, kept
        per ``build``, ``args`` and item (by identity; the entry keeps the
        item alive): the items not seen yet take one stacked call."""
        table = self.derived(_table, build, *args)
        new = [x for x in items if id(x) not in table]
        if new:
            table.update((id(x), (x, row)) for x, row in zip(new, build(self, *args, new)))
        return [table[id(x)][1] for x in items]

    def head(self, k: int) -> "SampleEvaluator":
        """An evaluator over ``points[:k]`` whose memos of values, jets,
        arrays and inverses read this one's first ``k`` rows, each entry
        sliced when it is first read (every row has its batch of one's bits,
        so no number moves): only trees this evaluator has not walked are
        walked again.  What :meth:`derived` holds is not shared."""
        ev = SampleEvaluator(self.names, self.points[:k])
        rows = partial(_head_rows, k=k)
        ev._floats, ev._jets = _Head(self._floats, rows), _Head(self._jets, rows)
        ev._inverses, ev._arrays = _Head(self._inverses, rows), _Head(self._arrays, lambda a: a[:k])
        return ev

    def _batch(self, e: Expr, jet: bool):
        """``_walk(e, jet)`` with numpy's division by zero raised (not warned),
        so that a batch stops wherever a float division would raise; a domain
        error names its sample, found by walking each batch of one."""
        try:
            with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
                return self._walk(e, jet)
        except EvaluationDomainError as err:
            if len(self.points) == 1:
                raise err.at(self.points[0]) from err
            for p in self.points:
                SampleEvaluator(self.names, [p])._hand_out(e, jet)
            raise

    # -- the rules: one per node kind, its value and jet forms side by side ---

    def _walk(self, e: Expr, jet: bool):
        """The (P, 1) value column of ``e``, or its jet over (P, 1) value
        columns, in the memo of its mode."""
        memo = self._jets if jet else self._floats
        if id(e) in memo:
            return memo[id(e)][1]
        coords, index = self._coords, self.index
        for n in postorder(e, memo):
            t = type(n)
            if t is BinOp:
                a = memo[id(n.left)][1]
                b = memo[id(n.right)][1]
                op = n.op
                if op == "+":
                    r = a + b
                elif op == "-":
                    r = a - b
                elif op == "*":
                    r = a * b
                elif op == "/":
                    d = b.value if jet else b
                    if not d.all():
                        raise EvaluationDomainError("division by zero", n)
                    try:
                        r = a / b
                    except _MATH_ERRORS as err:  # jets, past the zero check: b^2 underflows
                        raise EvaluationDomainError(f"division overflows at divisor {_operand(d)}", n) from err
                else:
                    r = self._pow(n, a, b, jet)
            elif t is Num:
                r = n.value * self._one
                if jet:
                    r = self._seed(r, None)
            elif t is Var:
                i = index[n.name]
                r = self._seed(coords[i], i) if jet else coords[i]
            elif t is Neg:
                r = -memo[id(n.operand)][1]
            elif t is Solve:
                r = memo[id(n.system)][1][n.index]
            elif t is System:
                if jet:
                    r = self._solve_jets(n)
                else:
                    b = [memo[id(v)][1] for v in n.rhs]
                    r = [_dot(row, b) for row in self._inverse(n)[0]]
            else:
                a = memo[id(n.operand)][1]
                fn, v = _ELEMENTWISE[n.func], a.value if jet else a
                try:
                    r = a.chain(fn.f(v), fn.d1(v)) if jet else fn.f(v)
                except _MATH_ERRORS as err:
                    raise _domain_error(n.func, _operand(v), n, err) from err
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    def _seed(self, value: np.ndarray, i: int | None) -> Jet:
        """A leaf's jet: ``value`` with the gradient of coordinate ``i``, or
        of a constant for ``i = None``."""
        grad = np.zeros((len(self.points), self.k))
        if i is not None:
            grad[:, i] = 1.0
        return Jet(value, grad)

    def _pow(self, e: BinOp, a, b, jet: bool):
        """``e = a^b`` on value columns or jets, its base checked against the
        power's domain; a literal exponent is read from ``e``."""
        v = a.value if jet else a
        k = _integer_exponent(e)
        if k is None:
            if (v <= 0.0).any():
                raise EvaluationDomainError(f"non-integer power of non-positive base {_operand(v)}", e)
        elif k < 0 and not v.all():
            raise EvaluationDomainError("zero base with negative exponent", e)
        exp, ln = _ELEMENTWISE["exp"], _ELEMENTWISE["ln"]
        try:
            if k is not None and k >= 0:
                return int_power(a, k, self._seed(self._one, None) if jet else self._one)
            if k is not None:
                # value's bits, and the chain rule on the base, where the
                # reciprocal of a^|k| would square it and underflow
                f0 = _power(v, None, k, self._one)
                return a.chain(f0, k * f0 / v) if jet else f0
            if not jet:  # a^b = exp(b ln a)
                return exp.f(b * ln.f(a))
            c = literal_value(e.right)
            if c is not None:
                f0 = exp.f(c * ln.f(v))
                return a.chain(f0, c * f0 / v)
            u = b * a.chain(ln.f(v), ln.d1(v))
            f0 = exp.f(u.value)
            return u.chain(f0, f0)
        except _MATH_ERRORS as err:  # past the domain checks: an overflow
            raise EvaluationDomainError(f"power overflows at base {_operand(v)}", e) from err

    def _solve_jets(self, n: System) -> list:
        """The jets of x = G^-1 b, dx = G^-1 (db - dG x); dG is stacked in
        the jet memo under the matrix."""
        memo = self._jets
        rows, cols = self._inverse(n)
        hit = memo.get(id(n.matrix))
        if hit is None:
            dG = np.array([[memo[id(g)][1].grad for g in row] for row in n.matrix])
            hit = memo[id(n.matrix)] = (n.matrix, list(dG.swapaxes(0, 1)))
        b = [memo[id(v)][1] for v in n.rhs]
        x = [_dot(row, [v.value for v in b]) for row in rows]
        dx = _dot(cols, np.array([v.grad for v in b]) - _dot(hit[1], x))
        return [Jet(xi, dxi) for xi, dxi in zip(x, dx)]

    def _inverse(self, system: System) -> tuple:
        """:meth:`inverse` for ``system``'s matrix, named if not finite."""
        return self.inverse(system.matrix, lambda p: EvaluationDomainError("matrix is not finite", system))

    def inverse(self, G: tuple, not_finite) -> tuple:
        """The inverse of the matrix of trees ``G`` (a tuple the caller
        keeps) as rows and columns of (P, 1) entry columns, factorised once
        per evaluator and matrix, which every solve with ``G`` reads.  It
        raises ``not_finite(point)`` at the first sample where ``G`` is not
        finite, and :class:`SingularMetricError` at the first where it is
        singular."""
        hit = self._inverses.get(id(G))
        if hit is None:
            g = self.array(G).reshape(len(self.points), len(G), len(G))
            inv, k = linalg.inverse(g)
            if k < len(g):
                if not np.isfinite(g[k]).all():
                    raise not_finite(self.points[k])
                det, rcond = float(linalg.det(g[k])), float(1.0 / linalg.cond(g[k], 1))
                raise SingularMetricError(self.points[k], det, k, rcond)
            s = np.moveaxis(inv, 0, -1)[..., None]
            hit = self._inverses[id(G)] = (G, (s, s.swapaxes(0, 1)))
        return hit[1]


def _kernel_inverse(m: int, *g: float) -> list[list[float]]:
    """The walker's inverse of the m-by-m matrix with entries ``g``, row by
    row; a math error where it has none, for the walker to name."""
    inv, k = linalg.inverse(np.reshape(g, (1, m, m)))
    if not k:
        raise ZeroDivisionError("singular matrix")
    return inv[0].tolist()


def _kernel_power(a: str, b: str, k: int | None) -> str:
    """The compiled statement for ``a^b``: for an integer exponent up to 3 in
    size the products :func:`int_power` makes, written out, else a call."""
    if k is not None and 1 <= abs(k) <= 3:
        product = " * ".join([a] * abs(k))
        return product if k > 0 else f"1.0 / ({product})"
    return f"power({a}, {b}, {k!r})"


class Lowering:
    """The one lowering of trees to straight-line Python, which the RK4 loop
    of :func:`~algmech.lagrangian.integrate_sode` inlines.

    ``lowering(trees, inputs)`` returns the statements that compute the
    trees, one per unique inner node in the post-order that
    :meth:`SampleEvaluator.value` walks and memoised by identity as it is
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 3), and
    the name that holds each tree's value.  Each statement is the walker's
    own float operation, so every value is the walker's bit for bit.  A
    ``Var`` is the local named in ``inputs`` for its coordinate and has no
    statement; a ``Num`` is a name bound once in :attr:`env` (the compiled
    code's globals), shared by every call, and never printed.  Inner nodes
    are ``_<i>`` locals, which a later call reuses.  A statement raises
    Python's math error where the walker names one, at the same node."""

    __slots__ = ("index", "env", "_consts")

    def __init__(self, names: Sequence[str]):
        self.index = {name: i for i, name in enumerate(names)}
        self.env: dict = {"power": _power, "dot": _dot, "inverse": _kernel_inverse}
        self._consts: dict[int, tuple[Num, str]] = {}  # id -> (the Num, its name in env)

    def __call__(self, trees: Sequence[Expr], inputs: Sequence[str]) -> tuple[list[str], list[str]]:
        env, consts = self.env, self._consts
        slot: dict[int, str] = {}
        inverses: dict[int, str] = {}  # id of a solve's matrix -> its inverse's name
        lines: list[str] = []
        for tree in trees:
            for e in postorder(tree, slot):
                t = type(e)
                if t is Var:
                    slot[id(e)] = inputs[self.index[e.name]]
                    continue
                if t is Num:
                    if id(e) not in consts:
                        consts[id(e)] = (e, f"c_{len(consts)}")
                        env[consts[id(e)][1]] = e.value
                    slot[id(e)] = consts[id(e)][1]
                    continue
                name = slot[id(e)] = f"_{len(lines)}"
                if t is BinOp:
                    a, b = slot[id(e.left)], slot[id(e.right)]
                    if e.op == "^":
                        rhs = _kernel_power(a, b, _integer_exponent(e))
                    else:
                        rhs = f"{a} {e.op} {b}"
                elif t is Neg:
                    rhs = f"-{slot[id(e.operand)]}"
                elif t is Solve:
                    rhs = f"{slot[id(e.system)]}[{e.index}]"
                elif t is System:
                    inv = inverses.get(id(e.matrix))
                    if inv is None:
                        inv = inverses[id(e.matrix)] = f"inv{name}"
                        g = ", ".join(slot[id(x)] for x in e.operands[: -len(e.rhs)])
                        lines.append(f"{inv} = inverse({len(e.rhs)}, {g})")
                    b = ", ".join(slot[id(x)] for x in e.rhs)
                    rhs = f"[dot(row, ({b},)) for row in {inv}]"
                else:
                    env[f"f_{e.func}"] = FUNCTIONS[e.func].f
                    rhs = f"f_{e.func}({slot[id(e.operand)]})"
                lines.append(f"{name} = {rhs}")
        return lines, [slot[id(t)] for t in trees]

    def compile(self, source: str, name: str):
        """The function ``name`` that ``source`` defines, run in :attr:`env`."""
        exec(compile(source, f"<{name}>", "exec"), self.env)
        return self.env[name]
