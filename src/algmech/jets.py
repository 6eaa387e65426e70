"""Jets: exact values, gradients and, where read, Hessians of expressions.

A :class:`Jet2` over ``k`` coordinates carries ``(value, grad, hess)`` with a
``(k,)`` gradient and a symmetric ``(k, k)`` Hessian, or ``hess = None`` at
first order.  All arithmetic propagates the derivatives exactly (no numeric
differencing); the Hessian stays bit-exactly symmetric because every update
is built from outer products ``g g^T`` or the symmetrized ``a b^T + b a^T``.
The Hessian never feeds the value or the gradient, so both orders give the
same value and gradient bit for bit.

:class:`PointEvaluator` evaluates trees at a fixed point as floats
(``value``), first-order jets (``jet1``) or second-order jets (``jet``),
memoising each per node object so shared subtrees are visited once.  Every
mode, of this evaluator and of the two below, is one loop over
:func:`~algmech.expr.postorder` with the mode's rule per node kind, reading
a node's operands from its memo, so a tree of any depth evaluates.  The
symmetry, bracket, connection and validation checks are first order in their
component functions and take ``jet1``, and the fiber metric is read from its
own trees (``Lagrangian.metric_exprs``); only the Euler-Lagrange residual
reads a Hessian and calls ``jet``, which stays second order as the public way
to get one.  A jet's value can differ from ``value`` in the last bit (``a/b``
is ``a * (1/b)`` in jet arithmetic), so callers comparing a value with a
gradient read both from one jet.

Every quantity computed at a point takes the caller's evaluator
(:meth:`~algmech.algebroid.Algebroid.evaluator` makes one), so they share
its memo; values depend only on the tree and the point, so sharing never
changes a result; :meth:`PointEvaluator.array` keeps per-point arrays.
Every mode reads :data:`~algmech.expr.FUNCTIONS`; one guard turns math's
own errors into :class:`EvaluationDomainError`.

:class:`ValueKernel` compiles a fixed tuple of trees once into straight-line
Python and returns their values, bit for bit those of ``value``, at any
point.  Use it for value-only evaluation of the same trees at many points
(the RK4 right-hand side and energy): it costs about 10 us per unique node
to compile and then a few hundred ns per call.  Use ``PointEvaluator`` for
everything else: a per-point memo shared across many trees, jets, and the
error path that names the failing subexpression, which the kernel reaches by
walking its trees again with ``value``.  Both compute ``^`` with one helper,
``_power``; it and :meth:`Jet2.pow_int` take integer powers from one routine,
:func:`int_power`, so their cost grows with log2 of the exponent.

:class:`SampleEvaluator` evaluates trees at a whole sample set at once, with
a leading sample axis: values as (P,) arrays and first-order jets
(:class:`SampleJet`) with (P, k) gradients; every sweep takes it
(:meth:`~algmech.algebroid.Algebroid.sample_evaluator`).  Each
sample is bit for bit the walker's: ``+ - * /`` and :func:`int_power` run
elementwise, and the elementary functions are ``FUNCTIONS``' float functions
applied per element, not numpy's (on an x86-64 host with AVX-512,
``np.exp`` and ``np.log`` differed from ``math.exp`` and ``math.log`` on
4.6% and 0.16% of inputs, while sin, cos and sqrt matched).  Like the
kernel, the batch formats no errors: it walks the first failing sample again
with ``PointEvaluator``.  A single point stays on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvaluationDomainError
from .expr import FUNCTIONS, BinOp, Expr, Neg, Num, Var, literal_value, postorder

__all__ = [
    "Jet2", "EvalPoint", "PointEvaluator", "SampleEvaluator", "SampleJet", "ValueKernel",
    "eval_jet", "finite_difference_jet", "int_power",
]


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


class Jet2:
    """Truncated Taylor data of a scalar quantity; ``hess`` is ``None`` at
    first order, and an operation with a first-order operand is first order."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray | None):
        self.value = value
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(value: float, k: int, second: bool = True) -> "Jet2":
        return Jet2(float(value), np.zeros(k), np.zeros((k, k)) if second else None)

    @staticmethod
    def coordinate(value: float, index: int, k: int, second: bool = True) -> "Jet2":
        g = np.zeros(k)
        g[index] = 1.0
        return Jet2(float(value), g, np.zeros((k, k)) if second else None)

    def __add__(self, o: "Jet2") -> "Jet2":
        h = None if self.hess is None or o.hess is None else self.hess + o.hess
        return Jet2(self.value + o.value, self.grad + o.grad, h)

    def __sub__(self, o: "Jet2") -> "Jet2":
        h = None if self.hess is None or o.hess is None else self.hess - o.hess
        return Jet2(self.value - o.value, self.grad - o.grad, h)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, o: "Jet2") -> "Jet2":
        grad = self.value * o.grad + o.value * self.grad
        if self.hess is None or o.hess is None:
            return Jet2(self.value * o.value, grad, None)
        cross = np.outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            grad,
            self.value * o.hess + o.value * self.hess + cross + cross.T,
        )

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        if self.hess is None:
            return Jet2(f0, f1 * self.grad, None)
        return Jet2(f0, f1 * self.grad, f1 * self.hess + f2 * np.outer(self.grad, self.grad))

    def reciprocal(self) -> "Jet2":
        v = self.value
        f2 = 0.0 if self.hess is None else 2.0 / (v * v * v)
        return self.chain(1.0 / v, -1.0 / (v * v), f2)

    def __truediv__(self, o: "Jet2") -> "Jet2":
        return self * o.reciprocal()

    def pow_int(self, k: int) -> "Jet2":
        if k < 0:
            return self.pow_int(-k).reciprocal()
        return int_power(self, k, Jet2.constant(1.0, self.grad.shape[0], self.hess is not None))


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


_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


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


def _power_exponent(base: float, node: BinOp) -> int | None:
    """Integer exponent of ``node`` (or None: a real power), base checked."""
    k = _integer_exponent(node)
    if k is not None:
        if k < 0 and base == 0.0:
            raise EvaluationDomainError("zero base with negative exponent", node)
    elif base <= 0.0:
        raise EvaluationDomainError(f"non-integer power of non-positive base {base!r}", node)
    return k


def _power(a: float, c: float, k: int | None) -> float:
    """``a^c`` as every float path computes it: :func:`int_power` of ``|k|``
    (inverted for ``k < 0``) for an integer exponent ``k`` (see
    ``_integer_exponent``), else ``exp(c ln a)``.  Outside the domain math's
    own errors signal it: ``ln`` of a non-positive base, or ``1/0`` for a
    zero base and ``k < 0``."""
    if k is None:
        return math.exp(c * math.log(a))
    r = int_power(a, abs(k), 1.0)
    return 1.0 / r if k < 0 else r


class PointEvaluator:
    """Evaluates expression trees at one fixed coordinate assignment.

    Shared sub-objects are evaluated once per evaluator (memoised by object
    identity), so composite trees built from common pieces stay cheap.
    """

    def __init__(self, names: Sequence[str], values: Sequence[float]):
        if len(names) != len(values):
            raise ValueError("coordinate names and values differ in length")
        self.names = tuple(names)
        self.values = tuple(float(v) for v in values)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.k = len(self.names)
        # memo entries store (node, result): the node reference keeps the id
        # unique for the evaluator's lifetime (ids of dead objects get reused)
        self._jets: dict[int, tuple[Expr, Jet2]] = {}  # second order
        self._jet1s: dict[int, tuple[Expr, Jet2]] = {}  # first order
        self._floats: dict[int, tuple[Expr, float]] = {}
        self._arrays: dict[int, tuple[tuple, np.ndarray]] = {}

    def value(self, e: Expr) -> float:
        memo = self._floats
        if id(e) in memo:
            return memo[id(e)][1]
        values, index = self.values, self.index
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
                    if b == 0.0:
                        raise EvaluationDomainError("division by zero", n)
                    r = a / b
                else:
                    k = _power_exponent(a, n)
                    try:
                        r = _power(a, b, k)
                    except _MATH_ERRORS as err:
                        raise _domain_error("power", f"base {a!r}", n, err) from err
            elif t is Num:
                r = n.value
            elif t is Var:
                r = values[index[n.name]]
            elif t is Neg:
                r = -memo[id(n.operand)][1]
            else:
                v = memo[id(n.operand)][1]
                try:
                    r = FUNCTIONS[n.func].f(v)
                except _MATH_ERRORS as err:
                    raise _domain_error(n.func, repr(v), n, err) from err
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    def jet(self, e: Expr) -> Jet2:
        """Second-order jet of ``e``: value, gradient and Hessian."""
        return self._walk(e, self._jets, True)

    def jet1(self, e: Expr) -> Jet2:
        """First-order jet of ``e`` (``hess`` is ``None``); its value and
        gradient equal those of :meth:`jet` bit for bit."""
        return self._walk(e, self._jet1s, False)

    def _walk(self, e: Expr, memo: dict, second: bool) -> Jet2:
        if id(e) in memo:
            return memo[id(e)][1]
        for n in postorder(e, memo):
            t = type(n)
            if t is BinOp:
                op = n.op
                a = memo[id(n.left)][1]
                if op == "^":
                    r = self._pow_jet(n, a, memo)
                else:
                    b = memo[id(n.right)][1]
                    if op == "+":
                        r = a + b
                    elif op == "-":
                        r = a - b
                    elif op == "*":
                        r = a * b
                    else:
                        if b.value == 0.0:
                            raise EvaluationDomainError("division by zero", n)
                        try:
                            r = a / b
                        except _MATH_ERRORS as err:
                            raise _domain_error("division", f"divisor {b.value!r}", n, err) from err
            elif t is Num:
                r = Jet2.constant(n.value, self.k, second)
            elif t is Var:
                i = self.index[n.name]
                r = Jet2.coordinate(self.values[i], i, self.k, second)
            elif t is Neg:
                r = -memo[id(n.operand)][1]
            else:
                a = memo[id(n.operand)][1]
                fn, v = FUNCTIONS[n.func], a.value
                try:
                    r = a.chain(fn.f(v), fn.d1(v), fn.d2(v) if second else 0.0)
                except _MATH_ERRORS as err:
                    raise _domain_error(n.func, repr(v), n, err) from err
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    @staticmethod
    def _pow_jet(e: BinOp, a: Jet2, memo: dict) -> Jet2:
        """The jet of ``e = a^b``, ``b`` read from the memo unless literal."""
        lit = literal_value(e.right)
        b = None if lit is not None else memo[id(e.right)][1]
        v = a.value
        c = lit if b is None else b.value
        k = _power_exponent(v, e)
        try:
            if k is not None:
                return a.pow_int(k)
            f0 = _power(v, c, None)
            if b is None:
                return a.chain(f0, c * f0 / v, c * (c - 1.0) * f0 / (v * v))
            ln = FUNCTIONS["ln"]  # a^b = exp(b ln a)
            return (b * a.chain(ln.f(v), ln.d1(v), ln.d2(v))).chain(f0, f0, f0)
        except _MATH_ERRORS as err:
            raise _domain_error("power", f"base {v!r}", e, err) from err

    def values_of(self, exprs: Sequence[Expr]) -> np.ndarray:
        return np.array([self.value(x) for x in exprs])

    def array(self, trees: tuple) -> np.ndarray:
        """Values of a nested tuple of trees, as an array of its shape,
        computed once per point: keyed by the identity of ``trees``, which
        the entry keeps alive, so callers pass a tuple they keep.  Read-only,
        since every later reader at the point gets the same array."""
        hit = self._arrays.get(id(trees))
        if hit is None:
            out = np.array(self._nested(trees))
            out.flags.writeable = False
            hit = self._arrays[id(trees)] = (trees, out)
        return hit[1]

    def _nested(self, t):
        return [self._nested(u) for u in t] if isinstance(t, tuple) else self.value(t)


class SampleJet:
    """First-order jets at P points: a (P,) value and a (P, k) gradient.
    The rules are those of :class:`Jet2` at first order, elementwise."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self.value = value
        self.grad = grad

    def __mul__(self, o: "SampleJet") -> "SampleJet":
        grad = self.value[:, None] * o.grad + o.value[:, None] * self.grad
        return SampleJet(self.value * o.value, grad)

    def chain(self, f0: np.ndarray, f1: np.ndarray) -> "SampleJet":
        return SampleJet(f0, f1[:, None] * self.grad)

    def reciprocal(self) -> "SampleJet":
        v = self.value
        return self.chain(1.0 / v, -1.0 / (v * v))


# The float faults of a batch: math's own errors from an elementary function
# applied per element, and numpy's division by zero, raised (not warned) so
# that a batch stops wherever a float division would raise
_BATCH_FAULTS = _MATH_ERRORS + (FloatingPointError,)


def _each(f, *columns: np.ndarray) -> np.ndarray:
    """``f`` applied per element to Python floats, as the walkers apply it."""
    return np.fromiter(map(f, *(c.tolist() for c in columns)), float, len(columns[0]))


def _nonzero(b: np.ndarray) -> np.ndarray:
    """``b``, or the ZeroDivisionError that ``a / b`` raises on floats."""
    if not b.all():
        raise ZeroDivisionError("division by zero")
    return b


class SampleEvaluator:
    """Evaluates trees at P sample points at once, over a leading sample axis.

    ``value`` returns a (P,) array and ``jet1`` a :class:`SampleJet` with a
    (P,) value and a (P, k) gradient; ``values_of`` and ``array`` put the
    sample axis first, and ``values`` is the (P, k) array of coordinates.
    Each result is memoised per node object, as in :class:`PointEvaluator`,
    for the evaluator's lifetime, and is read-only.  The batch is first order
    only; a second derivative that a sweep reads is a tree of its own.

    Every slice is bit for bit what :class:`PointEvaluator` gives at that
    sample.  ``+ - * /`` and :func:`int_power` run elementwise on float64,
    which rounds each element as the float operation does.  Elementary
    functions apply :data:`~algmech.expr.FUNCTIONS`' own float functions per
    element, since numpy's do not always round as math's do.

    The batch formats no errors.  Where a walker would raise (a math error,
    a zero divisor, a power outside its domain), the batch stops and walks
    the samples again in order with :class:`PointEvaluator`; the first
    failing sample raises the walker's :class:`EvaluationDomainError`, with
    the sample point appended to its message.
    """

    def __init__(self, names: Sequence[str], points: Sequence[EvalPoint]):
        self.names = tuple(names)
        self.points = tuple(points)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.k = len(self.names)
        values = np.array([p.values() for p in self.points], dtype=float)
        self.values = values.reshape(len(self.points), self.k)
        self.values.flags.writeable = False
        self._floats: dict[int, tuple[Expr, np.ndarray]] = {}
        self._jet1s: dict[int, tuple[Expr, SampleJet]] = {}
        self._arrays: dict[int, tuple[tuple, np.ndarray]] = {}

    def value(self, e: Expr) -> np.ndarray:
        return self._batch(self._value, PointEvaluator.value, e)

    def jet1(self, e: Expr) -> SampleJet:
        """First-order jets of ``e``, each that of :meth:`PointEvaluator.jet1`."""
        return self._batch(self._jet1, PointEvaluator.jet1, e)

    def values_of(self, exprs: Sequence[Expr]) -> np.ndarray:
        return np.stack([self.value(x) for x in exprs], axis=-1)

    def array(self, trees: tuple) -> np.ndarray:
        """Values of a nested tuple of trees, as a (P, *shape) array,
        computed once per evaluator and keyed as :meth:`PointEvaluator.array`."""
        hit = self._arrays.get(id(trees))
        if hit is None:
            out = np.ascontiguousarray(np.moveaxis(np.array(self._nested(trees)), -1, 0))
            out.flags.writeable = False
            hit = self._arrays[id(trees)] = (trees, out)
        return hit[1]

    def _nested(self, t):
        return [self._nested(u) for u in t] if isinstance(t, tuple) else self.value(t)

    def _batch(self, run, walk, e: Expr):
        try:
            with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
                return run(e)
        except _BATCH_FAULTS:
            with np.errstate(all="ignore"):  # the walker's jets warn of inf * 0
                for p in self.points:
                    try:
                        walk(PointEvaluator(self.names, p.values()), e)
                    except EvaluationDomainError as err:
                        named = EvaluationDomainError(f"{err} at {p}")
                        named.subexpression = err.subexpression
                        raise named from err
            raise

    def _value(self, e: Expr) -> np.ndarray:
        memo = self._floats
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
                    r = a / _nonzero(b)
                else:
                    k = _integer_exponent(n)
                    if k is None:
                        r = _each(lambda v, c: _power(v, c, None), a, b)
                    else:
                        r = np.broadcast_to(_power(a, b, k), a.shape).copy()
            elif t is Num:
                r = np.full(len(self.points), n.value)
            elif t is Var:
                r = self.values[:, self.index[n.name]].copy()
            elif t is Neg:
                r = -memo[id(n.operand)][1]
            else:
                r = _each(FUNCTIONS[n.func].f, memo[id(n.operand)][1])
            r.flags.writeable = False
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    def _jet1(self, e: Expr) -> SampleJet:
        memo = self._jet1s
        P, k = len(self.points), self.k
        for n in postorder(e, memo):
            t = type(n)
            if t is BinOp:
                op = n.op
                a = memo[id(n.left)][1]
                if op == "^":
                    r = self._pow_jet1(n, a, memo)
                else:
                    b = memo[id(n.right)][1]
                    if op == "+":
                        r = SampleJet(a.value + b.value, a.grad + b.grad)
                    elif op == "-":
                        r = SampleJet(a.value - b.value, a.grad - b.grad)
                    elif op == "*":
                        r = a * b
                    else:
                        r = a * b.reciprocal()
            elif t is Num:
                r = SampleJet(np.full(P, n.value), np.zeros((P, k)))
            elif t is Var:
                i = self.index[n.name]
                r = SampleJet(self.values[:, i].copy(), np.zeros((P, k)))
                r.grad[:, i] = 1.0
            elif t is Neg:
                a = memo[id(n.operand)][1]
                r = SampleJet(-a.value, -a.grad)
            else:
                a = memo[id(n.operand)][1]
                fn = FUNCTIONS[n.func]
                r = a.chain(_each(fn.f, a.value), _each(fn.d1, a.value))
            r.value.flags.writeable = r.grad.flags.writeable = False
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    def _pow_jet1(self, e: BinOp, a: SampleJet, memo: dict) -> SampleJet:
        """:meth:`PointEvaluator._pow_jet` at first order, elementwise."""
        lit = literal_value(e.right)
        v = a.value
        k = _integer_exponent(e)
        if k is not None:
            P = len(self.points)
            r = int_power(a, abs(k), SampleJet(np.ones(P), np.zeros((P, self.k))))
            return r.reciprocal() if k < 0 else r
        _nonzero(v * v)  # the walker's f'' terms divide by v*v at first order too
        if lit is not None:
            f0 = _each(lambda u: _power(u, lit, None), v)
            return a.chain(f0, lit * f0 / v)
        b = memo[id(e.right)][1]
        f0 = _each(lambda u, c: _power(u, c, None), v, b.value)
        ln = FUNCTIONS["ln"]  # a^b = exp(b ln a)
        return (b * a.chain(_each(ln.f, v), _each(ln.d1, v))).chain(f0, f0)


class ValueKernel:
    """Values of a fixed tuple of trees, compiled once and then called at
    many points: ``kernel(values)`` returns one float per tree, for
    ``values`` in the order of ``names``.

    The unique nodes the trees reach are lowered, in the post-order that
    :meth:`PointEvaluator.value` walks and memoised by identity as it is, to
    one straight-line function with one statement per node (Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., 2008, ch. 3).  Each statement is the
    walker's own float operation, so every value is the walker's bit for
    bit.  Constants are names bound in the function's globals, never printed.
    The kernel formats no errors: when a math error escapes it, the trees
    are walked again at the same values, which raises the
    :class:`EvaluationDomainError` that names the subexpression.
    """

    __slots__ = ("names", "trees", "source", "_run")

    def __init__(self, names: Sequence[str], trees: Sequence[Expr]):
        self.names = tuple(names)
        self.trees = tuple(trees)  # keeps every node, hence its id, alive
        index = {name: i for i, name in enumerate(self.names)}
        env: dict = {"power": _power}
        slot: dict[int, str] = {}
        lines = ["def kernel(v):"]
        for t in self.trees:
            for e in postorder(t, slot):
                name = slot[id(e)] = f"_{len(slot)}"
                t = type(e)
                if t is BinOp:
                    a, b = slot[id(e.left)], slot[id(e.right)]
                    if e.op == "^":
                        rhs = f"power({a}, {b}, {_integer_exponent(e)!r})"
                    else:
                        rhs = f"{a} {e.op} {b}"
                elif t is Num:
                    rhs = f"c{name}"
                    env[rhs] = e.value
                elif t is Var:
                    rhs = f"v[{index[e.name]}]"
                elif t is Neg:
                    rhs = f"-{slot[id(e.operand)]}"
                else:
                    env[f"f_{e.func}"] = FUNCTIONS[e.func].f
                    rhs = f"f_{e.func}({slot[id(e.operand)]})"
                lines.append(f"    {name} = {rhs}")
        lines.append(f"    return [{', '.join(slot[id(t)] for t in self.trees)}]")
        self.source = "\n".join(lines) + "\n"
        exec(compile(self.source, "<value kernel>", "exec"), env)
        self._run = env["kernel"]

    def __call__(self, values: Sequence[float]) -> list[float]:
        try:
            return self._run(values)
        except _MATH_ERRORS:
            ev = PointEvaluator(self.names, values)
            for t in self.trees:
                ev.value(t)  # raises the domain error that names the node
            raise


def eval_jet(e: Expr, names: Sequence[str], values: Sequence[float]) -> Jet2:
    """Value, gradient, and Hessian of ``e`` at the given coordinate values."""
    return PointEvaluator(names, values).jet(e)


def finite_difference_jet(
    e: Expr, names: Sequence[str], values: Sequence[float], h: float
) -> Jet2:
    """Central-difference estimate of the jet; test oracle for :func:`eval_jet`."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    base = list(float(v) for v in values)
    k = len(base)

    def f(shift: dict[int, float]) -> float:
        pt = list(base)
        for i, d in shift.items():
            pt[i] += d
        return PointEvaluator(names, pt).value(e)

    f0 = f({})
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    for i in range(k):
        fp = f({i: h})
        fm = f({i: -h})
        grad[i] = (fp - fm) / (2.0 * h)
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(k):
        for j in range(i + 1, k):
            fpp = f({i: h, j: h})
            fpm = f({i: h, j: -h})
            fmp = f({i: -h, j: h})
            fmm = f({i: -h, j: -h})
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return Jet2(f0, grad, hess)
