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
memoising each per node object so shared subtrees are visited once.  The
symmetry, bracket, connection and validation checks are first order in their
component functions and take ``jet1``; only the fiber metric and the
Euler-Lagrange residual read a Hessian (of the Lagrangian itself) and call
``jet``, which stays second order as the public way to get one.  A jet's
value can differ from ``value`` in the last bit (``a/b`` is ``a * (1/b)`` in
jet arithmetic), so callers comparing a value with a gradient read both from
one jet.

A system hands out one evaluator per point
(:meth:`~algmech.algebroid.Algebroid.evaluator`), so every tensor computed at
that point shares the memo; values depend only on the tree and the point, so
sharing never changes a result; :meth:`PointEvaluator.array` keeps per-point
arrays.  Every mode reads :data:`~algmech.expr.FUNCTIONS`; one guard turns
math's own errors into :class:`EvaluationDomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvaluationDomainError
from .expr import FUNCTIONS, BinOp, Call, Expr, Neg, Num, Var, literal_value

__all__ = ["Jet2", "EvalPoint", "PointEvaluator", "eval_jet", "finite_difference_jet"]


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
        result = Jet2.constant(1.0, self.grad.shape[0], self.hess is not None)
        for _ in range(k):
            result = result * self
        return result


_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _domain_error(what: str, at: str, node: Expr, err: Exception) -> EvaluationDomainError:
    """The guard: the domain error for a math error raised by ``what`` at ``at``."""
    verb = "overflows" if isinstance(err, OverflowError) else "is undefined"
    return EvaluationDomainError(f"{what} {verb} at {at}", node)


def _power_exponent(base: float, c: float, node: BinOp) -> int | None:
    """Integer exponent of ``node`` (or None: a real power), base checked."""
    if literal_value(node.right) is not None and c == int(c) and abs(c) <= 1_000_000:
        if c < 0 and base == 0.0:
            raise EvaluationDomainError("zero base with negative exponent", node)
        return int(c)
    if base <= 0.0:
        raise EvaluationDomainError(f"non-integer power of non-positive base {base!r}", node)
    return None


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
        key = id(e)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        if isinstance(e, Num):
            r = e.value
        elif isinstance(e, Var):
            r = self.values[self.index[e.name]]
        elif isinstance(e, Neg):
            r = -self.value(e.operand)
        elif isinstance(e, Call):
            v = self.value(e.operand)
            try:
                r = FUNCTIONS[e.func].f(v)
            except _MATH_ERRORS as err:
                raise _domain_error(e.func, repr(v), e, err) from err
        else:
            a = self.value(e.left)
            b = self.value(e.right)
            op = e.op
            if op == "+":
                r = a + b
            elif op == "-":
                r = a - b
            elif op == "*":
                r = a * b
            elif op == "/":
                if b == 0.0:
                    raise EvaluationDomainError("division by zero", e)
                r = a / b
            else:
                r = self._pow_float(a, b, e)
        memo[key] = (e, r)
        return r

    def _pow_float(self, a: float, b: float, node: BinOp) -> float:
        k = _power_exponent(a, b, node)
        try:
            if k is None:
                return math.exp(b * math.log(a))
            r = 1.0
            for _ in range(abs(k)):
                r *= a
            return 1.0 / r if k < 0 else r
        except _MATH_ERRORS as err:
            raise _domain_error("power", f"base {a!r}", node, err) from err

    def jet(self, e: Expr) -> Jet2:
        """Second-order jet of ``e``: value, gradient and Hessian."""
        return self._walk(e, self._jets, True)

    def jet1(self, e: Expr) -> Jet2:
        """First-order jet of ``e`` (``hess`` is ``None``); its value and
        gradient equal those of :meth:`jet` bit for bit."""
        return self._walk(e, self._jet1s, False)

    def gradient(self, e: Expr) -> np.ndarray:
        return self.jet1(e).grad

    def _walk(self, e: Expr, memo: dict, second: bool) -> Jet2:
        key = id(e)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        if isinstance(e, Num):
            r = Jet2.constant(e.value, self.k, second)
        elif isinstance(e, Var):
            i = self.index[e.name]
            r = Jet2.coordinate(self.values[i], i, self.k, second)
        elif isinstance(e, Neg):
            r = -self._walk(e.operand, memo, second)
        elif isinstance(e, Call):
            a = self._walk(e.operand, memo, second)
            fn, v = FUNCTIONS[e.func], a.value
            try:
                r = a.chain(fn.f(v), fn.d1(v), fn.d2(v) if second else 0.0)
            except _MATH_ERRORS as err:
                raise _domain_error(e.func, repr(v), e, err) from err
        else:
            op = e.op
            if op == "^":
                r = self._pow_jet(e, memo, second)
            else:
                a = self._walk(e.left, memo, second)
                b = self._walk(e.right, memo, second)
                if op == "+":
                    r = a + b
                elif op == "-":
                    r = a - b
                elif op == "*":
                    r = a * b
                else:
                    if b.value == 0.0:
                        raise EvaluationDomainError("division by zero", e)
                    try:
                        r = a / b
                    except _MATH_ERRORS as err:
                        raise _domain_error("division", f"divisor {b.value!r}", e, err) from err
        memo[key] = (e, r)
        return r

    def _pow_jet(self, e: BinOp, memo: dict, second: bool) -> Jet2:
        a = self._walk(e.left, memo, second)
        lit = literal_value(e.right)
        b = None if lit is not None else self._walk(e.right, memo, second)
        v = a.value
        c = lit if b is None else b.value
        k = _power_exponent(v, c, e)
        try:
            if k is not None:
                return a.pow_int(k)
            f0 = math.exp(c * math.log(v))
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
        the entry keeps alive, so callers pass a tuple they keep."""
        hit = self._arrays.get(id(trees))
        if hit is None:
            hit = self._arrays[id(trees)] = (trees, np.array(self._nested(trees)))
        return hit[1]

    def _nested(self, t):
        return [self._nested(u) for u in t] if isinstance(t, tuple) else self.value(t)


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
