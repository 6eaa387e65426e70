"""Jets: exact values, gradients and, where read, Hessians of expressions.

A :class:`Jet2` over ``k`` coordinates carries ``(value, grad, hess)`` with a
``(k,)`` gradient and a symmetric ``(k, k)`` Hessian, or ``hess = None`` at
first order.  All arithmetic propagates the derivatives exactly (no numeric
differencing); the Hessian stays bit-exactly symmetric because every update
is built from outer products ``g g^T`` or the symmetrized ``a b^T + b a^T``,
and it never feeds the value or the gradient, so both orders agree on those.

Trees are evaluated by one rule table, written once: a value loop and a jet
loop over :func:`~algmech.expr.postorder`, one rule per node kind, each
reading a node's operands from its memo, so shared subtrees are visited once
and a tree of any depth evaluates (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 2-3).  A :class:`~algmech.expr.System`
applies its matrix's inverse (:func:`inverse`, once per evaluator and
matrix), with jets dx = G^-1 (db - dG x); a :class:`~algmech.expr.Solve`
picks a component.
An evaluator supplies only how leaves are made, how a
:data:`~algmech.expr.FUNCTIONS` float function is applied, and how a zero or
non-positive operand is detected.  A math error in a rule becomes an
:class:`EvaluationDomainError` naming the subexpression.

:class:`PointEvaluator` runs the rules on Python floats at one point: values
(``value``), first-order jets (``jet1``) and second-order jets (``jet``,
read only by the Euler-Lagrange residual).  A first-order jet computes no
second-derivative factor, so it is defined wherever its value and gradient
are.  A jet's value can differ from ``value`` in the last bit (``a/b`` is
``a * (1/b)`` in jet arithmetic), so callers comparing a value with a
gradient read both from one jet.  Every quantity computed at a point takes
the caller's evaluator (:meth:`~algmech.algebroid.Algebroid.evaluator`), so
they share its memo; :meth:`PointEvaluator.array` keeps per-point arrays.

:class:`SampleEvaluator` runs the same rules at a whole sample set on (P, 1)
float64 columns, which :class:`Jet2`'s arithmetic broadcasts against (P, k)
gradients, and hands out (P,) values and first-order jets.  Every sweep
takes the one its caller holds
(:meth:`~algmech.algebroid.Algebroid.sample_evaluator`).

:class:`Lowering` is the one lowering of trees to straight-line Python:
one statement per unique inner node, each the walker's own float operation,
so compiled code gets ``value``'s bits, bit for bit, at any point.  Two
things are built on it.  :class:`ValueKernel` compiles a fixed tuple of
trees once into a function of the coordinate values: about 10 us per unique
node to compile, then a few hundred ns per call.  The RK4 loop of
:func:`~algmech.lagrangian.integrate_sode` inlines the statements of the
flow four times per step, and those of the energy once, into one compiled
loop over every step.  A point, a batch and compiled code get the same bits
for every node kind, solves included.  Integer powers come from one routine,
:func:`int_power`, so their cost grows with log2 of the exponent; compiled
code writes its products out for exponents up to 3 in size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import EvaluationDomainError, SingularMetricError
from .expr import FUNCTIONS, BinOp, Expr, Neg, Num, Solve, System, Var, literal_value, postorder

__all__ = [
    "Jet2", "EvalPoint", "Evaluator", "Lowering", "PointEvaluator", "SampleEvaluator",
    "ValueKernel", "eval_jet", "finite_difference_jet", "int_power", "inverse",
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
    first order, and an operation with a first-order operand is first order.
    The value may be a (P, 1) column over a (P, k) gradient: every operation
    broadcasts, giving each row the bits of the scalar jet."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray | None):
        self.value = value
        self.grad = grad
        self.hess = hess

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


def _power(a, c, k: int | None, one=1.0):
    """``a^c`` as every value path computes it: :func:`int_power` of ``|k|``
    (``one`` over it for ``k < 0``) for an integer exponent ``k`` (see
    ``_integer_exponent``), else ``exp(c ln a)``; the rules take that exp and
    ln from their evaluator, so only the kernel runs this float form.
    Outside the domain math's own errors signal it: ``ln`` of a non-positive
    base, or ``1/0`` for a zero base and ``k < 0``."""
    if k is None:
        return math.exp(c * math.log(a))
    r = int_power(a, abs(k), one)
    return one / r if k < 0 else r


_DET_RTOL = 1e-10  # the singularity cutoff on det(g / max |g_ij|)


@np.errstate(all="ignore")
def inverse(g) -> tuple[np.ndarray, int]:
    """``(inv, k)`` for a stack of square matrices ``g`` (P, m, m): ``k`` is
    the index of the first one that is not finite or singular (P if none),
    ``inv`` the inverses before it.  Every solve, the fold of constant
    matrices and :func:`~algmech.lagrangian.fiber_metric` read it.  Singular
    means ``|det(g / max |g_ij|)| < 1e-10``, which cannot underflow or
    overflow (NaN for a zero or non-finite g); a residual above 1e-12 gets a
    Newton sweep.  Stacked numpy calls give each matrix its own bits."""
    g = np.asarray(g, dtype=float)
    unit_det = np.linalg.det(g / np.max(np.abs(g), axis=(1, 2))[:, None, None])
    bad = ~(np.abs(unit_det) >= _DET_RTOL)
    k = int(np.argmax(bad)) if bad.any() else len(g)
    g, eye = g[:k], np.eye(g.shape[-1])
    inv = np.linalg.inv(g)
    off = np.max(np.abs(g @ inv - eye), axis=(1, 2), initial=0.0) > 1e-12
    inv[off] = inv[off] @ (2.0 * eye - g[off] @ inv[off])
    return inv, k


def _dot(row, items):
    """``row[0] * items[0] + row[1] * items[1] + ...`` in order, on floats,
    columns and gradients alike: how a solve applies an inverse."""
    r = row[0] * items[0]
    for c, v in zip(row[1:], items[1:]):
        r = r + c * v
    return r


class _Rules:
    """The one rule per node kind, for values and for jets.

    An evaluator supplies the numbers the rules run on: ``_one`` and
    ``_coords``, the value of 1 and of each coordinate (a constant ``c`` is
    ``c * _one``); ``_grad_shape``, the shape of a gradient;
    ``_functions``, :data:`~algmech.expr.FUNCTIONS` with ``f``, ``d1`` and
    ``d2`` applied as it applies them; ``_zero(x)`` and ``_nonpositive(x)``,
    whether any element of ``x`` is zero, or at most zero; ``_where``, the
    points an error names; ``_entries``, an inverse as the rules read it; and
    the memos of ``(node, result)``, a system's result its components (the
    node keeps the id unique for the memo's lifetime; a batch appends what it
    handed out for the node)."""

    def _walk_value(self, e: Expr):
        """The value of ``e``."""
        memo = self._floats
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
                    if self._zero(b):
                        raise EvaluationDomainError("division by zero", n)
                    r = a / b
                else:
                    k = self._exponent(n, a)
                    try:
                        if k is None:  # a^b = exp(b ln a)
                            r = self._functions["exp"].f(b * self._functions["ln"].f(a))
                        else:
                            r = _power(a, b, k, self._one)
                    except _MATH_ERRORS as err:
                        raise _domain_error("power", f"base {a!r}", n, err) from err
            elif t is Num:
                r = n.value * self._one
            elif t is Var:
                r = coords[index[n.name]]
            elif t is Neg:
                r = -memo[id(n.operand)][1]
            elif t is Solve:
                r = memo[id(n.system)][1][n.index]
            elif t is System:
                b = [memo[id(v)][1] for v in n.rhs]
                r = [_dot(row, b) for row in self._inverse(n)[0]]
            else:
                v = memo[id(n.operand)][1]
                try:
                    r = self._functions[n.func].f(v)
                except _MATH_ERRORS as err:
                    raise _domain_error(n.func, repr(v), n, err) from err
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    def _walk_jet(self, e: Expr, memo: dict, second: bool) -> Jet2:
        """The jet of ``e``: second order for ``second``, else first."""
        if id(e) in memo:
            return memo[id(e)][1]
        one, coords, index, functions, zero = (
            self._one, self._coords, self.index, self._functions, self._zero
        )
        for n in postorder(e, memo):
            t = type(n)
            if t is BinOp:
                op = n.op
                a = memo[id(n.left)][1]
                if op == "^":
                    r = self._pow_jet(n, a, memo, second)
                else:
                    b = memo[id(n.right)][1]
                    if op == "+":
                        r = a + b
                    elif op == "-":
                        r = a - b
                    elif op == "*":
                        r = a * b
                    else:
                        if zero(b.value):
                            raise EvaluationDomainError("division by zero", n)
                        try:
                            r = a / b
                        except _MATH_ERRORS as err:
                            raise _domain_error("division", f"divisor {b.value!r}", n, err) from err
            elif t is Num:
                r = self._seed(n.value * one, None, second)
            elif t is Var:
                i = index[n.name]
                r = self._seed(coords[i], i, second)
            elif t is Neg:
                r = -memo[id(n.operand)][1]
            elif t is Solve:
                r = memo[id(n.system)][1][n.index]
            elif t is System:
                r = self._solve_jets(n, memo, second)
            else:
                a = memo[id(n.operand)][1]
                fn, v = functions[n.func], a.value
                try:
                    r = a.chain(fn.f(v), fn.d1(v), fn.d2(v) if second else 0.0)
                except _MATH_ERRORS as err:
                    raise _domain_error(n.func, repr(v), n, err) from err
            memo[id(n)] = (n, r)
        return memo[id(e)][1]

    def _seed(self, value, i: int | None, second: bool) -> Jet2:
        """A leaf's jet: ``value`` with the gradient of coordinate ``i``, or
        of a constant for ``i = None``."""
        grad = np.zeros(self._grad_shape)
        if i is not None:
            grad[..., i] = 1.0
        return Jet2(value, grad, np.zeros((self.k, self.k)) if second else None)

    def _pow_jet(self, e: BinOp, a: Jet2, memo: dict, second: bool) -> Jet2:
        """The jet of ``e = a^b``, ``b`` read from the memo unless literal;
        f'' only for a second-order jet."""
        v = a.value
        k = self._exponent(e, v)
        try:
            if k is not None:
                r = int_power(a, abs(k), self._seed(self._one, None, second))
                return r.reciprocal() if k < 0 else r
            exp, ln = self._functions["exp"], self._functions["ln"]
            c = literal_value(e.right)
            if c is not None:
                f0 = exp.f(c * ln.f(v))
                return a.chain(f0, c * f0 / v, c * (c - 1.0) * f0 / (v * v) if second else 0.0)
            b = memo[id(e.right)][1]  # a^b = exp(b ln a)
            u = b * a.chain(ln.f(v), ln.d1(v), ln.d2(v) if second else 0.0)
            f0 = exp.f(u.value)
            return u.chain(f0, f0, f0)
        except _MATH_ERRORS as err:
            raise _domain_error("power", f"base {v!r}", e, err) from err

    def _exponent(self, e: BinOp, base) -> int | None:
        """The integer exponent of ``e`` (None: a real power), its base
        checked against the power's domain."""
        k = _integer_exponent(e)
        if k is None:
            if self._nonpositive(base):
                raise EvaluationDomainError(f"non-integer power of non-positive base {base!r}", e)
        elif k < 0 and self._zero(base):
            raise EvaluationDomainError("zero base with negative exponent", e)
        return k

    def derived(self, build, *args):
        """``build(self, *args)``, computed once per evaluator and tuple of
        argument objects (by identity; the entry keeps them alive, so their
        ids are never reused), as :meth:`~algmech.algebroid.Algebroid.derived`
        builds trees once per system: for what callers derive from this
        evaluator's outputs, such as a tree's anchored gradient."""
        key = (build, *map(id, args))
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = (args, build(self, *args))
        return hit[1]

    def _nested(self, t):
        return [self._nested(u) for u in t] if isinstance(t, tuple) else self.value(t)

    def _solve_jets(self, n: System, memo: dict, second: bool) -> list:
        """The jets of x = G^-1 b, dx = G^-1 (db - dG x) and, second order,
        d2x = G^-1 (d2b - d2G x - dG dx - (dG dx)^T); dG is stacked in ``memo``."""
        rows, cols = self._inverse(n)
        hit = memo.get(id(n.matrix))
        if hit is None:
            jets = [[memo[id(g)][1] for g in row] for row in n.matrix]
            dG = np.array([[g.grad for g in row] for row in jets])
            d2G = np.array([[g.hess for g in row] for row in jets]) if second else None
            hit = memo[id(n.matrix)] = (n.matrix, (list(dG.swapaxes(0, 1)), d2G))
        dGk, d2G = hit[1]
        b = [memo[id(v)][1] for v in n.rhs]
        x = [_dot(row, [v.value for v in b]) for row in rows]
        dx = _dot(cols, np.array([v.grad for v in b]) - _dot(dGk, x))
        if not second:
            return [Jet2(xi, dxi, None) for xi, dxi in zip(x, dx)]
        H = np.array([v.hess for v in b])
        for k, xk in enumerate(x):
            C = dGk[k][:, :, None] * dx[k]  # [j] = the outer product dG_jk dx_k
            H = H - (d2G[:, k] * xk + C + C.swapaxes(1, 2))
        return [Jet2(*j) for j in zip(x, dx, _dot([c[..., None] for c in cols], H))]

    def _inverse(self, system: System) -> tuple:
        """The inverse for ``system`` as ``_entries`` gives it, factorised
        once per matrix, which its derivative systems share.  A matrix that
        is not finite raises :class:`EvaluationDomainError` naming the system,
        a singular one :class:`SingularMetricError` naming the point."""
        G, points = system.matrix, self._where
        hit = self._inverses.get(id(G))
        if hit is None:
            g = self.array(G).reshape(len(points), len(G), len(G))
            inv, k = inverse(g)
            if k < len(g):
                if not np.isfinite(g[k]).all():
                    raise EvaluationDomainError("matrix is not finite", system)
                with np.errstate(all="ignore"):
                    raise SingularMetricError(points[k], float(np.linalg.det(g[k])), k)
            hit = self._inverses[id(G)] = (G, self._entries(inv))
        return hit[1]


class PointEvaluator(_Rules):
    """Evaluates expression trees at one fixed coordinate assignment.

    Shared sub-objects are evaluated once per evaluator (memoised by object
    identity), so composite trees built from common pieces stay cheap.
    """

    _one = 1.0
    _functions = FUNCTIONS
    # float comparisons bound to 0.0: the point walk tests an operand with
    # no Python-level call
    _zero = (0.0).__eq__
    _nonpositive = (0.0).__ge__

    def __init__(self, names: Sequence[str], values: Sequence[float], point=None):
        if len(names) != len(values):
            raise ValueError("coordinate names and values differ in length")
        self.names = tuple(names)
        self.values = self._coords = tuple(float(v) for v in values)
        self._where = (self.values if point is None else point,)  # what an error names
        self.index = {name: i for i, name in enumerate(self.names)}
        self.k = len(self.names)
        self._grad_shape = (self.k,)
        self._floats: dict[int, tuple[Expr, float]] = {}
        self._jet1s: dict[int, tuple[Expr, Jet2]] = {}
        self._jets: dict[int, tuple[Expr, Jet2]] = {}  # second order
        self._arrays: dict[int, tuple[tuple, np.ndarray]] = {}
        self._inverses: dict[int, tuple[tuple, tuple]] = {}
        self._derived: dict[tuple, tuple] = {}

    value = _Rules._walk_value  # the loop itself: the frames call it per tree

    # an inverse's rows of floats, and its (m, 1) columns against gradients
    _entries = staticmethod(lambda inv: (inv[0].tolist(), inv[0].T[:, :, None]))

    def jet(self, e: Expr) -> Jet2:
        """Second-order jet of ``e``: value, gradient and Hessian."""
        return self._walk_jet(e, self._jets, True)

    def jet1(self, e: Expr) -> Jet2:
        """First-order jet of ``e`` (``hess`` is ``None``); its value and
        gradient equal those of :meth:`jet` bit for bit."""
        return self._walk_jet(e, self._jet1s, False)

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


# The faults of a batch: the rules' domain errors, and numpy's division by
# zero, raised (not warned) so that a batch stops wherever a float division
# would raise
_BATCH_FAULTS = (EvaluationDomainError, FloatingPointError)


def _each(f, column: np.ndarray) -> np.ndarray:
    """``f`` applied per element to Python floats, as the point walk applies it."""
    out = np.fromiter(map(f, column.ravel().tolist()), float, column.size)
    return out.reshape(column.shape)


def _read_only(column: np.ndarray) -> np.ndarray:
    """A (P, 1) memo column as the read-only (P,) array handed out."""
    out = column[:, 0]
    out.flags.writeable = False
    return out


class SampleEvaluator(_Rules):
    """Evaluates trees at P sample points at once, over a leading sample axis.

    ``value`` returns a (P,) array and ``jet1`` a first-order :class:`Jet2`
    with a (P,) value and a (P, k) gradient; ``values_of`` and ``array`` put
    the sample axis first, and ``values`` is the (P, k) array of coordinates.
    The rules run on (P, 1) columns, memoised per node; a node's entry also
    keeps the read-only (P,) view or jet handed out for it, so every call for
    the node hands out that one object.  First order only.

    Every slice has :class:`PointEvaluator`'s bits at its sample: ``+ - * /``,
    :func:`int_power` and solves run elementwise on float64, and elementary
    functions are ``FUNCTIONS``' own float functions applied per element
    (``_each``), since numpy's do not always round as math's do (on x86-64
    with AVX-512, ``np.exp`` and ``np.log`` differed on 4.6% and 0.16% of
    inputs, while sin, cos and sqrt matched).

    The batch formats no errors but a singular solve matrix's, which names
    its first singular sample.  Where a rule raises :class:`EvaluationDomainError`
    or numpy divides by zero, the batch walks the samples again in order with
    :class:`PointEvaluator`: the first failing one raises with its point.
    """

    _functions = {
        name: fn._replace(
            f=partial(_each, fn.f), d1=partial(_each, fn.d1), d2=partial(_each, fn.d2)
        )
        for name, fn in FUNCTIONS.items()
    }

    @staticmethod
    def _entries(inv):  # rows and columns of (P, 1) entry columns
        s = np.moveaxis(inv, 0, -1)[..., None]
        return s, s.swapaxes(0, 1)

    @staticmethod
    def _zero(x: np.ndarray) -> bool:
        return not x.all()

    @staticmethod
    def _nonpositive(x: np.ndarray) -> bool:
        return bool((x <= 0.0).any())

    def __init__(self, names: Sequence[str], points: Sequence[EvalPoint]):
        self.names = tuple(names)
        self.points = self._where = tuple(points)
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
        self._grad_shape = (P, self.k)
        self._floats: dict[int, tuple[Expr, np.ndarray]] = {}
        self._jet1s: dict[int, tuple[Expr, Jet2]] = {}
        self._arrays: dict[int, tuple[tuple, np.ndarray]] = {}
        self._inverses: dict[int, tuple[tuple, tuple]] = {}
        self._derived: dict[tuple, tuple] = {}

    def value(self, e: Expr) -> np.ndarray:
        hit = self._floats.get(id(e))  # a memo hit needs no errstate
        if hit is None:
            self._batch(PointEvaluator.value, self._walk_value, e)
            hit = self._floats[id(e)]
        if len(hit) == 2:  # computed by the rules, not handed out yet
            hit = self._floats[id(e)] = (e, hit[1], _read_only(hit[1]))
        return hit[2]

    def jet1(self, e: Expr) -> Jet2:
        """First-order jets of ``e``, each that of :meth:`PointEvaluator.jet1`."""
        hit = self._jet1s.get(id(e))  # a memo hit needs no errstate
        if hit is None:
            self._batch(PointEvaluator.jet1, self._walk_jet, e, self._jet1s, False)
            hit = self._jet1s[id(e)]
        if len(hit) == 2:  # computed by the rules, not handed out yet
            r = hit[1]
            r.grad.flags.writeable = False
            hit = self._jet1s[id(e)] = (e, r, Jet2(_read_only(r.value), r.grad, None))
        return hit[2]

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

    def _batch(self, walk, run, e: Expr, *args):
        try:
            with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
                return run(e, *args)
        except _BATCH_FAULTS:
            with np.errstate(all="ignore"):  # the point's jets warn of inf * 0
                for p in self.points:
                    try:
                        walk(PointEvaluator(self.names, p.values(), p), e)
                    except EvaluationDomainError as err:
                        raise err.at(p) from err
            raise


# the evaluator a pointwise quantity takes: a point's, or a sample set's
Evaluator = PointEvaluator | SampleEvaluator


def _kernel_inverse(m: int, *g: float) -> list[list[float]]:
    """The walker's inverse of the m-by-m matrix with entries ``g``, row by
    row; a math error where it has none, for the walker to name."""
    inv, k = inverse(np.reshape(g, (1, m, m)))
    if not k:
        raise ZeroDivisionError("singular matrix")
    return inv[0].tolist()


def _kernel_power(a: str, b: str, k: int | None) -> str:
    """The kernel's statement for ``a^b``: for an integer exponent up to 3 in
    size the products :func:`int_power` makes, written out, else a call."""
    if k is not None and 1 <= abs(k) <= 3:
        product = " * ".join([a] * abs(k))
        return product if k > 0 else f"1.0 / ({product})"
    return f"power({a}, {b}, {k!r})"


class Lowering:
    """The one lowering of trees to straight-line Python, shared by
    :class:`ValueKernel` and the RK4 loop of
    :func:`~algmech.lagrangian.integrate_sode`.

    ``lowering(trees, inputs)`` returns the statements that compute the
    trees, one per unique inner node in the post-order that
    :meth:`PointEvaluator.value` walks and memoised by identity as it is
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 3), and
    the name that holds each tree's value.  Each statement is the walker's
    own float operation, so every value is the walker's bit for bit.  A
    ``Var`` is the local named in ``inputs`` for its coordinate and has no
    statement; a ``Num`` is a name bound once in :attr:`env` (the compiled
    code's globals), shared by every call, and never printed.  Inner nodes
    are ``_<i>`` locals, which a later call reuses."""

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


class ValueKernel:
    """Values of a fixed tuple of trees, compiled once and then called at
    many points: ``kernel(values)`` returns one float per tree, for
    ``values`` in the order of ``names``.

    The trees are lowered by :class:`Lowering` to one straight-line function,
    which unpacks ``values`` into one local per coordinate and runs one
    statement per unique inner node, so every value is the walker's bit for
    bit.  The kernel formats no errors: when a math error escapes it (as one
    does for a solve's matrix without an inverse), the trees are walked
    again at the same values, which raises the error that names the fault,
    and the point as the :class:`EvalPoint` whose ``x`` are the first ``n``
    values (a domain error gets ``at <point>`` appended, as a batch's does)."""

    __slots__ = ("names", "n", "trees", "source", "_run")

    def __init__(self, names: Sequence[str], trees: Sequence[Expr], n: int):
        self.names, self.n = tuple(names), n
        self.trees = tuple(trees)  # keeps every node, hence its id, alive
        lower = Lowering(self.names)
        inputs = [f"v{i}" for i in range(len(self.names))]
        body, out = lower(self.trees, inputs)
        self.source = "".join(
            [
                "def kernel(v):\n",
                f"    ({''.join(f'{i}, ' for i in inputs)}) = v\n",
                *(f"    {line}\n" for line in body),
                f"    return [{', '.join(out)}]\n",
            ]
        )
        self._run = lower.compile(self.source, "kernel")

    def __call__(self, values: Sequence[float]) -> list[float]:
        try:
            return self._run(values)
        except _MATH_ERRORS:
            point = EvalPoint.of(values[: self.n], values[self.n :])
            ev = PointEvaluator(self.names, values, point)
            try:
                for t in self.trees:
                    ev.value(t)  # raises the domain error that names the node
            except EvaluationDomainError as err:
                raise err.at(point) from err
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
