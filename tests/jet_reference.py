"""Reference derivatives for the jet tests, and trees compiled by the one
lowering.

The evaluator computes first-order jets only.  A test that needs a second
derivative takes the first-order jets of the derivative trees
(:func:`second_order`), and both orders are checked against central
differences of values (:func:`finite_difference_jet`).  :func:`compiled`
runs :class:`~algmech.jets.Lowering`'s statements on their own, for the
tests that hold them to the walker's bits."""

from typing import Callable, NamedTuple, Sequence

import numpy as np

from algmech.expr import Expr, differentiate
from algmech.jets import EvalPoint, Lowering, SampleEvaluator


class Taylor(NamedTuple):
    """Value, gradient and Hessian of a quantity at one point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray


def one_point(names: Sequence[str], values: Sequence[float]) -> SampleEvaluator:
    """The evaluator at one point, a batch of one whose ``x`` are ``values``."""
    return SampleEvaluator(names, [EvalPoint.of(values, ())])


def second_order(e: Expr, names: Sequence[str], values: Sequence[float]) -> Taylor:
    """The value and gradient of the jet of ``e`` at one point, and the
    Hessian whose row i is the gradient of the jet of d e / d names[i]."""
    ev = one_point(names, values)
    jet = ev.jet(e)
    hess = np.array([ev.jet(differentiate(e, c)).grad[0] for c in names])
    return Taylor(float(jet.value[0]), jet.grad[0], hess)


def finite_difference_jet(
    e: Expr, names: Sequence[str], values: Sequence[float], h: float
) -> Taylor:
    """Central-difference estimate of value, gradient and Hessian, from the
    values at the point and its shifts by ``h``, evaluated as one batch."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    base = [float(v) for v in values]
    k = len(base)
    shifts = [{}] + [{i: d} for i in range(k) for d in (h, -h)]
    shifts += [
        {i: a, j: b}
        for i in range(k)
        for j in range(i + 1, k)
        for a, b in ((h, h), (h, -h), (-h, h), (-h, -h))
    ]
    points = []
    for shift in shifts:
        pt = list(base)
        for i, d in shift.items():
            pt[i] += d
        points.append(EvalPoint.of(pt, ()))
    f = iter(SampleEvaluator(names, points).value(e).tolist())
    f0 = next(f)
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    for i in range(k):
        fp, fm = next(f), next(f)
        grad[i] = (fp - fm) / (2.0 * h)
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(k):
        for j in range(i + 1, k):
            fpp, fpm, fmp, fmm = next(f), next(f), next(f), next(f)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return Taylor(f0, grad, hess)


def compiled(names: Sequence[str], trees: Sequence[Expr]) -> tuple[Callable, list[str]]:
    """``(run, lines)``: ``lines`` are the statements :class:`Lowering` writes
    for ``trees``, and ``run(values)`` runs them at the coordinate values
    ``values``, in the order of ``names``, returning one float per tree.
    Compiled code formats no errors: a fault escapes as math's own."""
    lower = Lowering(names)
    inputs = [f"v{i}" for i in range(len(names))]
    lines, out = lower(trees, inputs)
    body = [*lines, f"return [{', '.join(out)}]"]
    run = lower.compile(f"def run({', '.join(inputs)}):\n" + "".join(f"    {s}\n" for s in body), "run")
    return (lambda values: run(*values)), lines
