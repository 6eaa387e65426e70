"""Regular Lagrangians: fiber metric, canonical second-order field, Cartan
sections, energy, and time integration of the induced dynamics.

The canonical semispray components are :class:`~algmech.expr.Solve` trees of
the fiber metric against derivative trees of the Lagrangian, of a size
polynomial in the rank, whose exact partials every downstream object takes
through jet evaluation.  The fiber metric has one definition, its trees
``Lagrangian.metric_exprs``, which the semispray solves with and
:func:`fiber_metric` evaluates.

Sign conventions for the two-section built from the Lagrangian, with the
wedge normalisation (a^b)(A,B) = a(A) b(B) - a(B) b(A):

    omega(X_a, X_b) = c_ab,   omega(X_a, V_b) = -g_ab,   omega(V,V) = 0,

with c_ab the antisymmetrised mixed-derivative coefficient.  These are the
signs under which the canonical field satisfies the symplectic equation
omega(S, .) = -dE(.) identically; the test suite pins this down.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .algebroid import Algebroid
from .errors import EvaluationDomainError, IntegrationAbortError, SingularMetricError
from .expr import Expr, Var, ZERO, e_dot, e_neg, e_sub, solve
from .jets import EvalPoint, Lowering, SampleEvaluator
from .prolongation import ProlongationSection, Semispray, directional_derivative, sode_flow

__all__ = [
    "Lagrangian",
    "Trajectory",
    "fiber_metric",
    "metric_inverse",
    "canonical_semispray",
    "cartan_pairing",
    "cartan_pairing_exprs",
    "cartan_two_section",
    "symplectic_residual",
    "integrate_sode",
    "euler_lagrange_residual",
]


@dataclass(frozen=True, eq=False)
class Lagrangian:
    """A Lagrangian with its derivative trees precomputed against a system."""

    alg: Algebroid
    expr: Expr
    dx: tuple[Expr, ...]  # dL/dx^i
    dy: tuple[Expr, ...]  # dL/dy^a
    dxy: tuple[tuple[Expr, ...], ...]  # [i][a] = d2L/dx^i dy^a
    metric_exprs: tuple[tuple[Expr, ...], ...]  # [a][b] = d2L/dy^a dy^b
    energy_expr: Expr

    @staticmethod
    def define(alg: Algebroid, expr: Expr) -> "Lagrangian":
        dx = tuple(alg.derivative(expr, c) for c in alg.base_coords)
        dy = tuple(alg.derivative(expr, c) for c in alg.fiber_coords)
        dxy = tuple(
            tuple(alg.derivative(dx[i], c) for c in alg.fiber_coords)
            for i in range(alg.n)
        )
        g = tuple(
            tuple(alg.derivative(dy[a], c) for c in alg.fiber_coords)
            for a in range(alg.m)
        )
        e = e_sub(e_dot((Var(alg.fiber_coords[a]), dy[a]) for a in range(alg.m)), expr)
        return Lagrangian(alg, expr, dx, dy, dxy, g, e)

    @cached_property
    def pairing_exprs(self) -> tuple[tuple[Expr, ...], ...]:
        """The two-section trees of :func:`cartan_pairing_exprs`, built on
        first use and then shared by every caller."""
        alg = self.alg
        m, n = alg.m, alg.n
        c_block = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(m):
                mixed = e_sub(
                    e_dot((alg.anchor[i][a], self.dxy[i][b]) for i in range(n)),
                    e_dot((alg.anchor[i][b], self.dxy[i][a]) for i in range(n)),
                )
                torsion = alg.structure_dot((self.dy[e], alg.structure[a][b][e]) for e in range(m))
                c_block[a][b] = e_sub(mixed, torsion)
        W: list[list[Expr]] = [[ZERO] * (2 * m) for _ in range(2 * m)]
        for a in range(m):
            for b in range(m):
                W[a][b] = c_block[a][b]
                W[a][m + b] = e_neg(self.metric_exprs[a][b])
                W[m + a][b] = self.metric_exprs[b][a]
        return tuple(tuple(row) for row in W)

    @cached_property
    def pairing_transpose(self) -> tuple[tuple[Expr, ...], ...]:
        """W^T, since omega(X, B_r) = sum_c X^c W[c][r]: the matrix the Cartan
        converse solves with, kept so that an evaluator factorises it once."""
        return tuple(zip(*self.pairing_exprs))


def metric_inverse(L: Lagrangian, ev: SampleEvaluator) -> np.ndarray:
    """The inverse of the fiber metric over ``ev``'s samples, (P, m, m): the
    factorisation the semispray's solve reads (:meth:`~algmech.jets.SampleEvaluator.inverse`),
    which raises at the first sample where the metric is not finite or singular."""
    rows = ev.inverse(L.metric_exprs, lambda p: EvaluationDomainError(f"fiber metric is not finite at {p}"))[0]
    return np.moveaxis(rows[..., 0], -1, 0)


def fiber_metric(L: Lagrangian, ev: SampleEvaluator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fiber metric ``L.metric_exprs`` over the samples of ``ev``, its
    inverse (:func:`metric_inverse`, which raises where the metric is not
    regular) and its condition number, arrays (P, m, m), (P, m, m) and (P,)."""
    g = ev.array(L.metric_exprs)
    return g, metric_inverse(L, ev), linalg.cond(g)


def canonical_semispray(alg: Algebroid, L: Lagrangian) -> Semispray:
    """The second-order field determined by the symplectic equation of L: the
    solve of the fiber metric against force - drift - twist."""
    m, n, r = alg.m, alg.n, range(alg.m)
    y = [Var(c) for c in alg.fiber_coords]
    rhs = []  # force - drift - twist, one tree per b, shared by every component
    for b in range(m):
        force = e_dot((alg.anchor[i][b], L.dx[i]) for i in range(n))
        drift = e_dot((alg.anchor[i][a], L.dxy[i][b], y[a]) for i in range(n) for a in range(m))
        twist = alg.structure_dot((alg.structure[b][a][g], y[a], L.dy[g]) for a in r for g in r)
        rhs.append(e_sub(e_sub(force, drift), twist))
    return Semispray(solve(L.metric_exprs, rhs))


def cartan_pairing_exprs(alg: Algebroid, L: Lagrangian) -> tuple[tuple[Expr, ...], ...]:
    """Expression matrix of the two-section on frame pairs.

    ``W[r][c] = omega(frame_r, frame_c)`` with the X-frame first, so that
    ``omega(A, B) = concat(A)^T W concat(B)`` on stacked component columns.
    Built once per Lagrangian; ``alg`` must be the system L was defined on.
    """
    if alg is not L.alg:
        raise ValueError("the Lagrangian was defined on another system")
    return L.pairing_exprs


def cartan_pairing(alg: Algebroid, L: Lagrangian, ev: SampleEvaluator) -> np.ndarray:
    """Values of :func:`cartan_pairing_exprs` over the evaluator's samples,
    (P, 2m, 2m)."""
    return ev.array(cartan_pairing_exprs(alg, L))


def cartan_two_section(
    alg: Algebroid,
    L: Lagrangian,
    A: ProlongationSection,
    B: ProlongationSection,
    ev: SampleEvaluator,
) -> np.ndarray:
    """The symplectic two-section evaluated on a pair of sections, one value
    per sample."""
    W = cartan_pairing(alg, L, ev)
    a = np.concatenate(A.values_at(ev), axis=-1)
    b = np.concatenate(B.values_at(ev), axis=-1)
    return linalg.inner(linalg.vecmat(a, W), b)


def symplectic_residual(
    alg: Algebroid,
    L: Lagrangian,
    S: Semispray,
    A: ProlongationSection,
    ev: SampleEvaluator,
) -> np.ndarray:
    """omega(S, A) + dE(A), one value per sample; vanishes for the canonical
    field, any A."""
    pairing = cartan_two_section(alg, L, S.section(alg), A, ev)
    ax, av = A.values_at(ev)
    return pairing + directional_derivative(alg, ev, ax, av, (L.energy_expr,))[..., 0]


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    times: list[float]
    states: list[tuple[tuple[float, ...], tuple[float, ...]]]
    energy: list[float] | None

    def to_csv(self, path, alg: Algebroid) -> None:
        """One header row, then one row (t, x, y[, E]) per step, each number
        as ``%.17g`` (``format(v, ".17g")``'s characters) and each line ended
        by ``\r\n``, the ``csv`` module's terminator."""
        header = ["t", *alg.base_coords, *alg.fiber_coords]
        if self.energy is not None:
            header.append("E")
        row = "%.17g" + ",%.17g" * (len(header) - 1) + "\r\n"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            if self.energy is None:
                fh.writelines(row % (t, *x, *y) for t, (x, y) in zip(self.times, self.states))
            else:
                fh.writelines(
                    row % (t, *x, *y, e)
                    for t, (x, y), e in zip(self.times, self.states, self.energy)
                )

    def energy_drift(self) -> float:
        if not self.energy:
            return 0.0
        # numpy's max propagates NaN, where the builtin would skip it
        return float(np.max(np.abs(np.array(self.energy) - self.energy[0])))


def _rk4_loop(names: Sequence[str], flow: tuple[Expr, ...], energy: tuple[Expr, ...], n: int):
    """The RK4 run of :func:`integrate_sode` as one compiled function
    ``run(traj, state, steps, dt)``: it records row 0 of ``state``, then
    takes ``steps`` steps, appending each row to ``traj``, and returns None.

    The state is held in locals, and each step inlines :class:`Lowering`'s
    statements of ``flow`` once per stage and those of ``energy`` (empty, or
    the energy tree) once, with the walker's float operations in its order.
    Each such block runs in its own ``try``, whose handler returns the
    block's trees and the floats it ran on; a state or energy that is not
    finite returns its message and its time, before its row is appended."""
    lower, K = Lowering(names), len(names)
    lower.env.update(isfinite=math.isfinite, flow=flow, energy=energy)
    s, z, new = ([f"{p}{i}" for i in range(K)] for p in "szn")

    def tup(items: list[str]) -> str:  # a tuple display, of one item too
        return f"({''.join(f'{v}, ' for v in items)})"

    def block(trees: str, inputs: list[str]) -> tuple[list[str], list[str]]:
        body, out = lower(lower.env[trees], inputs)
        if body:  # no try around no statements: Python rejects an empty body
            body = [
                "try:",
                *(f"    {line}" for line in body),
                "except (ValueError, ZeroDivisionError, OverflowError):",
                f"    return {trees}, [{', '.join(inputs)}]",
            ]
        return body, out

    def record(state: list[str], t: str) -> list[str]:
        finite = " and ".join(f"isfinite({v})" for v in state)
        lines = [f"if not ({finite}): return 'non-finite state', {t}"]
        if energy:
            body, (e,) = block("energy", state)
            lines += [*body, f"if not isfinite({e}): return 'non-finite energy', {t}", f"add_e({e})"]
        return lines + [f"add_t({t})", f"add_s(({tup(state[:n])}, {tup(state[n:])}))"]

    step, inputs = [], s
    for j, scale in enumerate(("half", "half", "dt", None), 1):  # stage j's slopes k{j}_i
        body, out = block("flow", inputs)
        step += body + [f"k{j}_{i} = {v}" for i, v in enumerate(out)]
        if scale:  # the next stage's inputs
            step += [f"z{i} = s{i} + {scale} * k{j}_{i}" for i in range(K)]
        inputs = z
    rk4 = "s{0} + sixth * (((k1_{0} + 2.0 * k2_{0}) + 2.0 * k3_{0}) + k4_{0})"
    step += [f"n{i} = {rk4.format(i)}" for i in range(K)]
    step += [*record(new, "(k + 1) * dt"), f"{tup(s)} = {tup(new)}"]
    lines = [
        "def run(traj, state, steps, dt):",
        "    half, sixth = 0.5 * dt, dt / 6.0",
        "    add_t, add_s, add_e = traj.times.append, traj.states.append, traj.energy.append"
        if energy else "    add_t, add_s = traj.times.append, traj.states.append",
        f"    {tup(s)} = state",
        *(f"    {line}" for line in record(s, "0.0")),
        "    for k in range(steps):",
        *(f"        {line}" for line in step),
    ]
    return lower.compile("\n".join(lines) + "\n", "run")


def integrate_sode(
    alg: Algebroid,
    S: Semispray,
    x0: Sequence[float],
    y0: Sequence[float],
    dt: float,
    steps: int,
    lagrangian: Lagrangian | None = None,
) -> Trajectory:
    """Classical fixed-step RK4 for dx = sigma(x) y dt, dy = S(x, y) dt.

    The right-hand side is the anchored flow of S, :func:`sode_flow`'s trees
    (sigma y included).  The whole run is one compiled loop (``_rk4_loop``):
    the state lives in locals and every step inlines the flow's straight-line
    statements once per stage and the energy's once, then combines the
    stages in plain float arithmetic, each value the walker's bit for bit.
    A step runs no numpy call unless S solves with a fiber metric that is
    not constant: that solve's inverse is :func:`~algmech.linalg.inverse`,
    which calls LAPACK.  The step is fixed (no adaptivity) so repeated runs
    are byte-identical.

    A domain error, a singular fiber metric, or a state or energy that is
    not finite, aborts with :class:`IntegrationAbortError` carrying the
    trajectory up to the last finite step.  The loop names a state or energy
    that is not finite; a math error is named by one batch-of-one walk of
    the trees that raised, at the floats they ran on.  ``steps * dt`` must
    be finite, so every time is.
    """
    if dt <= 0.0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    if not math.isfinite(steps * dt):
        raise ValueError("steps * dt must be finite")
    n, m = alg.n, alg.m
    state = [float(v) for v in (*x0, *y0)]
    if len(state) != n + m:
        raise ValueError("initial condition has wrong dimension")
    flow = tuple(v for _, v in sode_flow(alg, S))
    energy = () if lagrangian is None else (lagrangian.energy_expr,)
    traj = Trajectory([], [], [] if lagrangian is not None else None)
    fault = _rk4_loop(alg.coords, flow, energy, n)(traj, state, steps, dt)
    if fault is None:
        return traj
    cause, at = fault
    if isinstance(cause, str):
        raise IntegrationAbortError(f"{cause} at t = {at!r}", traj)
    point = EvalPoint.of(at[:n], at[n:])
    try:
        alg.evaluator(point).values_of(cause)
    except (EvaluationDomainError, SingularMetricError) as err:
        raise IntegrationAbortError(str(err), traj) from err
    raise RuntimeError(f"the compiled RK4 step faulted at {point}, where the walker does not")


def euler_lagrange_residual(
    alg: Algebroid, L: Lagrangian, ev: SampleEvaluator, ydot: np.ndarray
) -> np.ndarray:
    """Residual of the variational equations with d/dt expanded along
    (xdot = sigma y, ydot = given, (m,) or (P, m)), (P, m) over the
    evaluator's samples.  The second partials h_xy and h_yy are the
    gradients of the jets of dL/dy, so the oracle reads neither the
    semispray's solve nor the metric trees."""
    n = alg.n
    grad = ev.jet(L.expr).grad
    h = np.stack([ev.jet(t).grad for t in L.dy], axis=-2)  # [..., a, j] = d2L/dy^a dz^j
    y = ev.values[:, n:]
    xdot = linalg.matvec(alg.anchor_at(ev), y)
    ydot = np.asarray(ydot, dtype=float)
    ddt = linalg.inner(h[..., :n], xdot[..., None, :]) + linalg.inner(h[..., n:], ydot[..., None, :])
    twist = linalg.abe_b_e(alg.structure_at(ev), y, grad[:, n:])
    rhs = alg.anchored(ev, grad) - twist
    return ddt - rhs
