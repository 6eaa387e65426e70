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

from .algebroid import Algebroid
from .errors import EvaluationDomainError, IntegrationAbortError, SingularMetricError
from .expr import Expr, Var, ZERO, e_mul, e_neg, e_sub, e_sum, solve
from .jets import PointEvaluator, SampleEvaluator, ValueKernel, inverse
from .prolongation import ProlongationSection, Semispray, directional_derivative, sode_flow

__all__ = [
    "Lagrangian",
    "Trajectory",
    "fiber_metric",
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
        e = e_sub(
            e_sum(
                e_mul(Var(alg.fiber_coords[a]), dy[a]) for a in range(alg.m)
            ),
            expr,
        )
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
                    e_sum(e_mul(alg.anchor[i][a], self.dxy[i][b]) for i in range(n)),
                    e_sum(e_mul(alg.anchor[i][b], self.dxy[i][a]) for i in range(n)),
                )
                torsion = e_sum(
                    e_mul(self.dy[e], alg.structure[a][b][e]) for e in range(m)
                )
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


@np.errstate(all="ignore")
def fiber_metric(L: Lagrangian, ev: SampleEvaluator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fiber metric ``L.metric_exprs`` over the samples of ``ev``, its
    inverse and its condition number, arrays (P, m, m), (P, m, m) and (P,);
    the inverse and the singularity test are every solve's
    (:func:`~algmech.jets.inverse`).  The first sample where the metric is
    not finite or singular raises :class:`EvaluationDomainError` or
    :class:`SingularMetricError` naming it."""
    g = ev.array(L.metric_exprs)
    ginv, k = inverse(g)
    if k < len(g):
        if not np.isfinite(g[k]).all():
            raise EvaluationDomainError(f"fiber metric is not finite at {ev.points[k]}")
        raise SingularMetricError(ev.points[k], float(np.linalg.det(g[k])), k)
    return g, ginv, np.linalg.cond(g)


def canonical_semispray(alg: Algebroid, L: Lagrangian) -> Semispray:
    """The second-order field determined by the symplectic equation of L: the
    solve of the fiber metric against force - drift - twist."""
    m, n = alg.m, alg.n
    y = [Var(c) for c in alg.fiber_coords]
    rhs = []  # force - drift - twist, one tree per b, shared by every component
    for b in range(m):
        force = e_sum(e_mul(alg.anchor[i][b], L.dx[i]) for i in range(n))
        drift = e_sum(
            e_mul(e_mul(alg.anchor[i][a], L.dxy[i][b]), y[a])
            for i in range(n)
            for a in range(m)
        )
        twist = e_sum(
            e_mul(e_mul(alg.structure[b][a][g], y[a]), L.dy[g])
            for a in range(m)
            for g in range(m)
        )
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


def cartan_pairing(alg: Algebroid, L: Lagrangian, ev: PointEvaluator) -> np.ndarray:
    """Values of :func:`cartan_pairing_exprs` at the evaluator's point."""
    return ev.array(cartan_pairing_exprs(alg, L))


def cartan_two_section(
    alg: Algebroid,
    L: Lagrangian,
    A: ProlongationSection,
    B: ProlongationSection,
    ev: PointEvaluator,
) -> float:
    """The symplectic two-section evaluated on a pair of sections."""
    W = cartan_pairing(alg, L, ev)
    ax, av = A.values_at(ev)
    bx, bv = B.values_at(ev)
    return float(np.concatenate([ax, av]) @ W @ np.concatenate([bx, bv]))


def symplectic_residual(
    alg: Algebroid,
    L: Lagrangian,
    S: Semispray,
    A: ProlongationSection,
    ev: PointEvaluator,
) -> float:
    """omega(S, A) + dE(A); vanishes for the canonical field, any A."""
    pairing = cartan_two_section(alg, L, S.section(alg), A, ev)
    ax, av = A.values_at(ev)
    return pairing + directional_derivative(alg, ev, ax, av, L.energy_expr)


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
    (sigma y included), compiled once into a :class:`ValueKernel`; a step
    runs that kernel four times and combines the stages in plain float
    arithmetic, with no numpy call.  The step is fixed (no adaptivity) so
    repeated runs are byte-identical.  A domain error, a singular fiber
    metric, or a state or energy that is not finite, aborts with
    :class:`IntegrationAbortError` carrying the trajectory up to the last
    finite step.
    """
    if dt <= 0.0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    n, m = alg.n, alg.m
    state = [float(v) for v in (*x0, *y0)]
    if len(state) != n + m:
        raise ValueError("initial condition has wrong dimension")
    rhs = ValueKernel(alg.coords, tuple(v for _, v in sode_flow(alg, S)), n)
    energy_at = None if lagrangian is None else ValueKernel(alg.coords, (lagrangian.energy_expr,), n)
    traj = Trajectory([], [], [] if lagrangian is not None else None)

    def record(t: float, z: list[float]) -> None:
        if not all(map(math.isfinite, z)):
            raise IntegrationAbortError(f"non-finite state at t = {t!r}", traj)
        if energy_at is not None:
            e = energy_at(z)[0]
            if not math.isfinite(e):
                raise IntegrationAbortError(f"non-finite energy at t = {t!r}", traj)
            traj.energy.append(e)
        traj.times.append(t)
        traj.states.append((tuple(z[:n]), tuple(z[n:])))

    half, sixth = 0.5 * dt, dt / 6.0
    try:
        record(0.0, state)
        for k in range(steps):
            k1 = rhs(state)
            k2 = rhs([s + half * d for s, d in zip(state, k1)])
            k3 = rhs([s + half * d for s, d in zip(state, k2)])
            k4 = rhs([s + dt * d for s, d in zip(state, k3)])
            state = [
                s + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
                for s, a, b, c, d in zip(state, k1, k2, k3, k4)
            ]
            record((k + 1) * dt, state)
    except (EvaluationDomainError, SingularMetricError) as err:
        raise IntegrationAbortError(str(err), traj) from err
    return traj


def euler_lagrange_residual(
    alg: Algebroid, L: Lagrangian, ev: PointEvaluator, ydot: Sequence[float]
) -> np.ndarray:
    """Residual of the variational equations with d/dt expanded along
    (xdot = sigma y, ydot = given), at the evaluator's point."""
    n = alg.n
    jet = ev.jet(L.expr)
    grad_y = jet.grad[n:]
    h_xy = jet.hess[:n, n:]
    h_yy = jet.hess[n:, n:]
    sigma = alg.anchor_at(ev)
    Ls = alg.structure_at(ev)
    y = np.array(ev.values[n:])
    xdot = sigma @ y
    ydot = np.asarray(ydot, dtype=float)
    ddt = h_xy.T @ xdot + h_yy @ ydot
    rhs = alg.anchored(ev, jet.grad) - np.einsum("abe,b,e->a", Ls, y, grad_y)
    return ddt - rhs
