"""Regular Lagrangians: fiber metric, canonical second-order field, Cartan
sections, energy, and time integration of the induced dynamics.

The canonical semispray components are built as expression trees (derivative
trees of the Lagrangian composed with an adjugate/determinant inverse of the
fiber metric), so every downstream object can take exact first and second
partials of them through jet evaluation.  The fiber metric has one
definition, its trees ``Lagrangian.metric_exprs``: the semispray inverts
them and :func:`fiber_metric` evaluates them.

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
from .expr import (
    Expr,
    ONE,
    Var,
    ZERO,
    e_div,
    e_mul,
    e_neg,
    e_sub,
    e_sum,
)
from .jets import PointEvaluator, SampleEvaluator, ValueKernel
from .prolongation import ProlongationSection, Semispray, directional_derivative

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
    "matrix_inverse_exprs",
]

_DET_RTOL = 1e-10  # relative determinant cutoff for regularity


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


@np.errstate(all="ignore")
def fiber_metric(L: Lagrangian, ev: SampleEvaluator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fiber metric at every sample of ``ev``, its inverse and its
    condition number: arrays (P, m, m), (P, m, m) and (P,).

    The metric is ``L.metric_exprs``, the matrix whose adjugate the canonical
    semispray is built from, read over the caller's evaluator; ``det``,
    ``inv`` and ``cond`` are stacked numpy calls, which give each sample the
    bits of the unstacked call.  At the first sample where the metric is not
    finite or singular (by the determinant cutoff on g / scale or by the
    inverse test after one Newton sweep), this raises
    :class:`EvaluationDomainError` or :class:`SingularMetricError` naming it.
    """
    samples = ev.points
    g = ev.array(L.metric_exprs)
    finite = np.isfinite(g).all(axis=(1, 2))
    # the cutoff is on the determinant of g / scale, which neither
    # underflows nor overflows however small or large g is
    scale = np.max(np.abs(g), axis=(1, 2))
    det = np.linalg.det(g)
    unit_det = np.linalg.det(g / scale[:, None, None])
    bad = ~finite | (scale == 0.0) | (np.abs(unit_det) < _DET_RTOL)
    k = int(np.argmax(bad)) if bad.any() else len(samples)
    eye = np.eye(L.alg.m)
    # inverted only before the first bad sample: a singular g makes inv raise
    ginv = np.linalg.inv(g[:k])
    off = np.max(np.abs(g[:k] @ ginv - eye), axis=(1, 2)) > 1e-12
    ginv[off] = ginv[off] @ (2.0 * eye - g[:k][off] @ ginv[off])  # one Newton sweep
    off = np.max(np.abs(g[:k] @ ginv - eye), axis=(1, 2)) > 1e-12
    k = int(np.argmax(off)) if off.any() else k
    if k < len(samples):
        if not finite[k]:
            raise EvaluationDomainError(f"fiber metric is not finite at {samples[k]}")
        raise SingularMetricError(samples[k], float(det[k]), k)
    return g, ginv, np.linalg.cond(g)


def matrix_inverse_exprs(
    mat: Sequence[Sequence[Expr]],
) -> tuple[tuple[tuple[Expr, ...], ...], Expr]:
    """Adjugate-over-determinant inverse of a small expression matrix.

    Laplace expansion along the first remaining row.  Each minor, named by
    its (rows, columns) of the original matrix, is built once and shared by
    every cofactor that contains it; the trees are those of the plain
    expansion, so their values are too.  O(k^2 2^k) minors.
    """
    rows = [list(r) for r in mat]
    k = len(rows)
    minors: dict[tuple[tuple[int, ...], tuple[int, ...]], Expr] = {}

    def det(rs: tuple[int, ...], cs: tuple[int, ...]) -> Expr:
        if not rs:
            return ONE  # empty minor, reached by the rank-one cofactor
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        key = (rs, cs)
        hit = minors.get(key)
        if hit is not None:
            return hit
        top = rows[rs[0]]
        terms = []
        for j, c in enumerate(cs):
            term = e_mul(top[c], det(rs[1:], cs[:j] + cs[j + 1 :]))
            terms.append(term if j % 2 == 0 else e_neg(term))
        r = minors[key] = e_sum(terms)
        return r

    idx = tuple(range(k))
    full = det(idx, idx)
    inv = []
    for i in range(k):
        inv_row = []
        for j in range(k):
            cof = det(idx[:j] + idx[j + 1 :], idx[:i] + idx[i + 1 :])
            if (i + j) % 2 == 1:
                cof = e_neg(cof)
            inv_row.append(cof)
        inv.append(inv_row)
    return tuple(tuple(e_div(c, full) for c in row) for row in inv), full


def canonical_semispray(alg: Algebroid, L: Lagrangian) -> Semispray:
    """The second-order field determined by the symplectic equation of L."""
    m, n = alg.m, alg.n
    ginv, _ = matrix_inverse_exprs(L.metric_exprs)
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
    comps = [e_sum(e_mul(ginv[e][b], rhs[b]) for b in range(m)) for e in range(m)]
    return Semispray(tuple(comps))


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["t", *alg.base_coords, *alg.fiber_coords]
            if self.energy is not None:
                header.append("E")
            writer.writerow(header)
            for k, (t, (x, y)) in enumerate(zip(self.times, self.states)):
                row = [format(t, ".17g")]
                row += [format(v, ".17g") for v in x]
                row += [format(v, ".17g") for v in y]
                if self.energy is not None:
                    row.append(format(self.energy[k], ".17g"))
                writer.writerow(row)

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

    The step is fixed (no adaptivity) so repeated runs are byte-identical.
    A domain error, or a state or energy that is not finite, aborts with
    :class:`IntegrationAbortError` carrying the trajectory up to the last
    finite step.
    """
    if dt <= 0.0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    n, m = alg.n, alg.m
    state = [float(v) for v in (*x0, *y0)]
    if len(state) != n + m:
        raise ValueError("initial condition has wrong dimension")
    nm = n * m
    anchor_flat = [alg.anchor[i][a] for i in range(n) for a in range(m)]
    field = ValueKernel(alg.coords, (*anchor_flat, *S.components))
    energy_at = None if lagrangian is None else ValueKernel(alg.coords, (lagrangian.energy_expr,))

    # The stages run on float lists in numpy's elementwise order; sigma @ y
    # stays one numpy matmul, whose BLAS sum rounds unlike a Python sum.
    def rhs(z: list[float]) -> list[float]:
        vals = field(z)
        sig = np.array(vals[:nm]).reshape(n, m)
        return (sig @ np.array(z)[n:]).tolist() + vals[nm:]

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
    # an overflow in the matmul shows as a non-finite state, reported once
    with np.errstate(over="ignore", invalid="ignore"):
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
        except EvaluationDomainError as err:
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
