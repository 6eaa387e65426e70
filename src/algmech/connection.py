"""Nonlinear connections and the derived geometry of a second-order field.

Connection coefficients are stored as ``N[a][b]`` (lower index first) and are
always expression-backed, so curvature and S(N) take exact partials of them.
The canonical coefficients induced by a semispray are

    N_a^b = (-dS^b/dy^a + y^e L_ae^b) / 2,

equivalently the negative Lie derivative of the vertical endomorphism along
S; both routes are implemented and cross-checked in the tests, with the
bracket form acting as the arbiter.

Horizontal frame: delta_a = X_a - N_a^b V_b.  The almost complex structure
maps X_b -> N_b^a delta_a - V_b and V_b -> delta_b, the one reading of its
coframe form under which F o J = h, J o F = v and F^2 = -Id hold (the tests
enforce them).  h, v, J and F have one definition each, their matrix of
trees (``h_tensor`` and friends), built once per connection
(:meth:`~algmech.algebroid.Algebroid.derived`), applied to sections as trees
(:meth:`~algmech.prolongation.ExprTensor.apply`; delta_a = h(X_a) is a frame
image, column a of h) and evaluated as values, such as the F of a geometry
frame.

The dynamical covariant derivative nabla is numeric, applied once or twice
(:class:`CovariantDerivative`): each S(.) in it is a directional derivative
of jets, so nabla J and the Newtonoid projection build no tree, and nabla^2
(the invariant equation and the Lie check's second-order form) builds only
the trees S(c) of the components it is applied to.

Every pointwise formula here takes the caller's sample set's evaluator
(a point's is a set of one), with the sample axis first and its products
stacked ``matmul`` (see :mod:`algmech.prolongation`), so a sample gets the
bits of the set of one at it.  The vertical Berwald part cv + N^T cx of a
bracket, which the curvature and Jacobi oracles and the Berwald connection
read, is one helper.  The oracles bracket against whole frames, one
stacked :func:`~algmech.prolongation.bracket` call per left-hand section:
[delta_a, delta_b] for every b (m calls for the curvature), [S, delta_b]
for every b (one call for the Jacobi endomorphism), and -L_S J (two).
nabla T takes two stacked :class:`CovariantDerivative` calls.
:func:`geometry_frames` takes every frame of a sample set as one batch.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebroid import Algebroid
from .errors import EvaluationDomainError
from .expr import (
    Expr,
    ONE,
    ZERO,
    Var,
    e_add,
    e_mul,
    e_neg,
    e_num,
    e_sub,
    e_sum,
)
from .jets import EvalPoint, SampleEvaluator
from .prolongation import (
    ExprTensor,
    ProlongationSection,
    Semispray,
    bracket,
    directional_derivative,
    eye_block,
    frame_derivation,
    j_tensor,
    lie_derivative_tensor,
    spray_homogeneity,
    zeros_block,
)

__all__ = [
    "Connection",
    "canonical_connection",
    "connection_from_lie_derivative",
    "horizontal_basis_exprs",
    "berwald_derivative",
    "curvature",
    "curvature_from_brackets",
    "curvature_apply",
    "jacobi_endomorphism",
    "jacobi_from_bracket",
    "h_tensor",
    "v_tensor",
    "f_tensor",
    "CovariantDerivative",
    "nabla_tensor",
    "berwald_connection",
    "berwald_coefficients",
    "GeometryFrame",
    "geometry_frames",
]


@dataclass(frozen=True, eq=False)
class Connection:
    """Expression-backed nonlinear-connection coefficients."""

    coeffs: tuple[tuple[Expr, ...], ...]  # [a][b] = N_a^b
    canonical: bool

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def at(self, ev: SampleEvaluator) -> np.ndarray:
        return ev.array(self.coeffs)


def canonical_connection(alg: Algebroid, S: Semispray) -> Connection:
    """Coefficients fixed by compatibility of the covariant derivative with
    the vertical endomorphism."""
    half, y, r = e_num(0.5), [Var(c) for c in alg.fiber_coords], range(alg.m)

    def coeff(a: int, b: int) -> Expr:
        twist = e_sum(e_mul(y[e], alg.structure[a][e][b]) for e in r)
        return e_mul(half, e_add(e_neg(alg.derivative(S.components[b], y[a].name)), twist))

    return Connection(tuple(tuple(coeff(a, b) for b in r) for a in r), canonical=True)


def connection_from_lie_derivative(alg: Algebroid, S: Semispray, ev: SampleEvaluator) -> np.ndarray:
    """Independent oracle for the canonical coefficients via -L_S J.

    An almost product structure acts as X_a -> X_a - 2 N_a^g V_g, so the
    coefficients sit in the VX block: N[a][g] = -(-L_S J)[m + g][a] / 2.
    """
    m = alg.m
    lsj = lie_derivative_tensor(alg, S.section(alg), j_tensor(m), ev)
    return 0.5 * lsj[..., m:, :m].swapaxes(-1, -2)


def horizontal_basis_exprs(alg: Algebroid, N: Connection, a: int) -> ProlongationSection:
    """delta_a = h(X_a) = X_a - N_a^b V_b as an expression-backed section,
    built once per connection."""
    return alg.derived(h_tensor, N).frame_images[a]


def berwald_derivative(alg: Algebroid, N: Connection, f: Expr, ev: SampleEvaluator) -> np.ndarray:
    """delta_a(f), the derivative of f along the horizontal frame section
    delta_a, for every a at once: (P, m) over the evaluator's samples."""
    gx, gy = alg.anchored_gradient(ev, f)
    return gx - (N.at(ev) @ gy[..., None])[..., 0]


def curvature(alg: Algebroid, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """R[a][b][g]: obstruction to integrability of the horizontal subbundle,
    R_ab^g = delta_b(N_a^g) - delta_a(N_b^g) + L_ab^e N_e^g."""
    Nv = N.at(ev)
    L = alg.structure_at(ev)
    dN = np.array([[berwald_derivative(alg, N, c, ev) for c in row] for row in N.coeffs])
    dN = np.moveaxis(dN, (0, 1), (-2, -1))  # dN[..., c, a, g] = delta_c(N_a^g)
    return dN.swapaxes(-3, -2) - dN + np.einsum("...abe,...eg->...abg", L, Nv)


def _vertical_part(cx: np.ndarray, cv: np.ndarray, Nv: np.ndarray) -> np.ndarray:
    """cv + N^T cx: the V-frame components of v(A) for A = (cx, cv), the
    vertical Berwald part of a bracket's components."""
    return cv + _vecmat(cx, Nv)


def curvature_from_brackets(alg: Algebroid, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """Oracle: vertical Berwald part of the horizontal frame brackets."""
    Nv = N.at(ev)
    deltas = alg.derived(h_tensor, N).frame_images[: alg.m]
    return np.stack([_vertical_images(alg, a, deltas, Nv, ev) for a in deltas], -3)


def _vertical_images(alg: Algebroid, A: ProlongationSection, Bs, Nv: np.ndarray, ev) -> np.ndarray:
    """The vertical Berwald parts of [A, B] for the sections B of ``Bs``, one
    bracket call: (P, K, m), the slice [..., k, :] that of Bs[k]."""
    return np.moveaxis(_vertical_part(*bracket(alg, A, Bs, ev), Nv), 0, -2)


def curvature_apply(
    alg: Algebroid, N: Connection, A: ProlongationSection, B: ProlongationSection,
    ev: SampleEvaluator,
) -> np.ndarray:
    """Vertical components of Omega(A, B) = v[hA, hB] over the evaluator's samples."""
    h = alg.derived(h_tensor, N)
    return _vertical_part(*bracket(alg, h.apply(A), (h.apply(B),), ev), N.at(ev))[0]


def jacobi_endomorphism(alg: Algebroid, S: Semispray, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """R[b][g] with the vertical-valued tensor acting as X_b -> R_b^g V_g:

        R_b^g = -delta_b(S^g) - S(N_b^g) + N_b^a N_a^g + N_e^g L_ab^e y^a,

    one formula for canonical and arbitrary coefficients alike; it is the
    vertical Berwald part of [S, delta_b], which :func:`jacobi_from_bracket`
    takes from the bracket itself.  A (P, m, m) array over the evaluator's
    samples; the sums over a and e run in the order of the
    formula, one term at a time for every (b, g) at once.
    """
    m = alg.m
    nabla = CovariantDerivative.of(alg, S, N, ev)
    Nv, y, L = nabla.Nv, nabla.y, alg.structure_at(ev)
    # [..., b, g] = delta_b(S^g), and S(N_b^g) as nabla takes it
    dS = np.stack([berwald_derivative(alg, N, c, ev) for c in S.components], axis=-1)
    SN = nabla.ver_terms[0]
    quad = sum(Nv[..., :, a, None] * Nv[..., None, a, :] for a in range(m))
    mixed = sum(
        Nv[..., None, e, :] * L[..., a, :, e, None] * y[..., a, None, None]
        for a in range(m)
        for e in range(m)
    )
    return -dS - SN + quad + mixed


def jacobi_from_bracket(alg: Algebroid, S: Semispray, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """Oracle: R_b^g as the vertical Berwald part of [S, delta_b]."""
    deltas = alg.derived(h_tensor, N).frame_images[: alg.m]
    return _vertical_images(alg, S.section(alg), deltas, N.at(ev), ev)


# ---------------------------------------------------------------------------
# Projectors and the almost complex structure
# ---------------------------------------------------------------------------


def _neg_block(rows) -> tuple[tuple[Expr, ...], ...]:
    return tuple(tuple(e_neg(e) for e in row) for row in rows)


def _transpose(rows) -> tuple[tuple[Expr, ...], ...]:
    m = len(rows)
    return tuple(tuple(rows[c][r] for c in range(m)) for r in range(m))


def h_tensor(alg: Algebroid, N: Connection) -> ExprTensor:
    """The horizontal projector: X_b -> delta_b = X_b - N_b^a V_a, V_b -> 0."""
    zero = zeros_block(alg.m)
    return ExprTensor.of_blocks(eye_block(alg.m), zero, _neg_block(_transpose(N.coeffs)), zero)


def v_tensor(alg: Algebroid, N: Connection) -> ExprTensor:
    """The vertical projector: X_b -> N_b^a V_a, V_b -> V_b."""
    zero = zeros_block(alg.m)
    return ExprTensor.of_blocks(zero, zero, _transpose(N.coeffs), eye_block(alg.m))


def f_tensor(alg: Algebroid, N: Connection) -> ExprTensor:
    """The almost complex structure: X_b -> N_b^a delta_a - V_b, V_b -> delta_b."""
    m, r, Nc = alg.m, range(alg.m), N.coeffs
    nn = [[e_sum(e_mul(Nc[b][a], Nc[a][g]) for a in r) for g in r] for b in r]  # (N N)_b^g
    vx = tuple(tuple(e_sub(e_neg(nn[b][g]), ONE if b == g else ZERO) for b in r) for g in r)
    return ExprTensor.of_blocks(_transpose(Nc), eye_block(m), vx, _neg_block(_transpose(Nc)))


# ---------------------------------------------------------------------------
# Dynamical covariant derivative
# ---------------------------------------------------------------------------


class CovariantDerivative:
    """The dynamical covariant derivative over the evaluator's samples, with
    the sample axis first: ``nabla(sections)`` gives, for each section
    A = (x, v) of the tuple, the pair (hor, ver - N^T hor), where

        hor = S(x) + (N + yL)^T x,   w = v + N^T x,
        ver = S(v) + S(N)^T x + N^T S(x) - (N + dS/dy)^T w,

    with (N + yL)[b][a] = N_b^a + y^e L_eb^a and (N + dS/dy)[b][a] = N_b^a +
    dS^a/dy^b kept apart, so nabla J = 0 tests the canonical relation.  Each
    S(.) is :func:`~algmech.prolongation.directional_derivative` along (y, S)
    and each product a stacked ``matmul``, so a sample gets the bits of the
    set of one at it.

    nabla applied twice (:meth:`twice`) is numeric too.  The per-point terms
    (S(N) and the coefficients, each S(coefficient) only where read) are
    taken once per object: :meth:`of` keeps one per evaluator, system, field
    and connection."""

    def __init__(self, alg: Algebroid, S: Semispray, N: Connection, ev):
        self.alg, self.S, self.N, self.ev = alg, S, N, ev
        self.Nv = N.at(ev)
        self.y = np.asarray(ev.values)[..., alg.n :]
        self.s = ev.values_of(S.components)
        L, y = alg.structure_at(ev), self.y
        self.hor_coeff = self.Nv + sum(y[..., e, None, None] * L[..., e, :, :] for e in range(alg.m))

    @staticmethod
    def of(alg: Algebroid, S: Semispray, N: Connection, ev) -> "CovariantDerivative":
        """The one object of the evaluator, system, field and connection
        (:meth:`~algmech.jets.SampleEvaluator.derived`)."""
        return ev.derived(_covariant_derivative, alg, S, N)

    def _along(self, comps: Sequence[Expr]) -> np.ndarray:
        """S(c) for each tree c of ``comps``, stacked on the last axis."""
        return directional_derivative(self.alg, self.ev, self.y, self.s, comps)

    @cached_property
    def ver_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """S(N)[a][b] = S(N_a^b), and the vertical coefficient N + dS/dy."""
        dS = np.stack([self.ev.jet(c).grad[..., self.alg.n :] for c in self.S.components], -1)
        return np.stack([self._along(row) for row in self.N.coeffs], axis=-2), self.Nv + dS

    @cached_property
    def hor_along(self) -> np.ndarray:
        """S(N + yL)[b][a], the horizontal coefficient differentiated along S."""
        twist = self.alg.twisted_structure
        return self.ver_terms[0] + np.stack([self._along(row) for row in twist], axis=-2)

    @cached_property
    def ver_along(self) -> np.ndarray:
        """S(N + dS/dy)[b][a], the vertical coefficient differentiated along S."""
        alg, comps = self.alg, self.S.components
        dS = [self._along([alg.derivative(c, yb) for c in comps]) for yb in alg.fiber_coords]
        return self.ver_terms[0] + np.stack(dS, axis=-2)

    def horizontal(self, comps: Sequence[Expr]) -> np.ndarray:
        """nabla on the horizontal frame, S(c) + c (N + yL), of the components
        ``comps``: the X-frame part of nabla A for A.x_comps."""
        return self._along(comps) + _vecmat(self.ev.values_of(comps), self.hor_coeff)

    def vertical(self, comps: Sequence[Expr]) -> np.ndarray:
        """nabla on the vertical frame, S(w) - w (N + dS/dy), of ``comps``."""
        return self._along(comps) - _vecmat(self.ev.values_of(comps), self.ver_terms[1])

    def twice(self, comps: Sequence[Expr], along: Sequence[Expr], vertical: bool = False):
        """nabla^2 of the components ``comps`` on the horizontal frame (on the
        vertical one if ``vertical``) by the product rule, given the one level
        of trees ``along`` = S(comps), with C_h = N + yL and C_v = N + dS/dy:

            nabla^2 c = nabla(S(c)) + c S(C_h) + (nabla c) C_h,
            nabla^2 w = nabla(S(w)) - w S(C_v) - (nabla w) C_v."""
        c = self.ev.values_of(comps)
        if vertical:
            first, C = self.vertical(comps), self.ver_terms[1]
            return self.vertical(along) - _vecmat(c, self.ver_along) - _vecmat(first, C)
        first, C = self.horizontal(comps), self.hor_coeff
        return self.horizontal(along) + _vecmat(c, self.hor_along) + _vecmat(first, C)

    def __call__(self, sections: Sequence[ProlongationSection]) -> tuple[np.ndarray, np.ndarray]:
        """nabla of each section of ``sections``: (K, P, m) X and V parts, the
        S(.) of every component one stacked :meth:`_along` call."""
        ev, m = self.ev, self.alg.m
        x, v = (np.array(c) for c in zip(*(A.values_at(ev) for A in sections)))
        comps = tuple(c for A in sections for c in A.x_comps + A.v_comps)
        s = self._along(comps).reshape(-1, len(sections), 2 * m).swapaxes(0, 1)
        sx, (sn, ver_coeff), Nv = s[..., :m], self.ver_terms, self.Nv
        hor = sx + _vecmat(x, self.hor_coeff)
        w = v + _vecmat(x, Nv)
        ver = s[..., m:] + _vecmat(x, sn) + _vecmat(sx, Nv) - _vecmat(w, ver_coeff)
        return hor, ver - _vecmat(hor, Nv)


def _covariant_derivative(ev, alg: Algebroid, S: Semispray, N: Connection) -> CovariantDerivative:
    # held by the evaluator's memo, it holds the evaluator weakly: no cycle
    return CovariantDerivative(alg, S, N, weakref.proxy(ev))


def _vecmat(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x^T M over optional leading axes, one BLAS call per sample."""
    return (x[..., None, :] @ M)[..., 0, :]


def nabla_tensor(
    alg: Algebroid, S: Semispray, N: Connection, T: ExprTensor, ev: SampleEvaluator
) -> np.ndarray:
    """(nabla T)(B) = nabla(T(B)) - T(nabla B) on every frame section, as a
    (2m, 2m) matrix (per sample over a batch), through two calls of the one
    :class:`CovariantDerivative` at the evaluator, on T's frame images and on
    the frame: no tree is built."""
    return frame_derivation(T, ev, CovariantDerivative.of(alg, S, N, ev))


# ---------------------------------------------------------------------------
# Berwald linear connection
# ---------------------------------------------------------------------------


def berwald_connection(
    alg: Algebroid, N: Connection, A: ProlongationSection, B: ProlongationSection,
    ev: SampleEvaluator,
) -> tuple[np.ndarray, np.ndarray]:
    """D_A B through the four-bracket formula

    v[hA, vB] + h[vA, hB] + J[vA, (F+J)B] + (F+J)[hA, JB].
    """
    Nv = N.at(ev)
    h, v = alg.derived(h_tensor, N), alg.derived(v_tensor, N)
    hA, vA = h.apply(A), v.apply(A)
    hB, vB = h.apply(B), v.apply(B)
    jB = j_tensor(alg.m).apply(B)
    # (F + J)B = h of the X-frame section carrying the V-components of vB
    fjB = h.apply(ProlongationSection(vB.v_comps, tuple(ZERO for _ in range(alg.m))))

    def v_proj(cx, cv):
        return np.zeros_like(cx), _vertical_part(cx, cv, Nv)

    def h_proj(cx, cv):
        return cx, -_vecmat(cx, Nv)

    def j_proj(cx, cv):
        return np.zeros_like(cx), cx.copy()

    def fj_proj(cx, cv):
        c = _vertical_part(cx, cv, Nv)
        return c, -_vecmat(c, Nv)

    terms = [
        v_proj(*bracket(alg, hA, (vB,), ev)),
        h_proj(*bracket(alg, vA, (hB,), ev)),
        j_proj(*bracket(alg, vA, (fjB,), ev)),
        fj_proj(*bracket(alg, hA, (jB,), ev)),
    ]
    x = sum(t[0] for t in terms)
    v = sum(t[1] for t in terms)
    return x[0], v[0]


def berwald_coefficients(alg: Algebroid, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """B[a][b][g] = dN_a^g/dy^b, the linear-connection coefficients."""
    grads = [[ev.jet(c).grad[..., alg.n :] for c in row] for row in N.coeffs]  # [a][g][..., b]
    return np.moveaxis(np.array(grads), (0, 1), (-3, -1))


# ---------------------------------------------------------------------------
# Frame report
# ---------------------------------------------------------------------------


@dataclass
class GeometryFrame:
    """All derived tensors of one system evaluated at one point.

    ``residuals`` holds the cross-checks that must vanish for the given
    inputs (bracket oracles, the projector algebra, and for canonical
    coefficients the compatibility identities); ``diagnostics`` carries
    quantities that are only identities under extra hypotheses, such as the
    curvature contraction, which recovers the Jacobi endomorphism only for
    degree-2-homogeneous fields with canonical coefficients.
    """

    point: EvalPoint
    semispray: np.ndarray
    connection: np.ndarray
    curvature: np.ndarray
    jacobi: np.ndarray
    almost_complex: np.ndarray  # 2m x 2m block matrix
    berwald: np.ndarray
    residuals: dict[str, float]
    diagnostics: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "point": {"x": list(self.point.x), "y": list(self.point.y)},
            "semispray": self.semispray.tolist(),
            "connection": self.connection.tolist(),
            "curvature": self.curvature.tolist(),
            "jacobi": self.jacobi.tolist(),
            "almost_complex": self.almost_complex.tolist(),
            "berwald": self.berwald.tolist(),
            "residuals": dict(self.residuals),
            "diagnostics": dict(self.diagnostics),
        }


@np.errstate(all="ignore")
def geometry_frames(
    alg: Algebroid, S: Semispray, N: Connection, ev: SampleEvaluator
) -> list[GeometryFrame]:
    """Every derived tensor with its cross-checks, one frame per point of
    ``ev``, all taken over the batch at once.  numpy warns of nothing here:
    a frame with a number that is not finite (an overflow at a huge point)
    raises :class:`EvaluationDomainError` naming its point instead."""
    Nv, m = N.at(ev), alg.m
    R3 = curvature(alg, N, ev)
    R2 = jacobi_endomorphism(alg, S, N, ev)
    F = alg.derived(f_tensor, N).at(ev)

    def gap(a, b) -> np.ndarray:  # per sample
        d = np.abs(a - b)
        return np.max(d, axis=tuple(range(1, d.ndim)))

    residuals = {
        "jacobi_vs_bracket": gap(R2, jacobi_from_bracket(alg, S, N, ev)),
        "curvature_vs_bracket": gap(R3, curvature_from_brackets(alg, N, ev)),
        "f_squared_plus_identity": gap(F @ F, -np.eye(2 * m)),
    }
    diagnostics = {"homogeneity": spray_homogeneity(alg, S, ev)}
    canonical_only = residuals if N.canonical else diagnostics
    canonical_only["connection_vs_lie_derivative"] = gap(Nv, connection_from_lie_derivative(alg, S, ev))
    canonical_only["nabla_j"] = gap(nabla_tensor(alg, S, N, j_tensor(m), ev), 0.0)
    contraction = gap(R2, np.einsum("...e,...ebg->...bg", ev.values[:, alg.n :], R3))
    semispray, berwald = ev.values_of(S.components), berwald_coefficients(alg, N, ev)

    frames = []
    for k, p in enumerate(ev.points):
        res = {key: float(v[k]) for key, v in residuals.items()}
        diag = {key: float(v[k]) for key, v in diagnostics.items()}
        # the contraction recovers R only for a spray with canonical coefficients
        gated = res if N.canonical and diag["homogeneity"] <= 1e-9 else diag
        gated["phi_vs_curvature_contraction"] = float(contraction[k])
        tensors = (semispray[k], Nv[k], R3[k], R2[k], F[k], berwald[k])
        if not all(np.isfinite(x).all() for x in (*tensors, [*res.values(), *diag.values()])):
            raise EvaluationDomainError(f"geometry is not finite at {p}")
        frames.append(GeometryFrame(p, *tensors, res, diag))
    return frames


# perfbench's traced run wraps the frames under this name
geometry_frame = geometry_frames
