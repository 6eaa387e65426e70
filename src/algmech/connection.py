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
:mod:`algmech.linalg`'s, so a sample gets the bits of the set of one at it.
The vertical Berwald part cv + N^T cx of a bracket, which the curvature and
Jacobi oracles and the Berwald connection read, is one helper.  Each oracle
is one stacked bracket call: [delta_a, delta_b] for every a and b
(:func:`~algmech.prolongation.brackets`), [S, delta_b] for every b, and
-L_S J, on J's frame images and the frame together; nabla T is one stacked
:class:`CovariantDerivative` call the same way, and every delta_c
derivative of a tensor one stacked product.
:func:`geometry_frames` takes every frame of a sample set as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .algebroid import Algebroid
from .errors import EvaluationDomainError
from .expr import (
    Expr,
    ONE,
    ZERO,
    Var,
    e_add,
    e_dot,
    e_mul,
    e_neg,
    e_num,
    e_sub,
)
from .jets import EvalPoint, SampleEvaluator
from .prolongation import (
    ExprTensor,
    ProlongationSection,
    Semispray,
    _values,
    bracket,
    brackets,
    directional_derivative,
    eye_block,
    frame_derivation,
    j_tensor,
    lie_derivative_tensor,
    spray_homogeneity,
    zeros_block,
)

__all__ = [
    "Connection", "canonical_connection", "connection_from_lie_derivative",
    "horizontal_basis_exprs", "berwald_derivative", "curvature", "curvature_from_brackets",
    "curvature_apply", "jacobi_endomorphism", "jacobi_from_bracket", "h_tensor", "v_tensor",
    "f_tensor", "CovariantDerivative", "nabla_tensor", "berwald_connection",
    "berwald_coefficients", "GeometryFrame", "geometry_frames",
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
        twist = alg.structure_dot((y[e], alg.structure[a][e][b]) for e in r)
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
    return _berwald_derivatives(alg, N, (f,), ev)[0]


def _berwald_derivatives(alg: Algebroid, N: Connection, fs: Sequence[Expr], ev) -> np.ndarray:
    """delta_a(f) for each tree f of ``fs``: (C, P, m), the anchored
    gradients stacked into one product with N, each slice a one-tree call's."""
    gx, gy = (np.array(g) for g in zip(*alg.anchored_gradients(ev, fs)))
    return gx - linalg.matvec(N.at(ev), gy)


def curvature(alg: Algebroid, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """R[a][b][g]: obstruction to integrability of the horizontal subbundle,
    R_ab^g = delta_b(N_a^g) - delta_a(N_b^g) + L_ab^e N_e^g, with every
    delta_c(N_a^g) one stacked derivative."""
    Nv, m = N.at(ev), alg.m
    L = alg.structure_at(ev)
    dN = _berwald_derivatives(alg, N, [c for row in N.coeffs for c in row], ev).reshape(m, m, -1, m)
    dN = np.moveaxis(dN, (0, 1), (-2, -1))  # dN[..., c, a, g] = delta_c(N_a^g)
    return dN.swapaxes(-3, -2) - dN + linalg.abe_eg(L, Nv)


def _vertical_part(cx: np.ndarray, cv: np.ndarray, Nv: np.ndarray) -> np.ndarray:
    """cv + N^T cx: the V-frame components of v(A) for A = (cx, cv), the
    vertical Berwald part of a bracket's components."""
    return cv + linalg.vecmat(cx, Nv)


def curvature_from_brackets(alg: Algebroid, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """Oracle: vertical Berwald part of the horizontal frame brackets
    [delta_a, delta_b], one :func:`~algmech.prolongation.brackets` call."""
    deltas = alg.derived(h_tensor, N).frame_images[: alg.m]
    return np.moveaxis(_vertical_part(*brackets(alg, deltas, deltas, ev), N.at(ev)), -2, 0)


def curvature_apply(
    alg: Algebroid, N: Connection, A: ProlongationSection, B: ProlongationSection,
    ev: SampleEvaluator,
) -> np.ndarray:
    """Vertical components of Omega(A, B) = v[hA, hB] over the evaluator's samples."""
    hA, _, hB = alg.derived(_berwald_sections, N, A, B)[:3]
    return _vertical_part(*bracket(alg, hA, (hB,), ev), N.at(ev))[0]


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
    nabla = CovariantDerivative(alg, S, N, ev)
    Nv, y, L = nabla.Nv, nabla.y, alg.structure_at(ev)
    # [..., b, g] = delta_b(S^g), and S(N_b^g) as nabla takes it
    dS = np.moveaxis(_berwald_derivatives(alg, N, S.components, ev), 0, -1)
    SN = nabla.ver_terms[0]
    quad = sum(Nv[..., :, a, None] * Nv[..., None, a, :] for a in range(m))
    # a sum of zeros is +0.0 where finite: the same bits as adding 0.0
    mixed = 0.0 if alg.zero_structure else sum(
        Nv[..., None, e, :] * L[..., a, :, e, None] * y[..., a, None, None] for a in range(m) for e in range(m)
    )
    return -dS - SN + quad + mixed


def jacobi_from_bracket(alg: Algebroid, S: Semispray, N: Connection, ev: SampleEvaluator) -> np.ndarray:
    """Oracle: R_b^g as the vertical Berwald part of [S, delta_b]."""
    deltas = alg.derived(h_tensor, N).frame_images[: alg.m]
    return np.moveaxis(_vertical_part(*bracket(alg, S.section(alg), deltas, ev), N.at(ev)), 0, -2)


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
    nn = [[e_dot((Nc[b][a], Nc[a][g]) for a in r) for g in r] for b in r]  # (N N)_b^g
    vx = tuple(tuple(e_sub(e_neg(nn[b][g]), ONE if b == g else ZERO) for b in r) for g in r)
    return ExprTensor.of_blocks(_transpose(Nc), eye_block(m), vx, _neg_block(_transpose(Nc)))


# ---------------------------------------------------------------------------
# Dynamical covariant derivative
# ---------------------------------------------------------------------------


def _kept(f):
    """A property computed on first read and kept in the object's ``terms``."""
    def get(self):
        if f.__name__ not in self.terms:
            self.terms[f.__name__] = f(self)
        return self.terms[f.__name__]
    return property(get, doc=f.__doc__)


class CovariantDerivative:
    """The dynamical covariant derivative over the evaluator's samples, with
    the sample axis first: ``nabla(sections)`` gives, for each section
    A = (x, v) of the tuple, the pair (hor, ver - N^T hor), where

        hor = S(x) + (N + yL)^T x,   w = v + N^T x,
        ver = S(v) + S(N)^T x + N^T S(x) - (N + dS/dy)^T w,

    with (N + yL)[b][a] = N_b^a + y^e L_eb^a and (N + dS/dy)[b][a] = N_b^a +
    dS^a/dy^b kept apart, so nabla J = 0 tests the canonical relation.  Each
    S(.) is :func:`~algmech.prolongation.directional_derivative` along (y, S)
    and each product :func:`~algmech.linalg.vecmat`.

    nabla applied twice (:meth:`twice`) is numeric too.  The per-point terms
    (N + yL, S(N) and each S(coefficient), only where read) are taken once
    per evaluator, system, field and connection: every object over the
    evaluator keeps them in the one dict of ``terms`` that the evaluator's
    memo holds for those (:meth:`~algmech.jets.SampleEvaluator.derived`).
    That dict holds no evaluator, and an object holds its evaluator, so an
    object works for as long as its caller holds it, with no cycle."""

    def __init__(self, alg: Algebroid, S: Semispray, N: Connection, ev):
        self.alg, self.S, self.N, self.ev = alg, S, N, ev
        self.terms = ev.derived(_terms, alg, S, N)
        self.Nv, self.y = N.at(ev), np.asarray(ev.values)[..., alg.n :]
        self.s = ev.values_of(S.components)

    @_kept
    def hor_coeff(self) -> np.ndarray:
        """(N + yL)[b][a] = N_b^a + y^e L_eb^a, the horizontal coefficient."""
        return self.Nv + self.ev.array(self.alg.twisted_structure)

    def _along(self, comps: Sequence[Expr]) -> np.ndarray:
        """S(c) for each tree c of ``comps``, stacked on the last axis."""
        return directional_derivative(self.alg, self.ev, self.y, self.s, comps)

    def _along_rows(self, rows) -> np.ndarray:
        """S(.) of an m-by-m matrix of trees, one :meth:`_along` call: (P, m, m)."""
        return self._along([c for row in rows for c in row]).reshape(-1, self.alg.m, self.alg.m)

    @_kept
    def ver_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """S(N)[a][b] = S(N_a^b), and the vertical coefficient N + dS/dy."""
        dS = np.stack([self.ev.jet(c).grad[..., self.alg.n :] for c in self.S.components], -1)
        return self._along_rows(self.N.coeffs), self.Nv + dS

    @_kept
    def hor_along(self) -> np.ndarray:
        """S(N + yL)[b][a], the horizontal coefficient differentiated along S."""
        return self.ver_terms[0] + self._along_rows(self.alg.twisted_structure)

    @_kept
    def ver_along(self) -> np.ndarray:
        """S(N + dS/dy)[b][a], the vertical coefficient differentiated along S."""
        alg, comps = self.alg, self.S.components
        dS = [[alg.derivative(c, yb) for c in comps] for yb in alg.fiber_coords]
        return self.ver_terms[0] + self._along_rows(dS)

    def horizontal(self, comps: Sequence[Expr]) -> np.ndarray:
        """nabla on the horizontal frame, S(c) + c (N + yL), of the components
        ``comps``: the X-frame part of nabla A for A.x_comps."""
        return self._along(comps) + linalg.vecmat(self.ev.values_of(comps), self.hor_coeff)

    def vertical(self, comps: Sequence[Expr]) -> np.ndarray:
        """nabla on the vertical frame, S(w) - w (N + dS/dy), of ``comps``."""
        return self._along(comps) - linalg.vecmat(self.ev.values_of(comps), self.ver_terms[1])

    def twice(self, comps: Sequence[Expr], along: Sequence[Expr], vertical: bool = False):
        """nabla^2 of the components ``comps`` on the horizontal frame (on the
        vertical one if ``vertical``) by the product rule, given the one level
        of trees ``along`` = S(comps), with C_h = N + yL and C_v = N + dS/dy:

            nabla^2 c = nabla(S(c)) + c S(C_h) + (nabla c) C_h,
            nabla^2 w = nabla(S(w)) - w S(C_v) - (nabla w) C_v."""
        c = self.ev.values_of(comps)
        if vertical:
            first, C = self.vertical(comps), self.ver_terms[1]
            return self.vertical(along) - linalg.vecmat(c, self.ver_along) - linalg.vecmat(first, C)
        first, C = self.horizontal(comps), self.hor_coeff
        return self.horizontal(along) + linalg.vecmat(c, self.hor_along) + linalg.vecmat(first, C)

    def __call__(self, sections: Sequence[ProlongationSection]) -> tuple[np.ndarray, np.ndarray]:
        """nabla of each section of ``sections``: (K, P, m) X and V parts, the
        S(.) of every component one stacked :meth:`_along` call."""
        ev, m = self.ev, self.alg.m
        x, v = _values(sections, ev)
        comps = tuple(c for A in sections for c in A.x_comps + A.v_comps)
        s = self._along(comps).reshape(-1, len(sections), 2 * m).swapaxes(0, 1)
        sx, (sn, ver_coeff), Nv = s[..., :m], self.ver_terms, self.Nv
        hor = sx + linalg.vecmat(x, self.hor_coeff)
        w = _vertical_part(x, v, Nv)
        ver = s[..., m:] + linalg.vecmat(x, sn) + linalg.vecmat(sx, Nv) - linalg.vecmat(w, ver_coeff)
        return hor, ver - linalg.vecmat(hor, Nv)


def _terms(ev, alg: Algebroid, S: Semispray, N: Connection) -> dict:
    return {}


def nabla_tensor(
    alg: Algebroid, S: Semispray, N: Connection, T: ExprTensor, ev: SampleEvaluator
) -> np.ndarray:
    """(nabla T)(B) = nabla(T(B)) - T(nabla B) on every frame section, as a
    (2m, 2m) matrix (per sample over a batch), through one call of the one
    :class:`CovariantDerivative` at the evaluator, on T's frame images and
    the frame: no tree is built."""
    return frame_derivation(T, ev, CovariantDerivative(alg, S, N, ev))


# ---------------------------------------------------------------------------
# Berwald linear connection
# ---------------------------------------------------------------------------


def berwald_connection(
    alg: Algebroid, N: Connection, A: ProlongationSection, B: ProlongationSection,
    ev: SampleEvaluator,
) -> tuple[np.ndarray, np.ndarray]:
    """D_A B through the four-bracket formula

    v[hA, vB] + h[vA, hB] + J[vA, (F+J)B] + (F+J)[hA, JB],

    in two bracket calls, one per left-hand section.
    """
    Nv = N.at(ev)
    hA, vA, hB, vB, jB, fjB = alg.derived(_berwald_sections, N, A, B)
    (x1, x4), (v1, v4) = bracket(alg, hA, (vB, jB), ev)  # [hA, vB] and [hA, JB]
    (x2, x3), _ = bracket(alg, vA, (hB, fjB), ev)  # [vA, hB] and [vA, (F+J)B]
    c4 = _vertical_part(x4, v4, Nv)
    # the four terms' X and V parts (v, h, J and F+J of those), added from 0.0 in that order
    x = 0.0 + x2 + c4
    return x, 0.0 + _vertical_part(x1, v1, Nv) - linalg.vecmat(x2, Nv) + x3 - linalg.vecmat(c4, Nv)


def _berwald_sections(alg: Algebroid, N: Connection, A, B) -> tuple[ProlongationSection, ...]:
    """hA, vA, hB, vB, JB and (F + J)B, built once per system, connection
    and pair, so a loop over one evaluator walks no new tree."""
    h, v = alg.derived(h_tensor, N), alg.derived(v_tensor, N)
    vB = v.apply(B)
    # (F + J)B = h of the X-frame section carrying the V-components of vB
    fjB = h.apply(ProlongationSection(vB.v_comps, (ZERO,) * alg.m))
    return h.apply(A), v.apply(A), h.apply(B), vB, j_tensor(alg.m).apply(B), fjB


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
        "f_squared_plus_identity": gap(linalg.matmul(F, F), -np.eye(2 * m)),
    }
    diagnostics = {"homogeneity": spray_homogeneity(alg, S, ev)}
    canonical_only = residuals if N.canonical else diagnostics
    canonical_only["connection_vs_lie_derivative"] = gap(Nv, connection_from_lie_derivative(alg, S, ev))
    canonical_only["nabla_j"] = gap(nabla_tensor(alg, S, N, j_tensor(m), ev), 0.0)
    contraction = gap(R2, linalg.e_ebg(ev.values[:, alg.n :], R3))
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
