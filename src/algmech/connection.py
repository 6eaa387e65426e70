"""Nonlinear connections and the derived geometry of a second-order field.

Connection coefficients are stored as ``N[a][b]`` (lower index first) and are
always expression-backed, so curvature and the directional derivatives S(N)
can take exact partials of them.  The canonical coefficients induced by a
semispray are

    N_a^b = (-dS^b/dy^a + y^e L_ae^b) / 2,

equivalently the negative Lie derivative of the vertical endomorphism along
S; both routes are implemented and cross-checked in the tests, with the
bracket form acting as the arbiter.

Horizontal frame: delta_a = X_a - N_a^b V_b.  The almost complex structure
maps X_b -> N_b^a delta_a - V_b and V_b -> delta_b, which is the unique
reading of its coframe form under which F o J = h, J o F = v, and
F^2 = -Id all hold (the shipped tests enforce them).

The projectors h and v and the structures J and F have one definition
each, their matrix of trees (``h_tensor`` and friends), which the package
builds once per connection (:meth:`~algmech.algebroid.Algebroid.derived`).
Every tree-level use, from delta_a = h(X_a) (kept as the tensor's frame
images) to the four brackets of the Berwald connection, applies them with
:meth:`~algmech.prolongation.ExprTensor.apply`, and every value, such as
the F of a geometry frame, is that matrix evaluated at the point.  The
covariant-derivative coefficients read the system's y^e L_eb^a trees
(:attr:`~algmech.algebroid.Algebroid.twisted_structure`), so each call builds
only its O(m^2) wrapper nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .jets import EvalPoint, PointEvaluator, SampleEvaluator
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
    sode_derivative_expr,
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
    "nabla_exprs",
    "nabla_horizontal_coeffs",
    "nabla_vertical_coeffs",
    "nabla_tensor",
    "berwald_connection",
    "berwald_coefficients",
    "GeometryFrame",
    "geometry_frame",
]


@dataclass(frozen=True, eq=False)
class Connection:
    """Expression-backed nonlinear-connection coefficients."""

    coeffs: tuple[tuple[Expr, ...], ...]  # [a][b] = N_a^b
    canonical: bool

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def at(self, ev: PointEvaluator) -> np.ndarray:
        return ev.array(self.coeffs)


def canonical_connection(alg: Algebroid, S: Semispray) -> Connection:
    """Coefficients fixed by compatibility of the covariant derivative with
    the vertical endomorphism."""
    m = alg.m
    half = e_num(0.5)
    y = [Var(c) for c in alg.fiber_coords]
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            twist = e_sum(e_mul(y[e], alg.structure[a][e][b]) for e in range(m))
            row.append(
                e_mul(
                    half,
                    e_add(
                        e_neg(alg.derivative(S.components[b], alg.fiber_coords[a])),
                        twist,
                    ),
                )
            )
        rows.append(tuple(row))
    return Connection(tuple(rows), canonical=True)


def connection_from_lie_derivative(
    alg: Algebroid, S: Semispray, ev: PointEvaluator
) -> np.ndarray:
    """Independent oracle for the canonical coefficients via -L_S J.

    An almost product structure acts as X_a -> X_a - 2 N_a^g V_g, so the
    coefficients sit in the VX block: N[a][g] = -(-L_S J)[m + g][a] / 2.
    """
    m = alg.m
    lsj = lie_derivative_tensor(alg, S.section(alg), j_tensor(m), ev)
    return 0.5 * lsj[m:, :m].T


def horizontal_basis_exprs(alg: Algebroid, N: Connection, a: int) -> ProlongationSection:
    """delta_a = h(X_a) = X_a - N_a^b V_b as an expression-backed section,
    built once per connection."""
    return alg.derived(h_tensor, N).frame_images[a]


def berwald_derivative(
    alg: Algebroid, N: Connection, f: Expr, ev: PointEvaluator | SampleEvaluator
) -> np.ndarray:
    """delta_a(f), the derivative of f along the horizontal frame section
    delta_a, for every a at once: an (m,) vector at the evaluator's point,
    (P, m) over its samples."""
    g = ev.jet1(f).grad
    return alg.anchored(ev, g) - (N.at(ev) @ g[..., alg.n :, None])[..., 0]


def curvature(alg: Algebroid, N: Connection, ev: PointEvaluator) -> np.ndarray:
    """R[a][b][g]: obstruction to integrability of the horizontal subbundle."""
    m = alg.m
    Nv = N.at(ev)
    L = alg.structure_at(ev)
    dN = np.zeros((m, m, m))  # dN[c][a][g] = delta_c(N_a^g)
    for a in range(m):
        for g in range(m):
            dN[:, a, g] = berwald_derivative(alg, N, N.coeffs[a][g], ev)
    R = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            R[a, b] = dN[b, a] - dN[a, b] + np.einsum("e,eg->g", L[a, b], Nv)
    return R


def curvature_from_brackets(alg: Algebroid, N: Connection, ev: PointEvaluator) -> np.ndarray:
    """Oracle: vertical Berwald part of the horizontal frame brackets."""
    m = alg.m
    Nv = N.at(ev)
    deltas = alg.derived(h_tensor, N).frame_images[:m]
    R = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            cx, cv = bracket(alg, deltas[a], deltas[b], ev)
            R[a, b] = cv + cx @ Nv
    return R


def curvature_apply(
    alg: Algebroid,
    N: Connection,
    A: ProlongationSection,
    B: ProlongationSection,
    ev: PointEvaluator,
) -> np.ndarray:
    """Vertical components of Omega(A, B) = v[hA, hB] at the evaluator's point."""
    Nv = N.at(ev)
    h = alg.derived(h_tensor, N)
    cx, cv = bracket(alg, h.apply(A), h.apply(B), ev)
    return cv + cx @ Nv


def jacobi_endomorphism(
    alg: Algebroid, S: Semispray, N: Connection, ev: PointEvaluator | SampleEvaluator
) -> np.ndarray:
    """R[b][g] with the vertical-valued tensor acting as X_b -> R_b^g V_g:

        R_b^g = -delta_b(S^g) - S(N_b^g) + N_b^a N_a^g + N_e^g L_ab^e y^a,

    one formula for canonical and arbitrary coefficients alike; it is the
    vertical Berwald part of [S, delta_b], which :func:`jacobi_from_bracket`
    takes from the bracket itself.  An (m, m) array at the evaluator's point,
    (P, m, m) over its samples; the sums over a and e run in the order of the
    formula, one term at a time for every (b, g) at once.
    """
    m = alg.m
    Nv = N.at(ev)
    L = alg.structure_at(ev)
    y = np.asarray(ev.values)[..., alg.n :]
    s_vals = ev.values_of(S.components)
    # [..., b, g] = delta_b(S^g), and S(N_b^g)
    dS = np.stack([berwald_derivative(alg, N, c, ev) for c in S.components], axis=-1)
    SN = np.array(
        [[directional_derivative(alg, ev, y, s_vals, c) for c in row] for row in N.coeffs]
    )
    SN = np.moveaxis(SN, (0, 1), (-2, -1))
    quad = sum(Nv[..., :, a, None] * Nv[..., None, a, :] for a in range(m))
    mixed = sum(
        Nv[..., None, e, :] * L[..., a, :, e, None] * y[..., a, None, None]
        for a in range(m)
        for e in range(m)
    )
    return -dS - SN + quad + mixed


def jacobi_from_bracket(
    alg: Algebroid, S: Semispray, N: Connection, ev: PointEvaluator
) -> np.ndarray:
    """Oracle: R_b^g as the vertical Berwald part of [S, delta_b]."""
    m = alg.m
    Nv = N.at(ev)
    Ssec = S.section(alg)
    R = np.zeros((m, m))
    for b, delta in enumerate(alg.derived(h_tensor, N).frame_images[:m]):
        cx, cv = bracket(alg, Ssec, delta, ev)
        R[b] = cv + cx @ Nv
    return R


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
    m = alg.m
    nn = tuple(
        tuple(
            e_sum(e_mul(N.coeffs[b][a], N.coeffs[a][g]) for a in range(m))
            for g in range(m)
        )
        for b in range(m)
    )  # nn[b][g] = (N N)_b^g
    vx = tuple(
        tuple(
            e_sub(e_neg(nn[b][g]), ONE if b == g else ZERO) for b in range(m)
        )
        for g in range(m)
    )
    return ExprTensor.of_blocks(
        _transpose(N.coeffs), eye_block(m), vx, _neg_block(_transpose(N.coeffs))
    )


# ---------------------------------------------------------------------------
# Dynamical covariant derivative
# ---------------------------------------------------------------------------


def nabla_horizontal_coeffs(
    alg: Algebroid, S: Semispray, N: Connection, comps: Sequence[Expr]
) -> tuple[Expr, ...]:
    """Coefficient trees of the covariant derivative on the horizontal frame:
    S(c^a) + (N_b^a + y^e L_eb^a) c^b."""
    m = alg.m
    twisted = alg.twisted_structure
    out = []
    for a in range(m):
        terms = [sode_derivative_expr(alg, S, comps[a])]
        for b in range(m):
            coeff = e_add(N.coeffs[b][a], twisted[b][a])
            terms.append(e_mul(coeff, comps[b]))
        out.append(e_sum(terms))
    return tuple(out)


def nabla_vertical_coeffs(
    alg: Algebroid, S: Semispray, N: Connection, comps: Sequence[Expr]
) -> tuple[Expr, ...]:
    """Coefficient trees on the vertical frame: S(w^a) - (N_b^a + dS^a/dy^b) w^b."""
    m = alg.m
    out = []
    for a in range(m):
        terms = [sode_derivative_expr(alg, S, comps[a])]
        for b in range(m):
            coeff = e_add(
                N.coeffs[b][a],
                alg.derivative(S.components[a], alg.fiber_coords[b]),
            )
            terms.append(e_neg(e_mul(coeff, comps[b])))
        out.append(e_sum(terms))
    return tuple(out)


def nabla_exprs(
    alg: Algebroid, S: Semispray, N: Connection, A: ProlongationSection
) -> ProlongationSection:
    """The covariant derivative of a section, as trees in the moving frame."""
    m = alg.m
    w = tuple(
        e_add(
            A.v_comps[b],
            e_sum(e_mul(N.coeffs[a][b], A.x_comps[a]) for a in range(m)),
        )
        for b in range(m)
    )
    hor = nabla_horizontal_coeffs(alg, S, N, A.x_comps)
    ver = nabla_vertical_coeffs(alg, S, N, w)
    return ProlongationSection(
        hor,
        tuple(
            e_sub(ver[g], e_sum(e_mul(hor[a], N.coeffs[a][g]) for a in range(m)))
            for g in range(m)
        ),
    )


def nabla_tensor(
    alg: Algebroid, S: Semispray, N: Connection, T: ExprTensor, ev: PointEvaluator
) -> np.ndarray:
    """(nabla T)(B) = nabla(T(B)) - T(nabla B) on every frame section, as a
    (2m, 2m) matrix.

    The trees of nabla(T(B)) and nabla(B) are built once per (S, N, T) and
    kept by the system (:meth:`~algmech.algebroid.Algebroid.derived`), so
    pass the same objects at every point: each call evaluates only.
    """
    return frame_derivation(T, ev, lambda X: alg.derived(nabla_exprs, S, N, X).values_at(ev))


# ---------------------------------------------------------------------------
# Berwald linear connection
# ---------------------------------------------------------------------------


def berwald_connection(
    alg: Algebroid,
    N: Connection,
    A: ProlongationSection,
    B: ProlongationSection,
    ev: PointEvaluator,
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
        return np.zeros_like(cx), cv + cx @ Nv

    def h_proj(cx, cv):
        return cx, -(cx @ Nv)

    def j_proj(cx, cv):
        return np.zeros_like(cx), cx.copy()

    def fj_proj(cx, cv):
        c = cx @ Nv + cv
        return c, -(c @ Nv)

    terms = [
        v_proj(*bracket(alg, hA, vB, ev)),
        h_proj(*bracket(alg, vA, hB, ev)),
        j_proj(*bracket(alg, vA, fjB, ev)),
        fj_proj(*bracket(alg, hA, jB, ev)),
    ]
    x = sum(t[0] for t in terms)
    v = sum(t[1] for t in terms)
    return x, v


def berwald_coefficients(alg: Algebroid, N: Connection, ev: PointEvaluator) -> np.ndarray:
    """B[a][b][g] = dN_a^g/dy^b, the linear-connection coefficients."""
    m = alg.m
    out = np.zeros((m, m, m))
    for a in range(m):
        for g in range(m):
            out[a, :, g] = ev.jet1(N.coeffs[a][g]).grad[alg.n :]
    return out


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
def geometry_frame(
    alg: Algebroid, S: Semispray, N: Connection, p: EvalPoint
) -> GeometryFrame:
    """Every derived tensor at ``p`` with its cross-checks.  numpy warns of
    nothing here: a frame with a number that is not finite (an overflow at a
    huge point) raises :class:`EvaluationDomainError` naming ``p`` instead."""
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    m = alg.m
    y = np.array(p.y)
    R3 = curvature(alg, N, ev)
    R2 = jacobi_endomorphism(alg, S, N, ev)
    F = alg.derived(f_tensor, N).at(ev)
    eye2m = np.eye(2 * m)

    homogeneity = spray_homogeneity(alg, S, ev)
    is_spray_here = homogeneity <= 1e-9

    residuals = {
        "jacobi_vs_bracket": float(
            np.max(np.abs(R2 - jacobi_from_bracket(alg, S, N, ev)))
        ),
        "curvature_vs_bracket": float(
            np.max(np.abs(R3 - curvature_from_brackets(alg, N, ev)))
        ),
        "f_squared_plus_identity": float(
            np.max(np.abs(F @ F + eye2m))
        ),
    }
    diagnostics = {"homogeneity": homogeneity}

    N_oracle = connection_from_lie_derivative(alg, S, ev)
    canonical_gap = float(np.max(np.abs(Nv - N_oracle)))
    nj = nabla_tensor(alg, S, N, j_tensor(m), ev)
    nabla_j = float(np.max(np.abs(nj)))
    contraction = float(np.max(np.abs(R2 - np.einsum("e,ebg->bg", y, R3))))
    if N.canonical:
        residuals["connection_vs_lie_derivative"] = canonical_gap
        residuals["nabla_j"] = nabla_j
        if is_spray_here:
            residuals["phi_vs_curvature_contraction"] = contraction
        else:
            diagnostics["phi_vs_curvature_contraction"] = contraction
    else:
        diagnostics["connection_vs_lie_derivative"] = canonical_gap
        diagnostics["nabla_j"] = nabla_j
        diagnostics["phi_vs_curvature_contraction"] = contraction

    frame = GeometryFrame(
        point=p,
        semispray=ev.values_of(S.components),
        connection=Nv,
        curvature=R3,
        jacobi=R2,
        almost_complex=F,
        berwald=berwald_coefficients(alg, N, ev),
        residuals=residuals,
        diagnostics=diagnostics,
    )
    scalars = [*residuals.values(), *diagnostics.values()]
    numbers = (frame.semispray, Nv, R3, R2, F, frame.berwald, scalars)
    if not all(np.isfinite(x).all() for x in numbers):
        raise EvaluationDomainError(f"geometry is not finite at {p}")
    return frame
