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

The projectors h and v and the structures J and F are expression-backed
tensors (``h_tensor`` and friends); every tree-level use, from delta_a = h(X_a)
to the four brackets of the Berwald connection, applies them with
:meth:`~algmech.prolongation.ExprTensor.apply`.  The covariant-derivative
coefficients read the system's y^e L_eb^a trees
(:attr:`~algmech.algebroid.Algebroid.twisted_structure`), so each call builds
only its O(m^2) wrapper nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebroid import Algebroid
from .expr import (
    Expr,
    Num,
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
from .jets import EvalPoint, PointEvaluator
from .prolongation import (
    ExprTensor,
    ProlongationSection,
    Semispray,
    TensorBlock11,
    basis_sections,
    bracket_at,
    eye_block,
    frame_derivation,
    j_tensor,
    lie_derivative_tensor,
    sode_derivative_expr,
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
    "structure_tensors",
    "h_tensor",
    "v_tensor",
    "f_tensor",
    "nabla_exprs",
    "nabla_section",
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
    alg: Algebroid, S: Semispray, p: EvalPoint
) -> np.ndarray:
    """Independent oracle for the canonical coefficients via -L_S J.

    An almost product structure acts as X_a -> X_a - 2 N_a^g V_g, so the
    coefficients sit in the VX block: N[a][g] = -(-L_S J).vx[g][a] / 2.
    """
    lsj = lie_derivative_tensor(alg, S.section(alg), j_tensor(alg.m), p)
    return 0.5 * lsj.vx.T


def horizontal_basis_exprs(alg: Algebroid, N: Connection, a: int) -> ProlongationSection:
    """delta_a = h(X_a) = X_a - N_a^b V_b as an expression-backed section."""
    return h_tensor(alg, N).apply(ProlongationSection.basis_x(alg.m, a))


def berwald_derivative(
    alg: Algebroid, N: Connection, f: Expr, a: int, p: EvalPoint
) -> float:
    """Derivative of f along the horizontal frame section delta_a."""
    ev = alg.evaluator(p)
    g = ev.jet1(f).grad
    sigma = alg.anchor_at(ev)
    Nv = N.at(ev)
    return float(sigma[:, a] @ g[: alg.n] - Nv[a] @ g[alg.n :])


def _delta_gradient(
    alg: Algebroid, ev: PointEvaluator, Nv: np.ndarray, f: Expr
) -> np.ndarray:
    """delta_a(f) for all a at once."""
    g = ev.jet1(f).grad
    sigma = alg.anchor_at(ev)
    return sigma.T @ g[: alg.n] - Nv @ g[alg.n :]


def curvature(alg: Algebroid, N: Connection, p: EvalPoint) -> np.ndarray:
    """R[a][b][g]: obstruction to integrability of the horizontal subbundle."""
    m = alg.m
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    L = alg.structure_at(ev)
    dN = np.zeros((m, m, m))  # dN[c][a][g] = delta_c(N_a^g)
    for a in range(m):
        for g in range(m):
            dN[:, a, g] = _delta_gradient(alg, ev, Nv, N.coeffs[a][g])
    R = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            R[a, b] = dN[b, a] - dN[a, b] + np.einsum("e,eg->g", L[a, b], Nv)
    return R


def curvature_from_brackets(alg: Algebroid, N: Connection, p: EvalPoint) -> np.ndarray:
    """Oracle: vertical Berwald part of the horizontal frame brackets."""
    m = alg.m
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    h = h_tensor(alg, N)
    deltas = [h.apply(X) for X in basis_sections(m)[:m]]
    R = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            cx, cv = bracket_at(alg, deltas[a], deltas[b], ev)
            R[a, b] = cv + cx @ Nv
    return R


def curvature_apply(
    alg: Algebroid,
    N: Connection,
    A: ProlongationSection,
    B: ProlongationSection,
    p: EvalPoint,
) -> np.ndarray:
    """Vertical components of Omega(A, B) = v[hA, hB] at a point."""
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    h = h_tensor(alg, N)
    cx, cv = bracket_at(alg, h.apply(A), h.apply(B), ev)
    return cv + cx @ Nv


def _sode_apply_values(
    alg: Algebroid, ev: PointEvaluator, s_vals: np.ndarray, f: Expr
) -> float:
    """S(f) at the point, given the values of S's components.

    Kept apart from ``directional_derivative``: it sums (sigma y) . df/dx,
    not y . (sigma^T df/dx), and the reported Jacobi endomorphism depends on
    that order in the last bit when the anchor depends on x.
    """
    if isinstance(f, Num):
        return 0.0
    g = ev.jet1(f).grad
    sigma = alg.anchor_at(ev)
    y = np.array(ev.values[alg.n :])
    return float((sigma @ y) @ g[: alg.n] + s_vals @ g[alg.n :])


def jacobi_endomorphism(
    alg: Algebroid, S: Semispray, N: Connection, p: EvalPoint
) -> np.ndarray:
    """R[b][g] with the vertical-valued tensor acting as X_b -> R_b^g V_g.

    Uses the closed form specialised to canonical coefficients when
    ``N.canonical`` is set, the general form otherwise.
    """
    m, n = alg.m, alg.n
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    L = alg.structure_at(ev)
    sigma = alg.anchor_at(ev)
    y = np.array(p.y)
    dS_x = np.zeros((m, n))  # [g][i] = dS^g/dx^i
    dS_y = np.zeros((m, m))  # [g][a] = dS^g/dy^a
    for g in range(m):
        grad = ev.jet1(S.components[g]).grad
        dS_x[g] = grad[:n]
        dS_y[g] = grad[n:]
    s_vals = ev.values_of(S.components)
    SN = np.zeros((m, m))  # [b][g] = S(N_b^g)
    for b in range(m):
        for g in range(m):
            SN[b, g] = _sode_apply_values(alg, ev, s_vals, N.coeffs[b][g])
    R = np.zeros((m, m))
    for b in range(m):
        for g in range(m):
            base = -float(sigma[:, b] @ dS_x[g]) - SN[b, g]
            if N.canonical:
                # - N_c^g N_b^c + (L_eb^c N_c^g + L_ce^g N_b^c) y^e
                quad = -sum(Nv[c, g] * Nv[b, c] for c in range(m))
                mixed = sum(
                    y[e] * (L[e, b, c] * Nv[c, g] + L[c, e, g] * Nv[b, c])
                    for e in range(m)
                    for c in range(m)
                )
            else:
                # + N_b^a N_a^g + N_b^a dS^g/dy^a + N_e^g L_ab^e y^a
                quad = sum(
                    Nv[b, a] * (Nv[a, g] + dS_y[g, a]) for a in range(m)
                )
                mixed = sum(
                    Nv[e, g] * L[a, b, e] * y[a] for a in range(m) for e in range(m)
                )
            R[b, g] = base + quad + mixed
    return R


def jacobi_from_bracket(
    alg: Algebroid, S: Semispray, N: Connection, p: EvalPoint
) -> np.ndarray:
    """Oracle: R_b^g as the vertical Berwald part of [S, delta_b]."""
    m = alg.m
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    Ssec = S.section(alg)
    h = h_tensor(alg, N)
    R = np.zeros((m, m))
    for b, X in enumerate(basis_sections(m)[:m]):
        cx, cv = bracket_at(alg, Ssec, h.apply(X), ev)
        R[b] = cv + cx @ Nv
    return R


# ---------------------------------------------------------------------------
# Projectors and the almost complex structure
# ---------------------------------------------------------------------------


def structure_tensors(
    Nv: np.ndarray,
) -> tuple[TensorBlock11, TensorBlock11, TensorBlock11]:
    """(h, v, F) at a point, from the connection coefficient values."""
    m = Nv.shape[0]
    eye = np.eye(m)
    zero = np.zeros((m, m))
    h = TensorBlock11(xx=eye.copy(), xv=zero.copy(), vx=-Nv.T, vv=zero.copy())
    v = TensorBlock11(xx=zero.copy(), xv=zero.copy(), vx=Nv.T.copy(), vv=eye.copy())
    F = TensorBlock11(xx=Nv.T.copy(), xv=eye.copy(), vx=-(Nv @ Nv).T - eye, vv=-Nv.T)
    return h, v, F


def _neg_block(rows) -> tuple[tuple[Expr, ...], ...]:
    return tuple(tuple(e_neg(e) for e in row) for row in rows)


def _transpose(rows) -> tuple[tuple[Expr, ...], ...]:
    m = len(rows)
    return tuple(tuple(rows[c][r] for c in range(m)) for r in range(m))


def h_tensor(alg: Algebroid, N: Connection) -> ExprTensor:
    m = alg.m
    return ExprTensor(
        xx=eye_block(m),
        xv=zeros_block(m),
        vx=_neg_block(_transpose(N.coeffs)),
        vv=zeros_block(m),
    )


def v_tensor(alg: Algebroid, N: Connection) -> ExprTensor:
    m = alg.m
    return ExprTensor(
        xx=zeros_block(m),
        xv=zeros_block(m),
        vx=_transpose(N.coeffs),
        vv=eye_block(m),
    )


def f_tensor(alg: Algebroid, N: Connection) -> ExprTensor:
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
    return ExprTensor(
        xx=_transpose(N.coeffs),
        xv=eye_block(m),
        vx=vx,
        vv=_neg_block(_transpose(N.coeffs)),
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


def nabla_section(
    alg: Algebroid,
    S: Semispray,
    N: Connection,
    A: ProlongationSection,
    p: EvalPoint,
) -> tuple[np.ndarray, np.ndarray]:
    return nabla_exprs(alg, S, N, A).values_at(alg.evaluator(p))


def nabla_tensor(
    alg: Algebroid, S: Semispray, N: Connection, T: ExprTensor, p: EvalPoint
) -> TensorBlock11:
    """(nabla T)(B) = nabla(T(B)) - T(nabla B) on every frame section."""
    ev = alg.evaluator(p)
    return frame_derivation(T, ev, lambda X: nabla_exprs(alg, S, N, X).values_at(ev))


# ---------------------------------------------------------------------------
# Berwald linear connection
# ---------------------------------------------------------------------------


def berwald_connection(
    alg: Algebroid,
    N: Connection,
    A: ProlongationSection,
    B: ProlongationSection,
    p: EvalPoint,
) -> tuple[np.ndarray, np.ndarray]:
    """D_A B through the four-bracket formula

    v[hA, vB] + h[vA, hB] + J[vA, (F+J)B] + (F+J)[hA, JB].
    """
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    h, v = h_tensor(alg, N), v_tensor(alg, N)
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
        v_proj(*bracket_at(alg, hA, vB, ev)),
        h_proj(*bracket_at(alg, vA, hB, ev)),
        j_proj(*bracket_at(alg, vA, fjB, ev)),
        fj_proj(*bracket_at(alg, hA, jB, ev)),
    ]
    x = sum(t[0] for t in terms)
    v = sum(t[1] for t in terms)
    return x, v


def berwald_coefficients(alg: Algebroid, N: Connection, p: EvalPoint) -> np.ndarray:
    """B[a][b][g] = dN_a^g/dy^b, the linear-connection coefficients."""
    m = alg.m
    ev = alg.evaluator(p)
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


def geometry_frame(
    alg: Algebroid, S: Semispray, N: Connection, p: EvalPoint
) -> GeometryFrame:
    ev = alg.evaluator(p)
    Nv = N.at(ev)
    m = alg.m
    y = np.array(p.y)
    R3 = curvature(alg, N, p)
    R2 = jacobi_endomorphism(alg, S, N, p)
    h, v, F = structure_tensors(Nv)
    eye2m = np.eye(2 * m)

    homogeneity = 0.0
    for a in range(m):
        jet = ev.jet1(S.components[a])
        homogeneity = max(
            homogeneity, abs(float(y @ jet.grad[alg.n :]) - 2.0 * jet.value)
        )
    is_spray_here = homogeneity <= 1e-9

    residuals = {
        "jacobi_vs_bracket": float(
            np.max(np.abs(R2 - jacobi_from_bracket(alg, S, N, p)))
        ),
        "curvature_vs_bracket": float(
            np.max(np.abs(R3 - curvature_from_brackets(alg, N, p)))
        ),
        "f_squared_plus_identity": float(
            np.max(np.abs(F.matrix @ F.matrix + eye2m))
        ),
    }
    diagnostics = {"homogeneity": homogeneity}

    N_oracle = connection_from_lie_derivative(alg, S, p)
    canonical_gap = float(np.max(np.abs(Nv - N_oracle)))
    nj = nabla_tensor(alg, S, N, j_tensor(m), p)
    nabla_j = float(np.max(np.abs(nj.matrix)))
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

    return GeometryFrame(
        point=p,
        semispray=ev.values_of(S.components),
        connection=Nv,
        curvature=R3,
        jacobi=R2,
        almost_complex=F.matrix,
        berwald=berwald_coefficients(alg, N, p),
        residuals=residuals,
        diagnostics=diagnostics,
    )
