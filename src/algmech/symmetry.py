"""Symmetry and conservation-law verification for second-order dynamics.

Every check is a pointwise residual sweep over a sample set: a candidate
"holds" when the residuals stay below the tolerance at every point, and each
verdict keeps its per-sample residuals so borderline cases are auditable.
Verification only; no symmetry discovery is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebroid import Algebroid, BaseSection
from .connection import (
    Connection,
    canonical_connection,
    jacobi_endomorphism,
    nabla_horizontal_coeffs,
    nabla_vertical_coeffs,
    nabla_exprs,
)
from .errors import ExactnessWitnessError, FiberDependenceError, SingularPairingError
from .expr import (
    Expr,
    Var,
    ZERO,
    e_mul,
    e_neg,
    e_sub,
    e_sum,
)
from .jets import EvalPoint, Jet2, PointEvaluator
from .lagrangian import Lagrangian, cartan_pairing, cartan_pairing_exprs
from .prolongation import (
    ProlongationSection,
    Semispray,
    basis_sections,
    bracket_at,
    complete_lift,
    covariant_slash_exprs,
    directional_derivative,
    sode_derivative,
    sode_derivative_expr,
)

__all__ = [
    "SymmetryVerdict",
    "ConservedQuantity",
    "CartanReconstruction",
    "dynamical_symmetry_check",
    "newtonoid_check",
    "newtonoid_completion",
    "invariant_equation_residual",
    "lie_symmetry_check",
    "cartan_symmetry_check",
    "conservation_check",
    "conserved_from_cartan",
    "cartan_from_conservation",
    "star_product_exprs",
    "star_product",
]


@dataclass(frozen=True, eq=False)
class SymmetryVerdict:
    kind: str
    max_residual: float
    per_sample: tuple[tuple[EvalPoint, tuple[float, ...]], ...]
    passed: bool
    tol: float
    components: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "max_residual": float(self.max_residual),
            "passed": self.passed,
            "tol": self.tol,
            "components": {k: float(v) for k, v in self.components.items()},
        }


@dataclass(frozen=True, eq=False)
class ConservedQuantity:
    expr: Expr
    provenance: str  # "user" or "from_cartan"
    sdot_max: float
    per_sample: tuple[tuple[EvalPoint, float], ...]
    passed: bool
    tol: float


# ---------------------------------------------------------------------------
# Dynamical symmetries and Newtonoids
# ---------------------------------------------------------------------------


def dynamical_symmetry_check(
    alg: Algebroid,
    S: Semispray,
    A: ProlongationSection,
    samples: Sequence[EvalPoint],
    tol: float,
) -> SymmetryVerdict:
    """Vanishing of the full bracket [S, A]; the two component families are
    reported separately (frame part and fiber part)."""
    Ssec = S.section(alg)
    per = []
    worst = frame_max = fiber_max = 0.0
    for p in samples:
        ev = alg.evaluator(p)
        bx, bv = bracket_at(alg, Ssec, A, ev)
        res = np.concatenate([bx, bv])
        per.append((p, tuple(float(r) for r in res)))
        worst = max(worst, float(np.max(np.abs(res))))
        frame_max = max(frame_max, float(np.max(np.abs(bx))))
        fiber_max = max(fiber_max, float(np.max(np.abs(bv))))
    return SymmetryVerdict(
        kind="dynamical",
        max_residual=worst,
        per_sample=tuple(per),
        passed=worst <= tol,
        tol=tol,
        components={"frame_part": frame_max, "fiber_part": fiber_max},
    )


def newtonoid_completion(
    alg: Algebroid, S: Semispray, x_comps: Sequence[Expr]
) -> ProlongationSection:
    """Fills in the fiber components S(X^a) + y^e L_eb^a X^b, which makes the
    section a Newtonoid by construction."""
    m = alg.m
    y = [Var(c) for c in alg.fiber_coords]
    v_comps = []
    for a in range(m):
        lift = e_sum(
            e_mul(e_mul(y[e], alg.structure[e][b][a]), x_comps[b])
            for e in range(m)
            for b in range(m)
        )
        v_comps.append(e_sum([sode_derivative_expr(alg, S, x_comps[a]), lift]))
    return ProlongationSection(tuple(x_comps), tuple(v_comps))


def newtonoid_check(
    alg: Algebroid,
    S: Semispray,
    A: ProlongationSection,
    samples: Sequence[EvalPoint],
    tol: float,
    N: Connection | None = None,
) -> SymmetryVerdict:
    """Vanishing of J[S, A]; cross-checked against the projection criterion
    v(A) = J(nabla A) for the canonical connection."""
    if N is None:
        N = canonical_connection(alg, S)
    Ssec = S.section(alg)
    nabla_A = nabla_exprs(alg, S, N, A)
    per = []
    worst = proj_max = 0.0
    for p in samples:
        ev = alg.evaluator(p)
        bx, _ = bracket_at(alg, Ssec, A, ev)
        worst = max(worst, float(np.max(np.abs(bx))))
        per.append((p, tuple(float(r) for r in bx)))
        ax, av = A.values_at(ev)
        Nv = N.at(ev)
        vert = av + ax @ Nv  # v(A) fiber components
        jx, _ = nabla_A.values_at(ev)  # J(nabla A) fiber components = frame part
        proj_max = max(proj_max, float(np.max(np.abs(vert - jx))))
    return SymmetryVerdict(
        kind="newtonoid",
        max_residual=worst,
        per_sample=tuple(per),
        passed=worst <= tol,
        tol=tol,
        components={"bracket": worst, "projection": proj_max},
    )


def invariant_equation_residual(
    alg: Algebroid,
    S: Semispray,
    A: ProlongationSection,
    p: EvalPoint,
    N: Connection | None = None,
) -> np.ndarray:
    """Second-order invariant equation on the frame components:
    nabla^2 X^a + R_b^a X^b, meaningful for Newtonoid candidates."""
    if N is None:
        N = canonical_connection(alg, S)
    hor1 = nabla_horizontal_coeffs(alg, S, N, A.x_comps)
    hor2 = nabla_horizontal_coeffs(alg, S, N, hor1)
    ev = alg.evaluator(p)
    R = jacobi_endomorphism(alg, S, N, p)
    x_vals = ev.values_of(A.x_comps)
    return ev.values_of(hor2) + R.T @ x_vals


# ---------------------------------------------------------------------------
# Lie symmetries
# ---------------------------------------------------------------------------


def lie_symmetry_check(
    alg: Algebroid,
    S: Semispray,
    Xt: BaseSection,
    samples: Sequence[EvalPoint],
    tol: float,
    N: Connection | None = None,
) -> SymmetryVerdict:
    """A base section is a Lie symmetry when its complete lift is a dynamical
    symmetry.  Reports the bracket residual, the local PDE residuals, and the
    second-order invariant form; all three must agree in verdict, which the
    test suite asserts on the candidate corpus.  ``N`` is the canonical
    connection of S, built here when not given."""
    if not Xt.x_only:
        raise FiberDependenceError("Lie-symmetry candidates must be x-only sections")
    m, n = alg.m, alg.n
    lift = complete_lift(alg, Xt)
    if N is None:
        N = canonical_connection(alg, S)
    dyn = dynamical_symmetry_check(alg, S, lift, samples, tol)

    slash = covariant_slash_exprs(alg, Xt)
    vert1 = nabla_vertical_coeffs(alg, S, N, Xt.components)
    vert2 = nabla_vertical_coeffs(alg, S, N, vert1)

    pde1_max = pde2_max = second_order_max = 0.0
    for p in samples:
        ev = alg.evaluator(p)
        y = np.array(p.y)
        sigma = alg.anchor_at(ev)
        s_vals = ev.values_of(S.components)
        slash_vals = np.array([[ev.value(slash[e][a]) for a in range(m)] for e in range(m)])
        xt_vals = ev.values_of(Xt.components)
        for b in range(m):
            pde1 = sum(
                s_vals[a] * ev.jet1(Xt.components[b]).grad[alg.n + a] for a in range(m)
            )
            pde1_max = max(pde1_max, abs(pde1))
            grad_s = ev.jet1(S.components[b]).grad
            term1 = sum(
                y[al] * y[e] * float(sigma[:, al] @ ev.jet1(slash[e][b]).grad[:n])
                for al in range(m)
                for e in range(m)
            )
            term2 = sum(xt_vals[a] * float(sigma[:, a] @ grad_s[:n]) for a in range(m))
            term3 = sum(s_vals[a] * slash_vals[a, b] for a in range(m))
            term4 = sum(
                y[e] * slash_vals[e, a] * grad_s[n + a]
                for e in range(m)
                for a in range(m)
            )
            pde2_max = max(pde2_max, abs(term1 - term2 + term3 - term4))
        R = jacobi_endomorphism(alg, S, N, p)
        second_order = ev.values_of(vert2) + R.T @ xt_vals
        second_order_max = max(second_order_max, float(np.max(np.abs(second_order))))
    return SymmetryVerdict(
        kind="lie",
        max_residual=dyn.max_residual,
        per_sample=dyn.per_sample,
        passed=dyn.passed,
        tol=tol,
        components={
            "bracket": dyn.max_residual,
            "pde_fiber": pde1_max,
            "pde_flow": pde2_max,
            "invariant_second_order": second_order_max,
        },
    )


# ---------------------------------------------------------------------------
# Cartan symmetries and conservation laws
# ---------------------------------------------------------------------------


def _two_section_lie_residual(
    alg: Algebroid,
    ev: PointEvaluator,
    L: Lagrangian,
    ax: np.ndarray,
    av: np.ndarray,
    brackets: Sequence[np.ndarray],
) -> float:
    """max over frame pairs r < c of |(L_A omega)(B_r, B_c)|, where A has
    component values (ax, av) and ``brackets[k]`` stacks [A, B_k]."""
    W_exprs = cartan_pairing_exprs(alg, L)
    W = cartan_pairing(alg, L, ev)
    k = len(brackets)
    res = 0.0
    for r in range(k):
        for c in range(r + 1, k):
            lie_w = directional_derivative(alg, ev, ax, av, W_exprs[r][c])
            val = lie_w - float(brackets[r] @ W[:, c]) - float(W[r] @ brackets[c])
            res = max(res, abs(val))
    return res


def cartan_symmetry_check(
    alg: Algebroid,
    L: Lagrangian,
    A: ProlongationSection,
    samples: Sequence[EvalPoint],
    tol: float,
) -> SymmetryVerdict:
    """Invariance of the symplectic two-section and of the energy along A."""
    basis = basis_sections(alg.m)
    per = []
    two_max = energy_max = 0.0
    for p in samples:
        ev = alg.evaluator(p)
        ax, av = A.values_at(ev)
        brackets = [np.concatenate(bracket_at(alg, A, B, ev)) for B in basis]
        res1 = _two_section_lie_residual(alg, ev, L, ax, av, brackets)
        res2 = abs(directional_derivative(alg, ev, ax, av, L.energy_expr))
        per.append((p, (res1, res2)))
        two_max = max(two_max, res1)
        energy_max = max(energy_max, res2)
    worst = max(two_max, energy_max)
    return SymmetryVerdict(
        kind="cartan",
        max_residual=worst,
        per_sample=tuple(per),
        passed=worst <= tol,
        tol=tol,
        components={"two_section": two_max, "energy": energy_max},
    )


def conservation_check(
    alg: Algebroid,
    S: Semispray,
    f: Expr,
    samples: Sequence[EvalPoint],
    tol: float,
    provenance: str = "user",
) -> ConservedQuantity:
    """Constancy of f along the dynamics: S(f) = 0 on the sample set."""
    per = []
    worst = 0.0
    for p in samples:
        val = sode_derivative(alg, S, f, p)
        per.append((p, float(val)))
        worst = max(worst, abs(val))
    return ConservedQuantity(
        expr=f,
        provenance=provenance,
        sdot_max=worst,
        per_sample=tuple(per),
        passed=worst <= tol,
        tol=tol,
    )


def _d_function_on_basis(
    alg: Algebroid, ev: PointEvaluator, f: Expr
) -> np.ndarray:
    """(d f)(B) over the 2m frame sections: anchored x-derivatives, then
    fiber partials."""
    g = ev.jet1(f).grad
    sigma = alg.anchor_at(ev)
    return np.concatenate([sigma.T @ g[: alg.n], g[alg.n :]])


def conserved_from_cartan(
    alg: Algebroid,
    L: Lagrangian,
    S: Semispray,
    A: ProlongationSection,
    f: Expr,
    samples: Sequence[EvalPoint],
    tol: float,
) -> ConservedQuantity:
    """Given an exact Cartan symmetry A with witness f (the Lie derivative of
    the one-section along A equals d f), returns the induced conserved
    quantity f - theta(A) with its residual sweep.

    The witness is verified, not trusted; a failing witness raises
    :class:`ExactnessWitnessError`.
    """
    m = alg.m
    basis = basis_sections(m)
    theta_trees = list(L.dy) + [ZERO] * m
    worst = 0.0
    for p in samples:
        ev = alg.evaluator(p)
        ax, av = A.values_at(ev)
        theta_vals = ev.values_of(L.dy)
        df = _d_function_on_basis(alg, ev, f)
        for k, B in enumerate(basis):
            bx, _ = bracket_at(alg, A, B, ev)
            lie_theta = directional_derivative(alg, ev, ax, av, theta_trees[k]) - float(
                theta_vals @ bx
            )
            worst = max(worst, abs(lie_theta - df[k]))
    if worst > tol:
        raise ExactnessWitnessError(
            f"witness fails exactness: max residual {worst:.3e} > tol {tol:.1e}"
        )
    g_expr = e_sub(f, e_sum(e_mul(L.dy[a], A.x_comps[a]) for a in range(m)))
    return conservation_check(alg, S, g_expr, samples, tol, provenance="from_cartan")


@dataclass
class CartanReconstruction:
    """Section solving the symplectic equation against -d f, per sample."""

    points: list[EvalPoint]
    sections: list[tuple[np.ndarray, np.ndarray]]
    two_section_max: float
    energy_max: float
    tol: float
    passed: bool


def _jet_solve(M: list[list[Jet2]], rhs: list[Jet2]) -> list[Jet2]:
    """Gauss-Jordan elimination over the jet ring (partial pivoting on values)."""
    k = len(M)
    M = [row[:] for row in M]
    rhs = rhs[:]
    scale = max((abs(e.value) for row in M for e in row), default=0.0)
    if scale == 0.0:
        raise SingularPairingError("zero pairing matrix")
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(M[r][col].value))
        if abs(M[piv][col].value) < 1e-12 * scale:
            raise SingularPairingError("pairing matrix numerically singular")
        M[col], M[piv] = M[piv], M[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = M[col][col].reciprocal()
        for r in range(k):
            if r == col:
                continue
            factor = M[r][col] * inv
            for c in range(col, k):
                M[r][c] = M[r][c] - factor * M[col][c]
            rhs[r] = rhs[r] - factor * rhs[col]
    return [rhs[i] * M[i][i].reciprocal() for i in range(k)]


def cartan_from_conservation(
    alg: Algebroid,
    L: Lagrangian,
    f: Expr,
    samples: Sequence[EvalPoint],
    tol: float,
) -> CartanReconstruction:
    """Converse direction: solve the symplectic pairing against -d f for the
    generating section and report its Cartan residuals.

    The linear solve runs in jet arithmetic, so the reconstructed components
    come with exact first partials; that is what the bracket terms of the
    Cartan residual need.
    """
    m = alg.m
    n = alg.n
    W_exprs = cartan_pairing_exprs(alg, L)
    rhs_trees: list[Expr] = []
    for a in range(m):
        rhs_trees.append(
            e_neg(
                e_sum(
                    e_mul(alg.anchor[i][a], alg.derivative(f, alg.base_coords[i]))
                    for i in range(n)
                )
            )
        )
    for a in range(m):
        rhs_trees.append(e_neg(alg.derivative(f, alg.fiber_coords[a])))

    points = []
    sections = []
    two_max = energy_max = 0.0
    for p in samples:
        ev = alg.evaluator(p)
        sigma = alg.anchor_at(ev)
        L_struct = alg.structure_at(ev)
        # omega(X, B_r) = sum_c X^c W[c][r]; system matrix is the transpose
        M = [[ev.jet1(W_exprs[c][r]) for c in range(2 * m)] for r in range(2 * m)]
        rhs = [ev.jet1(t) for t in rhs_trees]
        sol = _jet_solve(M, rhs)
        xs = np.array([s.value for s in sol[:m]])
        vs = np.array([s.value for s in sol[m:]])
        points.append(p)
        sections.append((xs, vs))

        # brackets of the reconstructed section with the frame sections
        brackets = []
        for b in range(m):  # B = X_b
            bx = np.array(
                [
                    float(sum(xs[a] * L_struct[a, b, g] for a in range(m)))
                    - float(sigma[:, b] @ sol[g].grad[:n])
                    for g in range(m)
                ]
            )
            bv = np.array(
                [-float(sigma[:, b] @ sol[m + g].grad[:n]) for g in range(m)]
            )
            brackets.append(np.concatenate([bx, bv]))
        for b in range(m):  # B = V_b
            bx = np.array([-sol[g].grad[n + b] for g in range(m)])
            bv = np.array([-sol[m + g].grad[n + b] for g in range(m)])
            brackets.append(np.concatenate([bx, bv]))
        two_max = max(two_max, _two_section_lie_residual(alg, ev, L, xs, vs, brackets))
        energy_max = max(
            energy_max, abs(directional_derivative(alg, ev, xs, vs, L.energy_expr))
        )
    return CartanReconstruction(
        points=points,
        sections=sections,
        two_section_max=two_max,
        energy_max=energy_max,
        tol=tol,
        passed=(two_max <= tol and energy_max <= tol),
    )


# ---------------------------------------------------------------------------
# Star product
# ---------------------------------------------------------------------------


def star_product_exprs(
    alg: Algebroid, S: Semispray, f: Expr, A: ProlongationSection
) -> ProlongationSection:
    """f * A = f A + S(f) J(A) for Newtonoid A; preserves the Newtonoid set."""
    sf = sode_derivative_expr(alg, S, f)
    x = tuple(e_mul(f, c) for c in A.x_comps)
    v = tuple(
        e_sum([e_mul(f, A.v_comps[a]), e_mul(sf, A.x_comps[a])])
        for a in range(alg.m)
    )
    return ProlongationSection(x, v)


def star_product(
    alg: Algebroid,
    S: Semispray,
    f: Expr,
    A: ProlongationSection,
    p: EvalPoint,
) -> tuple[np.ndarray, np.ndarray]:
    return star_product_exprs(alg, S, f, A).values_at(alg.evaluator(p))
