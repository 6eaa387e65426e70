"""Symmetry and conservation-law verification for second-order dynamics.

Every check is a residual sweep over a sample set, all at once, through the
:class:`~algmech.jets.SampleEvaluator` its caller passes (one evaluator
shared by every check on that set shares its memo): a candidate "holds" when
the residuals stay below the tolerance at every point, and each verdict keeps
its per-sample residuals, paired with the evaluator's points, so borderline
cases are auditable.
Verification only; no symmetry discovery is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebroid import Algebroid, BaseSection, inner, sweep_max
from .connection import (
    Connection,
    CovariantDerivative,
    canonical_connection,
    jacobi_endomorphism,
)
from .errors import (
    ExactnessWitnessError,
    FiberDependenceError,
    SingularMetricError,
    SingularPairingError,
)
from .expr import Expr, Var, ZERO, e_mul, e_neg, e_sub, e_sum, solve
from .jets import EvalPoint, SampleEvaluator
from .lagrangian import Lagrangian, cartan_pairing, cartan_pairing_exprs
from .prolongation import (
    ProlongationSection,
    Semispray,
    basis_sections,
    bracket,
    complete_lift,
    covariant_slash_exprs,
    directional_derivative,
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


@np.errstate(all="ignore")
def dynamical_symmetry_check(
    alg: Algebroid, S: Semispray, A: ProlongationSection, ev: SampleEvaluator, tol: float
) -> SymmetryVerdict:
    """Vanishing of the full bracket [S, A]; the two component families are
    reported separately (frame part and fiber part)."""
    (bx,), (bv,) = bracket(alg, S.section(alg), (A,), ev)
    res = np.concatenate([bx, bv], axis=-1)
    worst = sweep_max("dynamical", ev, np.abs(res))
    return SymmetryVerdict(
        kind="dynamical",
        max_residual=worst,
        per_sample=_per_sample(ev, res),
        passed=worst <= tol,
        tol=tol,
        components={
            "frame_part": sweep_max("dynamical", ev, np.abs(bx)),
            "fiber_part": sweep_max("dynamical", ev, np.abs(bv)),
        },
    )


def _per_sample(ev: SampleEvaluator, res: np.ndarray) -> tuple:
    """(point, residuals as floats) per sample of ``ev``, from a (P, k) array."""
    return tuple(zip(ev.points, map(tuple, res.tolist())))


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


@np.errstate(all="ignore")
def newtonoid_check(
    alg: Algebroid,
    S: Semispray,
    A: ProlongationSection,
    ev: SampleEvaluator,
    tol: float,
    N: Connection | None = None,
) -> SymmetryVerdict:
    """Vanishing of J[S, A]; cross-checked against the projection criterion
    v(A) = J(nabla A) for the canonical connection."""
    if N is None:
        N = alg.derived(canonical_connection, S)
    (bx,), _ = bracket(alg, S.section(alg), (A,), ev)
    worst = sweep_max("newtonoid", ev, np.abs(bx))
    ax, av = A.values_at(ev)
    vert = av + (ax[..., None, :] @ N.at(ev))[..., 0, :]  # v(A) fiber components
    jx = CovariantDerivative.of(alg, S, N, ev).horizontal(A.x_comps)  # J(nabla A): the frame part
    return SymmetryVerdict(
        kind="newtonoid",
        max_residual=worst,
        per_sample=_per_sample(ev, bx),
        passed=worst <= tol,
        tol=tol,
        components={
            "bracket": worst,
            "projection": sweep_max("newtonoid projection", ev, np.abs(vert - jx)),
        },
    )


def invariant_equation_residual(
    alg: Algebroid, S: Semispray, A: ProlongationSection, ev: SampleEvaluator,
    N: Connection | None = None,
) -> np.ndarray:
    """Second-order invariant equation on the frame components:
    nabla^2 X^a + R_b^a X^b, meaningful for Newtonoid candidates, (P, m)
    over the evaluator's samples; nabla^2 is numeric and builds only S(X^a)."""
    if N is None:
        N = alg.derived(canonical_connection, S)
    along = tuple(sode_derivative_expr(alg, S, c) for c in A.x_comps)
    return _invariant_form(alg, S, N, ev, A.x_comps, along, vertical=False)


def _invariant_form(alg, S, N, ev, comps, along, vertical: bool) -> np.ndarray:
    """nabla^2 c + R^T c on the horizontal or vertical frame, given the trees
    ``along`` = S(c) (:meth:`~algmech.connection.CovariantDerivative.twice`)."""
    second = CovariantDerivative.of(alg, S, N, ev).twice(comps, along, vertical)
    R = jacobi_endomorphism(alg, S, N, ev)
    return second + (np.swapaxes(R, -1, -2) @ ev.values_of(comps)[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Lie symmetries
# ---------------------------------------------------------------------------


def _lie_trees(alg: Algebroid, S: Semispray, Xt: BaseSection) -> tuple:
    """The complete lift of Xt, its covariant slash and the trees S(Xt),
    built once per system, field and section."""
    along = tuple(sode_derivative_expr(alg, S, c) for c in Xt.components)
    return complete_lift(alg, Xt), covariant_slash_exprs(alg, Xt), along


@np.errstate(all="ignore")
def lie_symmetry_check(
    alg: Algebroid,
    S: Semispray,
    Xt: BaseSection,
    ev: SampleEvaluator,
    tol: float,
    N: Connection | None = None,
) -> SymmetryVerdict:
    """A base section is a Lie symmetry when its complete lift is a dynamical
    symmetry.  Reports the bracket residual, the local PDE residuals, and the
    second-order invariant form; all three must agree in verdict, which the
    test suite asserts on the candidate corpus.  ``N`` is the canonical
    connection of S when not given, built once per system and field.  The
    check's trees (the lift, the slash and S(Xt)) are built once per system,
    field and section; nabla^2 of the invariant form is numeric."""
    if not Xt.x_only:
        raise FiberDependenceError("Lie-symmetry candidates must be x-only sections")
    m, n = alg.m, alg.n
    if N is None:
        N = alg.derived(canonical_connection, S)
    lift, slash, along = alg.derived(_lie_trees, S, Xt)
    dyn = dynamical_symmetry_check(alg, S, lift, ev, tol)

    y = ev.values[:, n:]
    sigma = alg.anchor_at(ev)
    s_vals = ev.values_of(S.components)
    slash_vals = ev.array(slash)
    xt_vals = ev.values_of(Xt.components)
    pde1 = []
    pde2 = []
    for b in range(m):
        grad_xt = ev.jet(Xt.components[b]).grad
        pde1.append(sum(s_vals[:, a] * grad_xt[:, n + a] for a in range(m)))
        grad_s = ev.jet(S.components[b]).grad
        term1 = sum(
            y[:, al] * y[:, e] * inner(sigma[:, :, al], ev.jet(slash[e][b]).grad[:, :n])
            for al in range(m)
            for e in range(m)
        )
        term2 = sum(xt_vals[:, a] * inner(sigma[:, :, a], grad_s[:, :n]) for a in range(m))
        term3 = sum(s_vals[:, a] * slash_vals[:, a, b] for a in range(m))
        term4 = sum(
            y[:, e] * slash_vals[:, e, a] * grad_s[:, n + a]
            for e in range(m)
            for a in range(m)
        )
        pde2.append(term1 - term2 + term3 - term4)
    second_order = _invariant_form(alg, S, N, ev, Xt.components, along, vertical=True)
    pde1_max = sweep_max("lie pde_fiber", ev, np.abs(np.stack(pde1, axis=-1)))
    pde2_max = sweep_max("lie pde_flow", ev, np.abs(np.stack(pde2, axis=-1)))
    second_order_max = sweep_max("lie invariant", ev, np.abs(second_order))
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


@np.errstate(all="ignore")
def cartan_symmetry_check(
    alg: Algebroid, L: Lagrangian, A: ProlongationSection, ev: SampleEvaluator, tol: float
) -> SymmetryVerdict:
    """Invariance of the symplectic two-section and of the energy along A:
    the two-section part is the max over frame pairs r < c of
    |(L_A omega)(B_r, B_c)|, with the brackets [A, B_k] one frame-wide
    bracket call and A(W_rc), A(E) one stacked directional derivative."""
    ax, av = A.values_at(ev)
    W_exprs, W = cartan_pairing_exprs(alg, L), cartan_pairing(alg, L, ev)
    brk = np.concatenate(bracket(alg, A, basis_sections(alg.m), ev), axis=-1)
    pairs = [(r, c) for r in range(len(brk)) for c in range(r + 1, len(brk))]
    trees = [*(W_exprs[r][c] for r, c in pairs), L.energy_expr]
    dW = directional_derivative(alg, ev, ax, av, trees)
    two = [
        np.abs(dW[..., j] - inner(brk[r], W[..., :, c]) - inner(W[..., r, :], brk[c]))
        for j, (r, c) in enumerate(pairs)
    ]
    energy = np.abs(dW[..., -1])
    res = np.stack([np.max(two, axis=0, initial=0.0), energy], axis=-1)
    two_max = sweep_max("cartan two-section", ev, res[:, 0])
    energy_max = sweep_max("cartan energy", ev, res[:, 1])
    worst = max(two_max, energy_max)
    return SymmetryVerdict(
        kind="cartan",
        max_residual=worst,
        per_sample=_per_sample(ev, res),
        passed=worst <= tol,
        tol=tol,
        components={"two_section": two_max, "energy": energy_max},
    )


@np.errstate(all="ignore")
def conservation_check(
    alg: Algebroid,
    S: Semispray,
    f: Expr,
    ev: SampleEvaluator,
    tol: float,
    provenance: str = "user",
) -> ConservedQuantity:
    """Constancy of f along the dynamics: S(f) = 0 on the sample set."""
    ax, av = S.section(alg).values_at(ev)
    sdot = directional_derivative(alg, ev, ax, av, (f,))[..., 0]
    worst = sweep_max("conservation", ev, np.abs(sdot))
    return ConservedQuantity(
        expr=f,
        provenance=provenance,
        sdot_max=worst,
        per_sample=tuple(zip(ev.points, sdot.tolist())),
        passed=worst <= tol,
        tol=tol,
    )


@np.errstate(all="ignore")
def conserved_from_cartan(
    alg: Algebroid,
    L: Lagrangian,
    S: Semispray,
    A: ProlongationSection,
    f: Expr,
    ev: SampleEvaluator,
    tol: float,
) -> ConservedQuantity:
    """Given an exact Cartan symmetry A with witness f (the Lie derivative of
    the one-section along A equals d f), returns the induced conserved
    quantity f - theta(A) with its residual sweep.

    The witness is verified, not trusted; a failing witness raises
    :class:`ExactnessWitnessError`.
    """
    m = alg.m
    theta_trees = list(L.dy) + [ZERO] * m
    ax, av = A.values_at(ev)
    theta_vals = ev.values_of(L.dy)
    df = np.concatenate(alg.anchored_gradient(ev, f), axis=-1)  # (d f)(B) over the frame sections
    d_theta = directional_derivative(alg, ev, ax, av, theta_trees)
    bx, _ = bracket(alg, A, basis_sections(m), ev)  # bx[k]: the X part of [A, B_k]
    lie_theta = d_theta - inner(theta_vals, bx).T
    worst = sweep_max("exactness witness", ev, np.abs(lie_theta - df))
    if worst > tol:
        raise ExactnessWitnessError(
            f"witness fails exactness: max residual {worst:.3e} > tol {tol:.1e}"
        )
    g_expr = e_sub(f, e_sum(e_mul(L.dy[a], A.x_comps[a]) for a in range(m)))
    return conservation_check(alg, S, g_expr, ev, tol, provenance="from_cartan")


@dataclass
class CartanReconstruction:
    """Section solving the symplectic equation against -d f, per sample."""

    points: list[EvalPoint]
    sections: list[tuple[np.ndarray, np.ndarray]]
    two_section_max: float
    energy_max: float
    tol: float
    passed: bool


@np.errstate(all="ignore")
def cartan_from_conservation(
    alg: Algebroid, L: Lagrangian, f: Expr, ev: SampleEvaluator, tol: float
) -> CartanReconstruction:
    """Converse direction: the section solving the symplectic pairing against
    -d f, as :class:`~algmech.expr.Solve` trees, with the residuals of
    :func:`cartan_symmetry_check`.  A singular pairing raises
    :class:`SingularPairingError` naming the first such sample."""
    m, n = alg.m, alg.n
    df = [alg.derivative(f, c) for c in alg.coords]
    rhs = [e_neg(e_sum(e_mul(alg.anchor[i][a], df[i]) for i in range(n))) for a in range(m)]
    sol = solve(L.pairing_transpose, rhs + [e_neg(df[n + a]) for a in range(m)])
    A = ProlongationSection(sol[:m], sol[m:])
    try:
        xs, vs = A.values_at(ev)
        verdict = cartan_symmetry_check(alg, L, A, ev, tol)
    except SingularMetricError as err:
        raise SingularPairingError(f"pairing matrix numerically singular at {err.point}") from err
    two, energy = verdict.components["two_section"], verdict.components["energy"]
    return CartanReconstruction(
        points=list(ev.points), sections=list(zip(xs, vs)), two_section_max=two,
        energy_max=energy, tol=tol, passed=verdict.passed,
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
