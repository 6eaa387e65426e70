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

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .algebroid import Algebroid, BaseSection, sweep_max
from .connection import (
    Connection,
    CovariantDerivative,
    _vertical_part,
    canonical_connection,
    jacobi_endomorphism,
)
from .errors import (
    ExactnessWitnessError,
    FiberDependenceError,
    SingularMetricError,
    SingularPairingError,
)
from .expr import Expr, Var, ZERO, e_add, e_dot, e_mul, e_neg, e_sub, solve
from .jets import EvalPoint, SampleEvaluator
from .lagrangian import Lagrangian, cartan_pairing, cartan_pairing_exprs
from .prolongation import (
    ProlongationSection,
    Semispray,
    basis_sections,
    bracket,
    brackets,
    complete_lift,
    covariant_slash_exprs,
    directional_derivative,
    sode_derivative_expr,
)

__all__ = [
    "SymmetryVerdict", "ConservedQuantity", "CartanReconstruction", "dynamical_symmetry_check",
    "newtonoid_check", "newtonoid_completion", "invariant_equation_residual", "lie_symmetry_check",
    "cartan_symmetry_check", "conservation_check", "conserved_from_cartan",
    "cartan_from_conservation", "star_product_exprs", "prepare_checks",
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
    (bx, bv), = ev.rows(_sode_brackets, (alg, S), (A,))
    res = np.concatenate([bx, bv], axis=-1)
    worst = sweep_max("dynamical", ev, np.abs(res))
    frame, fiber = (sweep_max("dynamical", ev, np.abs(b)) for b in (bx, bv))
    return _verdict("dynamical", ev, res, worst, tol, frame_part=frame, fiber_part=fiber)


def _sode_brackets(ev: SampleEvaluator, alg: Algebroid, S: Semispray, As) -> zip:
    """[S, A] for each section A of ``As``, one bracket call: the rows the
    dynamical, Newtonoid and Lie checks read."""
    return zip(*bracket(alg, S.section(alg), As, ev))


def _frame_brackets(ev: SampleEvaluator, alg: Algebroid, As) -> np.ndarray:
    """[A, B_k] over the frame sections B_k for each section A of ``As``, one
    :func:`~algmech.prolongation.brackets` call: (2m, P, 2m) per A, the
    rows the Cartan check reads."""
    return np.concatenate(brackets(alg, As, basis_sections(alg.m), ev), axis=-1)


def _sode_derivatives(ev: SampleEvaluator, alg: Algebroid, S: Semispray, fs) -> np.ndarray:
    """S(f) for each tree f of ``fs``, one stacked directional derivative."""
    return directional_derivative(alg, ev, *S.section(alg).values_at(ev), fs).T


@np.errstate(all="ignore")
def prepare_checks(
    alg: Algebroid, S: Semispray, L: Lagrangian | None, ev: SampleEvaluator,
    sections: Sequence[ProlongationSection] = (), bases: Sequence[BaseSection] = (),
    functions: Sequence[Expr] = (),
) -> None:
    """Takes the stacked parts of every check on a candidate list at once:
    [S, .] for each prolongation section and each x-only base section's
    complete lift, [A, frame] for each prolongation section (with a
    Lagrangian ``L``) and S(f) for each function, one call each.  The checks
    then read their rows; each row has the bits of a batch of one."""
    lifts = [alg.derived(_lie_trees, S, b)[0] for b in bases if b.x_only]
    ev.rows(_sode_brackets, (alg, S), [*sections, *lifts])
    if L is not None:
        ev.rows(_frame_brackets, (alg,), sections)
    ev.rows(_sode_derivatives, (alg, S), functions)


def _verdict(kind: str, ev: SampleEvaluator, res: np.ndarray, worst: float, tol: float, **components):
    """The verdict with the (P, k) residuals ``res`` as floats per point."""
    per_sample = tuple(zip(ev.points, map(tuple, res.tolist())))
    return SymmetryVerdict(kind, worst, per_sample, worst <= tol, tol, components)


def newtonoid_completion(
    alg: Algebroid, S: Semispray, x_comps: Sequence[Expr]
) -> ProlongationSection:
    """Fills in the fiber components S(X^a) + y^e L_eb^a X^b, which makes the
    section a Newtonoid by construction."""
    m, r = alg.m, range(alg.m)
    y = [Var(c) for c in alg.fiber_coords]
    v_comps = []
    for a in range(m):
        lift = alg.structure_dot((y[e], alg.structure[e][b][a], x_comps[b]) for e in r for b in r)
        v_comps.append(e_add(sode_derivative_expr(alg, S, x_comps[a]), lift))
    return ProlongationSection(tuple(x_comps), tuple(v_comps))


@np.errstate(all="ignore")
def newtonoid_check(
    alg: Algebroid, S: Semispray, A: ProlongationSection, ev: SampleEvaluator, tol: float,
    N: Connection | None = None,
) -> SymmetryVerdict:
    """Vanishing of J[S, A]; cross-checked against the projection criterion
    v(A) = J(nabla A) for the canonical connection."""
    if N is None:
        N = alg.derived(canonical_connection, S)
    (bx, _), = ev.rows(_sode_brackets, (alg, S), (A,))
    worst = sweep_max("newtonoid", ev, np.abs(bx))
    ax, av = A.values_at(ev)
    vert = _vertical_part(ax, av, N.at(ev))  # v(A) fiber components
    jx = CovariantDerivative(alg, S, N, ev).horizontal(A.x_comps)  # J(nabla A): the frame part
    projection = sweep_max("newtonoid projection", ev, np.abs(vert - jx))
    return _verdict("newtonoid", ev, bx, worst, tol, bracket=worst, projection=projection)


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
    second = CovariantDerivative(alg, S, N, ev).twice(comps, along, vertical)
    R = ev.derived(_jacobi, alg, S, N)
    return second + linalg.matvec(np.swapaxes(R, -1, -2), ev.values_of(comps))


def _jacobi(ev: SampleEvaluator, alg: Algebroid, S: Semispray, N: Connection) -> np.ndarray:
    """The Jacobi endomorphism, taken once per evaluator for every Lie candidate."""
    return jacobi_endomorphism(alg, S, N, ev)


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
    alg: Algebroid, S: Semispray, Xt: BaseSection, ev: SampleEvaluator, tol: float,
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
    if N is None:
        N = alg.derived(canonical_connection, S)
    lift, slash, along = alg.derived(_lie_trees, S, Xt)
    dyn = dynamical_symmetry_check(alg, S, lift, ev, tol)

    pde1, pde2 = _lie_pde(alg, S, Xt, slash, ev)
    second_order = _invariant_form(alg, S, N, ev, Xt.components, along, vertical=True)
    return dataclasses.replace(dyn, kind="lie", components={
        "bracket": dyn.max_residual,
        "pde_fiber": sweep_max("lie pde_fiber", ev, np.abs(pde1)),
        "pde_flow": sweep_max("lie pde_flow", ev, np.abs(pde2)),
        "invariant_second_order": sweep_max("lie invariant", ev, np.abs(second_order)),
    })


def _lie_pde(alg: Algebroid, S: Semispray, Xt: BaseSection, slash, ev: SampleEvaluator):
    """The local Lie-symmetry equations of Xt, (P, m) each with component b
    last: the fiber one sum_a S^a dXt^b/dy^a, and the flow one

        y^al y^e sigma_al(slash[e][b]) - Xt^a sigma_a(S^b) + S^a slash[a][b]
        - y^e slash[e][a] dS^b/dy^a,

    every sum in the order of its indices, every b at once; sigma_a(f) is
    :meth:`~algmech.algebroid.Algebroid.anchored_gradients`', stacked by
    :meth:`~algmech.algebroid.Algebroid._anchor_derivatives`."""
    m, n, P = alg.m, alg.n, len(ev.points)
    y, s_vals, xt_vals = ev.values[:, n:], ev.values_of(S.components), ev.values_of(Xt.components)
    slash_vals = ev.array(slash)
    g_xt, g_s = (np.stack([ev.jet(c).grad for c in cs], axis=1) for cs in (Xt.components, S.components))
    d_slash = alg._anchor_derivatives(ev, [t for row in slash for t in row], (m, m))
    d_slash = np.broadcast_to(d_slash, (P, m, m, m))  # [p, al, e, b] = sigma_al(slash[e][b])
    d_s = alg._anchor_derivatives(ev, S.components, (m,))  # [p, a, b] = sigma_a(S^b)
    pde1 = sum(s_vals[:, a, None] * g_xt[:, :, n + a] for a in range(m))
    term1 = sum(y[:, al, None] * y[:, e, None] * d_slash[:, al, e] for al in range(m) for e in range(m))
    term2 = sum(xt_vals[:, a, None] * d_s[:, a] for a in range(m))
    term3 = sum(s_vals[:, a, None] * slash_vals[:, a] for a in range(m))
    term4 = sum(
        y[:, e, None] * slash_vals[:, e, a, None] * g_s[:, :, n + a] for e in range(m) for a in range(m)
    )
    return pde1, term1 - term2 + term3 - term4


# ---------------------------------------------------------------------------
# Cartan symmetries and conservation laws
# ---------------------------------------------------------------------------


@np.errstate(all="ignore")
def cartan_symmetry_check(
    alg: Algebroid, L: Lagrangian, A: ProlongationSection, ev: SampleEvaluator, tol: float
) -> SymmetryVerdict:
    """Invariance of the symplectic two-section and of the energy along A:
    the two-section part is the max over frame pairs r < c of

        |A(W_rc) - [A, B_r] . W[:, c] - W[r, :] . [A, B_c]|,

    with the brackets [A, B_k] one frame-wide bracket call (a row that
    :func:`prepare_checks` took for every candidate at once), A(W_rc) and
    A(E) one stacked directional derivative, and each of the two dot
    families one :func:`~algmech.linalg.inner` over every (r, c), on strided
    views that keep the bits of one dot per pair."""
    ax, av = A.values_at(ev)
    W_exprs, W = cartan_pairing_exprs(alg, L), cartan_pairing(alg, L, ev)
    brk, = ev.rows(_frame_brackets, (alg,), (A,))
    r, c = np.triu_indices(len(brk), 1)  # the pairs r < c, row by row
    dW = directional_derivative(alg, ev, ax, av, [*(W_exprs[i][j] for i, j in zip(r, c)), L.energy_expr])
    left = linalg.inner(brk[:, None], np.moveaxis(W, -1, 0))  # [r, c] = [A, B_r] . W[:, c]
    right = linalg.inner(np.moveaxis(W, -2, 0)[:, None], brk)  # [r, c] = W[r, :] . [A, B_c]
    two = np.abs(dW[..., :-1] - left[r, c].T - right[r, c].T)
    res = np.stack([np.max(two, axis=-1, initial=0.0), np.abs(dW[..., -1])], axis=-1)
    two_max = sweep_max("cartan two-section", ev, res[:, 0])
    energy_max = sweep_max("cartan energy", ev, res[:, 1])
    worst = max(two_max, energy_max)
    return _verdict("cartan", ev, res, worst, tol, two_section=two_max, energy=energy_max)


@np.errstate(all="ignore")
def conservation_check(
    alg: Algebroid, S: Semispray, f: Expr, ev: SampleEvaluator, tol: float, provenance: str = "user",
) -> ConservedQuantity:
    """Constancy of f along the dynamics: S(f) = 0 on the sample set, a row
    that :func:`prepare_checks` may have taken for every function at once."""
    sdot, = ev.rows(_sode_derivatives, (alg, S), (f,))
    worst = sweep_max("conservation", ev, np.abs(sdot))
    per_sample = tuple(zip(ev.points, sdot.tolist()))
    return ConservedQuantity(f, provenance, worst, per_sample, worst <= tol, tol)


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
    lie_theta = d_theta - linalg.inner(theta_vals, bx).T
    worst = sweep_max("exactness witness", ev, np.abs(lie_theta - df))
    if worst > tol:
        raise ExactnessWitnessError(
            f"witness fails exactness: max residual {worst:.3e} > tol {tol:.1e}"
        )
    g_expr = e_sub(f, e_dot(zip(L.dy, A.x_comps)))
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
    rhs = [e_neg(e_dot((alg.anchor[i][a], df[i]) for i in range(n))) for a in range(m)]
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
    v = tuple(e_dot(((f, A.v_comps[a]), (sf, A.x_comps[a]))) for a in range(alg.m))
    return ProlongationSection(x, v)
