"""Calculus on the prolongation bundle.

Sections are stored in the moving frame {X_a, V_a}: a pair of component
lists, both allowed to depend on all coordinates.  The frame bracket rules
([X_a, X_b] = L_ab^c X_c, the other two vanish) extend to functional
coefficients through the anchored derivations

    sigma1(A)(f) = A_x^a sigma_a^i df/dx^i + A_v^a df/dy^a.

Pointwise (1,1)-tensors are stored as four m-by-m blocks acting on component
columns; expression-backed tensors (:class:`ExprTensor`) keep the blocks as
trees so that Lie and covariant derivatives can differentiate them.
:meth:`ExprTensor.apply` is the one way to apply such a tensor to a section,
and :func:`frame_derivation` the one loop (D T)(B) = D(T B) - T(D B) behind
both derivatives of a tensor.  The trees of S(f) read the system's anchored
velocity (:attr:`Algebroid.base_velocity`), and the complete lift is built
from :func:`covariant_slash_exprs`, which the Lie-symmetry check reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import Algebroid, BaseSection
from .expr import (
    Expr,
    Num,
    ONE,
    ZERO,
    Var,
    e_mul,
    e_num,
    e_sub,
    e_sum,
)
from .jets import EvalPoint, PointEvaluator

__all__ = [
    "ProlongationSection",
    "Semispray",
    "TensorBlock11",
    "ExprTensor",
    "bracket",
    "bracket_at",
    "directional_derivative",
    "sigma1_apply",
    "tangent_structure_apply",
    "euler_section",
    "vertical_lift",
    "complete_lift",
    "covariant_slash_exprs",
    "sode_flow",
    "sode_derivative",
    "sode_derivative_expr",
    "spray_test",
    "SprayReport",
    "j_tensor",
    "zeros_block",
    "eye_block",
    "basis_sections",
    "identity_tensor",
    "frame_derivation",
    "lie_derivative_tensor",
]


@dataclass(frozen=True)
class ProlongationSection:
    """Component trees over the frame {X_a} (x_comps) and {V_a} (v_comps)."""

    x_comps: tuple[Expr, ...]
    v_comps: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.x_comps) != len(self.v_comps):
            raise ValueError("X- and V-component counts differ")

    @staticmethod
    def constant(x: Sequence[float], v: Sequence[float]) -> "ProlongationSection":
        return ProlongationSection(
            tuple(e_num(c) for c in x), tuple(e_num(c) for c in v)
        )

    @staticmethod
    def basis_x(m: int, a: int) -> "ProlongationSection":
        return ProlongationSection.constant(np.eye(m)[a], np.zeros(m))

    @staticmethod
    def basis_v(m: int, a: int) -> "ProlongationSection":
        return ProlongationSection.constant(np.zeros(m), np.eye(m)[a])

    def values_at(self, ev: PointEvaluator) -> tuple[np.ndarray, np.ndarray]:
        return ev.values_of(self.x_comps), ev.values_of(self.v_comps)


def basis_sections(m: int) -> list[ProlongationSection]:
    """The 2m frame sections, X_0..X_{m-1} then V_0..V_{m-1}."""
    return [ProlongationSection.basis_x(m, a) for a in range(m)] + [
        ProlongationSection.basis_v(m, a) for a in range(m)
    ]


@dataclass(frozen=True)
class Semispray:
    """Second-order field: as a section it reads (y^a, S^a)."""

    components: tuple[Expr, ...]

    def section(self, alg: Algebroid) -> ProlongationSection:
        return ProlongationSection(
            tuple(Var(name) for name in alg.fiber_coords), self.components
        )


def euler_section(alg: Algebroid) -> ProlongationSection:
    """The canonical vertical section with components (0, y^a)."""
    m = alg.m
    return ProlongationSection(
        tuple(ZERO for _ in range(m)), tuple(Var(n) for n in alg.fiber_coords)
    )


def vertical_lift(alg: Algebroid, s: BaseSection) -> ProlongationSection:
    return ProlongationSection(tuple(ZERO for _ in range(alg.m)), s.components)


def covariant_slash_exprs(alg: Algebroid, s: BaseSection) -> tuple[tuple[Expr, ...], ...]:
    """slash[e][a] = sigma_e^i ds^a/dx^i - L_be^a s^b, the coefficient trees
    of the complete lift and of the local Lie-symmetry equations."""
    m, n = alg.m, alg.n
    return tuple(
        tuple(
            e_sub(
                e_sum(
                    e_mul(alg.anchor[i][e], alg.derivative(s.components[a], alg.base_coords[i]))
                    for i in range(n)
                ),
                e_sum(e_mul(alg.structure[b][e][a], s.components[b]) for b in range(m)),
            )
            for a in range(m)
        )
        for e in range(m)
    )


def complete_lift(alg: Algebroid, s: BaseSection) -> ProlongationSection:
    """Lift whose flow projects onto the anchored flow of the base section:
    fiber components y^e slash[e][a]."""
    if not s.x_only:
        raise ValueError("complete lift requires an x-only section")
    m = alg.m
    slash = covariant_slash_exprs(alg, s)
    v_comps = tuple(
        e_sum(e_mul(slash[e][a], Var(alg.fiber_coords[e])) for e in range(m))
        for a in range(m)
    )
    return ProlongationSection(tuple(s.components), v_comps)


# ---------------------------------------------------------------------------
# Derivations and the bracket
# ---------------------------------------------------------------------------


def directional_derivative(
    alg: Algebroid, ev: PointEvaluator, ax: np.ndarray, av: np.ndarray, f: Expr
) -> float:
    """sigma1(A)(f) at the point, with A given by component values ax, av.

    The one directional derivative of the package: brackets, Lie derivatives
    and conservation checks all go through here.  A constant ``f`` (such as
    a component of a frame section) is answered 0.0 without evaluation.
    """
    if isinstance(f, Num):
        return 0.0
    g = ev.jet1(f).grad
    sigma = alg.anchor_at(ev)
    return float(ax @ (sigma.T @ g[: alg.n]) + av @ g[alg.n :])


def sigma1_apply(
    alg: Algebroid, A: ProlongationSection, f: Expr, p: EvalPoint
) -> float:
    """Derivative of a function on the total space along the anchor image of A."""
    ev = alg.evaluator(p)
    ax, av = A.values_at(ev)
    return directional_derivative(alg, ev, ax, av, f)


def bracket_at(
    alg: Algebroid,
    A: ProlongationSection,
    B: ProlongationSection,
    ev: PointEvaluator,
) -> tuple[np.ndarray, np.ndarray]:
    m = alg.m
    L = alg.structure_at(ev)
    ax, av = A.values_at(ev)
    bx, bv = B.values_at(ev)
    x_part = np.einsum("a,b,abg->g", ax, bx, L)
    v_part = np.zeros(m)
    d = directional_derivative
    for g in range(m):
        x_part[g] += d(alg, ev, ax, av, B.x_comps[g]) - d(alg, ev, bx, bv, A.x_comps[g])
        v_part[g] = d(alg, ev, ax, av, B.v_comps[g]) - d(alg, ev, bx, bv, A.v_comps[g])
    return x_part, v_part


def bracket(
    alg: Algebroid, A: ProlongationSection, B: ProlongationSection, p: EvalPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Components of [A, B] on the prolongation bundle at a point."""
    return bracket_at(alg, A, B, alg.evaluator(p))


def tangent_structure_apply(
    A: ProlongationSection, alg: Algebroid, p: EvalPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Vertical endomorphism: kills V-components, sends X_a to V_a."""
    return j_tensor(alg.m).apply(A).values_at(alg.evaluator(p))


# ---------------------------------------------------------------------------
# Second-order fields
# ---------------------------------------------------------------------------


def sode_flow(alg: Algebroid, S: Semispray) -> tuple[tuple[str, Expr], ...]:
    """(coordinate, velocity-tree) pairs of the anchored flow of S; the base
    velocities are the system's :attr:`~Algebroid.base_velocity` trees."""
    return tuple(zip(alg.base_coords, alg.base_velocity)) + tuple(
        zip(alg.fiber_coords, S.components)
    )


def sode_derivative_expr(alg: Algebroid, S: Semispray, f: Expr) -> Expr:
    """Tree for S(f), the derivative of f along the second-order field."""
    if isinstance(f, Num):
        return ZERO
    return e_sum(
        e_mul(vel, alg.derivative(f, name)) for name, vel in sode_flow(alg, S)
    )


def sode_derivative(alg: Algebroid, S: Semispray, f: Expr, p: EvalPoint) -> float:
    return sigma1_apply(alg, S.section(alg), f, p)


@dataclass(frozen=True)
class SprayReport:
    homogeneity: float
    euler_bracket: float
    tol: float
    samples: int
    is_spray: bool


def spray_test(
    alg: Algebroid, S: Semispray, samples: Sequence[EvalPoint], tol: float
) -> SprayReport:
    """Degree-2 homogeneity of the coefficients, cross-checked by [C, S] = S."""
    hom = 0.0
    brk = 0.0
    C = euler_section(alg)
    Ssec = S.section(alg)
    for p in samples:
        ev = alg.evaluator(p)
        y = np.array(p.y)
        for a in range(alg.m):
            jet = ev.jet1(S.components[a])
            euler = 0.0
            for b in range(alg.m):
                euler += y[b] * jet.grad[alg.n + b]
            hom = max(hom, abs(euler - 2.0 * jet.value))
        bx, bv = bracket_at(alg, C, Ssec, ev)
        sx, sv = Ssec.values_at(ev)
        brk = max(brk, float(np.max(np.abs(bx - sx))), float(np.max(np.abs(bv - sv))))
    return SprayReport(
        homogeneity=hom,
        euler_bracket=brk,
        tol=tol,
        samples=len(samples),
        is_spray=bool(hom <= tol),
    )


# ---------------------------------------------------------------------------
# (1,1)-tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TensorBlock11:
    """Pointwise action on the frame: columns of each block index the input."""

    xx: np.ndarray
    xv: np.ndarray
    vx: np.ndarray
    vv: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.xx, self.xv], [self.vx, self.vv]])

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "TensorBlock11":
        m = mat.shape[0] // 2
        return TensorBlock11(
            xx=mat[:m, :m].copy(),
            xv=mat[:m, m:].copy(),
            vx=mat[m:, :m].copy(),
            vv=mat[m:, m:].copy(),
        )

    def apply(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.xx @ x + self.xv @ v, self.vx @ x + self.vv @ v


_Block = tuple[tuple[Expr, ...], ...]


def zeros_block(m: int) -> _Block:
    return tuple(tuple(ZERO for _ in range(m)) for _ in range(m))


def eye_block(m: int) -> _Block:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(m)) for i in range(m)
    )


@dataclass(frozen=True, eq=False)
class ExprTensor:
    """Expression-backed (1,1)-tensor; blocks index [row][column]."""

    xx: _Block
    xv: _Block
    vx: _Block
    vv: _Block

    @property
    def m(self) -> int:
        return len(self.xx)

    def at(self, ev: PointEvaluator) -> TensorBlock11:
        return TensorBlock11(*(ev.array(b) for b in (self.xx, self.xv, self.vx, self.vv)))

    def apply(self, A: ProlongationSection) -> ProlongationSection:
        """T(A) as trees: each output component sums block entry times input
        component, X-frame inputs first."""
        comps = A.x_comps + A.v_comps

        def image(rows) -> tuple[Expr, ...]:
            return tuple(e_sum(e_mul(t, c) for t, c in zip(x + v, comps)) for x, v in rows)

        return ProlongationSection(image(zip(self.xx, self.xv)), image(zip(self.vx, self.vv)))


def j_tensor(m: int) -> ExprTensor:
    """The vertical endomorphism: X_a -> V_a, V_a -> 0."""
    return ExprTensor(
        xx=zeros_block(m), xv=zeros_block(m), vx=eye_block(m), vv=zeros_block(m)
    )


def identity_tensor(m: int) -> ExprTensor:
    return ExprTensor(
        xx=eye_block(m), xv=zeros_block(m), vx=zeros_block(m), vv=eye_block(m)
    )


def frame_derivation(
    T: ExprTensor,
    ev: PointEvaluator,
    D: Callable[[ProlongationSection], tuple[np.ndarray, np.ndarray]],
) -> TensorBlock11:
    """(D T)(B) = D(T(B)) - T(D B) on every frame section B, for a derivation
    D of sections that returns component values at the evaluator's point."""
    T_at = T.at(ev)
    cols = []
    for B in basis_sections(T.m):
        dx, dv = D(T.apply(B))
        bx, bv = D(B)
        tx, tv = T_at.apply(bx, bv)
        cols.append(np.concatenate([dx - tx, dv - tv]))
    return TensorBlock11.from_matrix(np.stack(cols, axis=1))


def lie_derivative_tensor(
    alg: Algebroid, A: ProlongationSection, T: ExprTensor, p: EvalPoint
) -> TensorBlock11:
    """(L_A T)(B) = [A, T(B)] - T([A, B]) evaluated on every frame section.

    T must be expression-backed: the first bracket differentiates the
    coefficient functions of T(B).
    """
    ev = alg.evaluator(p)
    return frame_derivation(T, ev, lambda X: bracket_at(alg, A, X, ev))
