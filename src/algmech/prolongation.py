"""Calculus on the prolongation bundle.

Sections are stored in the moving frame {X_a, V_a}: a pair of component
lists, both allowed to depend on all coordinates.  The frame bracket rules
([X_a, X_b] = L_ab^c X_c, the other two vanish) extend to functional
coefficients through the anchored derivations

    sigma1(A)(f) = A_x^a sigma_a^i df/dx^i + A_v^a df/dy^a.

A (1,1)-tensor is one 2m-by-2m matrix of trees (:class:`ExprTensor`),
X-frame rows and columns first, acting on stacked component columns; its
value at a point is the (2m, 2m) array of those trees, and Lie and covariant
derivatives differentiate the trees.  :meth:`ExprTensor.apply` is the one way
to apply such a tensor to a section, and :func:`frame_derivation` the one
loop (D T)(B) = D(T B) - T(D B) behind both derivatives of a tensor, which
return (2m, 2m) arrays.  The trees of S(f) read the system's anchored
velocity (:attr:`Algebroid.base_velocity`), and the complete lift is built
from :func:`covariant_slash_exprs`, which the Lie-symmetry check reads too.

Every pointwise quantity takes the
:class:`~algmech.jets.SampleEvaluator` its caller holds, a point's being a
sample set of one, with a leading sample axis on every array.  In
:func:`directional_derivative`, :func:`bracket`, :func:`frame_derivation`
and :func:`lie_derivative_tensor` the products are numpy ``matmul`` and
``einsum`` over the leading axes, which give every sample slice the bits of
the single-point product (stacked ``matmul`` makes
the same BLAS call per slice; an elementwise product summed by numpy would
not, since BLAS's short dot is a chain of fused multiply-adds), and the
batch evaluator applies ``math``'s elementary functions per element (numpy's
``exp`` and ``log`` differ from them on some inputs on x86-64 with AVX-512;
``sin``, ``cos`` and ``sqrt`` matched).  :func:`spray_test` sweeps the
samples of the evaluator its caller passes this way.

The derivations are stacked over trees as well as samples:
:func:`directional_derivative` takes a tuple of trees and reads their
anchored gradients as one (C, ..., m) stack, whose (1, m) @ (m, 1) slices
are the same BLAS dots a call per tree makes.  A bracket is one such call
per side over all 2m components, and a covariant derivative one per tuple
of components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .algebroid import Algebroid, BaseSection, inner, sweep_max
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
from .jets import SampleEvaluator

__all__ = [
    "ProlongationSection",
    "Semispray",
    "ExprTensor",
    "bracket",
    "directional_derivative",
    "euler_section",
    "vertical_lift",
    "complete_lift",
    "covariant_slash_exprs",
    "sode_flow",
    "sode_derivative_expr",
    "spray_homogeneity",
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

    def values_at(self, ev: SampleEvaluator) -> tuple[np.ndarray, np.ndarray]:
        """The component values, read-only and computed once per evaluator
        (:meth:`~algmech.jets.SampleEvaluator.array`)."""
        return ev.array(self.x_comps), ev.array(self.v_comps)


@cache
def basis_sections(m: int) -> tuple[ProlongationSection, ...]:
    """The 2m frame sections, X_0..X_{m-1} then V_0..V_{m-1}: one tuple per
    rank, so trees derived from a frame section can be memoised by it."""
    return tuple(ProlongationSection.basis_x(m, a) for a in range(m)) + tuple(
        ProlongationSection.basis_v(m, a) for a in range(m)
    )


@dataclass(frozen=True)
class Semispray:
    """Second-order field: as a section it reads (y^a, S^a)."""

    components: tuple[Expr, ...]

    def section(self, alg: Algebroid) -> ProlongationSection:
        """(y^a, S^a) as a section, built once per system."""
        return alg.derived(_sode_section, self)


def _sode_section(alg: Algebroid, S: Semispray) -> ProlongationSection:
    return ProlongationSection(tuple(Var(name) for name in alg.fiber_coords), S.components)


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
    m, column = alg.m, tuple(zip(*alg.anchor))  # column[e][i] = sigma_e^i
    return tuple(
        tuple(
            e_sub(
                alg.derivative_along(s.components[a], zip(alg.base_coords, column[e])),
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
    m, y = alg.m, [Var(c) for c in alg.fiber_coords]
    slash = covariant_slash_exprs(alg, s)
    v_comps = tuple(e_sum(e_mul(slash[e][a], y[e]) for e in range(m)) for a in range(m))
    return ProlongationSection(tuple(s.components), v_comps)


# ---------------------------------------------------------------------------
# Derivations and the bracket
# ---------------------------------------------------------------------------


def directional_derivative(
    alg: Algebroid, ev: SampleEvaluator, ax: np.ndarray, av: np.ndarray, fs: Sequence[Expr]
) -> np.ndarray:
    """sigma1(A)(f) for each tree f of ``fs``, stacked on the last axis, with
    A given by component values ax, av: a (P, C) array over the samples of
    ``ev`` (ax, av carry the sample axis first).

    The one directional derivative of the package: brackets, Lie derivatives,
    conservation checks and every S(.) of the first-order covariant
    derivative (:class:`~algmech.connection.CovariantDerivative`, with ax = y
    and av = the values of S), which serves nabla T, the Newtonoid projection
    and the S(N) term of the Jacobi endomorphism, all go through here.  A
    constant ``f`` (such as a component of a frame section) is answered an
    exact 0 without evaluation; the gradient parts of any other ``f`` are
    taken once per evaluator
    (:meth:`~algmech.algebroid.Algebroid.anchored_gradient`) and stacked into
    (C, ..., m) arrays Gx, Gy, read by one ``inner(ax, Gx) + inner(av, Gy)``.

    One formula serves any number of samples and trees: numpy's
    stacked ``matmul`` hands every (1, m) @ (m, 1) slice to the unit-stride
    BLAS dot that a single product makes, so each sample and each tree gets
    the bits of a single-point, single-tree call.  (An elementwise product
    summed with ``np.sum`` would not, since BLAS's short dot is a chain of
    fused multiply-adds, and neither would the matrix-vector product Gx @ ax,
    another BLAS call.)
    """
    out = np.zeros((len(fs), *np.shape(ax)[:-1]))  # the tree axis first, until the return
    live = [c for c, f in enumerate(fs) if not isinstance(f, Num)]
    if live:
        gx, gy = zip(*(alg.anchored_gradient(ev, fs[c]) for c in live))
        out[live] = inner(ax, np.array(gx)) + inner(av, np.array(gy))
    return out.T.copy()


def bracket(
    alg: Algebroid, A: ProlongationSection, B: ProlongationSection, ev: SampleEvaluator
) -> tuple[np.ndarray, np.ndarray]:
    """Components of [A, B] over the evaluator's samples, with the sample
    axis first; each side's 2m derivations are one stacked
    :func:`directional_derivative`."""
    m, L = alg.m, alg.structure_at(ev)
    ax, av = A.values_at(ev)
    bx, bv = B.values_at(ev)
    dB = directional_derivative(alg, ev, ax, av, B.x_comps + B.v_comps)
    dA = directional_derivative(alg, ev, bx, bv, A.x_comps + A.v_comps)
    x_part = np.einsum("...a,...b,...abg->...g", ax, bx, L)
    x_part += dB[..., :m] - dA[..., :m]
    return x_part, dB[..., m:] - dA[..., m:]


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
    """Tree for S(f), the derivative of f along the second-order field: the
    S(c) of nabla applied twice, Newtonoid completions and star products."""
    return alg.derivative_along(f, sode_flow(alg, S))


def spray_homogeneity(alg: Algebroid, S: Semispray, ev: SampleEvaluator):
    """max_a |y . dS^a/dy - 2 S^a| per sample of the evaluator,
    which vanishes where S is degree-2 homogeneous in y (Euler's theorem)."""
    n = alg.n
    y = np.asarray(ev.values)[..., n:]
    jets = [ev.jet(c) for c in S.components]
    return np.max([np.abs(inner(y, j.grad[..., n:]) - 2.0 * j.value) for j in jets], axis=0)


@dataclass(frozen=True)
class SprayReport:
    homogeneity: float
    euler_bracket: float
    tol: float
    samples: int
    is_spray: bool


@np.errstate(all="ignore")
def spray_test(alg: Algebroid, S: Semispray, ev: SampleEvaluator, tol: float) -> SprayReport:
    """Degree-2 homogeneity of the coefficients, cross-checked by [C, S] = S,
    swept over the evaluator's samples at once.  A residual that is not
    finite raises :class:`EvaluationDomainError` naming the first such
    sample."""
    Ssec = S.section(alg)
    hom = spray_homogeneity(alg, S, ev)
    bx, bv = bracket(alg, euler_section(alg), Ssec, ev)
    sx, sv = Ssec.values_at(ev)
    brk = np.abs(np.concatenate([bx - sx, bv - sv], axis=-1))
    hom_max = sweep_max("homogeneity", ev, hom)
    return SprayReport(
        homogeneity=hom_max,
        euler_bracket=sweep_max("Euler-field bracket", ev, brk),
        tol=tol,
        samples=len(ev.points),
        is_spray=hom_max <= tol,
    )


# ---------------------------------------------------------------------------
# (1,1)-tensors
# ---------------------------------------------------------------------------


_Block = tuple[tuple[Expr, ...], ...]


def zeros_block(m: int) -> _Block:
    return tuple(tuple(ZERO for _ in range(m)) for _ in range(m))


def eye_block(m: int) -> _Block:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(m)) for i in range(m)
    )


@dataclass(frozen=True, eq=False)
class ExprTensor:
    """Expression-backed (1,1)-tensor: one 2m-by-2m matrix of trees indexed
    [row][column], X-frame rows and columns first, acting on the stacked
    component column (x_comps, v_comps)."""

    rows: tuple[tuple[Expr, ...], ...]

    @staticmethod
    def of_blocks(xx: _Block, xv: _Block, vx: _Block, vv: _Block) -> "ExprTensor":
        """The tensor with m-by-m blocks [[xx, xv], [vx, vv]]."""
        return ExprTensor(
            tuple(a + b for a, b in zip(xx, xv)) + tuple(a + b for a, b in zip(vx, vv))
        )

    @property
    def m(self) -> int:
        return len(self.rows) // 2

    def at(self, ev: SampleEvaluator) -> np.ndarray:
        """The (2m, 2m) matrix at the evaluator's point, (P, 2m, 2m) over its
        samples."""
        return ev.array(self.rows)

    @cached_property
    def frame_images(self) -> tuple[ProlongationSection, ...]:
        """T(B) for the frame sections B of :func:`basis_sections`, built once
        per tensor."""
        return tuple(self.apply(B) for B in basis_sections(self.m))

    def apply(self, A: ProlongationSection) -> ProlongationSection:
        """T(A) as trees: each output component sums row entry times input
        component, X-frame inputs first."""
        comps = A.x_comps + A.v_comps
        image = tuple(e_sum(e_mul(t, c) for t, c in zip(row, comps)) for row in self.rows)
        return ProlongationSection(image[: self.m], image[self.m :])


@cache
def j_tensor(m: int) -> ExprTensor:
    """The vertical endomorphism: X_a -> V_a, V_a -> 0."""
    zero = zeros_block(m)
    return ExprTensor.of_blocks(zero, zero, eye_block(m), zero)


def identity_tensor(m: int) -> ExprTensor:
    zero, eye = zeros_block(m), eye_block(m)
    return ExprTensor.of_blocks(eye, zero, zero, eye)


def frame_derivation(
    T: ExprTensor, ev: SampleEvaluator,
    D: Callable[[ProlongationSection], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """(D T)(B) = D(T(B)) - T(D B) on every frame section B, as the (2m, 2m)
    matrix whose columns are those images (sample axis first over a batch),
    for a derivation D of sections that returns component values at the
    evaluator.  T(D B) is applied block by block, each block a stacked
    matrix-vector product."""
    M, m = T.at(ev), T.m
    cols = []
    for B, TB in zip(basis_sections(m), T.frame_images):
        dx, dv = D(TB)
        bx, bv = D(B)
        tx = _matvec(M[..., :m, :m], bx) + _matvec(M[..., :m, m:], bv)
        tv = _matvec(M[..., m:, :m], bx) + _matvec(M[..., m:, m:], bv)
        cols.append(np.concatenate([dx - tx, dv - tv], axis=-1))
    return np.stack(cols, axis=-1)


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x over optional leading axes, the BLAS call of the unstacked product
    per sample."""
    return (M @ x[..., None])[..., 0]


def lie_derivative_tensor(
    alg: Algebroid, A: ProlongationSection, T: ExprTensor, ev: SampleEvaluator
) -> np.ndarray:
    """(L_A T)(B) = [A, T(B)] - T([A, B]) evaluated on every frame section,
    as a (2m, 2m) matrix (per sample over a batch).

    T must be expression-backed: the first bracket differentiates the
    coefficient functions of T(B).
    """
    return frame_derivation(T, ev, lambda X: bracket(alg, A, X, ev))
