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
to apply such a tensor to a section (a frame section's image is a column of
the tensor, :attr:`ExprTensor.frame_images`), and :func:`frame_derivation`
the one formula (D T)(B) = D(T B) - T(D B) behind both derivatives of a
tensor, which return (2m, 2m) arrays.  The trees of S(f) read the system's anchored
velocity (:attr:`Algebroid.base_velocity`), and the complete lift is built
from :func:`covariant_slash_exprs`, which the Lie-symmetry check reads too.

Every pointwise quantity takes the
:class:`~algmech.jets.SampleEvaluator` its caller holds, a point's being a
sample set of one, with a leading sample axis on every array; products over
the leading axes are :mod:`algmech.linalg`'s.  :func:`spray_test` sweeps the
samples of the evaluator its caller passes this way.

The derivations are stacked over trees and sections as well as samples:
:func:`directional_derivative` takes a tuple of trees and reads their
anchored gradients as one (C, ..., m) stack, whose slices are the dots a
call per tree makes.  :func:`brackets` takes tuples of left- and right-hand
sections, each side one such call with the fields stacked, and
:func:`bracket` is its one-row slice; so a bracket of every candidate
against the whole frame is one call, and :func:`frame_derivation` calls its
derivation once, on the tensor's frame images and the frame together.
Every slice keeps the bits of a call for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .algebroid import Algebroid, BaseSection, sweep_max
from .expr import (
    Expr,
    Num,
    ONE,
    ZERO,
    Var,
    e_dot,
    e_mul,
    e_num,
    e_sub,
)
from .jets import SampleEvaluator

__all__ = [
    "ProlongationSection", "Semispray", "ExprTensor", "bracket", "brackets",
    "directional_derivative", "euler_section", "vertical_lift", "complete_lift",
    "covariant_slash_exprs", "sode_flow", "sode_derivative_expr", "spray_homogeneity",
    "spray_test", "SprayReport", "j_tensor", "zeros_block", "eye_block", "basis_sections",
    "identity_tensor", "frame_derivation", "lie_derivative_tensor",
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
        return ProlongationSection(_unit(m, a), (ZERO,) * m)

    @staticmethod
    def basis_v(m: int, a: int) -> "ProlongationSection":
        return ProlongationSection((ZERO,) * m, _unit(m, a))

    def values_at(self, ev: SampleEvaluator) -> tuple[np.ndarray, np.ndarray]:
        """The component values, read-only and computed once per evaluator
        (:meth:`~algmech.jets.SampleEvaluator.array`)."""
        return ev.array(self.x_comps), ev.array(self.v_comps)


def _unit(m: int, a: int) -> tuple[Expr, ...]:
    return tuple(ONE if b == a else ZERO for b in range(m))


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
    """The canonical vertical section with components (0, y^a), built once
    per system."""
    return alg.derived(_euler_section)


def _euler_section(alg: Algebroid) -> ProlongationSection:
    return ProlongationSection((ZERO,) * alg.m, tuple(Var(n) for n in alg.fiber_coords))


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
                alg.structure_dot((alg.structure[b][e][a], s.components[b]) for b in range(m)),
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
    v_comps = tuple(e_dot((slash[e][a], y[e]) for e in range(m)) for a in range(m))
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
    (:meth:`~algmech.algebroid.Algebroid.anchored_gradients`) and stacked into
    (C, P, m) arrays Gx, Gy, read by one ``inner(ax, Gx) + inner(av, Gy)``
    (:func:`~algmech.linalg.inner`); leading axes of ax, av before the sample
    axis (K fields) broadcast against the stack and come first in the
    result, (K, P, C).
    """
    out = np.zeros((*np.shape(ax)[:-1], len(fs)))
    live = [c for c, f in enumerate(fs) if not isinstance(f, Num)]
    if live:
        gx, gy = (np.array(g) for g in zip(*alg.anchored_gradients(ev, [fs[c] for c in live])))
        d = linalg.inner(ax[..., None, :, :], gx) + linalg.inner(av[..., None, :, :], gy)
        out[..., live] = np.swapaxes(d, -1, -2)
    return out


def brackets(
    alg: Algebroid, As: Sequence[ProlongationSection], Bs: Sequence[ProlongationSection],
    ev: SampleEvaluator,
) -> tuple[np.ndarray, np.ndarray]:
    """[A, B] for each section A of ``As`` and B of ``Bs`` over the
    evaluator's samples: X and V parts as (I, K, P, m) arrays, slice [i, k]
    that of [As[i], Bs[k]] with a one-pair call's bits.  Each side is one
    stacked :func:`directional_derivative` (the components of every B along
    every A, and every A's along every B), and the structure term one
    :func:`~algmech.linalg.a_b_abg`, left out if every structure tree is a
    constant zero (which changes no bit but the sign of a zero)."""
    m = alg.m
    (ax, av), (bx, bv) = _values(As, ev), _values(Bs, ev)

    def along(cx, cv, Cs):  # every component of each of Cs along each field: (I, K, P, 2m)
        d = directional_derivative(alg, ev, cx, cv, [c for C in Cs for c in C.x_comps + C.v_comps])
        return d.reshape(*d.shape[:-1], len(Cs), 2 * m).swapaxes(-2, -3)

    dB, dA = along(ax, av, Bs), along(bx, bv, As).swapaxes(0, 1)
    if alg.zero_structure:
        return dB[..., :m] - dA[..., :m], dB[..., m:] - dA[..., m:]
    x_part = linalg.a_b_abg(ax[:, None], bx, alg.structure_at(ev))
    x_part += dB[..., :m] - dA[..., :m]
    return x_part, dB[..., m:] - dA[..., m:]


def _values(Cs: Sequence[ProlongationSection], ev: SampleEvaluator) -> tuple[np.ndarray, ...]:
    """The X and V component values of the sections ``Cs``, (K, P, m) each;
    for one section a view, with a copy's strides."""
    if len(Cs) == 1:
        return tuple(v[None] for v in Cs[0].values_at(ev))
    return tuple(np.array(v) for v in zip(*(C.values_at(ev) for C in Cs)))


def bracket(
    alg: Algebroid, A: ProlongationSection, Bs: Sequence[ProlongationSection], ev: SampleEvaluator
) -> tuple[np.ndarray, np.ndarray]:
    """[A, B] for each section B of ``Bs``, X and V parts as (K, P, m)
    arrays: the one-row slice of :func:`brackets`."""
    (x,), (v,) = brackets(alg, (A,), Bs, ev)
    return x, v


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
    """max_a |y . dS^a/dy - 2 S^a| per sample of the evaluator (every a one
    stacked dot), which vanishes where S is degree-2 homogeneous in y."""
    n, jets = alg.n, [ev.jet(c) for c in S.components]
    grads, values = np.array([j.grad[..., n:] for j in jets]), np.array([j.value for j in jets])
    return np.max(np.abs(linalg.inner(np.asarray(ev.values)[..., n:], grads) - 2.0 * values), axis=0)


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
    (bx,), (bv,) = bracket(alg, euler_section(alg), (Ssec,), ev)
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
        """T(B) for the frame sections B of :func:`basis_sections`, once per
        tensor: the image of B_j is column j of T, each entry the tree that
        :meth:`apply` folds it to (``e_mul(t, ONE)``: ``ZERO`` for a constant
        0, ``ONE`` for a constant 1, else ``t`` itself), so no tree is built."""
        m = self.m
        cols = (tuple(e_mul(t, ONE) for t in col) for col in zip(*self.rows))
        return tuple(ProlongationSection(c[:m], c[m:]) for c in cols)

    def apply(self, A: ProlongationSection) -> ProlongationSection:
        """T(A) as trees: each output component sums row entry times input
        component, X-frame inputs first."""
        comps = A.x_comps + A.v_comps
        image = tuple(e_dot(zip(row, comps)) for row in self.rows)
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
    D: Callable[[Sequence[ProlongationSection]], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """(D T)(B) = D(T(B)) - T(D B) on every frame section B, as the (2m, 2m)
    matrix whose columns are those images (sample axis first over a batch),
    for a derivation D that maps a tuple of sections to their (K, P, m)
    component values at the evaluator: one call on T's frame images and the
    frame together.  T(D B) is applied block by block, each block a stacked
    matrix-vector product."""
    M, m = T.at(ev), T.m
    x, v = D(T.frame_images + basis_sections(m))
    (dx, bx), (dv, bv) = np.split(x, 2), np.split(v, 2)
    tx = linalg.matvec(M[..., :m, :m], bx) + linalg.matvec(M[..., :m, m:], bv)
    tv = linalg.matvec(M[..., m:, :m], bx) + linalg.matvec(M[..., m:, m:], bv)
    return np.moveaxis(np.concatenate([dx - tx, dv - tv], axis=-1), 0, -1)


def lie_derivative_tensor(
    alg: Algebroid, A: ProlongationSection, T: ExprTensor, ev: SampleEvaluator
) -> np.ndarray:
    """(L_A T)(B) = [A, T(B)] - T([A, B]) evaluated on every frame section,
    as a (2m, 2m) matrix (per sample over a batch).

    T must be expression-backed: the first bracket differentiates the
    coefficient functions of T(B).  One bracket call against 4m sections:
    T's frame images and the frame.
    """
    return frame_derivation(T, ev, lambda Bs: bracket(alg, A, Bs, ev))
