"""Lie algebroids in local coordinates: anchor, structure functions, and the
base-level calculus.

Index conventions used throughout the package:

* ``anchor[i][a]`` is the coefficient of d/dx^i in the image of the a-th
  frame section (n rows, m columns),
* ``structure[a][b][c]`` is the c-component of the bracket of frame sections
  a and b; antisymmetry in (a, b) is validated, never assumed,
* connection coefficients later on follow ``N[a][b]`` = lower index a,
  upper index b.

Axioms are checked by residual sweeps over a sample set, every sample at
once: the engine is numeric, and for the polynomial data this library
targets, the residuals at a few dozen random points are decisive in practice.
:func:`sweep_max` takes the maximum of every sweep in the package.

An :class:`Algebroid` is the per-system object every derived-tree
constructor receives, so it owns the caches that make derived trees and
evaluation shared: the derivative memo (:meth:`Algebroid.derivative`), the
trees that depend on the system alone (:attr:`Algebroid.base_velocity`,
:attr:`Algebroid.twisted_structure`), built on first use, and those that
depend on objects built from it (:meth:`Algebroid.derived`).  It keeps no
evaluator: a pointwise quantity takes the sample set's evaluator its caller
holds (:meth:`Algebroid.sample_evaluator`; a point's is a set of one,
:meth:`Algebroid.evaluator`), and every sweep names a failing sample from
its ``points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import EvaluationDomainError, FiberDependenceError
from .expr import ZERO, Expr, Num, Var, cached_derivative, e_add, e_dot, e_sub, variables
from .jets import EvalPoint, SampleEvaluator, identity_memo

__all__ = ["Algebroid", "BaseSection", "ValidationReport"]


@dataclass(frozen=True)
class BaseSection:
    """Section of the bundle itself, componentwise over the frame sections."""

    components: tuple[Expr, ...]
    x_only: bool

    @staticmethod
    def define(alg: "Algebroid", components: Sequence[Expr]) -> "BaseSection":
        fiber = set(alg.fiber_coords)
        used = frozenset().union(*(variables(c, alg._supports) for c in components))
        return BaseSection(tuple(components), x_only=not (used & fiber))


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry: float
    cyclic: float
    compatibility: float
    tol: float
    samples: int
    passed: bool

    def residuals(self) -> dict[str, float]:
        return {
            "antisymmetry": self.antisymmetry,
            "cyclic": self.cyclic,
            "compatibility": self.compatibility,
        }


@dataclass(frozen=True)
class Algebroid:
    """Anchor and structure functions over named local coordinates."""

    base_coords: tuple[str, ...]
    fiber_coords: tuple[str, ...]
    anchor: tuple[tuple[Expr, ...], ...]  # [i][a], entries in x only
    structure: tuple[tuple[tuple[Expr, ...], ...], ...]  # [a][b][c], in x only
    # derivative memo: name -> {id(node): (node, derivative)}, and support memo, see derivative()
    _derivatives: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _supports: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # derived-tree memo: (build, id(arg), ...) -> (args, trees), see derived()
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.base_coords)

    @property
    def m(self) -> int:
        return len(self.fiber_coords)

    @property
    def coords(self) -> tuple[str, ...]:
        return self.base_coords + self.fiber_coords

    def derivative(self, e: Expr, name: str) -> Expr:
        """Partial derivative tree of ``e``, built once per node for this system.

        Every derived-tree constructor goes through here, so a tree that two
        constructors differentiate (say S, for the connection and for the
        covariant derivative) is differentiated once and its derivative is
        one shared subtree, walked only where it contains ``name``.
        """
        return cached_derivative(e, name, self._derivatives, self._supports)

    def derivative_along(self, f: Expr, flow: Iterable[tuple]) -> Expr:
        """The one tree of a derivative along a field given by (coordinate,
        velocity factors...) tuples: the sum of velocity * df/dcoordinate in
        their order, ZERO for a constant ``f`` with no memo entry and no
        tuple read."""
        if isinstance(f, Num):
            return ZERO
        return e_dot((*vel, self.derivative(f, name)) for name, *vel in flow)

    @cached_property
    def base_velocity(self) -> tuple[Expr, ...]:
        """The anchored velocity trees xdot^i = sigma_a^i y^a."""
        y = [Var(c) for c in self.fiber_coords]
        return tuple(
            e_dot((y[a], self.anchor[i][a]) for a in range(self.m)) for i in range(self.n)
        )

    @cached_property
    def zero_structure(self) -> bool:
        """Whether every structure tree is a constant zero (0.0 or -0.0)."""
        trees = (t for plane in self.structure for row in plane for t in row)
        return all(type(t) is Num and t.value == 0.0 for t in trees)

    def structure_dot(self, terms: Iterable[Sequence[Expr]]) -> Expr:
        """:func:`~algmech.expr.e_dot` of ``terms`` that each have a structure
        factor: ``ZERO``, no term read, when :attr:`zero_structure` holds."""
        return ZERO if self.zero_structure else e_dot(terms)

    @cached_property
    def twisted_structure(self) -> tuple[tuple[Expr, ...], ...]:
        """[b][a] = y^e L_eb^a, the structure functions contracted with the fiber:
        all ``ZERO`` (:meth:`structure_dot`) when :attr:`zero_structure` holds."""
        m, y = self.m, [Var(c) for c in self.fiber_coords]
        return tuple(
            tuple(self.structure_dot((y[e], self.structure[e][b][a]) for e in range(m)) for a in range(m))
            for b in range(m)
        )

    def derived(self, build, *args):
        """``build(self, *args)``, built once per system and tuple of argument
        objects (:func:`~algmech.jets.identity_memo`): for trees that depend on
        objects callers keep, such as the semispray, a connection and a tensor."""
        return identity_memo(self._derived, build, self, args)

    def evaluator(self, p: EvalPoint) -> SampleEvaluator:
        """A new evaluator at ``p``, a sample set of one."""
        return self.sample_evaluator([p])

    def sample_evaluator(self, samples: Sequence[EvalPoint]) -> SampleEvaluator:
        """A new evaluator over ``samples``; pass it to every sweep over that
        sample set, so they share its memo."""
        for p in samples:
            self._check_dims(p)
        return SampleEvaluator(self.coords, samples)

    def _check_dims(self, p: EvalPoint) -> None:
        if len(p.x) != self.n or len(p.y) != self.m:
            raise ValueError(
                f"point has dims ({len(p.x)},{len(p.y)}), system is ({self.n},{self.m})"
            )

    # -- pointwise data ----------------------------------------------------

    def anchor_at(self, ev: SampleEvaluator) -> np.ndarray:
        return ev.array(self.anchor)

    def structure_at(self, ev: SampleEvaluator) -> np.ndarray:
        return ev.array(self.structure)

    def anchored(self, ev: SampleEvaluator, g: np.ndarray) -> np.ndarray:
        """sigma_a^i g_i: the anchored x-part of gradients ``g`` over all
        coordinates, (P, m) with the sample axis first."""
        return linalg.vecmat(g[..., : self.n], self.anchor_at(ev))

    def anchored_gradients(self, ev: SampleEvaluator, trees: Sequence[Expr]) -> list[tuple]:
        """``(sigma^T d_x f, d_y f)``, the anchored x- and fiber parts of the
        gradient of each tree f of ``trees``, kept per evaluator, system and tree
        (:meth:`~algmech.jets.SampleEvaluator.rows`, one product for the trees
        not seen yet); every directional and horizontal derivative reads them."""
        return ev.rows(_anchored_gradients, (self,), trees)

    def anchored_gradient(self, ev: SampleEvaluator, f: Expr) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`anchored_gradients` of the one tree ``f``."""
        return self.anchored_gradients(ev, (f,))[0]

    # -- base calculus -----------------------------------------------------

    def _require_x_only(self, f: Expr, what: str) -> None:
        bad = variables(f, self._supports) & set(self.fiber_coords)
        if bad:
            raise FiberDependenceError(
                f"{what} depends on fiber coordinates {sorted(bad)}"
            )

    def anchor_apply(self, s: BaseSection, f: Expr, ev: SampleEvaluator) -> np.ndarray:
        """Derivative of a base function along the anchored vector field of
        s, one per sample."""
        if not s.x_only:
            raise FiberDependenceError("section must not depend on fiber coordinates")
        return linalg.inner(ev.values_of(s.components), self.differential(f, ev))

    def differential(self, f: Expr, ev: SampleEvaluator) -> np.ndarray:
        """Components of the exterior derivative of a base function, (P, m)."""
        self._require_x_only(f, "function")
        return self.anchored_gradient(ev, f)[0]

    def bracket_exprs(self, r: BaseSection, s: BaseSection) -> BaseSection:
        """Component trees of the section bracket [r, s]."""
        if not (r.x_only and s.x_only):
            raise FiberDependenceError("bracket is defined for x-only sections")
        m, n = self.m, self.n

        def flow(t: BaseSection):  # the anchored field of t: (x^i, t^a, sigma_a^i)
            return ((self.base_coords[i], t.components[a], self.anchor[i][a])
                    for a in range(m) for i in range(n))

        comps = []
        for c in range(m):
            quad = self.structure_dot(
                (r.components[a], s.components[b], self.structure[a][b][c])
                for a in range(m)
                for b in range(m)
            )
            flow_r = self.derivative_along(s.components[c], flow(r))
            flow_s = self.derivative_along(r.components[c], flow(s))
            comps.append(e_add(quad, e_sub(flow_r, flow_s)))
        return BaseSection.define(self, comps)

    # -- axiom validation ----------------------------------------------------

    @np.errstate(all="ignore")
    def validate(self, ev: SampleEvaluator, tol: float) -> ValidationReport:
        """Residuals of antisymmetry and the two structure equations, swept
        over the evaluator's samples at once (sample axis first), from
        :meth:`_axiom_residuals`, which takes no dot product for a
        structurally zero term.

        A domain error, or a residual that is not finite, raises
        :class:`EvaluationDomainError` naming the first such sample; a sample
        whose anchor is not finite fails the cyclic sweep.
        """
        if not ev.points:
            raise ValueError("at least one sample point is required")
        anti, cyc, compat = self._axiom_residuals(ev)
        anti = sweep_max("antisymmetry", ev, anti)
        cyc = sweep_max("cyclic", ev, cyc)
        compat = sweep_max("compatibility", ev, compat)
        return ValidationReport(
            antisymmetry=anti,
            cyclic=cyc,
            compatibility=compat,
            tol=tol,
            samples=len(ev.points),
            passed=(anti <= tol and cyc <= tol and compat <= tol),
        )

    @np.errstate(all="ignore")
    def _axiom_residuals(self, ev: SampleEvaluator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|L_ab^c + L_ba^c|, the cyclic sums and the anchor compatibility
        residuals over the evaluator's samples: (P, m, m, m), (P, m, m, m, m)
        and (P, m, m, n) arrays, or arrays that broadcast to those shapes.

        Every anchored derivative sigma_a(t) is :meth:`_anchor_derivatives`'s,
        0 for a constant tree.  A product term L_ae^d L_bc^e whose row L_bc^.
        is all ``Num(0)`` is 0 (a sample where L is not finite fails the
        antisymmetry sweep first), and so is an rhs term sigma_i^c L_ab^c
        whose row L_ab^. is; with no such row left, the rhs is left out.
        Every other term is the :func:`~algmech.linalg.inner` of the views of
        the full formula, and an exact 0 left out changes no sum but the sign
        of a zero, which ``abs`` removes.  The cyclic residual is NaN at each
        sample whose anchor is not finite, so its sweep, which runs before
        the compatibility sweep, names the first such sample.
        """
        m, n, P = self.m, self.n, len(ev.points)
        sigma = self.anchor_at(ev)
        L = self.structure_at(ev)
        anti = np.abs(L + L.transpose(0, 2, 1, 3))
        pairs = () if self.zero_structure else [row for plane in self.structure for row in plane]  # L_xy^.
        rows = [k for k, row in enumerate(pairs) if any(t != ZERO for t in row)]  # Num(-0.0) == ZERO
        Lrows = L.reshape(P, m * m, m)[:, rows]

        # cyclic sum of sigma_a^i dL_{bc}^d/dx^i + L_{a e}^d L_{bc}^e, added in
        # the order (a, b, c), (b, c, a), (c, a, b), flow term before product
        terms = [self._anchor_derivatives(ev, [t for r in pairs for t in r], (m, m, m))]
        if rows:  # [p, a, (b, c), d], 0 where L_bc^. is
            prod = np.zeros((P, m, m * m, m))
            prod[:, :, rows] = linalg.inner(L.transpose(0, 1, 3, 2)[:, :, None], Lrows[:, None, :, None])
            terms.append(prod.reshape(P, m, m, m, m))
        terms = [t.transpose(s) for s in ((0, 1, 2, 3, 4), (0, 3, 1, 2, 4), (0, 2, 3, 1, 4)) for t in terms]
        cyc = np.zeros(np.broadcast_shapes(*(t.shape for t in terms)))
        for t in terms:
            cyc += t
        cyc[~np.isfinite(sigma).all(axis=(1, 2))] = np.nan

        # anchor compatibility with the bracket: lie[p, a, b, i] = sigma_a(sigma_i^b)
        lie = self._anchor_derivatives(ev, [self.anchor[i][b] for b in range(m) for i in range(n)], (m, n))
        compat = lie - lie.transpose(0, 2, 1, 3)
        if rows:  # rhs[p, i, (a, b)] = sigma_i^c L_ab^c, 0 where L_ab^. is
            rhs = np.zeros((P, n, m * m))
            rhs[..., rows] = linalg.inner(sigma[:, :, None], Lrows[:, None])
            compat = compat - np.moveaxis(rhs.reshape(P, n, m, m), 1, -1)
        return anti, np.abs(cyc, out=cyc), np.abs(compat)

    def _anchor_derivatives(self, ev: SampleEvaluator, trees: list, shape: tuple) -> np.ndarray:
        """sigma_a(t) for each column a of the anchor and each tree t of
        ``trees``, laid out as (P, m, *shape): :meth:`anchored_gradients`'
        x-part for a tree that is not constant, 0 for one that is; a 0 with
        axes of length 1 for ``shape`` if every tree is constant."""
        P, live = len(ev.points), [k for k, t in enumerate(trees) if not isinstance(t, Num)]
        if not live:
            return np.zeros((P, self.m, *(1 for _ in shape)))
        out = np.zeros((P, self.m, len(trees)))
        out[..., live] = np.stack([g[0] for g in self.anchored_gradients(ev, [trees[k] for k in live])], -1)
        return out.reshape(P, self.m, *shape)


def _anchored_gradients(ev: SampleEvaluator, alg: Algebroid, fs: Sequence[Expr]) -> zip:
    g = np.array([ev.jet(f).grad for f in fs])
    return zip(alg.anchored(ev, g), g[..., alg.n :])


def sweep_max(what: str, ev: SampleEvaluator, residuals: np.ndarray) -> float:
    """The largest of ``residuals`` (over ``ev``'s samples, sample axis first,
    all >= 0) as a float, 0.0 for no samples; a residual that is not finite
    raises :class:`EvaluationDomainError` naming its sample point, so no inf
    or NaN reaches a report.  One reduction where every residual is finite;
    the sample is looked for only where the maximum is not."""
    with np.errstate(invalid="ignore"):  # a NaN operand of the reduction warns of nothing
        worst = float(np.max(residuals, initial=0.0))
    if not math.isfinite(worst):
        bad = ~np.isfinite(residuals).all(axis=tuple(range(1, residuals.ndim)))
        raise EvaluationDomainError(f"{what} residual is not finite at {ev.points[int(np.argmax(bad))]}")
    return worst
