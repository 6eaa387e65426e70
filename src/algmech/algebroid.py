"""Lie algebroids in local coordinates: anchor, structure functions, and the
base-level calculus.

Index conventions used throughout the package:

* ``anchor[i][a]`` is the coefficient of d/dx^i in the image of the a-th
  frame section (n rows, m columns),
* ``structure[a][b][c]`` is the c-component of the bracket of frame sections
  a and b; antisymmetry in (a, b) is validated, never assumed,
* connection coefficients later on follow ``N[a][b]`` = lower index a,
  upper index b.

Axioms are checked pointwise on a sample set: the engine is numeric, and for
the polynomial data this library targets, pointwise residuals at a few dozen
random points are decisive in practice.

An :class:`Algebroid` is the per-system object every derived-tree
constructor receives, so it owns the caches that make derived trees and
point evaluation shared: the derivative memo (:meth:`Algebroid.derivative`),
the evaluator of the current point (:meth:`Algebroid.evaluator`), and the
trees that depend on the system alone (:attr:`Algebroid.base_velocity`,
:attr:`Algebroid.twisted_structure`), built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EvaluationDomainError, FiberDependenceError
from .expr import Expr, Var, cached_derivative, e_mul, e_sub, e_sum, variables
from .jets import EvalPoint, PointEvaluator

__all__ = ["Algebroid", "BaseSection", "ValidationReport"]


@dataclass(frozen=True)
class BaseSection:
    """Section of the bundle itself, componentwise over the frame sections."""

    components: tuple[Expr, ...]
    x_only: bool

    @staticmethod
    def define(alg: "Algebroid", components: Sequence[Expr]) -> "BaseSection":
        fiber = set(alg.fiber_coords)
        used = frozenset().union(*(variables(c) for c in components)) if components else frozenset()
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
    # derivative memo: (id(node), name) -> (node, derivative), see derivative()
    _derivatives: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # (point, evaluator) of the last point asked for, replaced as one tuple
    _current: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        one shared subtree.
        """
        return cached_derivative(e, name, self._derivatives)

    @cached_property
    def base_velocity(self) -> tuple[Expr, ...]:
        """The anchored velocity trees xdot^i = sigma_a^i y^a."""
        return tuple(
            e_sum(e_mul(Var(self.fiber_coords[a]), self.anchor[i][a]) for a in range(self.m))
            for i in range(self.n)
        )

    @cached_property
    def twisted_structure(self) -> tuple[tuple[Expr, ...], ...]:
        """[b][a] = y^e L_eb^a, the structure functions contracted with the fiber."""
        m = self.m
        return tuple(
            tuple(
                e_sum(e_mul(Var(self.fiber_coords[e]), self.structure[e][b][a]) for e in range(m))
                for a in range(m)
            )
            for b in range(m)
        )

    def evaluator(self, p: EvalPoint) -> PointEvaluator:
        """The evaluator at ``p``, shared by every tensor computed there.

        The system keeps one evaluator, for the last point asked for (by
        object identity, so -0.0 and 0.0 never share one); asking for another
        point replaces it.
        """
        current = self._current
        if current is not None and current[0] is p:
            return current[1]
        if len(p.x) != self.n or len(p.y) != self.m:
            raise ValueError(
                f"point has dims ({len(p.x)},{len(p.y)}), system is ({self.n},{self.m})"
            )
        ev = PointEvaluator(self.coords, p.values())
        object.__setattr__(self, "_current", (p, ev))
        return ev

    # -- pointwise data ----------------------------------------------------

    def anchor_at(self, ev: PointEvaluator) -> np.ndarray:
        return ev.array(self.anchor)

    def structure_at(self, ev: PointEvaluator) -> np.ndarray:
        return ev.array(self.structure)

    # -- base calculus -----------------------------------------------------

    def _require_x_only(self, f: Expr, what: str) -> None:
        bad = variables(f) & set(self.fiber_coords)
        if bad:
            raise FiberDependenceError(
                f"{what} depends on fiber coordinates {sorted(bad)}"
            )

    def anchor_apply(self, s: BaseSection, f: Expr, p: EvalPoint) -> float:
        """Derivative of a base function along the anchored vector field of s."""
        if not s.x_only:
            raise FiberDependenceError("section must not depend on fiber coordinates")
        df = self.differential(f, p)
        return float(self.evaluator(p).values_of(s.components) @ df)

    def differential(self, f: Expr, p: EvalPoint) -> np.ndarray:
        """Components of the exterior derivative of a base function."""
        self._require_x_only(f, "function")
        ev = self.evaluator(p)
        grad_x = ev.gradient(f)[: self.n]
        return self.anchor_at(ev).T @ grad_x

    def bracket_exprs(self, r: BaseSection, s: BaseSection) -> BaseSection:
        """Component trees of the section bracket [r, s]."""
        if not (r.x_only and s.x_only):
            raise FiberDependenceError("bracket is defined for x-only sections")
        m, n = self.m, self.n
        comps = []
        for c in range(m):
            quad = e_sum(
                e_mul(e_mul(r.components[a], s.components[b]), self.structure[a][b][c])
                for a in range(m)
                for b in range(m)
            )
            flow_r = self._anchor_derivative_expr(r, s.components[c])
            flow_s = self._anchor_derivative_expr(s, r.components[c])
            comps.append(e_sum([quad, e_sub(flow_r, flow_s)]))
        return BaseSection.define(self, comps)

    def _anchor_derivative_expr(self, s: BaseSection, f: Expr) -> Expr:
        return e_sum(
            e_mul(e_mul(s.components[a], self.anchor[i][a]), self.derivative(f, self.base_coords[i]))
            for a in range(self.m)
            for i in range(self.n)
        )

    def bracket(self, r: BaseSection, s: BaseSection, p: EvalPoint) -> np.ndarray:
        """Bracket components at a point."""
        ev = self.evaluator(p)
        return ev.values_of(self.bracket_exprs(r, s).components)

    # -- axiom validation ----------------------------------------------------

    def validate(self, samples: Sequence[EvalPoint], tol: float) -> ValidationReport:
        """Pointwise residuals of antisymmetry and the two structure equations.

        Evaluation domain errors propagate with the offending sample point
        attached to the message.
        """
        if not samples:
            raise ValueError("at least one sample point is required")
        anti = cyc = compat = 0.0
        for p in samples:
            try:
                anti, cyc, compat = self._validate_at(p, anti, cyc, compat)
            except EvaluationDomainError as err:
                raise EvaluationDomainError(
                    f"{err} while validating at {p}", err.subexpression
                ) from err
        return ValidationReport(
            antisymmetry=anti,
            cyclic=cyc,
            compatibility=compat,
            tol=tol,
            samples=len(samples),
            passed=(anti <= tol and cyc <= tol and compat <= tol),
        )

    def _validate_at(
        self, p: EvalPoint, anti: float, cyc: float, compat: float
    ) -> tuple[float, float, float]:
        ev = self.evaluator(p)
        sigma = self.anchor_at(ev)
        L = self.structure_at(ev)
        anti = max(anti, float(np.max(np.abs(L + L.transpose(1, 0, 2)))))

        # first partials of structure functions and anchor entries
        n = self.n
        dL = np.array(
            [[[ev.gradient(e)[:n] for e in row] for row in plane] for plane in self.structure]
        )
        dsig = np.array([[ev.gradient(e)[:n] for e in row] for row in self.anchor])

        # cyclic sum of sigma_a^i dL_{bc}^d/dx^i + L_{a e}^d L_{bc}^e, added in
        # the order (a, b, c), (b, c, a), (c, a, b), flow term before product
        flow = _dots(sigma.T[:, None, None, None], dL[None])
        prod = _dots(L.transpose(0, 2, 1)[:, None, None], L[None, :, :, None])
        cycle = ((0, 1, 2, 3), (2, 0, 1, 3), (1, 2, 0, 3))
        total = sum(t.transpose(s) for s in cycle for t in (flow, prod))
        cyc = max(cyc, float(np.max(np.abs(total))))

        # anchor compatibility with the bracket
        lie = _dots(sigma.T[:, None, None], dsig.transpose(1, 0, 2)[None])
        rhs = _dots(sigma[None, None], L[:, :, None])
        compat = max(compat, float(np.max(np.abs(lie - lie.transpose(1, 0, 2) - rhs))))
        return anti, cyc, compat


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[..., :] @ y[..., :]`` over broadcast leading axes.  numpy hands each
    (1, k) @ (k, 1) product to the BLAS dot, so entries round as ``np.dot``
    does on the same views (einsum adds in another order)."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]
