import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from algmech import linalg
from algmech.algebroid import Algebroid, BaseSection
from algmech.config import parse_config
from algmech.errors import FiberDependenceError
from algmech.expr import ZERO, Num, e_neg, parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import complete_lift, vertical_lift
from algmech.sampling import DEFAULT_BASE_BOX, DEFAULT_FIBER_BOX, SplitMix64, sample_points

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import synth  # noqa: E402


def expr(cfg, src):
    return parse_expression(src, cfg.algebroid.coords)


def x_dependent_system(n: int, m: int) -> Algebroid:
    """An anchor and structure on n base coordinates, every entry depending
    on x (L_aa^c = 0 aside), that satisfy neither structure equation."""
    base, fiber = tuple(f"x{i + 1}" for i in range(n)), tuple(f"u{a + 1}" for a in range(m))
    x = lambda i: base[i % n]  # noqa: E731
    P = lambda src: parse_expression(src, base)  # noqa: E731
    anchor = tuple(
        tuple(P(f"{1 + i + a}*{x(i + a)}+sin({x(i * a + 1)})") for a in range(m))
        for i in range(n)
    )
    L = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for a, b, c in ((a, b, c) for a in range(m) for b in range(a + 1, m) for c in range(m)):
        L[a][b][c] = P(f"{x(a + b + c)}*{x(c)}-{a + c + 1}*cos({x(b)})")
        L[b][a][c] = e_neg(L[a][b][c])
    return Algebroid(base, fiber, anchor, tuple(tuple(map(tuple, p_)) for p_ in L))


def bracket_values(alg, r, s, p):
    """Components of the section bracket [r, s] at p."""
    return alg.evaluator(p).values_of(alg.bracket_exprs(r, s).components)[0]


def section(cfg, *comps):
    alg = cfg.algebroid
    return BaseSection.define(alg, [parse_expression(c, alg.coords) for c in comps])


@pytest.fixture(scope="module")
def pts():
    return lambda cfg, k=20, seed=11: sample_points(
        cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed
    )


class TestValidation:
    def test_driftless_passes_with_zero_residuals(self, driftless, pts):
        alg = driftless.algebroid
        rep = alg.validate(alg.sample_evaluator(pts(driftless)), tol=1e-9)
        assert rep.passed
        assert rep.antisymmetry == 0.0
        assert rep.cyclic == 0.0
        assert rep.compatibility == 0.0

    def test_abelian_passes(self, abelian, pts):
        alg = abelian.algebroid
        rep = alg.validate(alg.sample_evaluator(pts(abelian)), tol=1e-9)
        assert rep.passed

    def test_heisenberg_passes(self, heisenberg, pts):
        alg = heisenberg.algebroid
        rep = alg.validate(alg.sample_evaluator(pts(heisenberg)), tol=1e-9)
        assert rep.passed

    def test_tampered_structure_fails_compatibility(self, driftless, pts):
        alg = driftless.algebroid
        two = parse_expression("2", alg.base_coords)
        neg_two = parse_expression("-2", alg.base_coords)
        tampered = [[[e for e in row] for row in plane] for plane in alg.structure]
        tampered[0][1][0] = two
        tampered[1][0][0] = neg_two
        bad = Algebroid(
            alg.base_coords,
            alg.fiber_coords,
            alg.anchor,
            tuple(tuple(tuple(r) for r in p_) for p_ in tampered),
        )
        rep = bad.validate(bad.sample_evaluator(pts(driftless)), tol=1e-9)
        assert not rep.passed
        assert rep.compatibility > 0.5  # |sigma([X1,X2]) - 2 sigma(X1)| = |sigma(X1)|

    def test_requires_samples(self, driftless):
        with pytest.raises(ValueError):
            driftless.algebroid.validate(driftless.algebroid.sample_evaluator([]), 1e-9)

    def test_noncommuting_anchor_without_structure_fails(self, abelian):
        # zero bracket forces commuting anchored fields; this anchor does not
        alg = abelian.algebroid
        anchor = (
            (parse_expression("1", alg.base_coords), parse_expression("x1", alg.base_coords)),
            (parse_expression("0", alg.base_coords), parse_expression("1", alg.base_coords)),
        )
        bad = Algebroid(alg.base_coords, alg.fiber_coords, anchor, alg.structure)
        samples = sample_points(alg.base_coords, alg.fiber_coords, 10, seed=44)
        rep = bad.validate(bad.sample_evaluator(samples), tol=1e-9)
        assert not rep.passed
        assert rep.compatibility == pytest.approx(1.0, abs=1e-12)
        assert rep.cyclic == 0.0

    @pytest.mark.parametrize(
        "n,cyclic,compatibility",
        [(2, 31.956393456450883, 44.99799731614849), (4, 48.742519853670736, 95.64180371696402)],
    )
    def test_non_algebroid_residuals_are_pinned(self, n, cyclic, compatibility):
        # x-dependent anchor and structure satisfying neither structure
        # equation; each sigma_a(t) is the one vecmat of Algebroid.anchored
        # per tree, and every other product one np.dot per index tuple,
        # which einsum's order of addition misses in the last bit here
        alg = x_dependent_system(n, 3)
        samples = sample_points(alg.base_coords, alg.fiber_coords, 20, seed=11)
        rep = alg.validate(alg.sample_evaluator(samples), tol=1e-9)
        assert not rep.passed
        assert rep.antisymmetry == 0.0
        assert rep.cyclic == cyclic
        assert rep.compatibility == compatibility

    def test_anchor_derivatives_are_the_anchored_gradients(self, driftless, monkeypatch):
        # validation reads sigma_a(t) from Algebroid.anchored_gradient, so the
        # evaluator keeps it for each anchor entry that is not constant
        alg = driftless.algebroid
        ev = alg.sample_evaluator(driftless.sample_points())
        alg.validate(ev, tol=1e-9)
        anchored, real = [], Algebroid.anchored
        monkeypatch.setattr(Algebroid, "anchored", lambda *args: anchored.append(args) or real(*args))
        trees = [t for row in alg.anchor for t in row]
        got = alg._anchor_derivatives(ev, trees, (len(trees),))
        assert anchored == [] and any(not isinstance(t, Num) for t in trees)
        for k, t in enumerate(trees):
            want = np.zeros_like(got[..., k]) if isinstance(t, Num) else alg.anchored_gradient(ev, t)[0]
            assert got[..., k].tobytes() == want.tobytes()
        assert anchored == []
        assert alg._anchor_derivatives(ev, [Num(2.0)] * 3, (3,)).shape == (len(ev.points), alg.m, 1)

    def test_anchored_gradients_are_the_one_tree_products(self):
        # every anchor and structure entry depends on x: the stacked rows have
        # the bits of one vecmat per tree, and the evaluator keeps them
        alg = x_dependent_system(8, 8)
        samples = sample_points(alg.base_coords, alg.fiber_coords, 20, seed=11)
        ev, one = alg.sample_evaluator(samples), alg.sample_evaluator(samples)
        trees = [t for row in alg.anchor for t in row] + [alg.structure[0][1][2], alg.anchor[3][4]]
        got = alg.anchored_gradients(ev, trees)
        for f, (gx, gy) in zip(trees, got):
            g = one.jet(f).grad
            assert gx.tobytes() == alg.anchored(one, g).tobytes() and gy.tobytes() == g[:, alg.n :].tobytes()
        assert alg.anchored_gradient(ev, trees[5]) is got[5]

    def test_validation_anchors_each_stack_of_trees_in_one_product(self, monkeypatch):
        # 448 structure trees and 64 anchor entries, all x-dependent: one
        # vecmat for each, not one per tree
        alg = x_dependent_system(8, 8)
        ev = alg.sample_evaluator(sample_points(alg.base_coords, alg.fiber_coords, 20, seed=11))
        calls, real = [], linalg.vecmat
        monkeypatch.setattr(linalg, "vecmat", lambda *a: calls.append(a) or real(*a))
        alg.validate(ev, tol=1e-9)
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", ["diag", "dense"])
    def test_rank_32_validation_stays_within_10_mb(self, kind):
        # a term whose trees are all constant is a 0 that broadcasts: one
        # (P, m, m^3) array would be 84 MB here
        cfg = parse_config(synth.system(kind, 32, 20261018))
        alg = cfg.algebroid
        ev = alg.sample_evaluator(cfg.sample_points())
        assert len(ev.points) == 10
        tracemalloc.start()
        try:
            assert alg.validate(ev, tol=1e-9).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6, f"validate's peak is {peak / 1e6:.1f} MB"

    def test_domain_error_names_the_sample_point(self, abelian):
        alg = abelian.algebroid
        anchor = (
            (parse_expression("1/x1", alg.base_coords), parse_expression("0", alg.base_coords)),
            (parse_expression("0", alg.base_coords), parse_expression("1", alg.base_coords)),
        )
        bad = Algebroid(alg.base_coords, alg.fiber_coords, anchor, alg.structure)
        point = EvalPoint.of([0.0, 1.0], [1.0, 1.0])
        from algmech.errors import EvaluationDomainError

        with pytest.raises(EvaluationDomainError) as exc:
            bad.validate(bad.sample_evaluator([point]), tol=1e-9)
        assert "x=[0.0, 1.0]" in str(exc.value)


class TestAnchorApply:
    def test_second_frame_on_x2(self, driftless):
        # the anchored field of the second frame scales x2: value is x2 itself
        alg = driftless.algebroid
        s2 = section(driftless, "0", "1")
        p = EvalPoint.of([0.7, 1.0, -0.3], [1.0, 1.0])
        got = alg.anchor_apply(s2, expr(driftless, "x2"), alg.evaluator(p))
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_constant_function(self, driftless):
        alg = driftless.algebroid
        s2 = section(driftless, "0", "1")
        p = EvalPoint.of([0.7, 1.0, -0.3], [1.0, 1.0])
        assert alg.anchor_apply(s2, expr(driftless, "4"), alg.evaluator(p)) == 0.0

    def test_first_frame_on_x1(self, driftless):
        alg = driftless.algebroid
        s1 = section(driftless, "1", "0")
        for p in sample_points(alg.base_coords, alg.fiber_coords, 5, seed=2):
            assert alg.anchor_apply(s1, expr(driftless, "x1"), alg.evaluator(p)) == 1.0

    def test_rejects_fiber_dependent_function(self, driftless):
        alg = driftless.algebroid
        s1 = section(driftless, "1", "0")
        p = EvalPoint.of([0, 0, 0], [1, 1])
        with pytest.raises(FiberDependenceError):
            alg.anchor_apply(s1, expr(driftless, "u1"), alg.evaluator(p))

    def test_rejects_fiber_dependent_section(self, driftless):
        alg = driftless.algebroid
        s = section(driftless, "u1", "0")
        p = EvalPoint.of([0, 0, 0], [1, 1])
        with pytest.raises(FiberDependenceError):
            alg.anchor_apply(s, expr(driftless, "x1"), alg.evaluator(p))


class TestBracket:
    def test_frame_bracket_recovers_structure(self, driftless, pts):
        s1 = section(driftless, "1", "0")
        s2 = section(driftless, "0", "1")
        for p in pts(driftless, 10):
            assert np.allclose(
                bracket_values(driftless.algebroid, s1, s2, p), [1.0, 0.0], atol=0
            )

    def test_self_bracket_vanishes(self, driftless, pts):
        s = section(driftless, "x1+x2", "x3^2")
        for p in pts(driftless, 10):
            assert np.array_equal(
                bracket_values(driftless.algebroid, s, s, p), np.zeros(2)
            )

    def test_module_structure(self, driftless, pts):
        # [s1, x1 s1] picks up the anchored derivative of the coefficient
        s1 = section(driftless, "1", "0")
        x1s1 = section(driftless, "x1", "0")
        for p in pts(driftless, 10):
            assert np.allclose(
                bracket_values(driftless.algebroid, s1, x1s1, p), [1.0, 0.0], atol=1e-15
            )

    def test_rejects_fiber_dependent_sections(self, driftless):
        r = section(driftless, "u1", "0")
        s = section(driftless, "1", "0")
        with pytest.raises(FiberDependenceError):
            driftless.algebroid.bracket_exprs(r, s)

    def test_antisymmetry_exact(self, driftless, pts):
        r = section(driftless, "x1*x2", "x3")
        s = section(driftless, "x2^2", "x1-x3")
        alg = driftless.algebroid
        for p in pts(driftless, 20):
            assert np.array_equal(
                bracket_values(alg, r, s, p), -bracket_values(alg, s, r, p)
            )

    def test_jacobi_identity_constant_sections(self, heisenberg, pts):
        alg = heisenberg.algebroid
        r = section(heisenberg, "1", "0", "0")
        s = section(heisenberg, "0", "1", "0")
        t = section(heisenberg, "0", "0", "1")
        for p in pts(heisenberg, 10):
            total = np.zeros(3)
            for a, b, c in ((r, s, t), (s, t, r), (t, r, s)):
                inner = alg.bracket_exprs(b, c)
                total = total + bracket_values(alg, a, inner, p)
            assert np.max(np.abs(total)) <= 1e-12

    def test_anchor_homomorphism(self, driftless, pts):
        alg = driftless.algebroid
        r = section(driftless, "x2", "1")
        s = section(driftless, "x3", "x1")
        f = expr(driftless, "x1*x2+x3^2")
        for p in pts(driftless, 15):
            ev = alg.evaluator(p)
            lhs = alg.anchor_apply(alg.bracket_exprs(r, s), f, ev)
            # sigma(r)(sigma(s) f) - sigma(s)(sigma(r) f) via nested trees
            sf = _anchored_derivative_tree(alg, s, f)
            rf = _anchored_derivative_tree(alg, r, f)
            rhs = alg.anchor_apply(r, sf, ev) - alg.anchor_apply(s, rf, ev)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def _anchored_derivative_tree(alg, s, f):
    from algmech.expr import differentiate, e_mul, e_sum

    return e_sum(
        e_mul(e_mul(s.components[a], alg.anchor[i][a]), differentiate(f, alg.base_coords[i]))
        for a in range(alg.m)
        for i in range(alg.n)
    )


class TestDifferential:
    def test_third_base_coordinate(self, driftless):
        alg = driftless.algebroid
        p = EvalPoint.of([0.5, 1.5, 0.2], [1, 1])
        assert np.allclose(
            alg.differential(expr(driftless, "x3"), alg.evaluator(p)), [0.0, 1.0]
        )

    def test_constant(self, driftless):
        alg = driftless.algebroid
        p = EvalPoint.of([0.5, 1.5, 0.2], [1, 1])
        assert np.array_equal(
            alg.differential(expr(driftless, "3"), alg.evaluator(p))[0], np.zeros(2)
        )

    def test_first_base_coordinate(self, driftless):
        alg = driftless.algebroid
        p = EvalPoint.of([0.5, 1.5, 0.2], [1, 1])
        assert np.allclose(
            alg.differential(expr(driftless, "x1"), alg.evaluator(p)), [1.0, 0.5]
        )

    def test_d_squared_vanishes(self, driftless, pts):
        """Two-form coefficients of d(df) through the coboundary formula."""
        alg = driftless.algebroid
        from algmech.expr import differentiate, e_mul, e_sum

        for src in ("x1*x3", "x2^2-x1", "x1*x2*x3"):
            f = expr(driftless, src)
            theta = [
                e_sum(
                    e_mul(alg.anchor[i][a], differentiate(f, alg.base_coords[i]))
                    for i in range(alg.n)
                )
                for a in range(alg.m)
            ]
            for p in pts(driftless, 10):
                ev = alg.evaluator(p)
                sigma = alg.anchor_at(ev)[0]
                L = alg.structure_at(ev)[0]
                th = ev.values_of(theta)[0]
                for a in range(alg.m):
                    for b in range(alg.m):
                        da_thb = float(sigma[:, a] @ ev.jet(theta[b]).grad[0, : alg.n])
                        db_tha = float(sigma[:, b] @ ev.jet(theta[a]).grad[0, : alg.n])
                        coeff = da_thb - db_tha - float(th @ L[a, b])
                        assert abs(coeff) <= 1e-9


class TestLifts:
    def test_complete_lift_of_first_frame(self, driftless):
        lift = complete_lift(driftless.algebroid, section(driftless, "1", "0"))
        ev = driftless.algebroid.evaluator(EvalPoint.of([0, 0, 0], [1.0, 2.0]))
        x, v = lift.values_at(ev)
        assert np.allclose(x, [1.0, 0.0], atol=0)
        assert np.allclose(v, [-2.0, 0.0], atol=0)

    def test_vertical_lift(self, driftless):
        lift = vertical_lift(driftless.algebroid, section(driftless, "1", "0"))
        ev = driftless.algebroid.evaluator(EvalPoint.of([0, 0, 0], [1.0, 2.0]))
        x, v = lift.values_at(ev)
        assert np.array_equal(x[0], np.zeros(2))
        assert np.allclose(v, [1.0, 0.0], atol=0)

    def test_complete_lift_constant_on_abelian_is_horizontal(self, abelian):
        lift = complete_lift(abelian.algebroid, section(abelian, "2", "-1"))
        ev = abelian.algebroid.evaluator(EvalPoint.of([0.3, -0.7], [1.0, 2.0]))
        x, v = lift.values_at(ev)
        assert np.allclose(x, [2.0, -1.0], atol=0)
        assert np.array_equal(v[0], np.zeros(2))

    def test_complete_lift_requires_x_only(self, driftless):
        s = section(driftless, "u1", "0")
        with pytest.raises(ValueError):
            complete_lift(driftless.algebroid, s)


def _scalar_points(base, fiber, count, seed, box):
    """The sample points drawn one SplitMix64 call at a time: x values, then
    a sign and a magnitude per fiber coordinate."""
    rng, points = SplitMix64(seed), []
    for _ in range(count):
        x = [rng.uniform(*box.get(name, DEFAULT_BASE_BOX)) for name in base]
        y = []
        for name in fiber:
            lo, hi = box.get(name, DEFAULT_FIBER_BOX)
            y.append(rng.sign() * rng.uniform(lo, hi))
        points.append(EvalPoint.of(x, y))
    return points


@pytest.mark.parametrize("seed", [0, 1, 7, -1, 2**63, 2**64 + 5])
@pytest.mark.parametrize("count", [1, 50])
def test_batched_sampler_equals_the_scalar_generator(seed, count):
    for rank in range(1, 9):
        base, fiber = ("x1", "x2", "x3"), tuple(f"y{a}" for a in range(rank))
        for box in ({}, {"x2": (-0.5, 3.25), "y0": (0.2, 0.3), f"y{rank - 1}": (1e-3, 1e3)}):
            got = sample_points(base, fiber, count, seed, box)
            assert got == _scalar_points(base, fiber, count, seed, box)
            assert all(type(v) is float for p in got for v in p.values())
