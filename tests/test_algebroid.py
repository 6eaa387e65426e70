import numpy as np
import pytest

from algmech.algebroid import Algebroid, BaseSection
from algmech.errors import FiberDependenceError
from algmech.expr import ZERO, e_neg, parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import complete_lift, vertical_lift
from algmech.sampling import sample_points


def expr(cfg, src):
    return parse_expression(src, cfg.algebroid.coords)


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
        rep = driftless.algebroid.validate(pts(driftless), tol=1e-9)
        assert rep.passed
        assert rep.antisymmetry == 0.0
        assert rep.cyclic == 0.0
        assert rep.compatibility == 0.0

    def test_abelian_passes(self, abelian, pts):
        rep = abelian.algebroid.validate(pts(abelian), tol=1e-9)
        assert rep.passed

    def test_heisenberg_passes(self, heisenberg, pts):
        rep = heisenberg.algebroid.validate(pts(heisenberg), tol=1e-9)
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
        rep = bad.validate(pts(driftless), tol=1e-9)
        assert not rep.passed
        assert rep.compatibility > 0.5  # |sigma([X1,X2]) - 2 sigma(X1)| = |sigma(X1)|

    def test_requires_samples(self, driftless):
        with pytest.raises(ValueError):
            driftless.algebroid.validate([], tol=1e-9)

    def test_noncommuting_anchor_without_structure_fails(self, abelian):
        # zero bracket forces commuting anchored fields; this anchor does not
        alg = abelian.algebroid
        anchor = (
            (parse_expression("1", alg.base_coords), parse_expression("x1", alg.base_coords)),
            (parse_expression("0", alg.base_coords), parse_expression("1", alg.base_coords)),
        )
        bad = Algebroid(alg.base_coords, alg.fiber_coords, anchor, alg.structure)
        rep = bad.validate(
            sample_points(alg.base_coords, alg.fiber_coords, 10, seed=44), tol=1e-9
        )
        assert not rep.passed
        assert rep.compatibility == pytest.approx(1.0, abs=1e-12)
        assert rep.cyclic == 0.0

    @pytest.mark.parametrize(
        "n,cyclic,compatibility",
        [(2, 31.956393456450883, 44.99799731614849), (4, 48.74251985367074, 95.64180371696402)],
    )
    def test_non_algebroid_residuals_are_pinned(self, n, cyclic, compatibility):
        # x-dependent anchor and structure satisfying neither structure
        # equation; the residuals are those of one np.dot per index tuple,
        # which einsum's order of addition misses in the last bit here
        m = 3
        base, fiber = tuple(f"x{i + 1}" for i in range(n)), ("u1", "u2", "u3")
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
        alg = Algebroid(base, fiber, anchor, tuple(tuple(map(tuple, p_)) for p_ in L))
        rep = alg.validate(sample_points(base, fiber, 20, seed=11), tol=1e-9)
        assert not rep.passed
        assert rep.antisymmetry == 0.0
        assert rep.cyclic == cyclic
        assert rep.compatibility == compatibility

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
            bad.validate([point], tol=1e-9)
        assert "x=[0.0, 1.0]" in str(exc.value)


class TestAnchorApply:
    def test_second_frame_on_x2(self, driftless):
        # the anchored field of the second frame scales x2: value is x2 itself
        alg = driftless.algebroid
        s2 = section(driftless, "0", "1")
        p = EvalPoint.of([0.7, 1.0, -0.3], [1.0, 1.0])
        assert alg.anchor_apply(s2, expr(driftless, "x2"), p) == pytest.approx(1.0, abs=1e-15)

    def test_constant_function(self, driftless):
        alg = driftless.algebroid
        s2 = section(driftless, "0", "1")
        p = EvalPoint.of([0.7, 1.0, -0.3], [1.0, 1.0])
        assert alg.anchor_apply(s2, expr(driftless, "4"), p) == 0.0

    def test_first_frame_on_x1(self, driftless):
        alg = driftless.algebroid
        s1 = section(driftless, "1", "0")
        for p in sample_points(alg.base_coords, alg.fiber_coords, 5, seed=2):
            assert alg.anchor_apply(s1, expr(driftless, "x1"), p) == 1.0

    def test_rejects_fiber_dependent_function(self, driftless):
        s1 = section(driftless, "1", "0")
        p = EvalPoint.of([0, 0, 0], [1, 1])
        with pytest.raises(FiberDependenceError):
            driftless.algebroid.anchor_apply(s1, expr(driftless, "u1"), p)

    def test_rejects_fiber_dependent_section(self, driftless):
        s = section(driftless, "u1", "0")
        p = EvalPoint.of([0, 0, 0], [1, 1])
        with pytest.raises(FiberDependenceError):
            driftless.algebroid.anchor_apply(s, expr(driftless, "x1"), p)


class TestBracket:
    def test_frame_bracket_recovers_structure(self, driftless, pts):
        s1 = section(driftless, "1", "0")
        s2 = section(driftless, "0", "1")
        for p in pts(driftless, 10):
            assert np.allclose(
                driftless.algebroid.bracket(s1, s2, p), [1.0, 0.0], atol=0
            )

    def test_self_bracket_vanishes(self, driftless, pts):
        s = section(driftless, "x1+x2", "x3^2")
        for p in pts(driftless, 10):
            assert np.array_equal(
                driftless.algebroid.bracket(s, s, p), np.zeros(2)
            )

    def test_module_structure(self, driftless, pts):
        # [s1, x1 s1] picks up the anchored derivative of the coefficient
        s1 = section(driftless, "1", "0")
        x1s1 = section(driftless, "x1", "0")
        for p in pts(driftless, 10):
            assert np.allclose(
                driftless.algebroid.bracket(s1, x1s1, p), [1.0, 0.0], atol=1e-15
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
                alg.bracket(r, s, p), -alg.bracket(s, r, p)
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
                total = total + alg.bracket(a, inner, p)
            assert np.max(np.abs(total)) <= 1e-12

    def test_anchor_homomorphism(self, driftless, pts):
        alg = driftless.algebroid
        r = section(driftless, "x2", "1")
        s = section(driftless, "x3", "x1")
        f = expr(driftless, "x1*x2+x3^2")
        for p in pts(driftless, 15):
            lhs = alg.anchor_apply(alg.bracket_exprs(r, s), f, p)
            # sigma(r)(sigma(s) f) - sigma(s)(sigma(r) f) via nested trees
            sf = _anchored_derivative_tree(alg, s, f)
            rf = _anchored_derivative_tree(alg, r, f)
            rhs = alg.anchor_apply(r, sf, p) - alg.anchor_apply(s, rf, p)
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
        p = EvalPoint.of([0.5, 1.5, 0.2], [1, 1])
        assert np.allclose(
            driftless.algebroid.differential(expr(driftless, "x3"), p), [0.0, 1.0]
        )

    def test_constant(self, driftless):
        p = EvalPoint.of([0.5, 1.5, 0.2], [1, 1])
        assert np.array_equal(
            driftless.algebroid.differential(expr(driftless, "3"), p), np.zeros(2)
        )

    def test_first_base_coordinate(self, driftless):
        p = EvalPoint.of([0.5, 1.5, 0.2], [1, 1])
        assert np.allclose(
            driftless.algebroid.differential(expr(driftless, "x1"), p), [1.0, 0.5]
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
                sigma = alg.anchor_at(ev)
                L = alg.structure_at(ev)
                th = np.array([ev.value(t) for t in theta])
                for a in range(alg.m):
                    for b in range(alg.m):
                        da_thb = float(sigma[:, a] @ ev.jet(theta[b]).grad[: alg.n])
                        db_tha = float(sigma[:, b] @ ev.jet(theta[a]).grad[: alg.n])
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
        assert np.array_equal(x, np.zeros(2))
        assert np.allclose(v, [1.0, 0.0], atol=0)

    def test_complete_lift_constant_on_abelian_is_horizontal(self, abelian):
        lift = complete_lift(abelian.algebroid, section(abelian, "2", "-1"))
        ev = abelian.algebroid.evaluator(EvalPoint.of([0.3, -0.7], [1.0, 2.0]))
        x, v = lift.values_at(ev)
        assert np.allclose(x, [2.0, -1.0], atol=0)
        assert np.array_equal(v, np.zeros(2))

    def test_complete_lift_requires_x_only(self, driftless):
        s = section(driftless, "u1", "0")
        with pytest.raises(ValueError):
            complete_lift(driftless.algebroid, s)
