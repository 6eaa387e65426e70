import numpy as np
import pytest

from algmech.expr import parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import (
    ProlongationSection,
    Semispray,
    bracket,
    euler_section,
    identity_tensor,
    j_tensor,
    lie_derivative_tensor,
    sigma1_apply,
    spray_test,
    tangent_structure_apply,
)
from algmech.sampling import sample_points


def sec(cfg, xs, vs):
    alg = cfg.algebroid
    return ProlongationSection(
        tuple(parse_expression(s, alg.coords) for s in xs),
        tuple(parse_expression(s, alg.coords) for s in vs),
    )


def pts(cfg, k=20, seed=5):
    return sample_points(cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed)


P0 = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])


class TestBracket:
    def test_frame_bracket(self, driftless):
        alg = driftless.algebroid
        A = ProlongationSection.basis_x(2, 0)
        B = ProlongationSection.basis_x(2, 1)
        x, v = bracket(alg, A, B, P0)
        assert np.allclose(x, [1.0, 0.0], atol=0)
        assert np.array_equal(v, np.zeros(2))

    def test_self_bracket_zero(self, driftless):
        A = sec(driftless, ["u1*x1", "x2"], ["u2^2", "x3*u1"])
        x, v = bracket(driftless.algebroid, A, A, P0)
        assert np.array_equal(x, np.zeros(2))
        assert np.array_equal(v, np.zeros(2))

    def test_sode_with_vertical_frame(self, driftless):
        S = driftless.semispray().section(driftless.algebroid)
        V1 = ProlongationSection.basis_v(2, 0)
        x, v = bracket(driftless.algebroid, S, V1, P0)
        assert np.allclose(x, [-1.0, 0.0], atol=0)
        assert np.allclose(v, [2.0, -2.0], atol=0)  # -(dS/du1) at (1,2)

    def test_antisymmetry_and_jacobi(self, driftless):
        alg = driftless.algebroid
        corpus = [
            sec(driftless, ["u1", "x1*x2"], ["u2", "x3"]),
            sec(driftless, ["x2^2", "u1*u2"], ["1", "x1"]),
            sec(driftless, ["u2", "0"], ["x1", "u1^2"]),
            sec(driftless, ["x3*u1", "u2^2"], ["x2", "1"]),
        ]
        for p in pts(driftless, 50, seed=77):
            for A in corpus:
                for B in corpus:
                    ax, av = bracket(alg, A, B, p)
                    bx, bv = bracket(alg, B, A, p)
                    assert np.array_equal(ax, -bx)
                    assert np.array_equal(av, -bv)
        # Jacobi via nested numeric brackets needs expression-backed inner
        # brackets; check it through the anchored action on a test function
        f = parse_expression("x1*u2+x2*u1^2+x3", alg.coords)
        for triple in ((0, 1, 2), (1, 2, 3), (0, 2, 3)):
            A, B, C = (corpus[i] for i in triple)
            for p in pts(driftless, 50, seed=78):
                total = 0.0
                for X, Y, Z in ((A, B, C), (B, C, A), (C, A, B)):
                    total += _nested_bracket_action(alg, X, Y, Z, f, p)
                assert abs(total) <= 1e-8

    def test_anchor_is_bracket_homomorphism(self, driftless):
        alg = driftless.algebroid
        A = sec(driftless, ["u1", "x1"], ["x2", "u2"])
        B = sec(driftless, ["x3", "u2^2"], ["1", "x1*u1"])
        f = parse_expression("x1*x2+x3*u1-u2^2", alg.coords)
        h = 1e-6
        for p in pts(driftless, 10, seed=9):
            lhs_x, lhs_v = bracket(alg, A, B, p)
            lhs = sigma1_apply(
                alg,
                ProlongationSection.constant(lhs_x, lhs_v),
                f,
                p,
            )
            rhs = _commutator_action(alg, A, B, f, p)
            assert lhs == pytest.approx(rhs, abs=1e-7)


def _dir_tree(alg, A, f):
    from algmech.expr import differentiate, e_add, e_mul, e_sum

    base = e_sum(
        e_mul(e_mul(A.x_comps[a], alg.anchor[i][a]), differentiate(f, alg.base_coords[i]))
        for a in range(alg.m)
        for i in range(alg.n)
    )
    fib = e_sum(
        e_mul(A.v_comps[a], differentiate(f, alg.fiber_coords[a]))
        for a in range(alg.m)
    )
    return e_add(base, fib)


def _commutator_action(alg, A, B, f, p):
    return sigma1_apply(alg, A, _dir_tree(alg, B, f), p) - sigma1_apply(
        alg, B, _dir_tree(alg, A, f), p
    )


def _nested_bracket_action(alg, X, Y, Z, f, p):
    """sigma1([X, [Y, Z]]) f via derivation composition (Jacobi oracle)."""
    inner = _commutator_tree_action(alg, Y, Z, f)
    first = sigma1_apply(alg, X, inner, p)
    outer = _dir_tree(alg, X, f)
    second = _commutator_action_on_tree(alg, Y, Z, outer, p)
    return first - second


def _commutator_tree_action(alg, Y, Z, f):
    return _sub(_dir_tree(alg, Y, _dir_tree(alg, Z, f)), _dir_tree(alg, Z, _dir_tree(alg, Y, f)))


def _commutator_action_on_tree(alg, Y, Z, tree, p):
    return sigma1_apply(alg, Y, _dir_tree(alg, Z, tree), p) - sigma1_apply(
        alg, Z, _dir_tree(alg, Y, tree), p
    )


def _sub(a, b):
    from algmech.expr import e_sub

    return e_sub(a, b)


class TestTangentStructure:
    def test_maps_sode_to_euler(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray().section(alg)
        x, v = tangent_structure_apply(S, alg, P0)
        assert np.array_equal(x, np.zeros(2))
        assert np.allclose(v, [1.0, 2.0], atol=0)

    def test_kills_vertical_frame(self, driftless):
        alg = driftless.algebroid
        x, v = tangent_structure_apply(ProlongationSection.basis_v(2, 1), alg, P0)
        assert np.array_equal(np.concatenate([x, v]), np.zeros(4))

    def test_nilpotent(self, driftless):
        alg = driftless.algebroid
        A = sec(driftless, ["u1*x3", "x2"], ["1", "u2"])
        x, v = tangent_structure_apply(A, alg, P0)
        jx, jv = tangent_structure_apply(
            ProlongationSection.constant(x, v), alg, P0
        )
        assert np.array_equal(np.concatenate([jx, jv]), np.zeros(4))

    def test_image_equals_kernel(self, driftless):
        # J annihilates exactly the sections with vanishing frame part
        alg = driftless.algebroid
        vertical = sec(driftless, ["0", "0"], ["u1", "x2"])
        x, v = tangent_structure_apply(vertical, alg, P0)
        assert np.array_equal(np.concatenate([x, v]), np.zeros(4))
        mixed = sec(driftless, ["u1", "0"], ["0", "0"])
        x, v = tangent_structure_apply(mixed, alg, P0)
        assert np.any(v != 0.0)

    def test_point_dimension_validation(self, driftless):
        with pytest.raises(ValueError):
            driftless.algebroid.evaluator(EvalPoint.of([0.0, 0.0], [1.0, 1.0]))


class TestEulerSection:
    def test_components(self, driftless):
        C = euler_section(driftless.algebroid)
        ev = driftless.algebroid.evaluator(P0)
        x, v = C.values_at(ev)
        assert np.array_equal(x, np.zeros(2))
        assert np.allclose(v, [1.0, 2.0], atol=0)

    def test_zero_fiber(self, driftless):
        C = euler_section(driftless.algebroid)
        ev = driftless.algebroid.evaluator(EvalPoint.of([1, 1, 1], [0.0, 0.0]))
        x, v = C.values_at(ev)
        assert np.array_equal(np.concatenate([x, v]), np.zeros(4))

    def test_equals_j_of_sode(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray().section(alg)
            for p in pts(cfg, 5, seed=31):
                ev = alg.evaluator(p)
                jx, jv = tangent_structure_apply(S, alg, p)
                cx, cv = euler_section(alg).values_at(ev)
                assert np.array_equal(jx, cx)
                assert np.array_equal(jv, cv)


class TestSprayTest:
    def test_driftless_is_a_spray_exactly(self, driftless):
        rep = spray_test(
            driftless.algebroid, driftless.semispray(), pts(driftless, 50), 1e-9
        )
        assert rep.is_spray
        assert rep.homogeneity == 0.0
        assert rep.euler_bracket == 0.0

    def test_constant_components_fail(self, driftless):
        alg = driftless.algebroid
        S = Semispray(tuple(parse_expression(s, alg.coords) for s in ("3", "0")))
        rep = spray_test(alg, S, pts(driftless, 20), 1e-9)
        assert not rep.is_spray
        assert rep.homogeneity == pytest.approx(6.0, abs=1e-12)  # |-2 * 3|

    def test_degree_one_components_fail(self, driftless):
        alg = driftless.algebroid
        S = Semispray(tuple(parse_expression(s, alg.coords) for s in ("u1", "u2")))
        rep = spray_test(alg, S, pts(driftless, 20), 1e-9)
        assert not rep.is_spray
        # Euler relation leaves -S^a, fiber magnitudes at most 2
        assert rep.homogeneity <= 2.0


class TestLieDerivativeTensor:
    def test_euler_derivative_of_j(self, driftless):
        # [C, J] = -J: the VX block is minus the identity, the rest vanish
        alg = driftless.algebroid
        C = euler_section(alg)
        out = lie_derivative_tensor(alg, C, j_tensor(2), P0)
        assert np.array_equal(out.vx, -np.eye(2))
        assert np.count_nonzero(out.xx) == 0
        assert np.count_nonzero(out.xv) == 0
        assert np.count_nonzero(out.vv) == 0

    def test_identity_is_flat(self, driftless):
        alg = driftless.algebroid
        A = sec(driftless, ["u1", "x2*u2"], ["x1", "u1*u2"])
        out = lie_derivative_tensor(alg, A, identity_tensor(2), P0)
        assert np.max(np.abs(out.matrix)) == 0.0

    def test_sode_identity_j_brackets(self, all_systems):
        """J[S, J A] = -J A for every section A."""
        for cfg in all_systems:
            alg = cfg.algebroid
            m = alg.m
            S = cfg.semispray().section(alg)
            candidates = [
                [f"{alg.fiber_coords[a]}*{alg.base_coords[0]}" for a in range(m)],
                [f"{alg.base_coords[a % alg.n]}^2" for a in range(m)],
                [f"1+{alg.fiber_coords[(a + 1) % m]}" for a in range(m)],
            ]
            for x_sources in candidates:
                A = ProlongationSection(
                    tuple(parse_expression(s, alg.coords) for s in x_sources),
                    tuple(parse_expression("1", alg.coords) for _ in range(m)),
                )
                JA = j_tensor(m).apply(A)
                for p in pts(cfg, 50, seed=13):
                    ev = alg.evaluator(p)
                    bx, bv = bracket(alg, S, JA, p)
                    jx, jv = np.zeros(m), bx
                    ja_x, ja_v = JA.values_at(ev)
                    assert np.max(np.abs(jx - (-ja_x))) <= 1e-9
                    assert np.max(np.abs(jv - (-ja_v))) <= 1e-9
