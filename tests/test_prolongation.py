import random

import numpy as np
import pytest

from algmech.algebroid import inner
from algmech.config import parse_config
from algmech.expr import Num, parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import (
    ProlongationSection,
    Semispray,
    bracket,
    directional_derivative,
    euler_section,
    identity_tensor,
    j_tensor,
    lie_derivative_tensor,
    spray_test,
)
from algmech.sampling import sample_points

import test_pinned_library as rank3


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
        (x,), (v,) = bracket(alg, A, (B,), alg.evaluator(P0))
        assert np.allclose(x, [1.0, 0.0], atol=0)
        assert np.array_equal(v, np.zeros((1, 2)))

    def test_self_bracket_zero(self, driftless):
        A = sec(driftless, ["u1*x1", "x2"], ["u2^2", "x3*u1"])
        alg = driftless.algebroid
        (x,), (v,) = bracket(alg, A, (A,), alg.evaluator(P0))
        assert np.array_equal(x, np.zeros((1, 2)))
        assert np.array_equal(v, np.zeros((1, 2)))

    def test_sode_with_vertical_frame(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray().section(alg)
        V1 = ProlongationSection.basis_v(2, 0)
        (x,), (v,) = bracket(alg, S, (V1,), alg.evaluator(P0))
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
            ev = alg.evaluator(p)
            for A in corpus:
                for B in corpus:
                    (ax,), (av,) = bracket(alg, A, (B,), ev)
                    (bx,), (bv,) = bracket(alg, B, (A,), ev)
                    assert np.array_equal(ax, -bx)
                    assert np.array_equal(av, -bv)
        # Jacobi via nested numeric brackets needs expression-backed inner
        # brackets; check it through the anchored action on a test function
        f = parse_expression("x1*u2+x2*u1^2+x3", alg.coords)
        for triple in ((0, 1, 2), (1, 2, 3), (0, 2, 3)):
            A, B, C = (corpus[i] for i in triple)
            for p in pts(driftless, 50, seed=78):
                ev = alg.evaluator(p)
                total = 0.0
                for X, Y, Z in ((A, B, C), (B, C, A), (C, A, B)):
                    total += _nested_bracket_action(alg, X, Y, Z, f, ev)
                assert abs(total) <= 1e-8

    def test_anchor_is_bracket_homomorphism(self, driftless):
        alg = driftless.algebroid
        A = sec(driftless, ["u1", "x1"], ["x2", "u2"])
        B = sec(driftless, ["x3", "u2^2"], ["1", "x1*u1"])
        f = parse_expression("x1*x2+x3*u1-u2^2", alg.coords)
        h = 1e-6
        for p in pts(driftless, 10, seed=9):
            ev = alg.evaluator(p)
            (lhs_x,), (lhs_v,) = bracket(alg, A, (B,), ev)
            (lhs,) = directional_derivative(alg, ev, lhs_x, lhs_v, (f,))
            rhs = _commutator_action(alg, A, B, f, ev)
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


def _commutator_action(alg, A, B, f, ev):
    (ab,) = directional_derivative(alg, ev, *A.values_at(ev), (_dir_tree(alg, B, f),))
    (ba,) = directional_derivative(alg, ev, *B.values_at(ev), (_dir_tree(alg, A, f),))
    return ab - ba


def _nested_bracket_action(alg, X, Y, Z, f, ev):
    """sigma1([X, [Y, Z]]) f via derivation composition (Jacobi oracle)."""
    inner = _commutator_tree_action(alg, Y, Z, f)
    (first,) = directional_derivative(alg, ev, *X.values_at(ev), (inner,))
    outer = _dir_tree(alg, X, f)
    second = _commutator_action(alg, Y, Z, outer, ev)
    return first - second


def _commutator_tree_action(alg, Y, Z, f):
    return _sub(_dir_tree(alg, Y, _dir_tree(alg, Z, f)), _dir_tree(alg, Z, _dir_tree(alg, Y, f)))


def _sub(a, b):
    from algmech.expr import e_sub

    return e_sub(a, b)


def reference_bracket(alg, A, B, ev):
    """[A, B] with one directional derivative, one ``inner`` pair, per
    component and side: the per-component form the stacked bracket keeps the
    bits of."""
    L = alg.structure_at(ev)
    ax, av = A.values_at(ev)
    bx, bv = B.values_at(ev)

    def d(cx, cv, f):
        if isinstance(f, Num):
            return np.zeros(np.shape(cx)[:-1])[()]
        gx, gy = alg.anchored_gradient(ev, f)
        return inner(cx, gx) + inner(cv, gy)

    x_part = np.einsum("...a,...b,...abg->...g", ax, bx, L)
    v_part = np.zeros_like(x_part)
    for g in range(alg.m):
        x_part[..., g] += d(ax, av, B.x_comps[g]) - d(bx, bv, A.x_comps[g])
        v_part[..., g] = d(ax, av, B.v_comps[g]) - d(bx, bv, A.v_comps[g])
    return x_part, v_part


def random_section(cfg, rng):
    """Components that mix base and fiber coordinates, with a constant among
    them, from a seeded ``random.Random``."""
    coords = cfg.algebroid.coords

    def component():
        if rng.random() < 0.2:
            return f"{rng.uniform(-2, 2)!r}"
        a, b, c = (rng.choice(coords) for _ in range(3))
        k1, k2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        return f"{k1!r}*{a}*{b}+sin({c})*{k2!r}+{a}^2*{c}"

    m = cfg.algebroid.m
    return sec(cfg, [component() for _ in range(m)], [component() for _ in range(m)])


@pytest.mark.parametrize("system", ["heisenberg", "rank3"])
def test_stacked_bracket_has_the_per_component_bits(system, heisenberg):
    """For random fiber-dependent sections, over a batch and its batches of one, the
    bracket (each side one stacked directional derivative) is the
    per-component reference bit for bit."""
    if system == "rank3":
        cfg, points = parse_config(rank3.RAW), list(rank3.POINTS)
    else:
        cfg, points = heisenberg, pts(heisenberg, 8)
    alg, rng = cfg.algebroid, random.Random(f"bracket:{system}")
    for _ in range(6):
        A, B = random_section(cfg, rng), random_section(cfg, rng)
        evaluators = [alg.sample_evaluator(points)] + [alg.evaluator(p) for p in points]
        for ev in evaluators:
            got = np.concatenate(bracket(alg, A, (B,), ev), axis=-1)[0]
            want = np.concatenate(reference_bracket(alg, A, B, ev), axis=-1)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestTangentStructure:
    def test_maps_sode_to_euler(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray().section(alg)
        x, v = j_tensor(alg.m).apply(S).values_at(alg.evaluator(P0))
        assert np.array_equal(x, np.zeros((1, 2)))
        assert np.allclose(v, [1.0, 2.0], atol=0)

    def test_kills_vertical_frame(self, driftless):
        alg = driftless.algebroid
        V2 = ProlongationSection.basis_v(2, 1)
        x, v = j_tensor(alg.m).apply(V2).values_at(alg.evaluator(P0))
        assert np.array_equal(np.concatenate([x, v], axis=-1), np.zeros((1, 4)))

    def test_nilpotent(self, driftless):
        alg = driftless.algebroid
        A = sec(driftless, ["u1*x3", "x2"], ["1", "u2"])
        J, ev = j_tensor(alg.m), alg.evaluator(P0)
        x, v = J.apply(A).values_at(ev)
        jx, jv = J.apply(ProlongationSection.constant(x[0], v[0])).values_at(ev)
        assert np.array_equal(np.concatenate([jx, jv], axis=-1), np.zeros((1, 4)))

    def test_image_equals_kernel(self, driftless):
        # J annihilates exactly the sections with vanishing frame part
        alg = driftless.algebroid
        vertical = sec(driftless, ["0", "0"], ["u1", "x2"])
        J, ev = j_tensor(alg.m), alg.evaluator(P0)
        x, v = J.apply(vertical).values_at(ev)
        assert np.array_equal(np.concatenate([x, v], axis=-1), np.zeros((1, 4)))
        mixed = sec(driftless, ["u1", "0"], ["0", "0"])
        x, v = J.apply(mixed).values_at(ev)
        assert np.any(v != 0.0)

    def test_point_dimension_validation(self, driftless):
        with pytest.raises(ValueError):
            driftless.algebroid.evaluator(EvalPoint.of([0.0, 0.0], [1.0, 1.0]))


class TestEulerSection:
    def test_components(self, driftless):
        C = euler_section(driftless.algebroid)
        ev = driftless.algebroid.evaluator(P0)
        x, v = C.values_at(ev)
        assert np.array_equal(x, np.zeros((1, 2)))
        assert np.allclose(v, [1.0, 2.0], atol=0)

    def test_zero_fiber(self, driftless):
        C = euler_section(driftless.algebroid)
        ev = driftless.algebroid.evaluator(EvalPoint.of([1, 1, 1], [0.0, 0.0]))
        x, v = C.values_at(ev)
        assert np.array_equal(np.concatenate([x, v], axis=-1), np.zeros((1, 4)))

    def test_equals_j_of_sode(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray().section(alg)
            for p in pts(cfg, 5, seed=31):
                ev = alg.evaluator(p)
                jx, jv = j_tensor(alg.m).apply(S).values_at(ev)
                cx, cv = euler_section(alg).values_at(ev)
                assert np.array_equal(jx, cx)
                assert np.array_equal(jv, cv)


class TestSprayTest:
    def test_driftless_is_a_spray_exactly(self, driftless):
        alg = driftless.algebroid
        rep = spray_test(alg, driftless.semispray(), alg.sample_evaluator(pts(driftless, 50)), 1e-9)
        assert rep.is_spray
        assert rep.homogeneity == 0.0
        assert rep.euler_bracket == 0.0

    def test_constant_components_fail(self, driftless):
        alg = driftless.algebroid
        S = Semispray(tuple(parse_expression(s, alg.coords) for s in ("3", "0")))
        rep = spray_test(alg, S, alg.sample_evaluator(pts(driftless, 20)), 1e-9)
        assert not rep.is_spray
        assert rep.homogeneity == pytest.approx(6.0, abs=1e-12)  # |-2 * 3|

    def test_degree_one_components_fail(self, driftless):
        alg = driftless.algebroid
        S = Semispray(tuple(parse_expression(s, alg.coords) for s in ("u1", "u2")))
        rep = spray_test(alg, S, alg.sample_evaluator(pts(driftless, 20)), 1e-9)
        assert not rep.is_spray
        # Euler relation leaves -S^a, fiber magnitudes at most 2
        assert rep.homogeneity <= 2.0


class TestLieDerivativeTensor:
    def test_euler_derivative_of_j(self, driftless):
        # [C, J] = -J: the VX block is minus the identity, the rest vanish
        alg = driftless.algebroid
        C = euler_section(alg)
        out = lie_derivative_tensor(alg, C, j_tensor(2), alg.evaluator(P0))[0]
        assert np.array_equal(out[2:, :2], -np.eye(2))
        assert np.count_nonzero(out[:2, :2]) == 0
        assert np.count_nonzero(out[:2, 2:]) == 0
        assert np.count_nonzero(out[2:, 2:]) == 0

    def test_identity_is_flat(self, driftless):
        alg = driftless.algebroid
        A = sec(driftless, ["u1", "x2*u2"], ["x1", "u1*u2"])
        out = lie_derivative_tensor(alg, A, identity_tensor(2), alg.evaluator(P0))
        assert np.max(np.abs(out)) == 0.0

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
                    (bx,), (bv,) = bracket(alg, S, (JA,), ev)
                    jx, jv = np.zeros(m), bx
                    ja_x, ja_v = JA.values_at(ev)
                    assert np.max(np.abs(jx - (-ja_x))) <= 1e-9
                    assert np.max(np.abs(jv - (-ja_v))) <= 1e-9
