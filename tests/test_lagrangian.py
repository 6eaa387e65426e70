import math

import numpy as np
import pytest

from algmech.errors import IntegrationAbortError, SingularMetricError
from algmech.expr import parse_expression
from algmech.jets import EvalPoint, PointEvaluator
from algmech.lagrangian import (
    Lagrangian,
    Trajectory,
    canonical_semispray,
    cartan_one_section,
    cartan_pairing,
    cartan_two_section,
    energy,
    euler_lagrange_residual,
    fiber_metric,
    integrate_sode,
    symplectic_residual,
)
from algmech.prolongation import ProlongationSection, Semispray, basis_sections, bracket_at
from algmech.sampling import sample_points

P0 = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])


def pts(cfg, k=20, seed=21):
    return sample_points(cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed)


def define(cfg, src):
    return Lagrangian.define(cfg.algebroid, parse_expression(src, cfg.algebroid.coords))


class TestFiberMetric:
    def test_quadratic_controls_give_identity(self, driftless):
        g, ginv, cond = fiber_metric(driftless.lagrangian, P0)
        assert np.array_equal(g, np.eye(2))
        assert np.array_equal(ginv, np.eye(2))
        assert cond == pytest.approx(1.0)

    def test_cross_term(self, driftless):
        L = define(driftless, "0.5*u1*u2")
        g, ginv, _ = fiber_metric(L, P0)
        assert np.allclose(g, [[0.0, 0.5], [0.5, 0.0]], atol=0)
        assert np.max(np.abs(g @ ginv - np.eye(2))) <= 1e-12

    def test_linear_is_singular(self, driftless):
        L = define(driftless, "u1")
        with pytest.raises(SingularMetricError):
            fiber_metric(L, P0)


class TestCanonicalSemispray:
    def test_driftless_components(self, driftless):
        S = driftless.semispray()
        ev = driftless.algebroid.evaluator(P0)
        assert np.allclose(ev.values_of(S.components), [-2.0, 1.0], atol=0)
        for p in pts(driftless, 25):
            ev = driftless.algebroid.evaluator(p)
            u1, u2 = p.y
            got = ev.values_of(S.components)
            assert abs(got[0] - (-u1 * u2)) <= 1e-15
            assert abs(got[1] - u1 * u1) <= 1e-15

    def test_abelian_free_particle(self, abelian):
        S = abelian.semispray()
        for p in pts(abelian, 10):
            ev = abelian.algebroid.evaluator(p)
            assert np.array_equal(ev.values_of(S.components), np.zeros(2))

    def test_base_potential_adds_force(self, driftless):
        L = define(driftless, "0.5*(u1^2+u2^2)+x3")
        S = canonical_semispray(driftless.algebroid, L)
        for p in pts(driftless, 10):
            ev = driftless.algebroid.evaluator(p)
            u1, u2 = p.y
            got = ev.values_of(S.components)
            # anchored gradient of the potential contributes (0, 1)
            assert got[0] == pytest.approx(-u1 * u2 + 0.0, abs=1e-14)
            assert got[1] == pytest.approx(u1 * u1 + 1.0, abs=1e-14)


class TestPositionDependentMetric:
    """Exercises the expression-level metric inverse: the fiber metric here
    varies over the base, so the canonical components are genuine rational
    trees rather than polynomials."""

    def _lagrangian(self, abelian):
        return define(abelian, "0.5*(1+x1^2)*v1^2+0.5*v2^2")

    def test_geodesic_components(self, abelian):
        L = self._lagrangian(abelian)
        S = canonical_semispray(abelian.algebroid, L)
        for p in pts(abelian, 15):
            x1 = p.x[0]
            v1 = p.y[0]
            got = abelian.algebroid.evaluator(p).values_of(S.components)
            assert got[0] == pytest.approx(-x1 * v1 * v1 / (1 + x1 * x1), rel=1e-13)
            assert got[1] == pytest.approx(0.0, abs=1e-13)

    def test_symplectic_equation_holds(self, abelian):
        L = self._lagrangian(abelian)
        S = canonical_semispray(abelian.algebroid, L)
        for p in pts(abelian, 15):
            for B in basis_sections(2):
                assert abs(symplectic_residual(abelian.algebroid, L, S, B, p)) <= 1e-9

    def test_variational_consistency(self, abelian):
        L = self._lagrangian(abelian)
        alg = abelian.algebroid
        S = canonical_semispray(alg, L)
        for p in pts(abelian, 25):
            ydot = alg.evaluator(p).values_of(S.components)
            assert np.max(np.abs(euler_lagrange_residual(alg, L, p, ydot))) <= 1e-9

    def test_energy_conserved_along_flow(self, abelian):
        L = self._lagrangian(abelian)
        S = canonical_semispray(abelian.algebroid, L)
        traj = integrate_sode(
            abelian.algebroid, S, [0.2, 0.0], [1.0, 0.3], 1e-3, 2000, lagrangian=L
        )
        assert traj.energy_drift() <= 1e-9


class TestEnergy:
    def test_driftless_value(self, driftless):
        assert energy(driftless.lagrangian, P0) == 2.5

    def test_fiber_linear_lagrangian(self, driftless):
        L = define(driftless, "x1*u1")
        assert energy(L, P0) == 0.0

    def test_cross_term(self, driftless):
        L = define(driftless, "0.5*u1*u2")
        assert energy(L, P0) == pytest.approx(1.0, abs=1e-15)


class TestCartanSections:
    def test_one_section_values(self, driftless):
        assert np.allclose(cartan_one_section(driftless.lagrangian, P0), [1.0, 2.0], atol=0)

    def test_one_section_fiber_independent_lagrangian(self, driftless):
        L = define(driftless, "x1+x2")
        assert np.array_equal(cartan_one_section(L, P0), np.zeros(2))

    def test_one_section_cross_term(self, driftless):
        L = define(driftless, "0.5*u1*u2")
        assert np.allclose(cartan_one_section(L, P0), [1.0, 0.5], atol=0)

    def test_two_section_frame_values(self, driftless):
        alg = driftless.algebroid
        L = driftless.lagrangian
        X1 = ProlongationSection.basis_x(2, 0)
        X2 = ProlongationSection.basis_x(2, 1)
        V1 = ProlongationSection.basis_v(2, 0)
        # the mixed block pairs the fiber metric with the frames
        assert cartan_two_section(alg, L, V1, X1, P0) == 1.0
        assert cartan_two_section(alg, L, X1, V1, P0) == -1.0
        # frame-frame block picks up the structure torsion: -u1 here
        assert cartan_two_section(alg, L, X1, X2, P0) == -1.0

    def test_pairing_cache_is_per_lagrangian(self, driftless):
        # two Lagrangians on one system, evaluated through one shared evaluator
        alg = driftless.algebroid
        L1 = driftless.lagrangian
        L2 = define(driftless, "0.5*(3*u1^2+u2^2)+u1*u2*x1")
        ev = alg.evaluator(P0)
        W1 = cartan_pairing(alg, L1, ev)
        W2 = cartan_pairing(alg, L2, ev)
        fresh = PointEvaluator(alg.coords, P0.values())
        assert np.array_equal(W2, cartan_pairing(alg, L2, fresh))
        assert not np.array_equal(W1, W2)
        assert cartan_pairing(alg, L1, ev) is W1

    def test_antisymmetry(self, driftless):
        alg = driftless.algebroid
        A = ProlongationSection(
            tuple(parse_expression(s, alg.coords) for s in ("u1", "x2")),
            tuple(parse_expression(s, alg.coords) for s in ("x3", "u2^2")),
        )
        assert cartan_two_section(alg, driftless.lagrangian, A, A, P0) == 0.0

    def test_metric_block_identity(self, all_systems):
        for cfg in all_systems:
            alg, L = cfg.algebroid, cfg.lagrangian
            for p in pts(cfg, 10, seed=3):
                g, _, _ = fiber_metric(L, p)
                for a in range(alg.m):
                    for b in range(alg.m):
                        Va = ProlongationSection.basis_v(alg.m, a)
                        Xb = ProlongationSection.basis_x(alg.m, b)
                        assert cartan_two_section(alg, L, Va, Xb, p) == pytest.approx(
                            g[a, b], abs=1e-12
                        )

    def test_closedness_coboundary(self, driftless):
        """d omega on frame triples through the degree-two coboundary formula."""
        alg, L = driftless.algebroid, driftless.lagrangian
        from algmech.lagrangian import cartan_pairing_exprs

        W = cartan_pairing_exprs(alg, L)
        basis = basis_sections(alg.m)
        k = len(basis)
        for p in pts(driftless, 10, seed=8):
            ev = alg.evaluator(p)
            Wv = np.array([[ev.value(e) for e in row] for row in W])
            sigma = alg.anchor_at(ev)

            def dir_frame(idx, tree):
                g = ev.jet(tree).grad
                if idx < alg.m:
                    return float(sigma[:, idx] @ g[: alg.n])
                return float(g[alg.n + idx - alg.m])

            br = {}
            for i in range(k):
                for j in range(k):
                    bx, bv = bracket_at(alg, basis[i], basis[j], ev)
                    br[i, j] = np.concatenate([bx, bv])
            for i in range(k):
                for j in range(i + 1, k):
                    for l in range(j + 1, k):
                        total = (
                            dir_frame(i, W[j][l])
                            - dir_frame(j, W[i][l])
                            + dir_frame(l, W[i][j])
                            - float(br[i, j] @ Wv @ np.eye(k)[l])
                            + float(br[i, l] @ Wv @ np.eye(k)[j])
                            - float(br[j, l] @ Wv @ np.eye(k)[i])
                        )
                        assert abs(total) <= 1e-8


class TestSymplecticEquation:
    def test_canonical_field_solves_it(self, all_systems):
        for cfg in all_systems:
            alg, L = cfg.algebroid, cfg.lagrangian
            S = cfg.semispray()
            for p in pts(cfg, 20, seed=4):
                for B in basis_sections(alg.m):
                    assert abs(symplectic_residual(alg, L, S, B, p)) <= 1e-9

    def test_energy_conservation_direction(self, driftless):
        S = driftless.semispray()
        res = symplectic_residual(
            driftless.algebroid,
            driftless.lagrangian,
            S,
            S.section(driftless.algebroid),
            P0,
        )
        assert abs(res) <= 1e-12

    def test_perturbed_field_fails(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        bumped = Semispray(
            (
                parse_expression("-(u1*u2)+1", alg.coords),
                S.components[1],
            )
        )
        X1 = ProlongationSection.basis_x(2, 0)
        # i_S omega is linear in S: the bump shows up against the metric block
        assert abs(symplectic_residual(alg, driftless.lagrangian, bumped, X1, P0)) == 1.0


class TestIntegration:
    def test_control_magnitude_is_preserved(self, driftless):
        traj = integrate_sode(
            driftless.algebroid,
            driftless.semispray(),
            [0.0, 1.0, 0.0],
            [1.0, 0.0],
            1e-3,
            1000,
            lagrangian=driftless.lagrangian,
        )
        for _, y in traj.states:
            assert abs(y[0] ** 2 + y[1] ** 2 - 1.0) <= 1e-8

    def test_linear_flow(self, abelian):
        traj = integrate_sode(
            abelian.algebroid, abelian.semispray(), [0.0, 0.0], [0.5, -1.0], 1e-2, 100
        )
        t = traj.times[-1]
        x = traj.states[-1][0]
        assert x[0] == pytest.approx(0.5 * t, abs=1e-12)
        assert x[1] == pytest.approx(-1.0 * t, abs=1e-12)

    def test_zero_fiber_is_stationary(self, driftless):
        traj = integrate_sode(
            driftless.algebroid, driftless.semispray(), [0.3, 0.7, 0.1], [0.0, 0.0], 1e-3, 50
        )
        assert traj.states[-1] == traj.states[0]

    def test_non_finite_state_aborts_with_finite_prefix(self, abelian):
        # y1' = y1^2 blows up in finite time (t = 1 from y1 = 1)
        alg = abelian.algebroid
        S = Semispray(
            (parse_expression("v1^2", alg.coords), parse_expression("0", alg.coords))
        )
        with pytest.raises(IntegrationAbortError) as exc:
            integrate_sode(alg, S, [0.0, 0.0], [1.0, 0.0], 0.25, 100, abelian.lagrangian)
        partial = exc.value.partial
        assert 1 <= len(partial.times) < 100
        assert len(partial.states) == len(partial.energy) == len(partial.times)
        assert all(np.isfinite(x + y).all() for x, y in partial.states)

    def test_energy_drift_does_not_skip_nan(self):
        traj = Trajectory([0.0, 1.0, 2.0], [((), ())] * 3, [1.0, float("nan"), 1.5])
        assert math.isnan(traj.energy_drift())

    def test_domain_error_carries_partial_trajectory(self, abelian):
        # x1 grows monotonically, so the log argument must cross zero
        alg = abelian.algebroid
        S = Semispray(
            (
                parse_expression("1", alg.coords),
                parse_expression("ln(2-x1)", alg.coords),
            )
        )
        with pytest.raises(IntegrationAbortError) as exc:
            integrate_sode(alg, S, [0.0, 0.0], [1.0, 0.0], 0.5, 10)
        assert len(exc.value.partial.times) >= 1

    def test_csv_export(self, driftless, tmp_path):
        traj = integrate_sode(
            driftless.algebroid,
            driftless.semispray(),
            [0.0, 1.0, 0.0],
            [1.0, 0.0],
            1e-2,
            5,
            lagrangian=driftless.lagrangian,
        )
        out = tmp_path / "traj.csv"
        traj.to_csv(out, driftless.algebroid)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,u1,u2,E"
        assert len(lines) == 7
        assert float(lines[1].split(",")[-1]) == pytest.approx(0.5, abs=1e-15)


class TestEulerLagrange:
    def test_canonical_velocities_satisfy_equations(self, driftless):
        alg = driftless.algebroid
        for p in pts(driftless, 20):
            u1, u2 = p.y
            res = euler_lagrange_residual(
                alg, driftless.lagrangian, p, [-u1 * u2, u1 * u1]
            )
            assert np.max(np.abs(res)) <= 1e-12

    def test_zero_acceleration_leaves_structure_force(self, driftless):
        p = EvalPoint.of([0.0, 1.0, 0.0], [1.0, 2.0])
        res = euler_lagrange_residual(driftless.algebroid, driftless.lagrangian, p, [0.0, 0.0])
        assert np.allclose(res, [2.0, -1.0], atol=0)

    def test_abelian_free_particle(self, abelian):
        p = EvalPoint.of([0.4, -0.8], [1.0, 2.0])
        res = euler_lagrange_residual(abelian.algebroid, abelian.lagrangian, p, [0.0, 0.0])
        assert np.array_equal(res, np.zeros(2))

    def test_consistency_with_canonical_field(self, all_systems):
        """The canonical components satisfy the variational equations."""
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            for p in pts(cfg, 50, seed=17):
                ev = alg.evaluator(p)
                ydot = ev.values_of(S.components)
                res = euler_lagrange_residual(alg, cfg.lagrangian, p, ydot)
                assert np.max(np.abs(res)) <= 1e-9
