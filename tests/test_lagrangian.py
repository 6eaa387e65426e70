import math
import re
from pathlib import Path

import numpy as np
import pytest

from algmech.config import load_config, parse_config
from algmech.errors import (
    EvaluationDomainError,
    IntegrationAbortError,
    SingularMetricError,
    SingularPairingError,
)
from algmech.expr import parse_expression, to_source
from algmech.jets import EvalPoint, ValueKernel
from algmech.lagrangian import (
    Lagrangian,
    Trajectory,
    canonical_semispray,
    cartan_pairing,
    cartan_two_section,
    euler_lagrange_residual,
    fiber_metric,
    integrate_sode,
    symplectic_residual,
)
from algmech.prolongation import (
    ProlongationSection,
    Semispray,
    basis_sections,
    bracket,
    sode_flow,
    spray_test,
)
from algmech.report import run_validation
from algmech.sampling import sample_points
from algmech.symmetry import cartan_from_conservation

import test_pinned_library as rank3
from jet_reference import one_point

GOLDEN = Path(__file__).resolve().parent / "golden"

P0 = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])


def pts(cfg, k=20, seed=21):
    return sample_points(cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed)


def define(cfg, src):
    return Lagrangian.define(cfg.algebroid, parse_expression(src, cfg.algebroid.coords))


# a metric diag(1, x^2), singular at x = 0
STRIP = {
    "name": "strip",
    "base_dim": 1,
    "fiber_rank": 2,
    "base_coords": ["x"],
    "fiber_coords": ["y1", "y2"],
    "anchor": [["1", "0"]],
    "lagrangian": "0.5*(y1^2+x^2*y2^2)",
}


class TestFiberMetric:
    def test_quadratic_controls_give_identity(self, driftless):
        L = driftless.lagrangian
        g, ginv, cond = fiber_metric(L, L.alg.sample_evaluator([P0]))
        assert np.array_equal(g, [np.eye(2)])
        assert np.array_equal(ginv, [np.eye(2)])
        assert cond == pytest.approx([1.0])

    def test_cross_term(self, driftless):
        L = define(driftless, "0.5*u1*u2")
        g, ginv, _ = fiber_metric(L, L.alg.sample_evaluator([P0]))
        assert np.allclose(g, [[[0.0, 0.5], [0.5, 0.0]]], atol=0)
        assert np.max(np.abs(g @ ginv - np.eye(2))) <= 1e-12

    def test_linear_is_singular(self, driftless):
        L = define(driftless, "u1")
        with pytest.raises(SingularMetricError):
            fiber_metric(L, L.alg.sample_evaluator([P0]))

    def test_trees_give_the_hessian_bits(self, all_systems):
        """The metric trees over the batch against the fiber Hessian of L
        from the first-order jets of dL/dy, and
        the stacked inverse and condition number against the per-sample
        calls, bit for bit."""
        from test_pinned_library import POINTS, RAW

        configs = [*all_systems, parse_config(RAW)]
        configs += [load_config(GOLDEN / f"{name}.json") for name in ("dense-4", "diag-8")]
        for cfg in configs:
            alg, L = cfg.algebroid, cfg.lagrangian
            samples = cfg.sample_points() + (list(POINTS) if alg.m == 3 else [])
            g, ginv, cond = fiber_metric(L, alg.sample_evaluator(samples))
            eye = np.eye(alg.m)
            for k, p in enumerate(samples):
                # the fiber Hessian from the first-order jets of dL/dy
                ev = alg.evaluator(p)
                hess = np.stack([ev.jet(t).grad[0, alg.n :] for t in L.dy])
                inv = np.linalg.inv(hess)
                if np.max(np.abs(hess @ inv - eye)) > 1e-12:
                    inv = inv @ (2.0 * eye - hess @ inv)
                assert g[k].tobytes() == hess.tobytes(), (cfg.name, k)
                assert ginv[k].tobytes() == inv.tobytes(), (cfg.name, k)
                assert cond[k] == np.linalg.cond(hess), (cfg.name, k)

    def test_names_the_first_singular_sample(self):
        """Only the third sample is singular: the error names it, and the
        report's worst condition is that of the two samples before it."""
        cfg = parse_config(STRIP)
        samples = [EvalPoint.of([x], [1.0, 1.0]) for x in (2.0, 3.0, 0.0, 5.0)]
        batch = cfg.algebroid.sample_evaluator(samples)
        with pytest.raises(SingularMetricError) as caught:
            fiber_metric(cfg.lagrangian, batch)
        err = caught.value
        assert (err.point, err.index) == (samples[2], 2)
        assert str(err).startswith(f"singular fiber metric at {samples[2]} (det = ")
        metric = run_validation(cfg, batch, 1e-9)["metric"]
        assert metric == {
            "regular": False,
            "worst_condition": pytest.approx(9.0, rel=1e-14),
            "detail": str(err),
        }

    def test_solves_name_the_first_singular_sample(self):
        """The semispray and the Cartan converse solve with the metric and
        the pairing, both singular at the third sample only: a sweep names it."""
        # the metric [[1, x], [x, 1]], singular at x = 1 (a diagonal metric
        # is folded to quotients, which divide by zero there)
        cfg = parse_config({**STRIP, "lagrangian": "0.5*(y1^2+y2^2)+x*y1*y2"})
        alg, L = cfg.algebroid, cfg.lagrangian
        samples = [EvalPoint.of([x], [1.0, 1.0]) for x in (2.0, 3.0, 1.0, 5.0)]
        with pytest.raises(SingularMetricError) as caught:
            spray_test(alg, cfg.semispray(), alg.sample_evaluator(samples), 1e-9)
        assert (caught.value.point, caught.value.index) == (samples[2], 2)
        f = parse_expression("y1", alg.coords)
        with pytest.raises(SingularPairingError, match=rf"singular at {re.escape(str(samples[2]))}$"):
            cartan_from_conservation(alg, L, f, alg.sample_evaluator(samples), 1e-9)


class TestCanonicalSemispray:
    def test_constant_metric_is_folded(self, all_systems):
        """The fixtures' metric is the identity, so their semisprays are the
        force - drift - twist trees themselves, with no solve in them."""
        want = {
            "driftless": ["-(u2*(0.5*(2.0*u1)))", "-(-1.0*u1*(0.5*(2.0*u1)))"],
            "abelian": ["0.0", "0.0"],
            "heisenberg": ["-(y2*(0.5*(2.0*y3)))", "-(-1.0*y1*(0.5*(2.0*y3)))", "0.0"],
        }
        for cfg in all_systems:
            assert [to_source(c) for c in cfg.semispray().components] == want[cfg.name]

    def test_driftless_components(self, driftless):
        S = driftless.semispray()
        ev = driftless.algebroid.evaluator(P0)
        assert np.allclose(ev.values_of(S.components), [-2.0, 1.0], atol=0)
        for p in pts(driftless, 25):
            ev = driftless.algebroid.evaluator(p)
            u1, u2 = p.y
            got = ev.values_of(S.components)[0]
            assert abs(got[0] - (-u1 * u2)) <= 1e-15
            assert abs(got[1] - u1 * u1) <= 1e-15

    def test_abelian_free_particle(self, abelian):
        S = abelian.semispray()
        for p in pts(abelian, 10):
            ev = abelian.algebroid.evaluator(p)
            assert np.array_equal(ev.values_of(S.components), np.zeros((1, 2)))

    def test_base_potential_adds_force(self, driftless):
        L = define(driftless, "0.5*(u1^2+u2^2)+x3")
        S = canonical_semispray(driftless.algebroid, L)
        for p in pts(driftless, 10):
            ev = driftless.algebroid.evaluator(p)
            u1, u2 = p.y
            got = ev.values_of(S.components)[0]
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
            got = abelian.algebroid.evaluator(p).values_of(S.components)[0]
            assert got[0] == pytest.approx(-x1 * v1 * v1 / (1 + x1 * x1), rel=1e-13)
            assert got[1] == pytest.approx(0.0, abs=1e-13)

    def test_symplectic_equation_holds(self, abelian):
        L = self._lagrangian(abelian)
        alg = abelian.algebroid
        S = canonical_semispray(alg, L)
        for p in pts(abelian, 15):
            ev = alg.evaluator(p)
            for B in basis_sections(2):
                assert abs(symplectic_residual(alg, L, S, B, ev)) <= 1e-9

    def test_variational_consistency(self, abelian):
        L = self._lagrangian(abelian)
        alg = abelian.algebroid
        S = canonical_semispray(alg, L)
        for p in pts(abelian, 25):
            ev = alg.evaluator(p)
            ydot = ev.values_of(S.components)
            assert np.max(np.abs(euler_lagrange_residual(alg, L, ev, ydot))) <= 1e-9

    def test_energy_conserved_along_flow(self, abelian):
        L = self._lagrangian(abelian)
        S = canonical_semispray(abelian.algebroid, L)
        traj = integrate_sode(
            abelian.algebroid, S, [0.2, 0.0], [1.0, 0.3], 1e-3, 2000, lagrangian=L
        )
        assert traj.energy_drift() <= 1e-9


class TestEnergy:
    def test_driftless_value(self, driftless):
        L = driftless.lagrangian
        assert L.alg.evaluator(P0).value(L.energy_expr) == 2.5

    def test_fiber_linear_lagrangian(self, driftless):
        L = define(driftless, "x1*u1")
        assert L.alg.evaluator(P0).value(L.energy_expr) == 0.0

    def test_cross_term(self, driftless):
        L = define(driftless, "0.5*u1*u2")
        assert L.alg.evaluator(P0).value(L.energy_expr) == pytest.approx(1.0, abs=1e-15)


class TestCartanSections:
    def test_one_section_values(self, driftless):
        L = driftless.lagrangian
        assert np.allclose(L.alg.evaluator(P0).values_of(L.dy), [1.0, 2.0], atol=0)

    def test_one_section_fiber_independent_lagrangian(self, driftless):
        L = define(driftless, "x1+x2")
        assert np.array_equal(L.alg.evaluator(P0).values_of(L.dy), np.zeros((1, 2)))

    def test_one_section_cross_term(self, driftless):
        L = define(driftless, "0.5*u1*u2")
        assert np.allclose(L.alg.evaluator(P0).values_of(L.dy), [1.0, 0.5], atol=0)

    def test_two_section_frame_values(self, driftless):
        alg = driftless.algebroid
        L = driftless.lagrangian
        X1 = ProlongationSection.basis_x(2, 0)
        X2 = ProlongationSection.basis_x(2, 1)
        V1 = ProlongationSection.basis_v(2, 0)
        ev = alg.evaluator(P0)
        # the mixed block pairs the fiber metric with the frames
        assert cartan_two_section(alg, L, V1, X1, ev) == 1.0
        assert cartan_two_section(alg, L, X1, V1, ev) == -1.0
        # frame-frame block picks up the structure torsion: -u1 here
        assert cartan_two_section(alg, L, X1, X2, ev) == -1.0

    def test_pairing_cache_is_per_lagrangian(self, driftless):
        # two Lagrangians on one system, evaluated through one shared evaluator
        alg = driftless.algebroid
        L1 = driftless.lagrangian
        L2 = define(driftless, "0.5*(3*u1^2+u2^2)+u1*u2*x1")
        ev = alg.evaluator(P0)
        W1 = cartan_pairing(alg, L1, ev)
        W2 = cartan_pairing(alg, L2, ev)
        fresh = alg.evaluator(P0)
        assert np.array_equal(W2, cartan_pairing(alg, L2, fresh))
        assert not np.array_equal(W1, W2)
        assert cartan_pairing(alg, L1, ev) is W1

    def test_antisymmetry(self, driftless):
        alg = driftless.algebroid
        A = ProlongationSection(
            tuple(parse_expression(s, alg.coords) for s in ("u1", "x2")),
            tuple(parse_expression(s, alg.coords) for s in ("x3", "u2^2")),
        )
        assert cartan_two_section(alg, driftless.lagrangian, A, A, alg.evaluator(P0)) == 0.0

    def test_metric_block_identity(self, all_systems):
        for cfg in all_systems:
            alg, L = cfg.algebroid, cfg.lagrangian
            samples = pts(cfg, 10, seed=3)
            for p, g in zip(samples, fiber_metric(L, alg.sample_evaluator(samples))[0]):
                ev = alg.evaluator(p)
                for a in range(alg.m):
                    for b in range(alg.m):
                        Va = ProlongationSection.basis_v(alg.m, a)
                        Xb = ProlongationSection.basis_x(alg.m, b)
                        assert cartan_two_section(alg, L, Va, Xb, ev) == pytest.approx(
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
            Wv = np.array([[ev.value(e)[0] for e in row] for row in W])
            sigma = alg.anchor_at(ev)[0]

            def dir_frame(idx, tree):
                g = ev.jet(tree).grad[0]
                if idx < alg.m:
                    return float(sigma[:, idx] @ g[: alg.n])
                return float(g[alg.n + idx - alg.m])

            br = {}
            for i in range(k):
                for j in range(k):
                    (bx,), (bv,) = bracket(alg, basis[i], (basis[j],), ev)
                    br[i, j] = np.concatenate([bx[0], bv[0]])
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
                ev = alg.evaluator(p)
                for B in basis_sections(alg.m):
                    assert abs(symplectic_residual(alg, L, S, B, ev)) <= 1e-9

    def test_energy_conservation_direction(self, driftless):
        S = driftless.semispray()
        res = symplectic_residual(
            driftless.algebroid,
            driftless.lagrangian,
            S,
            S.section(driftless.algebroid),
            driftless.algebroid.evaluator(P0),
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
        ev = alg.evaluator(P0)
        assert abs(symplectic_residual(alg, driftless.lagrangian, bumped, X1, ev)) == 1.0


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

    @pytest.mark.parametrize("system", ["rank3", "two-product"])
    def test_one_step_is_rk4_of_the_sode_flow(self, system):
        """One step at dt = 0.5 is RK4 over the walker's values of the
        ``sode_flow`` trees, stage for stage and bit for bit: on the pinned
        rank-3 system (anchor, structure and metric depend on x) and on an
        anchor whose rows sum two inexact products."""
        if system == "rank3":
            cfg = parse_config(rank3.RAW)
            x0, y0 = rank3.POINTS[0].x, rank3.POINTS[0].y
        else:
            cfg = parse_config(
                {
                    "name": "two-product",
                    "base_dim": 2,
                    "fiber_rank": 2,
                    "base_coords": ["x1", "x2"],
                    "fiber_coords": ["y1", "y2"],
                    "anchor": [["cos(x2)", "sin(x1)"], ["x1", "2+x2"]],
                    "structure": [],
                    "lagrangian": "0.5*(y1^2+y2^2)",
                }
            )
            # a start where numpy's sigma @ y rounds unlike the flow's sum
            x0, y0 = (0.67, -0.05), (0.28, -0.7)
        alg, S, dt = cfg.algebroid, cfg.semispray(), 0.5
        flow = [v for _, v in sode_flow(alg, S)]

        def f(z):
            ev = one_point(alg.coords, z)
            return [ev.value(v)[0] for v in flow]

        z = [*x0, *y0]
        k1 = f(z)
        k2 = f([s + 0.5 * dt * d for s, d in zip(z, k1)])
        k3 = f([s + 0.5 * dt * d for s, d in zip(z, k2)])
        k4 = f([s + dt * d for s, d in zip(z, k3)])
        step = [
            s + dt / 6.0 * (((a + 2.0 * b) + 2.0 * c) + d)
            for s, a, b, c, d in zip(z, k1, k2, k3, k4)
        ]
        traj = integrate_sode(alg, S, x0, y0, dt, 1)
        x, y = traj.states[1]
        assert [v.hex() for v in (*x, *y)] == [v.hex() for v in step]

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


def reference_rk4(alg, S, x0, y0, dt, steps, lagrangian=None, calls=None):
    """RK4 through one :class:`ValueKernel` call per stage and the state and
    energy checks after each step: the integrator's checked path, kept here
    as the fused loop's oracle.  ``calls`` gets one entry per stage call."""
    n = alg.n
    rhs = ValueKernel(alg.coords, tuple(v for _, v in sode_flow(alg, S)), n)
    energy = None if lagrangian is None else lagrangian.energy_expr
    energy_at = None if energy is None else ValueKernel(alg.coords, (energy,), n)
    traj = Trajectory([], [], [] if lagrangian is not None else None)

    def f(z):
        if calls is not None:
            calls.append(len(traj.times))
        return rhs(z)

    def record(t, z):
        if not all(map(math.isfinite, z)):
            raise IntegrationAbortError(f"non-finite state at t = {t!r}", traj)
        if energy_at is not None:
            e = energy_at(z)[0]
            if not math.isfinite(e):
                raise IntegrationAbortError(f"non-finite energy at t = {t!r}", traj)
            traj.energy.append(e)
        traj.times.append(t)
        traj.states.append((tuple(z[:n]), tuple(z[n:])))

    state = [float(v) for v in (*x0, *y0)]
    half, sixth = 0.5 * dt, dt / 6.0
    try:
        record(0.0, state)
        for k in range(steps):
            k1 = f(state)
            k2 = f([s + half * d for s, d in zip(state, k1)])
            k3 = f([s + half * d for s, d in zip(state, k2)])
            k4 = f([s + dt * d for s, d in zip(state, k3)])
            state = [
                s + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
                for s, a, b, c, d in zip(state, k1, k2, k3, k4)
            ]
            record((k + 1) * dt, state)
    except (EvaluationDomainError, SingularMetricError) as err:
        raise IntegrationAbortError(str(err), traj) from err
    return traj


def rows(traj):
    """Every number of a trajectory as its exact hex string, row by row."""
    energy = traj.energy if traj.energy is not None else [None] * len(traj.times)
    return [
        [v.hex() for v in (t, *x, *y, *([] if e is None else [e]))]
        for t, (x, y), e in zip(traj.times, traj.states, energy)
    ]


def outcome(run):
    """The rows of a finished run, or the message and rows of an abort."""
    try:
        return None, rows(run())
    except IntegrationAbortError as err:
        return str(err), rows(err.partial)


# L = 1/2 exp(sin x1) v1^2 + 1/2 v2^2 + cos(x2): exp, sin and cos in the flow,
# over a diagonal metric that depends on x (its solve folds to quotients)
TRIG = {
    "name": "trig",
    "base_dim": 2,
    "fiber_rank": 2,
    "base_coords": ["x1", "x2"],
    "fiber_coords": ["v1", "v2"],
    "anchor": [["1", "0"], ["0", "1"]],
    "lagrangian": "0.5*exp(sin(x1))*v1^2+0.5*v2^2+cos(x2)",
}


class TestFusedLoop:
    """The one compiled RK4 loop against :func:`reference_rk4`: the same rows
    bit for bit, and at a fault the same message and partial rows."""

    @pytest.mark.parametrize(
        "system, x0, y0, dt, steps",
        [
            ("driftless", [0.3, -0.2, 0.1], [1.0, 0.5], 1e-2, 300),
            ("heisenberg", [0.3, -0.2, 0.1], [1.0, 0.5, 0.2], 1e-2, 300),
            ("dense-4", [0.3, -0.2, 0.1, 0.7], [1.0, 0.5, -0.4, 0.2], 1e-2, 100),
            ("trig", [0.3, -0.2], [1.0, 0.5], 5e-2, 300),
        ],
    )
    @pytest.mark.parametrize("with_energy", [True, False])
    def test_rows_are_the_per_stage_kernels_bits(
        self, request, system, x0, y0, dt, steps, with_energy
    ):
        if system == "dense-4":
            cfg = load_config(GOLDEN / "dense-4.json")
        elif system == "trig":
            cfg = parse_config(TRIG)
        else:
            cfg = request.getfixturevalue(system)
        alg, S = cfg.algebroid, cfg.semispray()
        L = cfg.lagrangian if with_energy else None
        fused = integrate_sode(alg, S, x0, y0, dt, steps, L)
        assert len(fused.times) == steps + 1
        assert rows(fused) == rows(reference_rk4(alg, S, x0, y0, dt, steps, L))

    def abort(self, cfg, S, x0, y0, dt, steps, L, calls=None):
        """The abort's message and rows, asserted equal to the reference's."""
        alg = cfg.algebroid
        got = outcome(lambda: integrate_sode(alg, S, x0, y0, dt, steps, L))
        want = outcome(lambda: reference_rk4(alg, S, x0, y0, dt, steps, L, calls))
        assert got == want
        message, partial = got
        assert message is not None and 2 <= len(partial) < steps
        return message

    def test_domain_error_in_a_middle_stage(self, abelian):
        # x1 = t, so ln(1.6 - x1) is defined at the start of step 3 (x1 = 1.5)
        # and undefined at its second stage (x1 = 1.75)
        alg = abelian.algebroid
        S = Semispray(tuple(parse_expression(c, alg.coords) for c in ("0", "ln(1.6-x1)")))
        calls = []
        message = self.abort(abelian, S, [0.0, 0.0], [1.0, 0.0], 0.5, 10, abelian.lagrangian, calls)
        assert message.startswith("ln is undefined at ")
        assert len(calls) == 4 * 3 + 2  # the fault is stage 2 of step 3

    def test_singular_metric(self):
        # y1 = y2 = 0 stay at rest and x = t, so the metric's block
        # [[1, x], [x, 1]] turns singular at x = 1, the last stage of step 3
        cfg = parse_config(
            {
                "name": "clock",
                "base_dim": 1,
                "fiber_rank": 3,
                "base_coords": ["x"],
                "fiber_coords": ["y1", "y2", "y3"],
                "anchor": [["0", "0", "1"]],
                "lagrangian": "0.5*(y1^2+2*x*y1*y2+y2^2+y3^2)",
            }
        )
        S, L = cfg.semispray(), cfg.lagrangian
        message = self.abort(cfg, S, [0.0], [0.0, 0.0, 1.0], 0.25, 10, L)
        assert message.startswith("singular fiber metric at (x=[1.0], ")

    def test_non_finite_state(self, abelian):
        # v1' = v1^2 blows up in finite time (t = 1 from v1 = 1)
        alg = abelian.algebroid
        S = Semispray(tuple(parse_expression(c, alg.coords) for c in ("v1^2", "0")))
        message = self.abort(abelian, S, [0.0, 0.0], [1.0, 0.0], 0.25, 100, None)
        assert message.startswith("non-finite state at t = ")

    def test_non_finite_energy(self, abelian):
        # v1' = v1 from 1e150: v1^2 in the energy overflows near v1 = 1.3e154,
        # long before the state does
        alg = abelian.algebroid
        S = Semispray(tuple(parse_expression(c, alg.coords) for c in ("v1", "0")))
        message = self.abort(abelian, S, [0.0, 0.0], [1e150, 0.0], 1.0, 20, abelian.lagrangian)
        assert message.startswith("non-finite energy at t = ")

    def test_a_fault_free_run_makes_no_per_stage_kernel_call(self, heisenberg, monkeypatch):
        calls, call = [], ValueKernel.__call__

        def counted(kernel, values):
            calls.append(values)
            return call(kernel, values)

        monkeypatch.setattr(ValueKernel, "__call__", counted)
        traj = integrate_sode(
            heisenberg.algebroid, heisenberg.semispray(), [0.3, -0.2, 0.1], [1.0, 0.5, 0.2],
            1e-3, 1000, heisenberg.lagrangian,
        )
        assert len(traj.times) == 1001
        assert calls == []

    def test_a_last_time_that_is_not_finite_is_rejected(self, abelian):
        # the state stays finite from rest, but 3 * 1e308 overflows
        alg = abelian.algebroid
        with pytest.raises(ValueError, match="steps \\* dt must be finite"):
            integrate_sode(alg, abelian.semispray(), [0.1, 0.2], [0.0, 0.0], 1e308, 3)


class TestEulerLagrange:
    def test_canonical_velocities_satisfy_equations(self, driftless):
        alg = driftless.algebroid
        for p in pts(driftless, 20):
            u1, u2 = p.y
            res = euler_lagrange_residual(
                alg, driftless.lagrangian, alg.evaluator(p), [-u1 * u2, u1 * u1]
            )
            assert np.max(np.abs(res)) <= 1e-12

    def test_zero_acceleration_leaves_structure_force(self, driftless):
        p = EvalPoint.of([0.0, 1.0, 0.0], [1.0, 2.0])
        alg = driftless.algebroid
        res = euler_lagrange_residual(alg, driftless.lagrangian, alg.evaluator(p), [0.0, 0.0])
        assert np.allclose(res, [2.0, -1.0], atol=0)

    def test_abelian_free_particle(self, abelian):
        p = EvalPoint.of([0.4, -0.8], [1.0, 2.0])
        alg = abelian.algebroid
        res = euler_lagrange_residual(alg, abelian.lagrangian, alg.evaluator(p), [0.0, 0.0])
        assert np.array_equal(res, np.zeros((1, 2)))

    def test_consistency_with_canonical_field(self, all_systems):
        """The canonical components satisfy the variational equations."""
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            for p in pts(cfg, 50, seed=17):
                ev = alg.evaluator(p)
                ydot = ev.values_of(S.components)
                res = euler_lagrange_residual(alg, cfg.lagrangian, ev, ydot)
                assert np.max(np.abs(res)) <= 1e-9


@pytest.mark.parametrize("name", ["driftless", "abelian", "heisenberg", "forced"])
def test_pointwise_quantities_take_a_batch(request, name):
    """Row k of the Euler-Lagrange residual, the two-section, the symplectic
    residual and the anchored derivative over a 3-sample evaluator has the
    bits of the batch of one at sample k."""
    from algmech.algebroid import BaseSection

    cfg = request.getfixturevalue(name)
    alg, L, S = cfg.algebroid, cfg.lagrangian, cfg.semispray()
    x, y = alg.base_coords, alg.fiber_coords
    A = ProlongationSection(
        tuple(parse_expression(f"{y[a]}*{x[a % alg.n]}", alg.coords) for a in range(alg.m)),
        tuple(parse_expression(f"sin({x[0]})+{y[-1 - a]}^2", alg.coords) for a in range(alg.m)),
    )
    B = basis_sections(alg.m)[-1]
    s = BaseSection.define(
        alg, [parse_expression(f"1+{x[a % alg.n]}", alg.coords) for a in range(alg.m)]
    )
    f = parse_expression(f"{x[0]}*{x[-1]}+cos({x[-1]})", alg.coords)

    def quantities(ev):
        return [
            euler_lagrange_residual(alg, L, ev, ev.values_of(S.components)),
            euler_lagrange_residual(alg, L, ev, [0.5] * alg.m),
            cartan_two_section(alg, L, A, B, ev),
            symplectic_residual(alg, L, S, A, ev),
            alg.anchor_apply(s, f, ev),
        ]

    samples = pts(cfg, 3, seed=5)
    batch = quantities(alg.sample_evaluator(samples))
    for k, p in enumerate(samples):
        for rows, one in zip(batch, quantities(alg.evaluator(p)), strict=True):
            assert len(rows) == 3 and len(one) == 1
            assert rows[k].tobytes() == one[0].tobytes(), (name, k)
