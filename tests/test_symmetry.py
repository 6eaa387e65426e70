import numpy as np
import pytest

from algmech.algebroid import BaseSection
from algmech.connection import CovariantDerivative, canonical_connection
from algmech.errors import ExactnessWitnessError, FiberDependenceError
from algmech.expr import parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import (
    ProlongationSection,
    complete_lift,
    euler_section,
    sode_derivative_expr,
)
from algmech.sampling import sample_points
from algmech.symmetry import (
    cartan_from_conservation,
    cartan_symmetry_check,
    conservation_check,
    conserved_from_cartan,
    dynamical_symmetry_check,
    invariant_equation_residual,
    lie_symmetry_check,
    newtonoid_check,
    newtonoid_completion,
    star_product_exprs,
)

P0 = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])
TOL = 1e-9


def pts(cfg, k=20, seed=105):
    return sample_points(cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed)


def batch(cfg, *args, points=None):
    """The sample evaluator over ``points``, else over ``pts(cfg, *args)``."""
    return cfg.algebroid.sample_evaluator(pts(cfg, *args) if points is None else points)


def sec(cfg, xs, vs):
    alg = cfg.algebroid
    return ProlongationSection(
        tuple(parse_expression(s, alg.coords) for s in xs),
        tuple(parse_expression(s, alg.coords) for s in vs),
    )


def base(cfg, *comps):
    alg = cfg.algebroid
    return BaseSection.define(alg, [parse_expression(c, alg.coords) for c in comps])


def expr(cfg, src):
    return parse_expression(src, cfg.algebroid.coords)


class TestDynamicalSymmetry:
    def test_field_commutes_with_itself(self, driftless):
        S = driftless.semispray()
        v = dynamical_symmetry_check(
            driftless.algebroid, S, S.section(driftless.algebroid), batch(driftless), TOL
        )
        assert v.passed
        assert v.max_residual <= 1e-12

    def test_dilation_field_fails_with_field_magnitude(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        C = euler_section(alg)
        v = dynamical_symmetry_check(alg, S, C, batch(driftless), TOL)
        assert not v.passed
        # [S, C] = -S for a spray: frame part -y^a, fiber part -S^a
        for p, res in v.per_sample:
            s_vals = alg.evaluator(p).values_of(S.components)
            assert np.allclose(res[:2], [-p.y[0], -p.y[1]], atol=1e-12)
            assert np.allclose(res[2:], -s_vals, atol=1e-12)

    def test_euler_bracket_value(self, driftless):
        S = driftless.semispray()
        C = euler_section(driftless.algebroid)
        alg = driftless.algebroid
        from algmech.prolongation import bracket

        (x,), (v,) = bracket(alg, S.section(alg), (C,), alg.evaluator(P0))
        assert np.allclose(x, [-1.0, -2.0], atol=1e-14)
        assert np.allclose(v, [-(-2.0), -1.0], atol=1e-14)  # -S^a

    def test_lifted_frames_are_not_symmetries(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        for comps in (("1", "0"), ("0", "1")):
            lift = complete_lift(alg, base(driftless, *comps))
            v = dynamical_symmetry_check(alg, S, lift, batch(driftless), TOL)
            assert not v.passed
            assert v.components["frame_part"] <= 1e-12  # they are Newtonoids


class TestNewtonoid:
    def test_completion_of_constant_frame(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        A = newtonoid_completion(alg, S, [expr(driftless, "1"), expr(driftless, "0")])
        ev = alg.evaluator(P0)
        x, v = A.values_at(ev)
        assert np.allclose(x, [1.0, 0.0], atol=0)
        assert np.allclose(v, [-2.0, 0.0], atol=0)  # (-u2, 0)
        verdict = newtonoid_check(alg, S, A, batch(driftless), TOL)
        assert verdict.passed
        assert verdict.components["projection"] <= 1e-9

    def test_vertical_frame_fails(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        V1 = ProlongationSection.basis_v(2, 0)
        verdict = newtonoid_check(alg, S, V1, batch(driftless, points=[P0]), TOL)
        assert not verdict.passed
        assert verdict.per_sample[0][1] == (-1.0, 0.0)

    def test_dynamical_symmetries_are_newtonoids(self, all_systems):
        for cfg in all_systems:
            S = cfg.semispray()
            A = S.section(cfg.algebroid)
            assert newtonoid_check(cfg.algebroid, S, A, batch(cfg, 10), TOL).passed


class TestInvariantEquation:
    def test_vanishes_for_dynamical_symmetry(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        A = S.section(alg)
        for p in pts(driftless, 20):
            res = invariant_equation_residual(alg, S, A, alg.evaluator(p))
            assert np.max(np.abs(res)) <= 1e-8

    def test_equals_fiber_bracket_residual_for_newtonoids(self, driftless):
        """For Newtonoid candidates the second-order form reproduces the
        fiber part of the double-bracket criterion."""
        alg = driftless.algebroid
        S = driftless.semispray()
        Ssec = S.section(alg)
        from algmech.prolongation import bracket

        for comps in (("1", "0"), ("0", "1"), ("x1", "u1*0+1")):
            A = newtonoid_completion(
                alg, S, [expr(driftless, comps[0]), expr(driftless, comps[1])]
            )
            for p in pts(driftless, 10, seed=7):
                ev = alg.evaluator(p)
                res = invariant_equation_residual(alg, S, A, ev)
                (_,), (bv,) = bracket(alg, Ssec, (A,), ev)
                assert np.max(np.abs(res - bv)) <= 1e-8

    def test_batch_rows_are_the_point_bits(self, all_systems):
        """Row k over a batch has the bits of the batch of one at sample k."""
        for cfg in all_systems:
            alg, S = cfg.algebroid, cfg.semispray()
            xs = [expr(cfg, f"{x}*{y}") for x, y in zip(alg.base_coords, alg.fiber_coords)]
            A = newtonoid_completion(alg, S, xs)
            samples = pts(cfg, 4, seed=11)
            got = invariant_equation_residual(alg, S, A, alg.sample_evaluator(samples))
            for row, p in zip(got, samples):
                one = invariant_equation_residual(alg, S, A, alg.evaluator(p))
                assert one.shape == (1, alg.m) and row.tobytes() == one[0].tobytes()

    def test_flat_free_particle(self, abelian):
        alg = abelian.algebroid
        S = abelian.semispray()
        A = newtonoid_completion(alg, S, [expr(abelian, "1"), expr(abelian, "0")])
        for p in pts(abelian, 10):
            assert np.max(np.abs(invariant_equation_residual(alg, S, A, alg.evaluator(p)))) <= 1e-12


class TestLieSymmetry:
    def test_center_frame_is_a_symmetry(self, heisenberg):
        v = lie_symmetry_check(
            heisenberg.algebroid,
            heisenberg.semispray(),
            base(heisenberg, "0", "0", "1"),
            batch(heisenberg),
            TOL,
        )
        assert v.passed
        assert v.components["invariant_second_order"] <= TOL
        assert v.components["pde_flow"] <= TOL

    def test_first_frame_fails(self, heisenberg):
        v = lie_symmetry_check(
            heisenberg.algebroid,
            heisenberg.semispray(),
            base(heisenberg, "1", "0", "0"),
            batch(heisenberg),
            TOL,
        )
        assert not v.passed
        assert v.components["invariant_second_order"] > TOL

    def test_linear_boosts_on_flat_system(self, abelian):
        for comps in (("x1", "0"), ("x2", "0")):
            v = lie_symmetry_check(
                abelian.algebroid,
                abelian.semispray(),
                base(abelian, *comps),
                batch(abelian),
                TOL,
            )
            assert v.passed

    def test_quadratic_drift_fails(self, abelian):
        v = lie_symmetry_check(
            abelian.algebroid,
            abelian.semispray(),
            base(abelian, "x1^2", "0"),
            batch(abelian),
            TOL,
        )
        assert not v.passed

    def test_bracket_and_second_order_verdicts_agree(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            for cand in cfg.candidates:
                if cand.kind != "base_section":
                    continue
                v = lie_symmetry_check(alg, S, cand.base, batch(cfg, 25), TOL)
                assert (v.components["bracket"] <= TOL) == (
                    v.components["invariant_second_order"] <= TOL
                )
                assert (v.components["bracket"] <= TOL) == (
                    v.components["pde_flow"] <= TOL
                )

    def test_rejects_fiber_dependent_candidates(self, driftless):
        fib = BaseSection.define(
            driftless.algebroid, [expr(driftless, "u1"), expr(driftless, "0")]
        )
        with pytest.raises(FiberDependenceError):
            lie_symmetry_check(
                driftless.algebroid, driftless.semispray(), fib, batch(driftless), TOL
            )


class TestCartanSymmetry:
    def test_canonical_field_is_cartan(self, all_systems):
        for cfg in all_systems:
            S = cfg.semispray()
            v = cartan_symmetry_check(
                cfg.algebroid, cfg.lagrangian, S.section(cfg.algebroid), batch(cfg, 15), TOL
            )
            assert v.passed

    def test_dilation_field_scales_the_energy(self, driftless):
        C = euler_section(driftless.algebroid)
        v = cartan_symmetry_check(
            driftless.algebroid, driftless.lagrangian, C, batch(driftless, points=[P0]), TOL
        )
        assert not v.passed
        # L_C E = 2E for a fiber-quadratic Lagrangian: 2 * 2.5 here
        assert v.components["energy"] == pytest.approx(5.0, abs=1e-12)

    def test_cartan_passes_are_dynamical_passes(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            for cand in cfg.candidates:
                if cand.kind != "prolongation_section":
                    continue
                cartan = cartan_symmetry_check(
                    alg, cfg.lagrangian, cand.section, batch(cfg, 15), 1e-8
                )
                if cartan.passed:
                    dyn = dynamical_symmetry_check(alg, S, cand.section, batch(cfg, 15), 1e-8)
                    assert dyn.passed


class TestConservation:
    def test_energy_is_conserved(self, driftless):
        out = conservation_check(
            driftless.algebroid,
            driftless.semispray(),
            expr(driftless, "0.5*(u1^2+u2^2)"),
            batch(driftless, 50),
            TOL,
        )
        assert out.passed
        assert out.sdot_max <= 5e-15

    def test_control_component_is_not(self, driftless):
        out = conservation_check(
            driftless.algebroid,
            driftless.semispray(),
            expr(driftless, "u1"),
            batch(driftless, points=[P0]),
            TOL,
        )
        assert not out.passed
        assert out.per_sample[0][1] == pytest.approx(-2.0, abs=1e-14)

    def test_constants_are_conserved(self, driftless):
        out = conservation_check(
            driftless.algebroid,
            driftless.semispray(),
            expr(driftless, "7"),
            batch(driftless, points=[P0]),
            TOL,
        )
        assert out.passed and out.sdot_max == 0.0

    def test_a_new_evaluator_sweeps_the_samples_as_they_are(self, driftless):
        """The system keeps no evaluator: after the sample list is changed in
        place, a new evaluator over it sweeps the new points, paired with
        their own residuals."""
        alg, S = driftless.algebroid, driftless.semispray()
        x1 = expr(driftless, "x1")
        samples = driftless.sample_points(count=3)
        before = conservation_check(alg, S, x1, alg.sample_evaluator(samples), TOL)
        assert before.sdot_max == pytest.approx(2.218, abs=1e-3)
        samples[:] = [EvalPoint.of([0, 0, 0], [5, 5])] * 3
        after = conservation_check(alg, S, x1, alg.sample_evaluator(samples), TOL)
        assert after.sdot_max == 5.0
        assert after.per_sample == tuple((p, 5.0) for p in samples)

    def test_center_momentum_on_heisenberg(self, heisenberg):
        out = conservation_check(
            heisenberg.algebroid,
            heisenberg.semispray(),
            expr(heisenberg, "y3"),
            batch(heisenberg, 25),
            TOL,
        )
        assert out.passed


class TestExactCartan:
    def test_forward_with_lagrangian_witness(self, all_systems):
        """The canonical field is exact with the Lagrangian itself as the
        witness; the induced conserved quantity is minus the energy."""
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            out = conserved_from_cartan(
                alg,
                cfg.lagrangian,
                S,
                S.section(alg),
                cfg.lagrangian.expr,
                batch(cfg, 15),
                1e-8,
            )
            assert out.provenance == "from_cartan"
            assert out.passed
            for p in pts(cfg, 5):
                ev = alg.evaluator(p)
                assert ev.value(out.expr) == pytest.approx(
                    -ev.value(cfg.lagrangian.energy_expr), abs=1e-12
                )

    def test_forward_rejects_bad_witness(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        doubled = expr(driftless, "u1^2+u2^2")
        with pytest.raises(ExactnessWitnessError):
            conserved_from_cartan(
                alg,
                driftless.lagrangian,
                S,
                S.section(alg),
                doubled,
                batch(driftless, 10),
                1e-8,
            )

    def test_converse_recovers_the_field_from_energy(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        rec = cartan_from_conservation(
            alg,
            driftless.lagrangian,
            driftless.lagrangian.energy_expr,
            batch(driftless, 20),
            1e-7,
        )
        assert rec.passed
        for p, (xs, vs) in zip(rec.points, rec.sections):
            ev = alg.evaluator(p)
            want_x = np.array(p.y)
            want_v = ev.values_of(S.components)
            assert np.max(np.abs(xs - want_x)) <= 1e-8
            assert np.max(np.abs(vs - want_v)) <= 1e-8

    def test_round_trip_through_both_directions(self, driftless):
        """Forward (witness -> conserved quantity) chained into the converse
        solve reconstructs a Cartan section with tiny residuals."""
        alg = driftless.algebroid
        S = driftless.semispray()
        sweep = batch(driftless, 15)
        produced = conserved_from_cartan(
            alg,
            driftless.lagrangian,
            S,
            S.section(alg),
            driftless.lagrangian.expr,
            sweep,
            1e-8,
        )
        rec = cartan_from_conservation(
            alg, driftless.lagrangian, produced.expr, sweep, 1e-7
        )
        assert rec.two_section_max <= 1e-7
        assert rec.energy_max <= 1e-7
        # the produced quantity is -energy, so the generator is -S
        for p, (xs, vs) in zip(rec.points, rec.sections):
            ev = alg.evaluator(p)
            assert np.max(np.abs(xs + np.array(p.y))) <= 1e-8
            assert np.max(np.abs(vs + ev.values_of(S.components))) <= 1e-8

    def test_converse_of_constant_gives_zero_section(self, driftless):
        rec = cartan_from_conservation(
            driftless.algebroid,
            driftless.lagrangian,
            expr(driftless, "3"),
            batch(driftless, 5),
            1e-8,
        )
        assert rec.passed
        for xs, vs in rec.sections:
            assert np.max(np.abs(np.concatenate([xs, vs]))) <= 1e-12


class TestStarProduct:
    def test_unit_function_is_neutral(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        A = newtonoid_completion(alg, S, [expr(driftless, "1"), expr(driftless, "0")])
        ev = alg.evaluator(P0)
        x, v = star_product_exprs(alg, S, expr(driftless, "1"), A).values_at(ev)
        ax, av = A.values_at(ev)
        assert np.array_equal(x, ax)
        assert np.array_equal(v, av)

    def test_conserved_factor_scales(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        A = newtonoid_completion(alg, S, [expr(driftless, "1"), expr(driftless, "0")])
        f = expr(driftless, "0.5*(u1^2+u2^2)")
        ev = alg.evaluator(P0)
        x, v = star_product_exprs(alg, S, f, A).values_at(ev)
        ax, av = A.values_at(ev)
        assert np.max(np.abs(x - 2.5 * ax)) <= 1e-12
        assert np.max(np.abs(v - 2.5 * av)) <= 1e-12

    def test_control_factor_example(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        A = newtonoid_completion(alg, S, [expr(driftless, "1"), expr(driftless, "0")])
        star = star_product_exprs(alg, S, expr(driftless, "u1"), A)
        x, v = star.values_at(alg.evaluator(P0))
        assert np.allclose(x, [1.0, 0.0], atol=0)
        assert np.allclose(v, [-4.0, 0.0], atol=1e-14)  # -2 u1 u2 at (1,2)
        out = newtonoid_check(
            alg, S, star_product_exprs(alg, S, expr(driftless, "u1"), A), batch(driftless, 10), TOL
        )
        assert out.passed

    def test_leibniz_rule_for_canonical_connection(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = canonical_connection(alg, S)
            fs = [
                expr(cfg, alg.fiber_coords[0]),
                expr(cfg, f"{alg.base_coords[0]}+{alg.fiber_coords[-1]}^2"),
            ]
            completions = [
                newtonoid_completion(alg, S, [expr(cfg, "1")] + [expr(cfg, "0")] * (alg.m - 1)),
                newtonoid_completion(
                    alg, S, [expr(cfg, alg.base_coords[0])] + [expr(cfg, "1")] * (alg.m - 1)
                ),
            ]
            for f in fs:
                sf = sode_derivative_expr(alg, S, f)
                for A in completions:
                    star_fA = star_product_exprs(alg, S, f, A)
                    sf_star_A = star_product_exprs(alg, S, sf, A)
                    for p in pts(cfg, 10, seed=117):
                        ev = alg.evaluator(p)
                        nabla = CovariantDerivative(alg, S, N, ev)
                        (lx,), (lv,) = nabla((star_fA,))
                        t1x, t1v = sf_star_A.values_at(ev)
                        (nx,), (nv,) = nabla((A,))
                        fv = ev.value(f)
                        sfv = ev.value(sf)
                        # f * (nabla A) = f nabla A + S(f) J(nabla A)
                        t2x = fv * nx
                        t2v = fv * nv + sfv * nx
                        assert np.max(np.abs(lx - (t1x + t2x))) <= 1e-8
                        assert np.max(np.abs(lv - (t1v + t2v))) <= 1e-8


class TestEquivalenceChain:
    def test_dynamical_iff_newtonoid_and_invariant(self, all_systems):
        """Verdict agreement across the corpus, both passes and failures."""
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            samples = pts(cfg, 20, seed=131)
            sweep = alg.sample_evaluator(samples)
            corpus = [
                cand.section
                for cand in cfg.candidates
                if cand.kind == "prolongation_section"
            ]
            corpus += [
                complete_lift(alg, cand.base)
                for cand in cfg.candidates
                if cand.kind == "base_section"
            ]
            assert len(corpus) >= 4
            for A in corpus:
                dyn = dynamical_symmetry_check(alg, S, A, sweep, 1e-8)
                newt = newtonoid_check(alg, S, A, sweep, 1e-8)
                inv_max = max(
                    float(np.max(np.abs(invariant_equation_residual(alg, S, A, alg.evaluator(p)))))
                    for p in samples
                )
                assert dyn.passed == (newt.passed and inv_max <= 1e-8)
