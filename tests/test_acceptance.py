"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import functools
import time

import numpy as np

from algmech.cli import main
from algmech.connection import (
    CovariantDerivative,
    canonical_connection,
    connection_from_lie_derivative,
    curvature,
    curvature_from_brackets,
    f_tensor,
    h_tensor,
    jacobi_endomorphism,
    jacobi_from_bracket,
    nabla_tensor,
    v_tensor,
    berwald_connection,
)
from algmech.expr import parse_expression
from algmech.lagrangian import euler_lagrange_residual, integrate_sode
from algmech.prolongation import (
    basis_sections,
    bracket,
    complete_lift,
    euler_section,
    j_tensor,
    sode_derivative_expr,
    spray_test,
)
from algmech.sampling import SplitMix64
from algmech.symmetry import (
    cartan_from_conservation,
    cartan_symmetry_check,
    dynamical_symmetry_check,
    invariant_equation_residual,
    lie_symmetry_check,
    newtonoid_check,
    newtonoid_completion,
    star_product_exprs,
)

from jet_reference import finite_difference_jet, second_order
from test_connection import (
    apply,
    arbitrary_connection,
    phi_block,
    random_sections,
    tree_structure_tensors,
)
from test_jets import CORPUS, COORDS as AD_COORDS


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return deco


@criterion("C1 golden fixture values and sign-family oracle")
def test_c1_golden_fixture(driftless, driftless_samples):
    start = time.monotonic()
    alg = driftless.algebroid
    S = driftless.semispray()
    N = canonical_connection(alg, S)
    assert len(driftless_samples) == 50
    for p in driftless_samples:
        u1, u2 = p.y
        ev = alg.evaluator(p)
        s_vals = ev.values_of(S.components)[0]
        assert abs(s_vals[0] - (-u1 * u2)) <= 1e-12
        assert abs(s_vals[1] - u1 * u1) <= 1e-12

        Nv = N.at(ev)[0]
        assert abs(Nv[0, 0] - u2) <= 1e-12
        assert abs(Nv[1, 0]) <= 1e-12
        assert abs(Nv[1, 1]) <= 1e-12

        R3 = curvature(alg, N, ev)[0]
        assert abs(R3[0, 1, 0] - u2) <= 1e-10
        assert abs(R3[1, 0, 0] + u2) <= 1e-10
        R2 = jacobi_endomorphism(alg, S, N, ev)[0]
        assert abs(R2[0, 0] + u2 * u2) <= 1e-10

        # sign-dependent family against the bracket-based oracles
        N_oracle = connection_from_lie_derivative(alg, S, ev)[0]
        R3_oracle = curvature_from_brackets(alg, N, ev)[0]
        R2_oracle = jacobi_from_bracket(alg, S, N, ev)[0]
        assert abs(Nv[0, 1] - N_oracle[0, 1]) <= 1e-10
        assert abs(R3[0, 1, 1] - R3_oracle[0, 1, 1]) <= 1e-10
        assert abs(R2[0, 1] - R2_oracle[0, 1]) <= 1e-10
        assert abs(R2[1, 0] - R2_oracle[1, 0]) <= 1e-10
        assert abs(R2[1, 1] - R2_oracle[1, 1]) <= 1e-10

    # the deviation from the published table is reported, never silently
    # zeroed: the [0][1] coefficient differs by exactly 2 u1
    from algmech.report import frames_with_reference

    p = driftless_samples[0]
    frame = frames_with_reference(driftless, S, N, [p])[0]
    dev = frame["reference_deviation"]["connection"]
    assert abs(dev[0][1] - (-2.0 * p.y[0])) <= 1e-10
    assert abs(dev[0][0]) <= 1e-10
    assert abs(frame["residuals"]["connection_vs_lie_derivative"]) <= 1e-10

    assert time.monotonic() - start < 1.0, "criterion must run in under a second"


@criterion("C2 spray identities on the fixture")
def test_c2_spray_identities(driftless, driftless_samples):
    alg = driftless.algebroid
    S = driftless.semispray()
    N = canonical_connection(alg, S)
    rep = spray_test(alg, S, alg.sample_evaluator(driftless_samples), tol=0.0)
    assert rep.homogeneity == 0.0
    for p in driftless_samples:
        y = np.array(p.y)
        ev = alg.evaluator(p)
        R2 = jacobi_endomorphism(alg, S, N, ev)[0]
        R3 = curvature(alg, N, ev)[0]
        contraction = np.einsum("e,ebg->bg", y, R3)
        assert np.max(np.abs(R2 - contraction)) <= 1e-10
        assert np.max(np.abs(R2.T @ y)) <= 1e-10


@criterion("C3 structural property suite on three systems")
def test_c3_structural_properties(all_systems):
    start = time.monotonic()
    for cfg in all_systems:
        alg = cfg.algebroid
        m = alg.m
        S = cfg.semispray()
        Ssec = S.section(alg)
        N = canonical_connection(alg, S)
        N_arb = arbitrary_connection(cfg)
        eye = np.eye(2 * m)
        samples = cfg.sample_points(count=50)

        basis = basis_sections(m)
        J = j_tensor(m)

        def tensor_sweep(connection, T):
            return lambda p: nabla_tensor(alg, S, connection, T, alg.evaluator(p))

        nabla_j_at = tensor_sweep(N, J)
        nabla_f_at = tensor_sweep(N, f_tensor(alg, N))
        nabla_h_arb_at = tensor_sweep(N_arb, h_tensor(alg, N_arb))
        nabla_v_arb_at = tensor_sweep(N_arb, v_tensor(alg, N_arb))

        sections = random_sections(cfg, 10)

        for p in samples:
            ev = alg.evaluator(p)
            nabla = CovariantDerivative(alg, S, N, ev)
            H, V, Fm = tree_structure_tensors(alg, N, ev)
            assert np.max(np.abs(H @ H - H)) <= 1e-10
            assert np.max(np.abs(V @ V - V)) <= 1e-10
            assert np.max(np.abs(H + V - eye)) <= 1e-10
            assert np.max(np.abs(Fm @ Fm + eye)) <= 1e-10

            assert np.max(np.abs(nabla_j_at(p))) <= 1e-9
            assert np.max(np.abs(nabla_f_at(p))) <= 1e-9
            assert np.max(np.abs(nabla_h_arb_at(p))) <= 1e-9
            assert np.max(np.abs(nabla_v_arb_at(p))) <= 1e-9

            # decomposition of the covariant derivative
            R2 = jacobi_endomorphism(alg, S, N, ev)[0]
            phi = phi_block(R2)
            for A in sections:
                ax, av = (c[0] for c in A.values_at(ev))
                (lx,), (lv,) = bracket(alg, Ssec, (A,), ev)
                fx, fv = apply(Fm[0], ax, av)
                px, pv = apply(phi, ax, av)
                (wx,), (wv,) = nabla((A,))
                assert np.max(np.abs(wx - (lx + fx - px))) <= 1e-8
                assert np.max(np.abs(wv - (lv + fv + ax - pv))) <= 1e-8

            # spray specials
            (sx,), (sv,) = nabla((Ssec,))
            (cx,), (cv,) = nabla((euler_section(alg),))
            assert np.max(np.abs(np.concatenate([sx, sv]))) <= 1e-8
            assert np.max(np.abs(np.concatenate([cx, cv]))) <= 1e-8

        # covariant derivative along the spray equals the linear connection
        for A in sections[:3]:
            for p in samples[:10]:
                ev = alg.evaluator(p)
                dx, dv = berwald_connection(alg, N, Ssec, A, ev)
                (wx,), (wv,) = CovariantDerivative(alg, S, N, ev)((A,))
                assert np.max(np.abs(dx - wx)) <= 1e-8
                assert np.max(np.abs(dv - wv)) <= 1e-8

    assert time.monotonic() - start <= 10.0, "property suite exceeded its budget"


@criterion("C4 dynamics: energy conservation and variational residual")
def test_c4_dynamics(driftless, driftless_samples):
    alg = driftless.algebroid
    S = driftless.semispray()
    traj = integrate_sode(
        alg, S, [0.0, 1.0, 0.0], [1.0, 0.0], 1e-3, 10_000, lagrangian=driftless.lagrangian
    )
    e0 = traj.energy[0]
    assert all(abs(e - e0) <= 1e-7 for e in traj.energy)
    for p in driftless_samples:
        ev = alg.evaluator(p)
        ydot = ev.values_of(S.components)
        res = euler_lagrange_residual(alg, driftless.lagrangian, ev, ydot)
        assert np.max(np.abs(res)) <= 1e-9


@criterion("C5 symmetry equivalences over the candidate corpus")
def test_c5_symmetry_equivalences(all_systems):
    tol = 1e-8
    for cfg in all_systems:
        alg = cfg.algebroid
        S = cfg.semispray()
        N = canonical_connection(alg, S)
        samples = cfg.sample_points(count=20)
        batch = alg.sample_evaluator(samples)
        assert len(cfg.candidates) >= 6

        observed = {True: 0, False: 0}
        prolongation_corpus = [
            c.section for c in cfg.candidates if c.kind == "prolongation_section"
        ]
        prolongation_corpus += [
            complete_lift(alg, c.base)
            for c in cfg.candidates
            if c.kind == "base_section"
        ]
        for A in prolongation_corpus:
            dyn = dynamical_symmetry_check(alg, S, A, batch, tol)
            newt = newtonoid_check(alg, S, A, batch, tol, N)
            inv_max = max(
                float(np.max(np.abs(invariant_equation_residual(alg, S, A, alg.evaluator(p), N))))
                for p in samples
            )
            assert dyn.passed == (newt.passed and inv_max <= tol)
            observed[dyn.passed] += 1
        assert observed[True] >= 1 and observed[False] >= 1  # deliberate failures

        # every Cartan pass is a dynamical pass
        for A in prolongation_corpus:
            cartan = cartan_symmetry_check(alg, cfg.lagrangian, A, batch, tol)
            if cartan.passed:
                assert dynamical_symmetry_check(alg, S, A, batch, tol).passed

        # Lie bracket test agrees with the second-order invariant form
        for cand in cfg.candidates:
            if cand.kind != "base_section":
                continue
            verdict = lie_symmetry_check(alg, S, cand.base, batch, tol)
            assert (verdict.components["bracket"] <= tol) == (
                verdict.components["invariant_second_order"] <= tol
            )

        # star-product Leibniz rule
        f = parse_expression(alg.fiber_coords[0], alg.coords)
        sf = sode_derivative_expr(alg, S, f)
        A = newtonoid_completion(
            alg,
            S,
            [parse_expression("1", alg.coords)]
            + [parse_expression("0", alg.coords)] * (alg.m - 1),
        )
        f_star_A = star_product_exprs(alg, S, f, A)
        sf_star_A = star_product_exprs(alg, S, sf, A)
        for p in samples:
            ev = alg.evaluator(p)
            nabla = CovariantDerivative(alg, S, N, ev)
            (lx,), (lv,) = nabla((f_star_A,))
            t1x, t1v = sf_star_A.values_at(ev)
            (nx,), (nv,) = nabla((A,))
            fv, sfv = ev.value(f), ev.value(sf)
            assert np.max(np.abs(lx - (t1x + fv * nx))) <= 1e-8
            assert np.max(np.abs(lv - (t1v + fv * nv + sfv * nx))) <= 1e-8


@criterion("C6 exact-Cartan round trip reconstructs the field")
def test_c6_exact_cartan_round_trip(driftless, driftless_samples):
    alg = driftless.algebroid
    S = driftless.semispray()
    rec = cartan_from_conservation(
        alg,
        driftless.lagrangian,
        driftless.lagrangian.energy_expr,
        alg.sample_evaluator(driftless_samples),
        1e-7,
    )
    assert rec.passed
    for p, (xs, vs) in zip(rec.points, rec.sections):
        ev = alg.evaluator(p)
        assert np.max(np.abs(xs - np.array(p.y))) <= 1e-8
        assert np.max(np.abs(vs - ev.values_of(S.components))) <= 1e-8


@criterion("C7 derivative engine agrees with central differences")
def test_c7_ad_correctness():
    h = 1e-4
    rng = SplitMix64(902210)
    points = [[rng.uniform(-2.0, 2.0) for _ in AD_COORDS] for _ in range(100)]
    for src in CORPUS:
        tree = parse_expression(src, AD_COORDS)
        for values in points:
            exact = second_order(tree, AD_COORDS, values)
            approx = finite_difference_jet(tree, AD_COORDS, values, h)
            assert np.max(np.abs(exact.grad - approx.grad)) <= 1e-6
            assert np.max(np.abs(exact.hess - approx.hess)) <= 1e-4


@criterion("C8 report runs are byte-identical under a fixed seed")
def test_c8_report_determinism(tmp_path):
    from importlib import resources

    cfg = tmp_path / "driftless.json"
    cfg.write_bytes(
        resources.files("algmech").joinpath("fixtures/driftless.json").read_bytes()
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "--config", str(cfg), "--output", str(a), "--seed", "7"]) == 0
    assert main(["report", "--config", str(cfg), "--output", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
