"""General-semispray behavior on a system whose field is not a spray.

The forced system carries a base potential; its canonical field has an
inhomogeneous component, so everything that is spray-only must be kept out
of the hard checks while the semispray-general identities still hold.
"""

import numpy as np
import pytest

from algmech.connection import (
    CovariantDerivative,
    canonical_connection,
    connection_from_lie_derivative,
    geometry_frames,
    jacobi_endomorphism,
    jacobi_from_bracket,
    nabla_tensor,
)
from algmech.prolongation import (
    basis_sections,
    bracket,
    j_tensor,
    spray_test,
)
from algmech.symmetry import cartan_symmetry_check, conservation_check
from algmech.lagrangian import integrate_sode

from test_connection import (
    apply,
    arbitrary_connection,
    phi_block,
    random_sections,
    tree_structure_tensors,
)


def pts(cfg, k=15, seed=301):
    return cfg.sample_points(count=k, seed=seed)


def test_forced_field_components(forced):
    alg = forced.algebroid
    S = forced.semispray()
    for p in pts(forced, 10):
        u1, u2 = p.y
        got = alg.evaluator(p).values_of(S.components)[0]
        assert got[0] == pytest.approx(-u1 * u2, abs=1e-14)
        assert got[1] == pytest.approx(u1 * u1 + 1.0, abs=1e-14)


def test_forced_field_is_not_a_spray(forced):
    alg = forced.algebroid
    rep = spray_test(alg, forced.semispray(), alg.sample_evaluator(pts(forced)), 1e-9)
    assert not rep.is_spray
    assert rep.homogeneity == pytest.approx(2.0, abs=1e-12)
    assert rep.euler_bracket == pytest.approx(2.0, abs=1e-12)


def test_canonical_connection_still_matches_oracle(forced):
    alg = forced.algebroid
    S = forced.semispray()
    N = canonical_connection(alg, S)
    for p in pts(forced):
        ev = alg.evaluator(p)
        Nv = N.at(ev)
        assert np.max(np.abs(Nv - connection_from_lie_derivative(alg, S, ev))) <= 1e-9


def test_jacobi_bracket_oracle_both_connection_kinds(forced):
    alg = forced.algebroid
    S = forced.semispray()
    for N in (canonical_connection(alg, S), arbitrary_connection(forced)):
        for p in pts(forced):
            ev = alg.evaluator(p)
            direct = jacobi_endomorphism(alg, S, N, ev)
            assert np.max(np.abs(direct - jacobi_from_bracket(alg, S, N, ev))) <= 1e-10


def test_nabla_j_vanishes_and_decomposition_holds(forced):
    alg = forced.algebroid
    S = forced.semispray()
    Ssec = S.section(alg)
    N = canonical_connection(alg, S)
    sections = random_sections(forced, 5)
    for p in pts(forced, 10):
        ev = alg.evaluator(p)
        assert np.max(np.abs(nabla_tensor(alg, S, N, j_tensor(alg.m), ev))) <= 1e-9
        _, _, F = tree_structure_tensors(alg, N, ev)
        phi = phi_block(jacobi_endomorphism(alg, S, N, ev)[0])
        nabla = CovariantDerivative(alg, S, N, ev)
        for A in sections:
            ax, av = (c[0] for c in A.values_at(ev))
            (lx,), (lv,) = bracket(alg, Ssec, (A,), ev)
            fx, fv = apply(F[0], ax, av)
            px, pv = apply(phi, ax, av)
            (wx,), (wv,) = nabla((A,))
            assert np.max(np.abs(wx - (lx + fx - px))) <= 1e-8
            assert np.max(np.abs(wv - (lv + fv + ax - pv))) <= 1e-8


def test_geometry_frame_gates_only_general_identities(forced):
    alg = forced.algebroid
    S = forced.semispray()
    N = canonical_connection(alg, S)
    (frame,) = geometry_frames(alg, S, N, alg.sample_evaluator(pts(forced, 1)))
    assert max(frame.residuals.values()) <= 1e-9
    assert "phi_vs_curvature_contraction" in frame.diagnostics
    assert frame.diagnostics["homogeneity"] == pytest.approx(2.0, abs=1e-12)
    # the contraction genuinely fails here, which is why it must not gate
    assert frame.diagnostics["phi_vs_curvature_contraction"] > 1e-3


def test_geometry_frame_with_user_connection(forced):
    alg = forced.algebroid
    S = forced.semispray()
    N = arbitrary_connection(forced)
    (frame,) = geometry_frames(alg, S, N, alg.sample_evaluator(pts(forced, 1)))
    assert max(frame.residuals.values()) <= 1e-9
    assert "nabla_j" in frame.diagnostics  # not an identity for user coefficients
    assert "connection_vs_lie_derivative" in frame.diagnostics


def test_canonical_field_remains_cartan_and_energy_conserved(forced):
    alg = forced.algebroid
    S = forced.semispray()
    verdict = cartan_symmetry_check(
        alg, forced.lagrangian, S.section(alg), alg.sample_evaluator(pts(forced, 10)), 1e-8
    )
    assert verdict.passed
    cons = conservation_check(
        alg, S, forced.lagrangian.energy_expr, alg.sample_evaluator(pts(forced, 25)), 1e-9
    )
    assert cons.passed

    traj = integrate_sode(
        alg, S, [0.0, 1.0, 0.0], [1.0, 0.5], 1e-3, 2000, lagrangian=forced.lagrangian
    )
    assert traj.energy_drift() <= 1e-9


def test_candidate_expectations(forced):
    from algmech.report import run_symmetry

    batch = forced.algebroid.sample_evaluator(pts(forced, 20))
    result = run_symmetry(forced, forced.semispray(), forced.connection(), batch, 1e-9)
    assert result["all_ok"]
