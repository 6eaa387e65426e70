import numpy as np
import pytest

from algmech.connection import (
    Connection,
    berwald_coefficients,
    berwald_connection,
    berwald_derivative,
    canonical_connection,
    connection_from_lie_derivative,
    curvature,
    curvature_apply,
    curvature_from_brackets,
    f_tensor,
    geometry_frame,
    h_tensor,
    horizontal_basis_exprs,
    jacobi_endomorphism,
    jacobi_from_bracket,
    nabla_exprs,
    nabla_section,
    nabla_tensor,
    structure_tensors,
    v_tensor,
)
from algmech.expr import parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import (
    ProlongationSection,
    Semispray,
    TensorBlock11,
    basis_sections,
    bracket_at,
    euler_section,
    j_tensor,
)
from algmech.sampling import sample_points

P0 = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])


def pts(cfg, k=20, seed=41):
    return sample_points(cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed)


def sec(cfg, xs, vs):
    alg = cfg.algebroid
    return ProlongationSection(
        tuple(parse_expression(s, alg.coords) for s in xs),
        tuple(parse_expression(s, alg.coords) for s in vs),
    )


def phi_block(R: np.ndarray) -> TensorBlock11:
    m = R.shape[0]
    zero = np.zeros((m, m))
    return TensorBlock11(xx=zero, xv=zero, vx=R.T.copy(), vv=zero)


def arbitrary_connection(cfg) -> Connection:
    """A deliberately non-canonical, expression-backed connection."""
    alg = cfg.algebroid
    rows = []
    for a in range(alg.m):
        row = []
        for b in range(alg.m):
            src = f"{0.2 + 0.1 * a + 0.05 * b}*{alg.fiber_coords[b]}+{0.1 * (a + 1)}*{alg.fiber_coords[a]}^2"
            row.append(parse_expression(src, alg.coords))
        rows.append(tuple(row))
    return Connection(tuple(rows), canonical=False)


def random_sections(cfg, count=10):
    alg = cfg.algebroid
    y = alg.fiber_coords
    x = alg.base_coords
    seeds = [
        ([f"{y[a % alg.m]}", f"{x[0]}*{y[0]}"], [f"{y[0]}^2", f"{x[0]}+{y[(a + 1) % alg.m]}"])
        for a in range(count)
    ]
    out = []
    for k, (xs, vs) in enumerate(seeds):
        xs = (xs * alg.m)[: alg.m]
        vs = (vs * alg.m)[: alg.m]
        scale = f"{1.0 + 0.1 * k}"
        out.append(
            sec(cfg, [f"{scale}*({s})" for s in xs], [f"{scale}*({s})" for s in vs])
        )
    return out


class TestCanonicalConnection:
    def test_driftless_coefficients(self, driftless):
        N = driftless.connection()
        for p in pts(driftless, 25):
            u1, u2 = p.y
            Nv = N.at(driftless.algebroid.evaluator(p))
            assert Nv[0, 0] == pytest.approx(u2, abs=1e-15)
            assert Nv[1, 0] == 0.0
            assert Nv[1, 1] == 0.0
            # the defining formula puts the opposite sign here from the
            # published table; the bracket oracle below arbitrates
            assert Nv[0, 1] == pytest.approx(-u1, abs=1e-15)

    def test_matches_lie_derivative_oracle(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = canonical_connection(alg, S)
            for p in pts(cfg, 50, seed=97):
                Nv = N.at(alg.evaluator(p))
                oracle = connection_from_lie_derivative(alg, S, p)
                assert np.max(np.abs(Nv - oracle)) <= 1e-9

    def test_quadratic_form_coefficients(self, abelian):
        # S^a = -G^a_bc y^b y^c with constant symmetric G gives N_a^b = G^b_ac y^c
        alg = abelian.algebroid
        S = Semispray(
            (
                parse_expression("-(v1^2+v1*v2)", alg.coords),
                parse_expression("-(2*v2^2)", alg.coords),
            )
        )
        N = canonical_connection(alg, S)
        for p in pts(abelian, 10):
            y1, y2 = p.y
            Nv = N.at(alg.evaluator(p))
            assert Nv[0, 0] == pytest.approx(y1 + 0.5 * y2, abs=1e-14)
            assert Nv[1, 0] == pytest.approx(0.5 * y1, abs=1e-14)
            assert Nv[0, 1] == pytest.approx(0.0, abs=1e-14)
            assert Nv[1, 1] == pytest.approx(2.0 * y2, abs=1e-14)


class TestBerwaldDerivative:
    def test_on_fiber_coordinate(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        ev = alg.evaluator(P0)
        Nv = N.at(ev)
        for a in range(2):
            for g in range(2):
                got = berwald_derivative(
                    alg, N, parse_expression(alg.fiber_coords[g], alg.coords), a, P0
                )
                assert got == pytest.approx(-Nv[a, g], abs=1e-15)

    def test_base_only_function_reduces_to_anchor(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        f = parse_expression("x1*x2", alg.coords)
        got = berwald_derivative(alg, N, f, 1, P0)
        # second anchored field: x1 d/dx1 + x2 d/dx2 + d/dx3 applied to x1 x2
        assert got == pytest.approx(0.5 * 1.0 + 1.0 * 0.5, abs=1e-15)

    def test_on_sode_component(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        S1 = driftless.semispray().components[0]
        got = berwald_derivative(alg, N, S1, 0, P0)
        # -(N_1^1 dS1/du1 + N_1^2 dS1/du2) = -(2*(-2) + (-1)*(-1)) = 3
        assert got == pytest.approx(3.0, abs=1e-14)


class TestCurvature:
    def test_driftless_values(self, driftless):
        R = curvature(driftless.algebroid, driftless.connection(), P0)
        assert R[0, 1, 0] == pytest.approx(2.0, abs=1e-15)  # u2
        assert R[1, 0, 0] == pytest.approx(-2.0, abs=1e-15)
        assert R[0, 1, 1] == pytest.approx(-1.0, abs=1e-15)  # formula sign

    def test_flat_when_connection_and_structure_vanish(self, abelian):
        R = curvature(abelian.algebroid, abelian.connection(), EvalPoint.of([0.1, 0.2], [1.0, 0.5]))
        assert np.max(np.abs(R)) == 0.0

    def test_antisymmetry(self, all_systems):
        for cfg in all_systems:
            N = cfg.connection()
            for p in pts(cfg, 50, seed=23):
                R = curvature(cfg.algebroid, N, p)
                assert np.max(np.abs(R + R.transpose(1, 0, 2))) == 0.0

    def test_bracket_oracle(self, all_systems):
        for cfg in all_systems:
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 15, seed=29):
                    direct = curvature(cfg.algebroid, N, p)
                    oracle = curvature_from_brackets(cfg.algebroid, N, p)
                    assert np.max(np.abs(direct - oracle)) <= 1e-10

    def test_tensoriality_of_the_two_form(self, all_systems):
        """v[hA, hB] contracts the coefficient tensor with the frame parts:
        the derivative terms of the bracket are all horizontal and die under
        the vertical projector."""
        for cfg in all_systems:
            alg = cfg.algebroid
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for A in random_sections(cfg, 2):
                    for B in random_sections(cfg, 2)[::-1]:
                        for p in pts(cfg, 8, seed=101):
                            ev = alg.evaluator(p)
                            R3 = curvature(alg, N, p)
                            ax, _ = A.values_at(ev)
                            bx, _ = B.values_at(ev)
                            want = np.einsum("abg,a,b->g", R3, ax, bx)
                            got = curvature_apply(alg, N, A, B, p)
                            assert np.max(np.abs(got - want)) <= 1e-9

    def test_horizontal_bracket_frame_part(self, driftless):
        # [delta_a, delta_b] has frame part L_ab^c delta_c
        alg = driftless.algebroid
        N = driftless.connection()
        ev = alg.evaluator(P0)
        d1 = horizontal_basis_exprs(alg, N, 0)
        d2 = horizontal_basis_exprs(alg, N, 1)
        cx, cv = bracket_at(alg, d1, d2, ev)
        assert np.allclose(cx, [1.0, 0.0], atol=1e-15)


class TestJacobiEndomorphism:
    def test_driftless_values(self, driftless):
        R = jacobi_endomorphism(
            driftless.algebroid, driftless.semispray(), driftless.connection(), P0
        )
        assert R[0, 0] == pytest.approx(-4.0, abs=1e-14)  # -(u2)^2
        assert R[1, 0] == pytest.approx(2.0, abs=1e-14)  # u1 u2
        assert R[0, 1] == pytest.approx(2.0, abs=1e-14)
        assert R[1, 1] == pytest.approx(-1.0, abs=1e-14)

    def test_bracket_oracle_canonical(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 25, seed=31):
                direct = jacobi_endomorphism(alg, S, N, p)
                oracle = jacobi_from_bracket(alg, S, N, p)
                assert np.max(np.abs(direct - oracle)) <= 1e-10

    def test_bracket_oracle_arbitrary(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = arbitrary_connection(cfg)
            for p in pts(cfg, 25, seed=37):
                direct = jacobi_endomorphism(alg, S, N, p)
                oracle = jacobi_from_bracket(alg, S, N, p)
                assert np.max(np.abs(direct - oracle)) <= 1e-10

    def test_spray_contraction_identity(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 50, seed=41):
                R2 = jacobi_endomorphism(alg, S, N, p)
                R3 = curvature(alg, N, p)
                contraction = np.einsum("e,ebg->bg", np.array(p.y), R3)
                assert np.max(np.abs(R2 - contraction)) <= 1e-10

    def test_annihilates_the_spray(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            for p in pts(cfg, 50, seed=43):
                R2 = jacobi_endomorphism(alg, cfg.semispray(), cfg.connection(), p)
                out = R2.T @ np.array(p.y)
                assert np.max(np.abs(out)) <= 1e-10

    def test_decomposition_for_arbitrary_connection(self, driftless):
        """Phi = i_S Omega + v o L_{vS} h, the general relation.

        v((L_{vS} h)(B)) reduces to the vertical Berwald part of [vS, hB]
        because the horizontal projection of the second bracket is killed
        by the outer vertical projector.
        """
        alg = driftless.algebroid
        S = driftless.semispray()
        Ssec = S.section(alg)
        for N in (arbitrary_connection(driftless), driftless.connection()):
            vS = v_tensor(alg, N).apply(Ssec)
            basis = basis_sections(alg.m)
            for p in pts(driftless, 10, seed=47):
                ev = alg.evaluator(p)
                Nv = N.at(ev)
                R2 = jacobi_endomorphism(alg, S, N, p)
                for b in range(alg.m):
                    omega = curvature_apply(alg, N, Ssec, basis[b], p)
                    hB = h_tensor(alg, N).apply(basis[b])
                    t1x, t1v = bracket_at(alg, vS, hB, ev)
                    got = omega + (t1v + t1x @ Nv)
                    assert np.max(np.abs(got - R2[b])) <= 1e-9
                # vertical frame inputs are annihilated on both sides
                for b in range(alg.m):
                    omega = curvature_apply(alg, N, Ssec, basis[alg.m + b], p)
                    assert np.max(np.abs(omega)) <= 1e-12


class TestStructureTensors:
    def test_projector_identities(self, all_systems):
        for cfg in all_systems:
            m = cfg.algebroid.m
            eye = np.eye(2 * m)
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 50, seed=53):
                    Nv = N.at(cfg.algebroid.evaluator(p))
                    h, v, F = structure_tensors(Nv)
                    H, V = h.matrix, v.matrix
                    assert np.max(np.abs(H @ H - H)) <= 1e-10
                    assert np.max(np.abs(V @ V - V)) <= 1e-10
                    assert np.max(np.abs(H @ V)) <= 1e-10
                    assert np.max(np.abs(V @ H)) <= 1e-10
                    assert np.max(np.abs(H + V - eye)) == 0.0

    def test_almost_complex_squares_to_minus_identity(self, all_systems):
        for cfg in all_systems:
            m = cfg.algebroid.m
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 50, seed=59):
                    _, _, F = structure_tensors(N.at(cfg.algebroid.evaluator(p)))
                    assert np.max(np.abs(F.matrix @ F.matrix + np.eye(2 * m))) <= 1e-10

    def test_compositions_with_vertical_endomorphism(self, driftless):
        m = 2
        J = TensorBlock11(
            xx=np.zeros((m, m)), xv=np.zeros((m, m)), vx=np.eye(m), vv=np.zeros((m, m))
        ).matrix
        for p in pts(driftless, 20, seed=61):
            Nv = driftless.connection().at(driftless.algebroid.evaluator(p))
            h, v, F = structure_tensors(Nv)
            assert np.max(np.abs(F.matrix @ J - h.matrix)) <= 1e-12
            assert np.max(np.abs(J @ F.matrix - v.matrix)) <= 1e-12
            assert np.max(np.abs(v.matrix @ F.matrix + J)) <= 1e-12
            assert np.max(np.abs(h.matrix @ F.matrix - (F.matrix + J))) <= 1e-12

    def test_expression_backed_tensors_match_pointwise(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        for p in pts(driftless, 10, seed=67):
            ev = alg.evaluator(p)
            h, v, F = structure_tensors(N.at(ev))
            assert np.max(np.abs(h_tensor(alg, N).at(ev).matrix - h.matrix)) == 0.0
            assert np.max(np.abs(v_tensor(alg, N).at(ev).matrix - v.matrix)) == 0.0
            assert np.max(np.abs(f_tensor(alg, N).at(ev).matrix - F.matrix)) <= 1e-15


class TestNabla:
    def test_horizontal_frame_coefficient(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        N = driftless.connection()
        d1 = horizontal_basis_exprs(alg, N, 0)
        x, v = nabla_section(alg, S, N, d1, P0)
        # coefficient N_1^1 - L_12^1 u2 = 0 on the first slot
        assert x[0] == pytest.approx(0.0, abs=1e-14)

    def test_scalar_rule_on_energy(self, driftless):
        from algmech.prolongation import sode_derivative

        assert sode_derivative(
            driftless.algebroid,
            driftless.semispray(),
            driftless.lagrangian.energy_expr,
            P0,
        ) == pytest.approx(0.0, abs=1e-14)

    def test_vertical_rule_is_projected_bracket(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            Ssec = S.section(alg)
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for b in range(alg.m):
                    Vb = ProlongationSection.basis_v(alg.m, b)
                    for p in pts(cfg, 10, seed=71):
                        ev = alg.evaluator(p)
                        Nv = N.at(ev)
                        dx, dv = nabla_exprs(alg, S, N, Vb).values_at(ev)
                        bx, bv = bracket_at(alg, Ssec, Vb, ev)
                        want_v = bv + bx @ Nv  # vertical Berwald part
                        assert np.max(np.abs(dx)) <= 1e-12
                        assert np.max(np.abs((dv + dx @ Nv) - want_v)) <= 1e-9

    def test_nabla_j_vanishes_canonically(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 50, seed=73):
                out = nabla_tensor(alg, S, N, j_tensor(alg.m), p)
                assert np.max(np.abs(out.matrix)) <= 1e-9

    def test_nabla_j_formula_for_arbitrary_connection(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        N = arbitrary_connection(driftless)
        for p in pts(driftless, 15, seed=79):
            ev = alg.evaluator(p)
            Nv = N.at(ev)
            y = np.array(p.y)
            L = alg.structure_at(ev)
            out = nabla_tensor(alg, S, N, j_tensor(alg.m), p)
            expected_vx = np.zeros((alg.m, alg.m))
            for a in range(alg.m):
                for b in range(alg.m):
                    dS = ev.jet(S.components[b]).grad[alg.n + a]
                    twist = float(np.einsum("e,e->", y, L[a, :, b]))
                    expected_vx[b, a] = -(dS - twist + 2.0 * Nv[a, b])
            assert np.max(np.abs(out.vx - expected_vx)) <= 1e-9
            assert np.max(np.abs(out.xx)) <= 1e-9
            assert np.max(np.abs(out.xv)) <= 1e-9
            assert np.max(np.abs(out.vv)) <= 1e-9

    def test_nabla_h_and_v_vanish_for_any_connection(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 15, seed=83):
                    nh = nabla_tensor(alg, S, N, h_tensor(alg, N), p)
                    nv = nabla_tensor(alg, S, N, v_tensor(alg, N), p)
                    assert np.max(np.abs(nh.matrix)) <= 1e-9
                    assert np.max(np.abs(nv.matrix)) <= 1e-9

    def test_nabla_f_vanishes_canonically(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 15, seed=89):
                out = nabla_tensor(alg, S, N, f_tensor(alg, N), p)
                assert np.max(np.abs(out.matrix)) <= 1e-9

    def test_decomposition(self, all_systems):
        """nabla A = [S, A] + F(A) + J(A) - Phi(A) on expression-backed sections."""
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            Ssec = S.section(alg)
            N = cfg.connection()
            for A in random_sections(cfg, 10):
                nA = nabla_exprs(alg, S, N, A)
                for p in pts(cfg, 10, seed=91):
                    ev = alg.evaluator(p)
                    Nv = N.at(ev)
                    _, _, F = structure_tensors(Nv)
                    R2 = jacobi_endomorphism(alg, S, N, p)
                    ax, av = A.values_at(ev)
                    lx, lv = bracket_at(alg, Ssec, A, ev)
                    fx, fv = F.apply(ax, av)
                    jx, jv = np.zeros(alg.m), ax
                    px, pv = phi_block(R2).apply(ax, av)
                    wx, wv = nA.values_at(ev)
                    assert np.max(np.abs(wx - (lx + fx + jx - px))) <= 1e-8
                    assert np.max(np.abs(wv - (lv + fv + jv - pv))) <= 1e-8

    def test_spray_and_euler_sections_are_parallel(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for A in (S.section(alg), euler_section(alg)):
                nA = nabla_exprs(alg, S, N, A)
                for p in pts(cfg, 20, seed=93):
                    x, v = nA.values_at(alg.evaluator(p))
                    assert np.max(np.abs(np.concatenate([x, v]))) <= 1e-8

    def test_projector_compositions_with_lie_derivative(self, driftless):
        """h o L_S o J = -h and J o L_S o v = -v, blockwise at samples."""
        alg = driftless.algebroid
        S = driftless.semispray()
        Ssec = S.section(alg)
        for N in (driftless.connection(), arbitrary_connection(driftless)):
            for p in pts(driftless, 10, seed=95):
                ev = alg.evaluator(p)
                Nv = N.at(ev)
                h, v, _ = structure_tensors(Nv)
                cols_h = []
                cols_j = []
                for k, B in enumerate(basis_sections(alg.m)):
                    jB = j_tensor(alg.m).apply(B)
                    bx, bv = bracket_at(alg, Ssec, jB, ev)
                    cols_h.append(np.concatenate(h.apply(bx, bv)))
                    vB = v_tensor(alg, N).apply(B)
                    cx, cv = bracket_at(alg, Ssec, vB, ev)
                    cols_j.append(np.concatenate([np.zeros(alg.m), cx]))
                got_h = np.stack(cols_h, axis=1)
                got_j = np.stack(cols_j, axis=1)
                assert np.max(np.abs(got_h + h.matrix)) <= 1e-9
                assert np.max(np.abs(got_j + v.matrix)) <= 1e-9


class TestBerwaldConnection:
    def test_horizontal_frame_coefficients(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        d1 = horizontal_basis_exprs(alg, N, 0)
        d2 = horizontal_basis_exprs(alg, N, 1)
        x, v = berwald_connection(alg, N, d1, d2, P0)
        # D_{delta_1} delta_2 = dN_1^g/du2 delta_g = delta_1 here
        ev = alg.evaluator(P0)
        want_x, want_v = d1.values_at(ev)
        assert np.max(np.abs(x - want_x)) <= 1e-12
        assert np.max(np.abs(v - want_v)) <= 1e-12

    def test_vertical_inputs_are_flat(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        for a in range(2):
            Va = ProlongationSection.basis_v(2, a)
            for B in (
                horizontal_basis_exprs(alg, N, 0),
                ProlongationSection.basis_v(2, 1),
            ):
                x, v = berwald_connection(alg, N, Va, B, P0)
                assert np.max(np.abs(np.concatenate([x, v]))) <= 1e-12

    def test_matches_local_coefficients(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        B = berwald_coefficients(alg, N, P0)
        for a in range(2):
            for b in range(2):
                da = horizontal_basis_exprs(alg, N, a)
                Vb = ProlongationSection.basis_v(2, b)
                x, v = berwald_connection(alg, N, da, Vb, P0)
                # D_{delta_a} V_b = dN_a^g/dy^b V_g
                assert np.max(np.abs(x)) <= 1e-12
                assert np.max(np.abs(v - B[a, b])) <= 1e-12

    def test_covariant_derivative_along_spray(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            Ssec = S.section(alg)
            N = cfg.connection()
            for A in random_sections(cfg, 4):
                nA = nabla_exprs(alg, S, N, A)
                for p in pts(cfg, 12, seed=99):
                    dx, dv = berwald_connection(alg, N, Ssec, A, p)
                    wx, wv = nA.values_at(alg.evaluator(p))
                    assert np.max(np.abs(dx - wx)) <= 1e-8
                    assert np.max(np.abs(dv - wv)) <= 1e-8


class TestGeometryFrame:
    def test_residuals_tiny_on_fixture(self, driftless):
        fr = geometry_frame(
            driftless.algebroid, driftless.semispray(), driftless.connection(), P0
        )
        for key, val in fr.residuals.items():
            assert val <= 1e-9, key

    def test_dict_round_trip(self, driftless):
        fr = geometry_frame(
            driftless.algebroid, driftless.semispray(), driftless.connection(), P0
        )
        d = fr.to_dict()
        assert d["point"]["x"] == [0.5, 1.0, 0.0]
        assert len(d["connection"]) == 2
        assert "nabla_j" in d["residuals"]
