import numpy as np
import pytest

from algmech.connection import (
    Connection,
    CovariantDerivative,
    berwald_coefficients,
    berwald_connection,
    berwald_derivative,
    canonical_connection,
    connection_from_lie_derivative,
    curvature,
    curvature_apply,
    curvature_from_brackets,
    f_tensor,
    geometry_frames,
    h_tensor,
    horizontal_basis_exprs,
    jacobi_endomorphism,
    jacobi_from_bracket,
    nabla_tensor,
    v_tensor,
)
from algmech.config import parse_config
from algmech.expr import e_add, e_mul, e_neg, e_sum, parse_expression
from algmech.jets import EvalPoint
from algmech.prolongation import (
    ProlongationSection,
    Semispray,
    basis_sections,
    bracket,
    directional_derivative,
    euler_section,
    j_tensor,
    sode_derivative_expr,
)
from algmech.sampling import sample_points

import test_pinned_library as rank3

P0 = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])


def pts(cfg, k=20, seed=41):
    return sample_points(cfg.algebroid.base_coords, cfg.algebroid.fiber_coords, k, seed)


def sec(cfg, xs, vs):
    alg = cfg.algebroid
    return ProlongationSection(
        tuple(parse_expression(s, alg.coords) for s in xs),
        tuple(parse_expression(s, alg.coords) for s in vs),
    )


def phi_block(R: np.ndarray) -> np.ndarray:
    """The Jacobi endomorphism as a (2m, 2m) matrix: X_b -> R_b^g V_g."""
    m = R.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[m:, :m] = R.T
    return out


def apply(M: np.ndarray, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (2m, 2m) matrix applied to the component column (x, v)."""
    out = M @ np.concatenate([x, v])
    return out[: len(x)], out[len(x) :]


def structure_tensors(Nv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, v, F) as (2m, 2m) matrices in closed form from the connection
    coefficient values: the reference for the trees of ``h_tensor``,
    ``v_tensor`` and ``f_tensor``."""
    m = Nv.shape[0]
    eye, zero = np.eye(m), np.zeros((m, m))
    h = np.block([[eye, zero], [-Nv.T, zero]])
    v = np.block([[zero, zero], [Nv.T, eye]])
    F = np.block([[Nv.T, eye], [-(Nv @ Nv).T - eye, -Nv.T]])
    return h, v, F


def tree_structure_tensors(alg, N: Connection, ev) -> tuple[np.ndarray, ...]:
    """(h, v, F) at the evaluator's point, read from their trees."""
    return tuple(alg.derived(t, N).at(ev) for t in (h_tensor, v_tensor, f_tensor))


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


def nabla_horizontal_coeffs(alg, S, N, comps):
    """Reference trees of nabla on the horizontal frame,
    S(c^a) + (N_b^a + y^e L_eb^a) c^b, which can be applied twice."""
    tw, r = alg.twisted_structure, range(alg.m)
    return tuple(
        e_sum([sode_derivative_expr(alg, S, comps[a])]
              + [e_mul(e_add(N.coeffs[b][a], tw[b][a]), comps[b]) for b in r])
        for a in r
    )


def nabla_vertical_coeffs(alg, S, N, comps):
    """Reference trees on the vertical frame, S(w^a) - (N_b^a + dS^a/dy^b) w^b."""
    dS, y, r = alg.derivative, alg.fiber_coords, range(alg.m)
    return tuple(
        e_sum([sode_derivative_expr(alg, S, comps[a])]
              + [e_neg(e_mul(e_add(N.coeffs[b][a], dS(S.components[a], y[b])), comps[b]))
                 for b in r])
        for a in r
    )


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
            Nv = N.at(driftless.algebroid.evaluator(p))[0]
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
                ev = alg.evaluator(p)
                Nv = N.at(ev)
                oracle = connection_from_lie_derivative(alg, S, ev)
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
            Nv = N.at(alg.evaluator(p))[0]
            assert Nv[0, 0] == pytest.approx(y1 + 0.5 * y2, abs=1e-14)
            assert Nv[1, 0] == pytest.approx(0.5 * y1, abs=1e-14)
            assert Nv[0, 1] == pytest.approx(0.0, abs=1e-14)
            assert Nv[1, 1] == pytest.approx(2.0 * y2, abs=1e-14)


class TestBerwaldDerivative:
    def test_on_fiber_coordinate(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        ev = alg.evaluator(P0)
        Nv = N.at(ev)[0]
        for g in range(2):
            yg = parse_expression(alg.fiber_coords[g], alg.coords)
            got = berwald_derivative(alg, N, yg, ev)[0]
            for a in range(2):
                assert got[a] == pytest.approx(-Nv[a, g], abs=1e-15)

    def test_base_only_function_reduces_to_anchor(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        f = parse_expression("x1*x2", alg.coords)
        got = berwald_derivative(alg, N, f, alg.evaluator(P0))[0, 1]
        # second anchored field: x1 d/dx1 + x2 d/dx2 + d/dx3 applied to x1 x2
        assert got == pytest.approx(0.5 * 1.0 + 1.0 * 0.5, abs=1e-15)

    def test_on_sode_component(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        S1 = driftless.semispray().components[0]
        got = berwald_derivative(alg, N, S1, alg.evaluator(P0))[0, 0]
        # -(N_1^1 dS1/du1 + N_1^2 dS1/du2) = -(2*(-2) + (-1)*(-1)) = 3
        assert got == pytest.approx(3.0, abs=1e-14)


class TestCurvature:
    def test_driftless_values(self, driftless):
        alg = driftless.algebroid
        R = curvature(alg, driftless.connection(), alg.evaluator(P0))[0]
        assert R[0, 1, 0] == pytest.approx(2.0, abs=1e-15)  # u2
        assert R[1, 0, 0] == pytest.approx(-2.0, abs=1e-15)
        assert R[0, 1, 1] == pytest.approx(-1.0, abs=1e-15)  # formula sign

    def test_flat_when_connection_and_structure_vanish(self, abelian):
        alg = abelian.algebroid
        R = curvature(alg, abelian.connection(), alg.evaluator(EvalPoint.of([0.1, 0.2], [1.0, 0.5])))
        assert np.max(np.abs(R)) == 0.0

    def test_antisymmetry(self, all_systems):
        for cfg in all_systems:
            N = cfg.connection()
            for p in pts(cfg, 50, seed=23):
                R = curvature(cfg.algebroid, N, cfg.algebroid.evaluator(p))[0]
                assert np.max(np.abs(R + R.transpose(1, 0, 2))) == 0.0

    def test_bracket_oracle(self, all_systems):
        for cfg in all_systems:
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 15, seed=29):
                    ev = cfg.algebroid.evaluator(p)
                    direct = curvature(cfg.algebroid, N, ev)
                    oracle = curvature_from_brackets(cfg.algebroid, N, ev)
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
                            R3 = curvature(alg, N, ev)
                            ax, _ = A.values_at(ev)
                            bx, _ = B.values_at(ev)
                            want = np.einsum("...abg,...a,...b->...g", R3, ax, bx)
                            got = curvature_apply(alg, N, A, B, ev)
                            assert np.max(np.abs(got - want)) <= 1e-9

    def test_horizontal_bracket_frame_part(self, driftless):
        # [delta_a, delta_b] has frame part L_ab^c delta_c
        alg = driftless.algebroid
        N = driftless.connection()
        ev = alg.evaluator(P0)
        d1 = horizontal_basis_exprs(alg, N, 0)
        d2 = horizontal_basis_exprs(alg, N, 1)
        cx, cv = bracket(alg, d1, d2, ev)
        assert np.allclose(cx, [1.0, 0.0], atol=1e-15)


class TestJacobiEndomorphism:
    def test_driftless_values(self, driftless):
        alg = driftless.algebroid
        S, N = driftless.semispray(), driftless.connection()
        R = jacobi_endomorphism(alg, S, N, alg.evaluator(P0))[0]
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
                ev = alg.evaluator(p)
                direct = jacobi_endomorphism(alg, S, N, ev)
                oracle = jacobi_from_bracket(alg, S, N, ev)
                assert np.max(np.abs(direct - oracle)) <= 1e-10

    def test_bracket_oracle_arbitrary(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = arbitrary_connection(cfg)
            for p in pts(cfg, 25, seed=37):
                ev = alg.evaluator(p)
                direct = jacobi_endomorphism(alg, S, N, ev)
                oracle = jacobi_from_bracket(alg, S, N, ev)
                assert np.max(np.abs(direct - oracle)) <= 1e-10

    def test_spray_contraction_identity(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 50, seed=41):
                ev = alg.evaluator(p)
                R2 = jacobi_endomorphism(alg, S, N, ev)
                R3 = curvature(alg, N, ev)
                contraction = np.einsum("e,...ebg->...bg", np.array(p.y), R3)
                assert np.max(np.abs(R2 - contraction)) <= 1e-10

    def test_annihilates_the_spray(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            for p in pts(cfg, 50, seed=43):
                S, N = cfg.semispray(), cfg.connection()
                R2 = jacobi_endomorphism(alg, S, N, alg.evaluator(p))[0]
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
                Nv = N.at(ev)[0]
                R2 = jacobi_endomorphism(alg, S, N, ev)[0]
                for b in range(alg.m):
                    omega = curvature_apply(alg, N, Ssec, basis[b], ev)[0]
                    hB = h_tensor(alg, N).apply(basis[b])
                    t1x, t1v = bracket(alg, vS, hB, ev)
                    got = omega + (t1v[0] + t1x[0] @ Nv)
                    assert np.max(np.abs(got - R2[b])) <= 1e-9
                # vertical frame inputs are annihilated on both sides
                for b in range(alg.m):
                    omega = curvature_apply(alg, N, Ssec, basis[alg.m + b], ev)
                    assert np.max(np.abs(omega)) <= 1e-12


class TestStructureTensors:
    def test_projector_identities(self, all_systems):
        for cfg in all_systems:
            m = cfg.algebroid.m
            eye = np.eye(2 * m)
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 50, seed=53):
                    H, V, _ = tree_structure_tensors(cfg.algebroid, N, cfg.algebroid.evaluator(p))
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
                    _, _, F = tree_structure_tensors(cfg.algebroid, N, cfg.algebroid.evaluator(p))
                    assert np.max(np.abs(F @ F + np.eye(2 * m))) <= 1e-10

    def test_compositions_with_vertical_endomorphism(self, driftless):
        alg, N = driftless.algebroid, driftless.connection()
        for p in pts(driftless, 20, seed=61):
            ev = alg.evaluator(p)
            J = j_tensor(alg.m).at(ev)
            h, v, F = tree_structure_tensors(alg, N, ev)
            assert np.max(np.abs(F @ J - h)) <= 1e-12
            assert np.max(np.abs(J @ F - v)) <= 1e-12
            assert np.max(np.abs(v @ F + J)) <= 1e-12
            assert np.max(np.abs(h @ F - (F + J))) <= 1e-12

    def test_expression_backed_tensors_match_pointwise(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        for p in pts(driftless, 10, seed=67):
            ev = alg.evaluator(p)
            h, v, F = structure_tensors(N.at(ev)[0])
            assert np.max(np.abs(h_tensor(alg, N).at(ev) - h)) == 0.0
            assert np.max(np.abs(v_tensor(alg, N).at(ev) - v)) == 0.0
            assert np.max(np.abs(f_tensor(alg, N).at(ev) - F)) <= 1e-15


class TestNabla:
    def test_horizontal_frame_coefficient(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        N = driftless.connection()
        d1 = horizontal_basis_exprs(alg, N, 0)
        x, v = CovariantDerivative(alg, S, N, alg.evaluator(P0))(d1)
        # coefficient N_1^1 - L_12^1 u2 = 0 on the first slot
        assert x[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_scalar_rule_on_energy(self, driftless):
        alg = driftless.algebroid
        ev = alg.evaluator(P0)
        Ssec = driftless.semispray().section(alg)
        energy = driftless.lagrangian.energy_expr
        assert directional_derivative(alg, ev, *Ssec.values_at(ev), (energy,))[0, 0] == pytest.approx(
            0.0, abs=1e-14
        )

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
                        dx, dv = CovariantDerivative(alg, S, N, ev)(Vb)
                        bx, bv = bracket(alg, Ssec, Vb, ev)
                        want_v = bv + bx @ Nv  # vertical Berwald part
                        assert np.max(np.abs(dx)) <= 1e-12
                        assert np.max(np.abs((dv + dx @ Nv) - want_v)) <= 1e-9

    def test_nabla_j_vanishes_canonically(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 50, seed=73):
                out = nabla_tensor(alg, S, N, j_tensor(alg.m), alg.evaluator(p))
                assert np.max(np.abs(out)) <= 1e-9

    def test_nabla_j_formula_for_arbitrary_connection(self, driftless):
        alg = driftless.algebroid
        S = driftless.semispray()
        N = arbitrary_connection(driftless)
        for p in pts(driftless, 15, seed=79):
            ev = alg.evaluator(p)
            Nv = N.at(ev)[0]
            y = np.array(p.y)
            L = alg.structure_at(ev)[0]
            out = nabla_tensor(alg, S, N, j_tensor(alg.m), ev)[0]
            expected_vx = np.zeros((alg.m, alg.m))
            for a in range(alg.m):
                for b in range(alg.m):
                    dS = ev.jet(S.components[b]).grad[0, alg.n + a]
                    twist = float(np.einsum("e,e->", y, L[a, :, b]))
                    expected_vx[b, a] = -(dS - twist + 2.0 * Nv[a, b])
            m = alg.m
            assert np.max(np.abs(out[m:, :m] - expected_vx)) <= 1e-9
            assert np.max(np.abs(out[:m, :m])) <= 1e-9
            assert np.max(np.abs(out[:m, m:])) <= 1e-9
            assert np.max(np.abs(out[m:, m:])) <= 1e-9

    def test_nabla_h_and_v_vanish_for_any_connection(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for p in pts(cfg, 15, seed=83):
                    ev = alg.evaluator(p)
                    nh = nabla_tensor(alg, S, N, h_tensor(alg, N), ev)
                    nv = nabla_tensor(alg, S, N, v_tensor(alg, N), ev)
                    assert np.max(np.abs(nh)) <= 1e-9
                    assert np.max(np.abs(nv)) <= 1e-9

    def test_nabla_f_vanishes_canonically(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for p in pts(cfg, 15, seed=89):
                out = nabla_tensor(alg, S, N, f_tensor(alg, N), alg.evaluator(p))
                assert np.max(np.abs(out)) <= 1e-9

    def test_decomposition(self, all_systems):
        """nabla A = [S, A] + F(A) + J(A) - Phi(A) on expression-backed sections."""
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            Ssec = S.section(alg)
            N = cfg.connection()
            for A in random_sections(cfg, 10):
                for p in pts(cfg, 10, seed=91):
                    ev = alg.evaluator(p)
                    _, _, F = tree_structure_tensors(alg, N, ev)
                    R2 = jacobi_endomorphism(alg, S, N, ev)[0]
                    ax, av = (c[0] for c in A.values_at(ev))
                    lx, lv = bracket(alg, Ssec, A, ev)
                    fx, fv = apply(F[0], ax, av)
                    jx, jv = np.zeros(alg.m), ax
                    px, pv = apply(phi_block(R2), ax, av)
                    wx, wv = CovariantDerivative(alg, S, N, ev)(A)
                    assert np.max(np.abs(wx - (lx + fx + jx - px))) <= 1e-8
                    assert np.max(np.abs(wv - (lv + fv + jv - pv))) <= 1e-8

    def test_spray_and_euler_sections_are_parallel(self, all_systems):
        for cfg in all_systems:
            alg = cfg.algebroid
            S = cfg.semispray()
            N = cfg.connection()
            for A in (S.section(alg), euler_section(alg)):
                for p in pts(cfg, 20, seed=93):
                    x, v = CovariantDerivative(alg, S, N, alg.evaluator(p))(A)
                    assert np.max(np.abs(np.concatenate([x, v]))) <= 1e-8

    def test_projector_compositions_with_lie_derivative(self, driftless):
        """h o L_S o J = -h and J o L_S o v = -v, blockwise at samples."""
        alg = driftless.algebroid
        S = driftless.semispray()
        Ssec = S.section(alg)
        for N in (driftless.connection(), arbitrary_connection(driftless)):
            for p in pts(driftless, 10, seed=95):
                ev = alg.evaluator(p)
                h, v, _ = (t[0] for t in tree_structure_tensors(alg, N, ev))
                cols_h = []
                cols_j = []
                for k, B in enumerate(basis_sections(alg.m)):
                    jB = j_tensor(alg.m).apply(B)
                    bx, bv = bracket(alg, Ssec, jB, ev)
                    cols_h.append(np.concatenate(apply(h, bx[0], bv[0])))
                    vB = v_tensor(alg, N).apply(B)
                    cx, cv = bracket(alg, Ssec, vB, ev)
                    cols_j.append(np.concatenate([np.zeros(alg.m), cx[0]]))
                got_h = np.stack(cols_h, axis=1)
                got_j = np.stack(cols_j, axis=1)
                assert np.max(np.abs(got_h + h)) <= 1e-9
                assert np.max(np.abs(got_j + v)) <= 1e-9


    @pytest.mark.parametrize("name", ["driftless", "abelian", "heisenberg", "forced", "rank3"])
    def test_batch_rows_are_the_point_bits(self, request, name):
        """Row k of nabla A over a sample evaluator, and of its horizontal
        part alone, has the bits of the batch of one at sample k."""
        if name == "rank3":
            cfg = parse_config(rank3.RAW)
            N_arb = rank3._arbitrary(cfg)
        else:
            cfg = request.getfixturevalue(name)
            N_arb = arbitrary_connection(cfg)
        alg, S = cfg.algebroid, cfg.semispray()
        samples = pts(cfg, 6, seed=101)
        batch = alg.sample_evaluator(samples)
        for N in (cfg.connection(), N_arb):
            sections = [*random_sections(cfg, 3), *basis_sections(alg.m), S.section(alg)]
            sections += f_tensor(alg, N).frame_images
            nabla = CovariantDerivative(alg, S, N, batch)
            for A in sections:
                x, v = nabla(A)
                hor = nabla.horizontal(A.x_comps)
                for i, p in enumerate(samples):
                    at_p = CovariantDerivative(alg, S, N, alg.evaluator(p))
                    px, pv = (c[0] for c in at_p(A))
                    assert x[i].tobytes() == px.tobytes() and v[i].tobytes() == pv.tobytes()
                    one_hor = at_p.horizontal(A.x_comps)[0]
                    assert hor[i].tobytes() == one_hor.tobytes() == px.tobytes()

    @pytest.mark.parametrize("name", ["driftless", "abelian", "heisenberg", "forced", "rank3"])
    def test_numeric_nabla_twice_is_the_tree_builders_applied_twice(self, request, name):
        """nabla^2 by the product rule (CovariantDerivative.twice) equals the
        reference trees applied twice, on both frames, over a batch and on
        the batch of one at each sample, for the canonical and an arbitrary
        connection; row k of the batch has the bits of the batch of one."""
        if name == "rank3":
            cfg = parse_config(rank3.RAW)
            N_arb = rank3._arbitrary(cfg)
        else:
            cfg = request.getfixturevalue(name)
            N_arb = arbitrary_connection(cfg)
        alg, S = cfg.algebroid, cfg.semispray()
        samples = pts(cfg, 5, seed=107)
        batch = alg.sample_evaluator(samples)
        for N in (cfg.connection(), N_arb):
            for A in random_sections(cfg, 3):
                for comps, vertical, build in (
                    (A.x_comps, False, nabla_horizontal_coeffs),
                    (A.v_comps, True, nabla_vertical_coeffs),
                ):
                    want_trees = build(alg, S, N, build(alg, S, N, comps))
                    along = tuple(sode_derivative_expr(alg, S, c) for c in comps)
                    got = CovariantDerivative(alg, S, N, batch).twice(comps, along, vertical)
                    want = batch.values_of(want_trees)
                    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
                    for i, p in enumerate(samples):
                        ev = alg.evaluator(p)
                        at_p = CovariantDerivative(alg, S, N, ev).twice(comps, along, vertical)
                        want = ev.values_of(want_trees)
                        assert np.all(np.abs(at_p - want) <= 1e-12 * (1.0 + np.abs(want)))
                        assert at_p[0].tobytes() == got[i].tobytes()

    def test_second_order_builders_start_with_the_numeric_nabla(self, all_systems):
        """The reference trees of nabla^2 give, applied once, the numeric
        nabla: the horizontal builder on x, the vertical one on w = v + N^T x."""
        for cfg in all_systems:
            alg, S, m = cfg.algebroid, cfg.semispray(), cfg.algebroid.m
            for N in (cfg.connection(), arbitrary_connection(cfg)):
                for A in random_sections(cfg, 3):
                    hor_trees = nabla_horizontal_coeffs(alg, S, N, A.x_comps)
                    w = tuple(
                        e_add(A.v_comps[b], e_sum(e_mul(N.coeffs[a][b], A.x_comps[a]) for a in range(m)))
                        for b in range(m)
                    )
                    ver_trees = nabla_vertical_coeffs(alg, S, N, w)
                    for p in pts(cfg, 5, seed=103):
                        ev = alg.evaluator(p)
                        hor, ver = CovariantDerivative(alg, S, N, ev)(A)
                        assert np.max(np.abs(ev.values_of(hor_trees) - hor)) <= 1e-12
                        assert np.max(np.abs(ev.values_of(ver_trees) - (ver + hor @ N.at(ev)))) <= 1e-12


class TestBerwaldConnection:
    def test_horizontal_frame_coefficients(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        d1 = horizontal_basis_exprs(alg, N, 0)
        d2 = horizontal_basis_exprs(alg, N, 1)
        ev = alg.evaluator(P0)
        x, v = berwald_connection(alg, N, d1, d2, ev)
        # D_{delta_1} delta_2 = dN_1^g/du2 delta_g = delta_1 here
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
                x, v = berwald_connection(alg, N, Va, B, alg.evaluator(P0))
                assert np.max(np.abs(np.concatenate([x, v]))) <= 1e-12

    def test_matches_local_coefficients(self, driftless):
        alg = driftless.algebroid
        N = driftless.connection()
        ev = alg.evaluator(P0)
        B = berwald_coefficients(alg, N, ev)[0]
        for a in range(2):
            for b in range(2):
                da = horizontal_basis_exprs(alg, N, a)
                Vb = ProlongationSection.basis_v(2, b)
                x, v = berwald_connection(alg, N, da, Vb, ev)
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
                for p in pts(cfg, 12, seed=99):
                    ev = alg.evaluator(p)
                    dx, dv = berwald_connection(alg, N, Ssec, A, ev)
                    wx, wv = CovariantDerivative(alg, S, N, ev)(A)
                    assert np.max(np.abs(dx - wx)) <= 1e-8
                    assert np.max(np.abs(dv - wv)) <= 1e-8


class TestGeometryFrame:
    def test_residuals_tiny_on_fixture(self, driftless):
        alg = driftless.algebroid
        (fr,) = geometry_frames(alg, driftless.semispray(), driftless.connection(), alg.sample_evaluator([P0]))
        for key, val in fr.residuals.items():
            assert val <= 1e-9, key

    def test_dict_round_trip(self, driftless):
        alg = driftless.algebroid
        (fr,) = geometry_frames(alg, driftless.semispray(), driftless.connection(), alg.sample_evaluator([P0]))
        d = fr.to_dict()
        assert d["point"]["x"] == [0.5, 1.0, 0.0]
        assert len(d["connection"]) == 2
        assert "nabla_j" in d["residuals"]
