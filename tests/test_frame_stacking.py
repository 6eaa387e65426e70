"""Frame-wide brackets and derivations are one stacked call with the bits of
one call per pair; a tensor's frame images are the trees ``apply`` folds to;
validation leaves out structurally zero terms and keeps every residual bit.

The references are the one-pair formulas the stacked calls replace: the
bracket of one pair (``test_prolongation.reference_bracket``), nabla of one
section with one directional derivative per part, and the axiom residuals
taken over every index tuple.  They are compared by ``tobytes()``.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from algmech.linalg import inner
from algmech.cli import main
from algmech.config import parse_config
import algmech.symmetry as symmetry
from algmech.algebroid import BaseSection
from algmech.connection import (
    CovariantDerivative,
    berwald_connection,
    berwald_derivative,
    curvature,
    curvature_from_brackets,
    f_tensor,
    h_tensor,
    jacobi_endomorphism,
    jacobi_from_bracket,
    nabla_tensor,
    v_tensor,
)
from algmech.expr import Num, parse_expression
from algmech.lagrangian import cartan_pairing, cartan_pairing_exprs
from algmech.prolongation import (
    ProlongationSection,
    basis_sections,
    bracket,
    brackets,
    directional_derivative,
    j_tensor,
    lie_derivative_tensor,
    spray_homogeneity,
)
from algmech.symmetry import _lie_trees, cartan_symmetry_check, prepare_checks

import test_pinned_library as rank3
from test_prolongation import random_section, reference_bracket

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import synth  # noqa: E402

SEED = 20261018


def load(name, request):
    """A shipped fixture, rank3 of the pinned library, or a synthetic system
    named ``<kind>-<m>``."""
    if name == "rank3":
        return parse_config(rank3.RAW)
    if "-" not in name:
        return request.getfixturevalue(name)
    kind, m = name.split("-")
    return parse_config(synth.system(kind, int(m), SEED))


def same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def vertical_part(cx, cv, Nv):
    return cv + (cx[..., None, :] @ Nv)[..., 0, :]


def matvec(M, x):
    return (M @ x[..., None])[..., 0]


def vecmat(x, M):
    return (x[..., None, :] @ M)[..., 0, :]


def reference_frame_derivation(T, ev, D):
    """(D T)(B) with one call of D per section and T(B) from ``apply``."""
    M, m = T.at(ev), T.m
    cols = []
    for B in basis_sections(m):
        dx, dv = D(T.apply(B))
        bx, bv = D(B)
        tx = matvec(M[..., :m, :m], bx) + matvec(M[..., :m, m:], bv)
        tv = matvec(M[..., m:, :m], bx) + matvec(M[..., m:, m:], bv)
        cols.append(np.concatenate([dx - tx, dv - tv], axis=-1))
    return np.stack(cols, axis=-1)


def reference_nabla(alg, S, N, ev, A):
    """nabla of one section, S(.) of its X and V components one directional
    derivative each."""
    nabla = CovariantDerivative(alg, S, N, ev)
    x, v = A.values_at(ev)
    sx = directional_derivative(alg, ev, nabla.y, nabla.s, A.x_comps)
    sv = directional_derivative(alg, ev, nabla.y, nabla.s, A.v_comps)
    (sn, ver_coeff), Nv = nabla.ver_terms, nabla.Nv
    hor = sx + vecmat(x, nabla.hor_coeff)
    w = v + vecmat(x, Nv)
    ver = sv + vecmat(x, sn) + vecmat(sx, Nv) - vecmat(w, ver_coeff)
    return hor, ver - vecmat(hor, Nv)


def reference_cartan(alg, L, A, ev):
    """The per-sample residuals of the Cartan check, one bracket per frame
    section."""
    ax, av = A.values_at(ev)
    W_exprs, W = cartan_pairing_exprs(alg, L), cartan_pairing(alg, L, ev)
    brk = [np.concatenate(reference_bracket(alg, A, B, ev), axis=-1) for B in basis_sections(alg.m)]
    pairs = [(r, c) for r in range(len(brk)) for c in range(r + 1, len(brk))]
    dW = directional_derivative(alg, ev, ax, av, [*(W_exprs[r][c] for r, c in pairs), L.energy_expr])
    two = [
        np.abs(dW[..., j] - inner(brk[r], W[..., :, c]) - inner(W[..., r, :], brk[c]))
        for j, (r, c) in enumerate(pairs)
    ]
    return np.stack([np.max(two, axis=0, initial=0.0), np.abs(dW[..., -1])], axis=-1)


STACKED = ["driftless", "heisenberg", "dense-4", "diag-8"]


@pytest.mark.parametrize("name", STACKED)
def test_frame_wide_brackets_keep_the_pair_bits(name, request):
    cfg = load(name, request)
    alg, S, N, m = cfg.algebroid, cfg.semispray(), cfg.connection(), cfg.algebroid.m
    ev = alg.sample_evaluator(cfg.sample_points()[:5])
    Nv, Ssec = N.at(ev), S.section(alg)
    deltas = alg.derived(h_tensor, N).frame_images[:m]
    pair = lambda A: lambda B: reference_bracket(alg, A, B, ev)  # noqa: E731

    want = [[vertical_part(*pair(a)(b), Nv) for b in deltas] for a in deltas]
    same(curvature_from_brackets(alg, N, ev), np.stack([np.stack(r, -2) for r in want], -3))
    want = [vertical_part(*pair(Ssec)(d), Nv) for d in deltas]
    same(jacobi_from_bracket(alg, S, N, ev), np.stack(want, -2))
    for T in (j_tensor(m), alg.derived(f_tensor, N)):
        same(lie_derivative_tensor(alg, Ssec, T, ev), reference_frame_derivation(T, ev, pair(Ssec)))
    for T in (j_tensor(m), alg.derived(h_tensor, N)):
        want = reference_frame_derivation(T, ev, lambda B: reference_nabla(alg, S, N, ev, B))
        same(nabla_tensor(alg, S, N, T, ev), want)

    # the Cartan check's brackets: a candidate against the whole frame
    rng = random.Random(f"cartan:{name}")
    for A in (Ssec, random_section(cfg, rng)):
        bx, bv = bracket(alg, A, basis_sections(m), ev)
        for k, B in enumerate(basis_sections(m)):
            wx, wv = reference_bracket(alg, A, B, ev)
            same(bx[k], wx)
            same(bv[k], wv)
        got = cartan_symmetry_check(alg, cfg.lagrangian, A, ev, tol=1e-9).per_sample
        same(np.array([r for _, r in got]), reference_cartan(alg, cfg.lagrangian, A, ev))


@pytest.mark.parametrize("name", ["heisenberg", "dense-4"])
def test_frame_images_are_the_trees_apply_returns(name, request):
    cfg = load(name, request)
    alg, N, m = cfg.algebroid, cfg.connection(), cfg.algebroid.m
    tensors = (j_tensor(m), h_tensor(alg, N), v_tensor(alg, N), f_tensor(alg, N))
    for T in tensors:
        for B, image in zip(basis_sections(m), T.frame_images):
            want = T.apply(B)
            assert all(a is b for a, b in zip(image.x_comps + image.v_comps, want.x_comps + want.v_comps))
    # h carries -N, so a zero coefficient is Num(-0.0) there, which apply folds to ZERO
    if name == "heisenberg":
        assert any(isinstance(t, Num) and str(t.value) == "-0.0" for row in tensors[1].rows for t in row)


def reference_residuals(alg, ev):
    """The axiom residuals over every index tuple, as validation took them
    before it left out structural zeros."""
    n = alg.n
    sigma, L = alg.anchor_at(ev), alg.structure_at(ev)
    anti = np.abs(L + L.transpose(0, 2, 1, 3))
    dL = np.array([[[ev.jet(e).grad[:, :n] for e in row] for row in plane] for plane in alg.structure])
    dsig = np.array([[ev.jet(e).grad[:, :n] for e in row] for row in alg.anchor])
    dL, dsig = np.moveaxis(dL, 3, 0), np.moveaxis(dsig, 2, 0)
    sigma_t = sigma.swapaxes(1, 2)
    flow = inner(sigma_t[:, :, None, None, None], dL[:, None])
    prod = inner(L.transpose(0, 1, 3, 2)[:, :, None, None], L[:, None, :, :, None])
    cyc = np.zeros_like(flow)
    for s in ((0, 1, 2, 3, 4), (0, 3, 1, 2, 4), (0, 2, 3, 1, 4)):
        cyc += flow.transpose(s)
        cyc += prod.transpose(s)
    lie = inner(sigma_t[:, :, None, None], dsig.transpose(0, 2, 1, 3)[:, None])
    rhs = inner(sigma[:, None, None], L[:, :, :, None])
    return anti, np.abs(cyc), np.abs(lie - lie.transpose(0, 2, 1, 3) - rhs)


@pytest.mark.parametrize("name", ["heisenberg", "abelian", "driftless", "rank3", "diag-3"])
def test_skipped_terms_leave_every_residual_bit(name, request):
    cfg = load(name, request)
    alg = cfg.algebroid
    ev = alg.sample_evaluator(cfg.sample_points())
    with np.errstate(all="ignore"):
        want = reference_residuals(alg, ev)
        got = alg._axiom_residuals(ev)
    for g, w in zip(got, want):
        same(np.broadcast_to(g, w.shape), w)


def overflow_at_one_sample():
    """A rank-3 identity-anchor, zero-structure system whose anchor entry
    sigma_1^1 = 1 + x1 * 1e200 * c overflows at one sample k > 0 only, with
    the sample points and k."""
    for seed in range(1, 100):
        raw = synth.system("diag", 3, seed)
        points = parse_config(raw).sample_points()
        size = [abs(p.x[0]) for p in points]
        k = int(np.argmax(size))
        top, second = sorted(size)[-1], sorted(size)[-2]
        if k > 0 and second < 0.999 * top:
            break
    else:
        pytest.fail("no sample seed puts the largest |x1| at a later sample")
    c = float(np.finfo(float).max) / (1e200 * (top + second) / 2)
    raw["anchor"][0][0] = f"1+x1*1e200*{c!r}"
    cfg = parse_config(raw)
    entry = cfg.algebroid.anchor[0][0]
    assert not isinstance(entry, Num)
    values = cfg.algebroid.sample_evaluator(points).value(entry)
    assert [bool(np.isfinite(v)) for v in values] == [j != k for j in range(len(points))]
    return raw, points, k


@pytest.mark.parametrize("command", ["validate", "report"])
def test_overflow_at_a_later_sample_names_that_sample(tmp_path, capsys, command):
    raw, points, k = overflow_at_one_sample()
    path = tmp_path / "system.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"check failed: cyclic residual is not finite at {points[k]}\n"
    assert not out.exists()


STACKS = ["heisenberg", "rank3", "dense-4", "diag-8"]


def sections(cfg, name):
    """The field's section, the frame images of h, the frame and three
    random sections: the left and right sides of the stacked brackets."""
    alg, N = cfg.algebroid, cfg.connection()
    rng = random.Random(f"stacks:{name}")
    return (
        cfg.semispray().section(alg), *alg.derived(h_tensor, N).frame_images,
        *basis_sections(alg.m), *(random_section(cfg, rng) for _ in range(3)),
    )


@pytest.mark.parametrize("name", STACKS)
def test_each_row_of_the_stacked_brackets_is_a_one_row_call(name, request):
    cfg = load(name, request)
    alg = cfg.algebroid
    ev = alg.sample_evaluator(cfg.sample_points())
    As = sections(cfg, name)
    Bs = As[::-2]
    x, v = brackets(alg, As, Bs, ev)
    assert x.shape == v.shape == (len(As), len(Bs), len(ev.points), alg.m)
    for i, A in enumerate(As):
        wx, wv = bracket(alg, A, Bs, ev)
        same(x[i], wx)
        same(v[i], wv)
        for k in (0, len(Bs) - 1):
            same(x[i, k], reference_bracket(alg, A, Bs[k], ev)[0])


def base_sections(cfg, name):
    """The system's base-section candidates and a random x-only section."""
    alg = cfg.algebroid
    rng = random.Random(f"lie:{name}")
    sources = [f"{rng.uniform(-2, 2)!r}*{rng.choice(alg.base_coords)}^2" for _ in range(alg.m)]
    random_base = BaseSection.define(alg, [parse_expression(src, alg.coords) for src in sources])
    return [*(c.base for c in cfg.candidates if c.kind == "base_section"), random_base]


@pytest.mark.parametrize("name", STACKS)
def test_the_candidate_wide_rows_are_one_candidate_calls(name, request):
    """[S, A], [A, frame] and S(f) taken for every candidate at once have the
    bits of a batch of one, which a check alone takes."""
    cfg = load(name, request)
    alg, S, m = cfg.algebroid, cfg.semispray(), cfg.algebroid.m
    ev = alg.sample_evaluator(cfg.sample_points())
    As, bases = sections(cfg, name)[-4:], base_sections(cfg, name)
    fs = [cfg.lagrangian.energy_expr, *(A.v_comps[0] for A in As)]
    prepare_checks(alg, S, cfg.lagrangian, ev, As, bases, fs)
    rows = ev.rows
    lifts = [alg.derived(_lie_trees, S, b)[0] for b in bases]
    Ssec, (ax, av) = S.section(alg), S.section(alg).values_at(ev)
    for A, (bx, bv) in zip([*As, *lifts], rows(symmetry._sode_brackets, (alg, S), [*As, *lifts])):
        (wx,), (wv,) = bracket(alg, Ssec, (A,), ev)
        same(bx, wx)
        same(bv, wv)
    for A, row in zip(As, rows(symmetry._frame_brackets, (alg,), As)):
        same(row, np.concatenate(bracket(alg, A, basis_sections(m), ev), axis=-1))
    for f, row in zip(fs, rows(symmetry._sode_derivatives, (alg, S), fs)):
        same(row, directional_derivative(alg, ev, ax, av, (f,))[..., 0])


def reference_lie_pde(alg, S, Xt, slash, ev):
    """The local Lie-symmetry equations one component b at a time, as the
    check took them before they were stacked over b."""
    m, n = alg.m, alg.n
    y = ev.values[:, n:]
    sigma = alg.anchor_at(ev)
    s_vals = ev.values_of(S.components)
    slash_vals = ev.array(slash)
    xt_vals = ev.values_of(Xt.components)
    pde1 = []
    pde2 = []
    for b in range(m):
        grad_xt = ev.jet(Xt.components[b]).grad
        pde1.append(sum(s_vals[:, a] * grad_xt[:, n + a] for a in range(m)))
        grad_s = ev.jet(S.components[b]).grad
        term1 = sum(
            y[:, al] * y[:, e] * inner(sigma[:, :, al], ev.jet(slash[e][b]).grad[:, :n])
            for al in range(m)
            for e in range(m)
        )
        term2 = sum(xt_vals[:, a] * inner(sigma[:, :, a], grad_s[:, :n]) for a in range(m))
        term3 = sum(s_vals[:, a] * slash_vals[:, a, b] for a in range(m))
        term4 = sum(
            y[:, e] * slash_vals[:, e, a] * grad_s[:, n + a]
            for e in range(m)
            for a in range(m)
        )
        pde2.append(term1 - term2 + term3 - term4)
    return np.stack(pde1, axis=-1), np.stack(pde2, axis=-1)


@pytest.mark.parametrize("name", STACKS)
def test_the_lie_equations_stacked_over_the_component_keep_its_bits(name, request):
    cfg = load(name, request)
    alg, S = cfg.algebroid, cfg.semispray()
    ev = alg.sample_evaluator(cfg.sample_points())
    for Xt in base_sections(cfg, name):
        slash = _lie_trees(alg, S, Xt)[1]
        for got, want in zip(symmetry._lie_pde(alg, S, Xt, slash, ev), reference_lie_pde(alg, S, Xt, slash, ev)):
            same(got, want)


@pytest.mark.parametrize("name", STACKS)
def test_covariant_rows_curvature_and_jacobi_keep_the_one_call_bits(name, request):
    """nabla's S(N), S(N + yL) and S(N + dS/dy), the curvature's
    delta_c(N_a^g), the Jacobi endomorphism's delta_b(S^g) and the spray
    homogeneity's y . dS^a/dy, each one stacked call, against one call per
    row or per tree."""
    cfg = load(name, request)
    alg, S, N, m = cfg.algebroid, cfg.semispray(), cfg.connection(), cfg.algebroid.m
    ev = alg.sample_evaluator(cfg.sample_points())
    nabla = CovariantDerivative(alg, S, N, ev)
    along = nabla._along
    sn = np.stack([along(row) for row in N.coeffs], axis=-2)
    same(nabla.ver_terms[0], sn)
    same(nabla.hor_along, sn + np.stack([along(row) for row in alg.twisted_structure], axis=-2))
    dS = [along([alg.derivative(c, yb) for c in S.components]) for yb in alg.fiber_coords]
    same(nabla.ver_along, sn + np.stack(dS, axis=-2))

    Nv, L, y = N.at(ev), alg.structure_at(ev), ev.values[:, alg.n :]
    dN = np.array([[berwald_derivative(alg, N, c, ev) for c in row] for row in N.coeffs])
    dN = np.moveaxis(dN, (0, 1), (-2, -1))
    same(curvature(alg, N, ev), dN.swapaxes(-3, -2) - dN + np.einsum("...abe,...eg->...abg", L, Nv))
    dS = np.stack([berwald_derivative(alg, N, c, ev) for c in S.components], axis=-1)
    quad = sum(Nv[..., :, a, None] * Nv[..., None, a, :] for a in range(m))
    mixed = sum(
        Nv[..., None, e, :] * L[..., a, :, e, None] * y[..., a, None, None] for a in range(m) for e in range(m)
    )
    same(jacobi_endomorphism(alg, S, N, ev), -dS - sn + quad + mixed)
    n, jets = alg.n, [ev.jet(c) for c in S.components]
    want = np.max([np.abs(inner(y, j.grad[..., n:]) - 2.0 * j.value) for j in jets], axis=0)
    same(spray_homogeneity(alg, S, ev), want)


def reference_berwald(alg, N, A, B, ev):
    """D_A B with one bracket per term of v[hA, vB] + h[vA, hB] +
    J[vA, (F+J)B] + (F+J)[hA, JB], each term's parts summed from 0."""
    Nv, (h, v) = N.at(ev), (alg.derived(h_tensor, N), alg.derived(v_tensor, N))
    vB = v.apply(B)
    fjB = h.apply(ProlongationSection(vB.v_comps, (Num(0.0),) * alg.m))
    pair = lambda P, Q: reference_bracket(alg, P, Q, ev)  # noqa: E731
    cx, cv = pair(h.apply(A), vB)
    terms = [(np.zeros_like(cx), vertical_part(cx, cv, Nv))]
    cx, cv = pair(v.apply(A), h.apply(B))
    terms.append((cx, -vecmat(cx, Nv)))
    cx, cv = pair(v.apply(A), fjB)
    terms.append((np.zeros_like(cx), cx.copy()))
    c = vertical_part(*pair(h.apply(A), j_tensor(alg.m).apply(B)), Nv)
    terms.append((c, -vecmat(c, Nv)))
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


@pytest.mark.parametrize("name", STACKS)
def test_berwald_connection_in_two_brackets_keeps_the_four_term_bits(name, request):
    cfg = load(name, request)
    alg, N = cfg.algebroid, cfg.connection()
    ev = alg.sample_evaluator(cfg.sample_points())
    As = sections(cfg, name)[::3]
    for A in As:
        for B in As:
            for got, want in zip(berwald_connection(alg, N, A, B, ev), reference_berwald(alg, N, A, B, ev)):
                same(got, want)
