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

from algmech.algebroid import inner
from algmech.cli import main
from algmech.config import parse_config
from algmech.connection import (
    CovariantDerivative,
    curvature_from_brackets,
    f_tensor,
    h_tensor,
    jacobi_from_bracket,
    nabla_tensor,
    v_tensor,
)
from algmech.expr import Num
from algmech.lagrangian import cartan_pairing, cartan_pairing_exprs
from algmech.prolongation import (
    basis_sections,
    bracket,
    directional_derivative,
    j_tensor,
    lie_derivative_tensor,
)
from algmech.symmetry import cartan_symmetry_check

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
    nabla = CovariantDerivative.of(alg, S, N, ev)
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
