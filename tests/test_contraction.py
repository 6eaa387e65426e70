"""One contraction constructor: :func:`algmech.expr.e_dot` builds every sum of
products of the derived trees.

Each builder's trees print exactly as the ``e_sum(e_mul(...))`` form this
file builds them in (the form every builder had before ``e_dot``), on the
three fixtures, the rank-3 system of the library pin, the synthetic dense-4
and diag-8 systems and a system whose structure lists a constant 0 (so that
its antisymmetric partner is ``Num(-0.0)``); and a term with a constant-zero
factor costs no product, which bounds the constructor calls of a report.
"""

import math
import sys
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algmech.expr
from algmech import linalg, load_config
from algmech.algebroid import BaseSection
from algmech.config import parse_config
from algmech.connection import f_tensor, h_tensor, v_tensor
from algmech.expr import (
    ONE, ZERO, Call, Num, Solve, System, Var, e_add, e_div, e_dot, e_mul, e_neg, e_num, e_sub, e_sum,
    to_source,
)
from algmech.prolongation import complete_lift, covariant_slash_exprs, j_tensor
from algmech.report import build_report
import algmech.symmetry
from algmech.symmetry import (
    cartan_from_conservation, conserved_from_cartan, newtonoid_completion, star_product_exprs,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import synth  # noqa: E402
from test_pinned_library import RAW as RANK3  # noqa: E402

SEED = 20261018

# a constant 0 in the structure: its antisymmetric partner parses to Num(-0.0)
ZERO_ENTRY = {
    "name": "zero-entry",
    "base_dim": 2,
    "fiber_rank": 2,
    "base_coords": ["x1", "x2"],
    "fiber_coords": ["y1", "y2"],
    "anchor": [["1", "x2"], ["0", "1+x1^2"]],
    "structure": [
        {"alpha": 1, "beta": 2, "gamma": 1, "expr": "0"},
        {"alpha": 1, "beta": 2, "gamma": 2, "expr": "x1"},
    ],
    "lagrangian": "0.5*(1+x1^2)*y1^2+0.5*y2^2+0.2*x2*y1*y2",
}

SYSTEMS = ("driftless", "abelian", "heisenberg", "rank3", "dense-4", "diag-8", "zero-entry")


def _config(name: str):
    if name in ("driftless", "abelian", "heisenberg"):
        return load_config(resources.files("algmech").joinpath(f"fixtures/{name}.json"))
    if name == "rank3":
        return parse_config(RANK3)
    if name == "zero-entry":
        return parse_config(ZERO_ENTRY)
    kind, m = name.split("-")
    return parse_config(synth.system(kind, int(m), SEED))


def _src(trees) -> list[str]:
    return [to_source(t) for t in trees]


# -- the e_sum(e_mul(...)) form of every builder ------------------------------


def ref_solve(matrix, rhs):
    if all(isinstance(b, Num) and b.value == 0.0 for b in rhs):
        return (ZERO,) * len(rhs)
    if all(type(g) is Num for row in matrix for g in row):
        inv, k = linalg.inverse([[[g.value for g in row] for row in matrix]])
        if k:
            return tuple(e_sum(map(e_mul, map(Num, row), rhs)) for row in inv[0].tolist())
    off = (g for i, row in enumerate(matrix) for g in row[:i] + row[i + 1 :])
    if all(isinstance(g, Num) and g.value == 0.0 for g in off):
        return tuple(e_div(b, row[i]) for i, (row, b) in enumerate(zip(matrix, rhs)))
    return System(matrix, tuple(rhs)).solution


def ref_system_derivative(alg, sol: Solve, name: str):
    n = sol.system
    dG = ([alg.derivative(g, name) for g in row] for row in n.matrix)
    dGx = (e_sum(e_mul(d, x) for d, x in zip(ds, n.solution) if d is not ZERO) for ds in dG)
    return ref_solve(n.matrix, [e_sub(alg.derivative(b, name), d) for b, d in zip(n.rhs, dGx)])[sol.index]


def ref_derivative_along(alg, f, flow):
    if isinstance(f, Num):
        return ZERO
    return e_sum(e_mul(vel, alg.derivative(f, name)) for name, vel in flow)


def ref_sode_flow(alg, S):
    return tuple(zip(alg.base_coords, ref_base_velocity(alg))) + tuple(zip(alg.fiber_coords, S.components))


def ref_base_velocity(alg):
    y = [Var(c) for c in alg.fiber_coords]
    return tuple(e_sum(e_mul(y[a], alg.anchor[i][a]) for a in range(alg.m)) for i in range(alg.n))


def ref_twisted_structure(alg):
    m, y = alg.m, [Var(c) for c in alg.fiber_coords]
    return [e_sum(e_mul(y[e], alg.structure[e][b][a]) for e in range(m)) for b in range(m) for a in range(m)]


def ref_bracket(alg, r, s):
    m, n = alg.m, alg.n

    def flow(t):
        return ((alg.base_coords[i], e_mul(t.components[a], alg.anchor[i][a])) for a in range(m) for i in range(n))

    comps = []
    for c in range(m):
        quad = e_sum(
            e_mul(e_mul(r.components[a], s.components[b]), alg.structure[a][b][c])
            for a in range(m) for b in range(m)
        )
        flow_r = ref_derivative_along(alg, s.components[c], flow(r))
        flow_s = ref_derivative_along(alg, r.components[c], flow(s))
        comps.append(e_sum([quad, e_sub(flow_r, flow_s)]))
    return comps


def ref_energy(alg, L):
    return e_sub(e_sum(e_mul(Var(alg.fiber_coords[a]), L.dy[a]) for a in range(alg.m)), L.expr)


def ref_pairing_block(alg, L):
    m, n = alg.m, alg.n
    out = []
    for a in range(m):
        for b in range(m):
            mixed = e_sub(
                e_sum(e_mul(alg.anchor[i][a], L.dxy[i][b]) for i in range(n)),
                e_sum(e_mul(alg.anchor[i][b], L.dxy[i][a]) for i in range(n)),
            )
            torsion = e_sum(e_mul(L.dy[e], alg.structure[a][b][e]) for e in range(m))
            out.append(e_sub(mixed, torsion))
    return out


def ref_semispray(alg, L):
    m, n, y = alg.m, alg.n, [Var(c) for c in alg.fiber_coords]
    rhs = []
    for b in range(m):
        force = e_sum(e_mul(alg.anchor[i][b], L.dx[i]) for i in range(n))
        drift = e_sum(e_mul(e_mul(alg.anchor[i][a], L.dxy[i][b]), y[a]) for i in range(n) for a in range(m))
        twist = e_sum(e_mul(e_mul(alg.structure[b][a][g], y[a]), L.dy[g]) for a in range(m) for g in range(m))
        rhs.append(e_sub(e_sub(force, drift), twist))
    return ref_solve(L.metric_exprs, rhs)


def ref_connection(alg, S):
    half, y, r = e_num(0.5), [Var(c) for c in alg.fiber_coords], range(alg.m)
    return [
        e_mul(half, e_add(e_neg(alg.derivative(S.components[b], y[a].name)),
                          e_sum(e_mul(y[e], alg.structure[a][e][b]) for e in r)))
        for a in r for b in r
    ]


def ref_f_nn(Nc):
    r = range(len(Nc))
    return [e_sum(e_mul(Nc[b][a], Nc[a][g]) for a in r) for b in r for g in r]


def ref_slash(alg, s):
    m, column = alg.m, tuple(zip(*alg.anchor))
    return [
        [
            e_sub(
                ref_derivative_along(alg, s.components[a], zip(alg.base_coords, column[e])),
                e_sum(e_mul(alg.structure[b][e][a], s.components[b]) for b in range(m)),
            )
            for a in range(m)
        ]
        for e in range(m)
    ]


def ref_complete_lift_v(alg, s):
    m, y, slash = alg.m, [Var(c) for c in alg.fiber_coords], ref_slash(alg, s)
    return [e_sum(e_mul(slash[e][a], y[e]) for e in range(m)) for a in range(m)]


def ref_apply(T, A):
    comps = A.x_comps + A.v_comps
    return [e_sum(e_mul(t, c) for t, c in zip(row, comps)) for row in T.rows]


def ref_newtonoid_v(alg, S, x_comps):
    m, y = alg.m, [Var(c) for c in alg.fiber_coords]
    out = []
    for a in range(m):
        lift = e_sum(
            e_mul(e_mul(y[e], alg.structure[e][b][a]), x_comps[b]) for e in range(m) for b in range(m)
        )
        out.append(e_sum([ref_derivative_along(alg, x_comps[a], ref_sode_flow(alg, S)), lift]))
    return out


def ref_star_v(alg, S, f, A):
    sf = ref_derivative_along(alg, f, ref_sode_flow(alg, S))
    return [e_sum([e_mul(f, A.v_comps[a]), e_mul(sf, A.x_comps[a])]) for a in range(alg.m)]


def _base_sections(alg):
    """The frame sections and two x-dependent ones."""
    m, xs = alg.m, [Var(c) for c in alg.base_coords]
    frame = [BaseSection.define(alg, [ONE if b == a else ZERO for b in range(m)]) for a in range(m)]
    poly = BaseSection.define(alg, [e_mul(xs[a % alg.n], xs[(a + 1) % alg.n]) for a in range(m)])
    trig = BaseSection.define(alg, [Call("sin", xs[a % alg.n]) if a % 2 else ZERO for a in range(m)])
    return frame + [poly, trig]


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_contraction_prints_as_its_sum_of_products(name, monkeypatch):
    cfg = _config(name)
    alg, L, S, N = cfg.algebroid, cfg.lagrangian, cfg.semispray(), cfg.connection()

    assert _src(alg.base_velocity) == _src(ref_base_velocity(alg))
    assert _src(t for row in alg.twisted_structure for t in row) == _src(ref_twisted_structure(alg))
    assert to_source(L.energy_expr) == to_source(ref_energy(alg, L))
    m = alg.m
    block = [L.pairing_exprs[a][b] for a in range(m) for b in range(m)]
    assert _src(block) == _src(ref_pairing_block(alg, L))
    assert _src(S.components) == _src(ref_semispray(alg, L))
    assert _src(t for row in N.coeffs for t in row) == _src(ref_connection(alg, S))
    F, nn = f_tensor(alg, N), ref_f_nn(N.coeffs)  # F's VX block: -(N N)_b^g - delta_b^g
    vx = [e_sub(e_neg(nn[b * m + g]), ONE if b == g else ZERO) for g in range(m) for b in range(m)]
    assert _src(F.rows[m + g][b] for g in range(m) for b in range(m)) == _src(vx)

    solves = [c for c in S.components if isinstance(c, Solve)]
    for sol in solves:
        for c in alg.coords:
            assert to_source(alg.derivative(sol, c)) == to_source(ref_system_derivative(alg, sol, c))

    bases = _base_sections(alg)
    for s in bases:
        assert [_src(row) for row in covariant_slash_exprs(alg, s)] == [_src(row) for row in ref_slash(alg, s)]
        assert _src(complete_lift(alg, s).v_comps) == _src(ref_complete_lift_v(alg, s))
    for r in bases[-2:]:
        for s in bases:
            assert _src(alg.bracket_exprs(r, s).components) == _src(ref_bracket(alg, r, s))

    sections = [S.section(alg), complete_lift(alg, bases[-2])]
    sections += [c.section for c in cfg.candidates if c.section is not None]
    for T in (h_tensor(alg, N), v_tensor(alg, N), F, j_tensor(m)):
        for A in sections:
            image = T.apply(A)
            assert _src(image.x_comps + image.v_comps) == _src(ref_apply(T, A))
    for A in sections:
        assert _src(newtonoid_completion(alg, S, A.x_comps).v_comps) == _src(ref_newtonoid_v(alg, S, A.x_comps))
        assert _src(star_product_exprs(alg, S, L.expr, A).v_comps) == _src(ref_star_v(alg, S, L.expr, A))

    # the two trees the Cartan converses build and hand on
    ev = alg.sample_evaluator(cfg.sample_points()[:2])
    taken = {}
    monkeypatch.setattr(algmech.symmetry, "conservation_check", lambda alg, S, g, *a, **k: taken.setdefault("g", g))
    conserved_from_cartan(alg, L, S, S.section(alg), L.expr, ev, math.inf)
    Sx = S.section(alg).x_comps
    assert to_source(taken["g"]) == to_source(e_sub(L.expr, e_sum(e_mul(L.dy[a], Sx[a]) for a in range(m))))

    class Taken(Exception):
        pass

    def take(matrix, rhs):
        taken["rhs"] = rhs
        raise Taken

    monkeypatch.setattr(algmech.symmetry, "solve", take)
    with pytest.raises(Taken):
        cartan_from_conservation(alg, L, L.expr, ev, 1e-9)
    df = [alg.derivative(L.expr, c) for c in alg.coords]
    want = [e_neg(e_sum(e_mul(alg.anchor[i][a], df[i]) for i in range(alg.n))) for a in range(m)]
    assert _src(taken["rhs"][:m]) == _src(want)


# -- e_dot itself ---------------------------------------------------------------

_LEAVES = st.sampled_from(
    [Num(0.0), Num(-0.0), Num(1.0), Num(-1.0), Num(2.5), Num(1e-200), Var("x"), Var("y"),
     Call("sin", Var("x"))]
)


_UNDERFLOW = (Num(-1.0), Num(1e-200), Num(1e-200))  # folds to Num(-0.0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.lists(_LEAVES, min_size=1, max_size=4), max_size=6))
@example([_UNDERFLOW, (Num(0.0), Num(0.0))])
@example([_UNDERFLOW, (Num(0.0),)])
@example([_UNDERFLOW, (Num(-0.0),)])
def test_e_dot_is_the_sum_of_folded_products_of_at_least_two_factors(terms):
    """For terms of two or more factors (every contraction's), the tree is
    the e_sum of the e_mul products, also where a folded product underflows
    to -0.0; a one-factor term of -0.0 is the one case where skipping
    differs from e_add's fold, which keeps it: e_dot adds it as ZERO."""
    lone = [len(t) == 1 and to_source(t[0]) == "-0.0" for t in terms]
    want = e_sum(ZERO if z else reduce(e_mul, t) for t, z in zip(terms, lone))
    assert to_source(e_dot(terms)) == to_source(want)


def test_a_term_with_a_zero_factor_builds_no_product(monkeypatch):
    calls = []
    monkeypatch.setattr(algmech.expr, "e_mul", lambda a, b: calls.append((a, b)) or e_mul(a, b))
    x, y = Var("x"), Var("y")
    out = e_dot([(x, y, Num(0.0)), (Num(-0.0), x), (x, y), (y, ZERO, x)])
    assert calls == [(x, y)]
    assert to_source(out) == "x*y"


# -- the constructor count of a report ------------------------------------------


@pytest.mark.parametrize("kind, m, bound", [("diag", 8, 3_500), ("dense", 16, 80_000), ("diag", 32, 50_000)])
def test_report_builds_few_products(kind, m, bound, monkeypatch):
    """e_mul calls over parsing and reporting a synthetic system, every
    module's binding counted (7,464, 104,912 and 340,128 when each sum of
    products built every product first)."""
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return e_mul(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("algmech") and getattr(module, "e_mul", None) is e_mul:
            monkeypatch.setattr(module, "e_mul", counted)
    build_report(parse_config(synth.system(kind, m, SEED)))
    assert calls[0] <= bound
