"""Derived trees are built once per system and evaluated once per point,
and only to the order their callers read.

These tests pin the sharing itself (node counts, constructor calls,
evaluator instances, jet orders), not any value; the golden reports pin the
values.
"""

import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import algmech.algebroid
import algmech.config
import algmech.symmetry
from algmech.cli import main
from algmech.connection import geometry_frame
from algmech.expr import ZERO, BinOp, Call, Neg, Num, Var, differentiate, parse_expression
from algmech.jets import EvalPoint, PointEvaluator
from algmech.lagrangian import cartan_pairing_exprs, matrix_inverse_exprs
from algmech.prolongation import directional_derivative, sode_derivative_expr, sode_flow

GOLDEN = Path(__file__).resolve().parent / "golden"


def unique_nodes(*roots) -> int:
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, BinOp):
            stack += [node.left, node.right]
        elif isinstance(node, (Neg, Call)):
            stack.append(node.operand)
    return len(seen)


def test_derivative_of_self_shared_dag_stays_linear():
    depth = 18
    f = Call("sin", Var("x"))
    for _ in range(depth):
        f = BinOp("*", f, f)
    assert unique_nodes(f) == depth + 2
    df = differentiate(f, "x")
    assert unique_nodes(df) <= 6 * depth
    # f = sin(x)^(2^depth), so df/dx = 2^depth f cos(x) / sin(x)
    ev = PointEvaluator(("x",), (0.5,))
    want = 2.0**depth * ev.value(f) * math.cos(0.5) / math.sin(0.5)
    assert ev.value(df) == pytest.approx(want, rel=1e-9)


def test_system_memo_returns_one_tree_per_node(driftless):
    alg = driftless.algebroid
    S = driftless.semispray()
    first = alg.derivative(S.components[0], "u1")
    assert alg.derivative(S.components[0], "u1") is first


def test_sode_flow_reads_the_one_base_velocity(heisenberg):
    alg = heisenberg.algebroid
    S = heisenberg.semispray()
    assert alg.base_velocity is alg.base_velocity
    flow = sode_flow(alg, S)
    assert [name for name, _ in flow] == list(alg.base_coords + alg.fiber_coords)
    assert all(flow[i][1] is alg.base_velocity[i] for i in range(alg.n))
    assert all(flow[alg.n + a][1] is S.components[a] for a in range(alg.m))


def test_sode_derivative_of_a_constant_is_zero_without_a_memo_entry(driftless):
    alg = driftless.algebroid
    before = len(alg._derivatives)
    assert sode_derivative_expr(alg, driftless.semispray(), Num(3.0)) is ZERO
    assert len(alg._derivatives) == before


def test_semispray_components_share_their_right_hand_sides():
    cfg = algmech.config.load_config(GOLDEN / "dense-4.json")
    # one force - drift - twist tree per b, shared by all m components
    assert unique_nodes(*cfg.semispray().components) == 418


def fixture_file(tmp_path, name="driftless"):
    path = tmp_path / f"{name}.json"
    path.write_bytes(
        resources.files("algmech").joinpath(f"fixtures/{name}.json").read_bytes()
    )
    return path


def counting(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_report_builds_semispray_and_connection_once(tmp_path, capsys, monkeypatch):
    counts: dict = {}
    counting(monkeypatch, algmech.config, "canonical_semispray", counts)
    for module in (algmech.config, algmech.symmetry):
        counting(monkeypatch, module, "canonical_connection", counts)
    path = fixture_file(tmp_path)
    assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert counts == {"canonical_semispray": 1, "canonical_connection": 1}


def test_one_evaluator_per_point(driftless, monkeypatch):
    made = []

    class Counted(PointEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(algmech.algebroid, "PointEvaluator", Counted)
    alg = driftless.algebroid
    p = EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])
    geometry_frame(alg, driftless.semispray(), driftless.connection(), p)
    assert len(made) == 1
    assert alg.evaluator(p) is made[0]
    # another point object replaces the slot, even with equal coordinates
    q = EvalPoint.of(p.x, p.y)
    assert alg.evaluator(q) is not made[0]
    assert alg.evaluator(p) is not made[0]


def test_report_takes_second_order_jets_only_of_the_lagrangian(
    tmp_path, capsys, monkeypatch
):
    # the walker recurses internally, so jet() sees top-level requests only
    asked = []
    real = PointEvaluator.jet

    def recording(self, e):
        asked.append(e)
        return real(self, e)

    monkeypatch.setattr(PointEvaluator, "jet", recording)
    path = fixture_file(tmp_path, "heisenberg")
    assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    L = algmech.config.load_config(path).lagrangian
    assert asked, "the fiber metric reads the Hessian of L"
    # every request is for the one tree of the report's Lagrangian
    assert len({id(e) for e in asked}) == 1
    assert asked[0] == L.expr


def test_directional_derivative_of_a_constant_evaluates_nothing(driftless):
    alg = driftless.algebroid
    ev = PointEvaluator(alg.coords, (0.5, 1.0, 0.0, 1.0, 2.0))
    ax, av = np.ones(alg.m), np.ones(alg.m)
    assert directional_derivative(alg, ev, ax, av, Num(3.0)) == 0.0
    assert not ev._jet1s and not ev._jets and not ev._floats and not ev._arrays
    f = parse_expression("x1*u2", alg.coords)
    assert directional_derivative(alg, ev, ax, av, f) != 0.0
    assert ev._jet1s and not ev._jets


def test_pairing_trees_are_built_once_per_lagrangian(driftless):
    alg, L = driftless.algebroid, driftless.lagrangian
    assert cartan_pairing_exprs(alg, L) is cartan_pairing_exprs(alg, L)
    other = algmech.config.load_config(
        resources.files("algmech").joinpath("fixtures/driftless.json")
    )
    with pytest.raises(ValueError):
        cartan_pairing_exprs(other.algebroid, L)


def test_adjugate_shares_its_minors():
    k = 7
    names = [f"a{i}{j}" for i in range(k) for j in range(k)]
    mat = [[Var(f"a{i}{j}") for j in range(k)] for i in range(k)]
    inv, det = matrix_inverse_exprs(mat)
    # a plain Laplace expansion builds about e * 6! nodes per cofactor
    # (140,698 unique nodes in all here); shared minors stay O(k^2 2^k)
    assert unique_nodes(*(c for row in inv for c in row)) <= k * k * 2**k
    values = np.random.default_rng(3).uniform(-1.0, 1.0, size=(k, k)) + 3.0 * np.eye(k)
    ev = PointEvaluator(names, values.ravel())
    got = np.array([[ev.value(c) for c in row] for row in inv])
    assert np.max(np.abs(got - np.linalg.inv(values))) <= 1e-12
    assert ev.value(det) == pytest.approx(np.linalg.det(values), rel=1e-12)
