"""Derived trees are built once per system and evaluated once per point.

These tests pin the sharing itself (node counts, constructor calls,
evaluator instances), not any value; the golden reports pin the values.
"""

import math
from importlib import resources

import pytest

import algmech.algebroid
import algmech.config
import algmech.symmetry
from algmech.cli import main
from algmech.connection import geometry_frame
from algmech.expr import BinOp, Call, Neg, Var, differentiate
from algmech.jets import EvalPoint, PointEvaluator


def unique_nodes(root) -> int:
    seen = set()
    stack = [root]
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
