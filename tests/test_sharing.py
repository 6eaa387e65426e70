"""Derived trees are built once per system and evaluated once per point,
and only to the order their callers read.

These tests pin the sharing itself (node counts, constructor calls,
evaluator instances, jet orders), not any value; the golden reports pin the
values.
"""

import dataclasses
import json
import math
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import algmech.algebroid
import algmech.cli
import algmech.config
import algmech.connection
import algmech.prolongation
import algmech.symmetry
from algmech.cli import main
from algmech.report import build_report
from algmech.connection import f_tensor, geometry_frames, nabla_tensor
from algmech.expr import (
    ZERO, BinOp, Call, Neg, Num, Solve, System, Var, differentiate, e_mul, parse_expression, postorder,
)
from algmech.jets import EvalPoint, SampleEvaluator
from algmech.lagrangian import cartan_pairing_exprs
from algmech.prolongation import complete_lift, directional_derivative, sode_derivative_expr, sode_flow
from algmech.symmetry import invariant_equation_residual, lie_symmetry_check, newtonoid_check

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import synth  # noqa: E402


def unique_nodes(*roots) -> int:
    """The number of distinct node objects under ``roots``."""
    seen: set = set()
    for root in roots:
        seen.update(map(id, postorder(root, seen)))
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
    ev = SampleEvaluator(("x",), [EvalPoint.of([0.5], ())])
    want = 2.0**depth * ev.value(f)[0] * math.cos(0.5) / math.sin(0.5)
    assert ev.value(df)[0] == pytest.approx(want, rel=1e-9)


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
    flow = iter(sode_flow(alg, driftless.semispray()))
    assert alg.derivative_along(Num(3.0), flow) is ZERO
    assert next(flow)[0] == alg.base_coords[0]  # no pair was read
    assert len(alg._derivatives) == before


def test_semispray_components_share_their_right_hand_sides():
    cfg = algmech.config.load_config(GOLDEN / "dense-4.json")
    # one force - drift - twist tree per b and the metric trees, in the one
    # system that all m components solve
    S = cfg.semispray().components
    assert len({id(c.system) for c in S}) == 1
    assert unique_nodes(*S) == 194


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


@pytest.mark.parametrize("name", ["driftless", "abelian", "heisenberg"])
def test_report_and_geometry_make_no_point_evaluator(tmp_path, capsys, monkeypatch, name):
    points = record_point_evaluators(monkeypatch)
    path = fixture_file(tmp_path, name)
    assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    frame = json.loads((tmp_path / "r.json").read_text())["geometry"][0]["point"]
    at = f"x={','.join(map(repr, frame['x']))},y={','.join(map(repr, frame['y']))}"
    assert main(["geometry", "--config", str(path), "--at", at, "--output", str(tmp_path / "g.json")]) == 0
    assert points == []


def test_frame_arrays_are_read_only(driftless):
    """A frame's arrays are slices of the batch's memo, which every later
    reader of that evaluator gets too."""
    alg = driftless.algebroid
    ev = alg.sample_evaluator([EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0])])
    (frame,) = geometry_frames(alg, driftless.semispray(), driftless.connection(), ev)
    for values in (frame.connection, frame.almost_complex):
        with pytest.raises(ValueError):
            values[0, 0] = 0.0


def test_report_takes_no_second_order_jet(tmp_path, capsys, monkeypatch):
    # the fiber metric is read from the trees of L.metric_exprs over the
    # batch, not from the jets of L or of dL/dy, whose gradients are the
    # second partials of L
    asked, configs = [], []
    real_jet, real_load = SampleEvaluator.jet, algmech.cli.load_config

    def recording(self, e):
        asked.append(e)
        return real_jet(self, e)

    def keep(path):
        configs.append(real_load(path))
        return configs[-1]

    monkeypatch.setattr(SampleEvaluator, "jet", recording)
    monkeypatch.setattr(algmech.cli, "load_config", keep)
    for name in ("driftless", "abelian", "heisenberg"):
        path = fixture_file(tmp_path, name)
        assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    second = {id(t) for cfg in configs for t in (cfg.lagrangian.expr, *cfg.lagrangian.dy)}
    assert asked and len(configs) == 3 and not second & {id(e) for e in asked}


def test_directional_derivative_of_a_constant_evaluates_nothing(driftless):
    alg = driftless.algebroid
    ev = alg.evaluator(EvalPoint.of([0.5, 1.0, 0.0], [1.0, 2.0]))
    ax, av = np.ones((1, alg.m)), np.ones((1, alg.m))
    assert directional_derivative(alg, ev, ax, av, (Num(3.0),)).tolist() == [[0.0]]
    assert not ev._jets and not ev._floats and not ev._arrays
    f = parse_expression("x1*u2", alg.coords)
    assert directional_derivative(alg, ev, ax, av, (f,))[0, 0] != 0.0
    assert ev._jets


def test_pairing_trees_are_built_once_per_lagrangian(driftless):
    alg, L = driftless.algebroid, driftless.lagrangian
    assert cartan_pairing_exprs(alg, L) is cartan_pairing_exprs(alg, L)
    other = algmech.config.load_config(
        resources.files("algmech").joinpath("fixtures/driftless.json")
    )
    with pytest.raises(ValueError):
        cartan_pairing_exprs(other.algebroid, L)


@pytest.mark.parametrize("m", [6, 8, 10])
def test_semispray_and_connection_grow_at_most_as_m4(m):
    """Dense-metric rank m: S and N together have at most m^4 unique nodes.
    A solve shares one system per derivative, where the Laplace adjugate's
    2^m shared minors gave 3,025, 14,811 and 79,533 nodes at m = 6, 8, 10."""
    cfg = algmech.config.parse_config(synth.system("dense", m, 20261018))
    S = cfg.semispray().components
    N = [c for row in cfg.connection().coeffs for c in row]
    assert unique_nodes(*S, *N) <= m**4


def test_symmetry_walks_each_semispray_component_once(tmp_path, capsys, monkeypatch):
    """Every check and candidate of a symmetry run shares one evaluator over
    the sample set, so each tree is walked once per sample set."""
    built: dict = {}
    real = algmech.config.canonical_semispray

    def capture(*args):
        built["S"] = real(*args)
        return built["S"]

    monkeypatch.setattr(algmech.config, "canonical_semispray", capture)
    evaluators = []
    walks: Counter = Counter()

    class Counted(SampleEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

        def _walk_value(self, e):
            walks["value", id(e)] += id(e) not in self._floats
            return super()._walk_value(e)

        def _walk_jet(self, e):
            walks["jet", id(e)] += id(e) not in self._jets
            return super()._walk_jet(e)

    monkeypatch.setattr(algmech.algebroid, "SampleEvaluator", Counted)
    points = record_point_evaluators(monkeypatch)
    path = fixture_file(tmp_path, "heisenberg")
    assert main(["symmetry", "--config", str(path)]) == 0
    assert len(evaluators) == 1 and points == []
    for c in built["S"].components:
        assert walks["value", id(c)] == 1
        assert walks["jet", id(c)] == 1


def test_nabla_builds_no_node(heisenberg, monkeypatch):
    """Once T's frame images exist, nabla_tensor builds no node, at a first
    point as at a second, and neither does newtonoid_check's projection."""
    alg = heisenberg.algebroid
    S, N = heisenberg.semispray(), heisenberg.connection()
    T = f_tensor(alg, N)
    T.frame_images, S.section(alg)  # noqa: B018 - built before counting
    A = next(c.section for c in heisenberg.candidates if c.kind == "prolongation_section")
    p, q = heisenberg.sample_points(count=2)
    built = count_built_nodes(monkeypatch)
    first = nabla_tensor(alg, S, N, T, alg.evaluator(p))
    second = nabla_tensor(alg, S, N, T, alg.evaluator(q))
    newtonoid_check(alg, S, A, alg.sample_evaluator([p, q]), 1e-9, N)
    assert built == []
    assert not np.array_equal(first, second)
    f_tensor(alg, N).frame_images  # noqa: B018 - another tensor object: new trees
    assert built


def test_report_takes_one_covariant_derivative_per_sample_evaluator(tmp_path, capsys, monkeypatch):
    """The Jacobi endomorphism, nabla J, the Newtonoid projection and both
    invariant forms share the one CovariantDerivative of their evaluator:
    a report makes two, one per sample evaluator."""
    made = []
    real = algmech.connection.CovariantDerivative.__init__

    def recording(self, alg, S, N, ev):
        made.append(ev)
        real(self, alg, S, N, ev)

    monkeypatch.setattr(algmech.connection.CovariantDerivative, "__init__", recording)
    path = fixture_file(tmp_path, "heisenberg")
    assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert len(made) == 2


@pytest.mark.parametrize("check", ["lie", "invariant"])
def test_second_covariant_derivative_builds_no_nabla_tree(monkeypatch, check):
    """nabla^2 is numeric: on a dense rank-6 system whose connection exists,
    a first Lie check of a base section, or a first invariant residual of
    its complete lift, builds at most 10 m nodes (the S(c) trees, the lift
    and the slash), where applying nabla-coefficient trees twice built
    thousands."""
    m = 6
    raw = synth.system("dense", m, 20261018)
    components = ["sin(x2)", "x1*x3"] + ["1"] * (m - 2)
    raw["candidates"].append({"kind": "base_section", "name": "t", "components": components})
    cfg = algmech.config.parse_config(raw)
    alg, S, N = cfg.algebroid, cfg.semispray(), cfg.connection()
    Xt = cfg.candidates[-1].base
    points = cfg.sample_points()
    A = complete_lift(alg, Xt)
    built = count_built_nodes(monkeypatch)
    if check == "lie":
        lie_symmetry_check(alg, S, Xt, alg.sample_evaluator(points), 1e-9, N)
    else:
        invariant_equation_residual(alg, S, A, alg.evaluator(points[0]), N)
    assert 0 < len(built) <= 10 * m


def test_report_sweeps_share_one_sample_evaluator(tmp_path, capsys, monkeypatch):
    """A report makes exactly one sample evaluator for its sweeps, in
    ``build_report``, which validation, the spray test and the symmetry
    checks sweep, and one for its frames, over their points."""
    makers = []

    class Counted(SampleEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            # the frame above Algebroid.sample_evaluator asked for it
            makers.append(sys._getframe(2).f_code.co_name)

    monkeypatch.setattr(algmech.algebroid, "SampleEvaluator", Counted)
    path = fixture_file(tmp_path, "heisenberg")
    assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert makers == ["build_report", "frames_with_reference"]


def test_the_system_keeps_no_evaluator(tmp_path):
    """After a report and a geometry frame, no attribute of the system holds
    an evaluator, alone or in a tuple; each call makes a new one."""
    cfg = algmech.config.load_config(fixture_file(tmp_path, "driftless"))
    alg, p = cfg.algebroid, cfg.sample_points()[0]
    build_report(cfg)
    geometry_frames(alg, cfg.semispray(), cfg.connection(), alg.sample_evaluator([p]))
    assert alg.evaluator(p) is not alg.evaluator(p)
    assert alg.sample_evaluator([p]) is not alg.sample_evaluator([p])
    held = [
        name
        for name, value in vars(cfg.algebroid).items()
        for item in (value, *(value if isinstance(value, tuple) else ()))
        if isinstance(item, SampleEvaluator)
    ]
    assert held == []


def record_point_evaluators(monkeypatch) -> list:
    """The points that ``Algebroid.evaluator`` is asked for from here on."""
    points: list = []
    real = algmech.algebroid.Algebroid.evaluator

    def recording(self, p):
        points.append(p)
        return real(self, p)

    monkeypatch.setattr(algmech.algebroid.Algebroid, "evaluator", recording)
    return points


def test_validate_makes_no_point_evaluator(monkeypatch):
    points = record_point_evaluators(monkeypatch)
    cfg = algmech.config.load_config(
        resources.files("algmech").joinpath("fixtures/heisenberg.json")
    )
    alg = cfg.algebroid
    assert alg.validate(alg.sample_evaluator(cfg.sample_points()), cfg.tolerance).passed
    assert points == []


def count_built_nodes(monkeypatch) -> list:
    """The class names of the tree nodes built from here on."""
    built: list = []

    def counting(init):
        def wrapper(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return wrapper

    for cls in (Num, Var, Neg, BinOp, Call, System, Solve):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    return built


def test_geometry_frames_build_no_tree_in_a_second_batch(heisenberg, monkeypatch):
    alg = heisenberg.algebroid
    S, N = heisenberg.semispray(), heisenberg.connection()
    p, q, r, s = heisenberg.sample_points(count=4)
    first = [f.jacobi for f in geometry_frames(alg, S, N, alg.sample_evaluator([p, q]))]
    built = count_built_nodes(monkeypatch)
    second = [f.jacobi for f in geometry_frames(alg, S, N, alg.sample_evaluator([r, s]))]
    assert built == []
    assert not np.array_equal(first, second)


def test_lie_check_builds_the_canonical_connection_once(heisenberg, monkeypatch):
    """With no connection given, the Lie check takes the canonical one of
    the system and field, built once, as are the check's own trees: a second
    check builds no node."""
    alg, S = heisenberg.algebroid, heisenberg.semispray()
    Xt = next(c.base for c in heisenberg.candidates if c.kind == "base_section")
    ev = alg.sample_evaluator(heisenberg.sample_points(count=2))
    first = lie_symmetry_check(alg, S, Xt, ev, 1e-9)
    built = count_built_nodes(monkeypatch)
    second = lie_symmetry_check(alg, S, Xt, ev, 1e-9)
    assert built == []
    assert second.components == first.components


def test_report_anchors_each_gradient_once(tmp_path, capsys, monkeypatch):
    """Over a whole report, sigma^T d_x f is taken once per evaluator and
    tree: a tree's gradient is one object per evaluator (its jet memo), and
    ``Algebroid.anchored`` sees each (evaluator, gradient) pair once."""
    seen: Counter = Counter()
    kept = []  # keeps every id unique while counting
    real = algmech.algebroid.Algebroid.anchored

    def recording(self, ev, g):
        kept.append((ev, g))
        seen[id(ev), id(g)] += 1
        return real(self, ev, g)

    monkeypatch.setattr(algmech.algebroid.Algebroid, "anchored", recording)
    path = fixture_file(tmp_path, "heisenberg")
    assert main(["report", "--config", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert seen and max(seen.values()) == 1


def test_sample_evaluator_hands_out_one_read_only_object_per_node(heisenberg):
    alg = heisenberg.algebroid
    ev = alg.sample_evaluator(heisenberg.sample_points(count=3))
    f = parse_expression("sin(x1)*y2 + x2", alg.coords)
    for e in (f, f.left):  # the root, then a node its walk computed
        assert ev.value(e) is ev.value(e)
        assert ev.jet(e) is ev.jet(e)
        for handed_out in (ev.value(e), ev.jet(e).value, ev.jet(e).grad):
            with pytest.raises(ValueError):
                handed_out[0] = 0.0


@pytest.mark.parametrize("batch", [False, True])
def test_section_values_are_the_evaluators_arrays(heisenberg, batch):
    alg, A = heisenberg.algebroid, heisenberg.semispray().section(heisenberg.algebroid)
    p, q = heisenberg.sample_points(count=2)
    ev = alg.sample_evaluator([p, q]) if batch else alg.evaluator(p)
    x, v = A.values_at(ev)
    assert x is ev.array(A.x_comps) and v is ev.array(A.v_comps)
    assert A.values_at(ev)[0] is x


def test_anchored_gradients_are_kept_per_system(driftless):
    """One evaluator read by two systems on the same coordinates keeps an
    anchored gradient for each: the memo key names the system."""
    alg = driftless.algebroid
    doubled = dataclasses.replace(
        alg, anchor=tuple(tuple(e_mul(Num(2.0), e) for e in row) for row in alg.anchor)
    )
    ev = alg.sample_evaluator(driftless.sample_points(count=3))
    f = parse_expression("x1*x2 + x3", alg.coords)
    gx, gy = alg.anchored_gradient(ev, f)
    dx, dy = doubled.anchored_gradient(ev, f)
    assert np.array_equal(dx, 2.0 * gx) and not np.array_equal(dx, gx)
    assert np.array_equal(dy, gy) and alg.anchored_gradient(ev, f)[0] is gx


def test_diag8_report_brackets_against_the_whole_frame_at_once(tmp_path, capsys, monkeypatch):
    """A frame-wide bracket is one call: the curvature oracle makes m, the
    Jacobi oracle, -L_S J and each Cartan check one or two; one call per
    pair made 123 here."""
    counts: dict = {}
    for module in (algmech.prolongation, algmech.connection, algmech.symmetry):
        counting(monkeypatch, module, "bracket", counts)
    path = synth.write_system(tmp_path, "diag", 8, 20261018)
    assert main(["report", "--config", str(path), "--format", "md", "--output", str(tmp_path / "r.md")]) == 0
    assert 0 < counts["bracket"] <= 16


def test_validate_takes_no_dot_for_zero_structure_and_a_constant_anchor(monkeypatch):
    """Every flow, product, Lie and rhs term of such a system is a
    structural zero, so validation takes no (P, m, m, m, m) inner product;
    it takes none at all."""
    shapes = []
    real = algmech.algebroid.inner

    def recording(x, y):
        shapes.append(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        return real(x, y)

    monkeypatch.setattr(algmech.algebroid, "inner", recording)
    cfg = algmech.config.parse_config(synth.system("diag", 4, 20261018))
    alg = cfg.algebroid
    ev = alg.sample_evaluator(cfg.sample_points())
    assert alg.validate(ev, tol=1e-9).passed
    assert shapes == []
