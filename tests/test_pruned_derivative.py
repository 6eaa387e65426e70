"""Work only where a tree depends: a derivative walk enters no subtree that
lacks the variable, ``SampleEvaluator.array`` fills its constants in one
operation, and no sum over a zero structure is built.

Every derivative tree a report builds, and every entry of the system's
derivative memo, has the structure of the full walk's (this file keeps a
copy of that walk), signed zeros included; the memo holds far fewer entries
than the full walk's, a bound that does not depend on the host.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from algmech.algebroid import Algebroid
from algmech.config import parse_config
from algmech.expr import (
    FUNCTIONS, ONE, ZERO, BinOp, Call, Neg, Num, Solve, System, Var, e_add, e_div, e_dot, e_mul,
    e_neg, e_pow, e_sub, literal_value, postorder, solve, to_source,
)
from algmech.jets import EvalPoint, SampleEvaluator
from algmech.report import build_report

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_contraction import SEED, _config, synth  # noqa: E402

# cos(x1) and negated constants: some subtrees without a fiber variable
# differentiate to Num(-0.0), and dL/dx1 = -sin(x1) has y-derivatives that are
NEGATED = {
    "name": "negated",
    "base_dim": 2,
    "fiber_rank": 2,
    "base_coords": ["x1", "x2"],
    "fiber_coords": ["y1", "y2"],
    "anchor": [["1", "0"], ["x1", "1"]],
    "structure": [{"alpha": 1, "beta": 2, "gamma": 2, "expr": "-(0.5)*cos(x2)"}],
    "lagrangian": "0.5*(2+sin(x2))*y1^2 + 0.5*y2^2 - 0.1*x2*y1*y2 + cos(x1) - -(3*x2)",
}


def full_derivative(e, name: str, memo: dict):
    """The derivative walk that visits every node, kept as the reference."""
    done = memo.setdefault(name, {})
    for n in postorder(e, done):
        t = type(n)
        if t is BinOp:
            da, db, op = done[id(n.left)][1], done[id(n.right)][1], n.op
            if op == "+":
                r = e_add(da, db)
            elif op == "-":
                r = e_sub(da, db)
            elif op == "*":
                r = e_add(e_mul(da, n.right), e_mul(n.left, db))
            elif op == "/":
                r = e_div(e_sub(e_mul(da, n.right), e_mul(n.left, db)), e_mul(n.right, n.right))
            elif (c := literal_value(n.right)) is not None:
                r = e_mul(e_mul(n.right, e_pow(n.left, Num(c - 1.0))), da)
            else:
                log_term = e_mul(db, Call("ln", n.left))
                r = e_mul(n, e_add(log_term, e_div(e_mul(n.right, da), n.left)))
        elif t is Var:
            r = ONE if n.name == name else ZERO
        elif t is Num:
            r = ZERO
        elif t is Neg:
            r = e_neg(done[id(n.operand)][1])
        elif t is Solve:
            r = done[id(n.system)][1][n.index]
        elif t is System:
            dG = ([done[id(g)][1] for g in row] for row in n.matrix)
            dGx = (e_dot(zip(ds, n.solution)) for ds in dG)
            r = solve(n.matrix, [e_sub(done[id(b)][1], d) for b, d in zip(n.rhs, dGx)])
        else:
            r = FUNCTIONS[n.func].rule(n.operand, done[id(n.operand)][1])
        done[id(n)] = (n, r)
    return done[id(e)][1]


def fingerprint(e, table: dict, memo: dict) -> int:
    """One number per tree structure (a constant by its ``repr``, so -0.0 is
    not 0.0), in time linear in the DAG: two trees with one fingerprint
    print alike under ``to_source``."""
    for n in postorder(e, memo):
        t = type(n)
        if t is Num:
            key = ("Num", repr(n.value))
        elif t is Var:
            key = ("Var", n.name)
        elif t is System:
            key = ("System", len(n.rhs), *(memo[id(o)][1] for o in n.operands))
        elif t is Solve:
            key = ("Solve", n.index, memo[id(n.system)][1])
        elif t is BinOp:
            key = (n.op, memo[id(n.left)][1], memo[id(n.right)][1])
        else:
            key = (getattr(n, "func", "Neg"), memo[id(n.operand)][1])
        memo[id(n)] = (n, table.setdefault(key, len(table)))
    return memo[id(e)][1]


def _report_derivatives(monkeypatch, cfg_of):
    """The system and every (tree, name, derivative) that parsing and
    reporting it took."""
    calls, real = [], Algebroid.derivative

    def recording(alg, e, name):
        d = real(alg, e, name)
        calls.append((e, name, d))
        return d

    monkeypatch.setattr(Algebroid, "derivative", recording)
    cfg = cfg_of()
    build_report(cfg)
    return cfg.algebroid, calls


@pytest.mark.parametrize(
    "name", ["driftless", "abelian", "heisenberg", "rank3", "dense-4", "diag-8", "dense-16", "negated"]
)
def test_every_derivative_is_the_full_walks(name, monkeypatch):
    alg, calls = _report_derivatives(
        monkeypatch, lambda: parse_config(NEGATED) if name == "negated" else _config(name)
    )
    assert calls
    ref, table, fps = {}, {}, {}
    for e, var, d in calls:
        assert fingerprint(d, table, fps) == fingerprint(full_derivative(e, var, ref), table, fps)
    for var, done in alg._derivatives.items():
        for node, d in done.values():
            if type(node) is System:  # a tuple, one derivative per Solve
                continue
            assert fingerprint(d, table, fps) == fingerprint(ref[var][id(node)][1], table, fps)
    if name == "negated":  # a subtree without the variable whose derivative is -0.0, printed as the full walk's
        roots = [(e, var, d) for e, var, d in calls if d == ZERO and math.copysign(1.0, d.value) < 0]
        assert roots
        for e, var, d in calls:
            assert to_source(d) == to_source(full_derivative(e, var, {}))


@pytest.mark.parametrize("m, bound", [(16, 10_000), (32, 60_000)])
def test_derivative_memo_holds_only_nodes_with_the_variable(m, bound):
    """Entries of the derivative memo after parsing and reporting dense-m
    (41,904 and 298,336 when every walk entered every node)."""
    cfg = parse_config(synth.system("dense", m, SEED))
    build_report(cfg)
    assert sum(map(len, cfg.algebroid._derivatives.values())) <= bound


def test_constant_entries_keep_their_bits():
    ev = SampleEvaluator(("x",), [EvalPoint.of([0.5], []), EvalPoint.of([-2.0], [])])
    x = Var("x")
    out = ev.array(((Num(-0.0), Num(0.0)), (x, Num(-1.5))))
    assert out.shape == (2, 2, 2)
    for row in out:
        assert row.tobytes() == np.array([[-0.0, 0.0], [row[1, 0], -1.5]]).tobytes()
    assert out[:, 1, 0].tolist() == [0.5, -2.0]
    assert ev.array(()).shape == (2, 0)
