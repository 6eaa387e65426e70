"""Frame-change oracle: the semispray, the Jacobi endomorphism, the energy and
the verdicts do not depend on the fiber frame.

Each system is rebuilt in code in the constant fiber frame e~_a = A^b_a e_b,
so that y = A y~ (a metamorphic relation: Chen et al., "Metamorphic testing: a
review of challenges and opportunities", ACM Comput. Surv. 2018):

* anchor     sigma~ = sigma A,
* structure  L~^a_bc = (A^-1)^a_d L^d_ef A^e_b A^f_c,
* Lagrangian L~(x, y~) = L(x, A y~), by substitution into the parsed tree.

At corresponding points (x, y~ = A^-1 y) the rebuilt system must give
S~ = A^-1 S, a Jacobi endomorphism that transforms as a (1,1)-tensor, the
same energy, and the same spray and conservation verdicts.  No second
implementation is involved, so the relation holds through a re-baseline.
"""

from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from algmech.algebroid import Algebroid
from algmech.config import load_config
from algmech.connection import canonical_connection, jacobi_endomorphism
from algmech.expr import BinOp, Call, Neg, Num, Var, ZERO, e_mul, e_sum, postorder
from algmech.jets import EvalPoint
from algmech.lagrangian import Lagrangian, canonical_semispray
from algmech.prolongation import spray_test
from algmech.symmetry import conservation_check

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = {
    **{
        name: resources.files("algmech").joinpath(f"fixtures/{name}.json")
        for name in ("driftless", "abelian", "heisenberg")
    },
    "dense-4": GOLDEN / "dense-4.json",
    "diag-8": GOLDEN / "diag-8.json",
}
SEEDS = (1, 2, 3)


def frame_matrix(m: int, seed: int) -> np.ndarray:
    """A seeded constant frame change: an orthogonal matrix times a diagonal
    of entries 0.5..2 in size with random signs, so cond(A) <= 4."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return q * (rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m))


def substitute(e, trees: dict):
    """``e`` with every variable named in ``trees`` replaced by its tree."""
    done: dict = {}
    for n in postorder(e, done):
        t = type(n)
        if t is BinOp:
            r = BinOp(n.op, done[id(n.left)][1], done[id(n.right)][1])
        elif t is Neg:
            r = Neg(done[id(n.operand)][1])
        elif t is Call:
            r = Call(n.func, done[id(n.operand)][1])
        elif t is Var:
            r = trees.get(n.name, n)
        else:
            r = n
        done[id(n)] = (n, r)
    return done[id(e)][1]


def changed_frame(cfg, A: np.ndarray):
    """The system of ``cfg`` rebuilt in the frame A: (algebroid, Lagrangian,
    the substitution y -> A y~ for functions of the old coordinates)."""
    alg, m = cfg.algebroid, cfg.algebroid.m
    Ainv = np.linalg.inv(A)
    coef = A.tolist()
    anchor = tuple(
        tuple(e_sum(e_mul(alg.anchor[i][b], Num(coef[b][a])) for b in range(m)) for a in range(m))
        for i in range(alg.n)
    )
    structure = tuple(
        tuple(
            tuple(
                e_sum(
                    e_mul(Num(float(Ainv[a, d] * A[e, b] * A[f, c])), alg.structure[e][f][d])
                    for d in range(m)
                    for e in range(m)
                    for f in range(m)
                    if alg.structure[e][f][d] is not ZERO
                )
                for a in range(m)
            )
            for c in range(m)
        )
        for b in range(m)
    )
    new = Algebroid(alg.base_coords, alg.fiber_coords, anchor, structure)
    ys = [Var(c) for c in alg.fiber_coords]
    trees = {
        alg.fiber_coords[b]: e_sum(e_mul(Num(coef[b][a]), ys[a]) for a in range(m))
        for b in range(m)
    }
    return new, Lagrangian.define(new, substitute(cfg.lagrangian.expr, trees)), trees


@cache
def original(name: str):
    """The system as configured, its semispray, connection and sample
    evaluator, shared by every frame change of it."""
    cfg = load_config(CONFIGS[name])
    S = canonical_semispray(cfg.algebroid, cfg.lagrangian)
    N = canonical_connection(cfg.algebroid, S)
    return cfg, S, N, cfg.algebroid.sample_evaluator(cfg.sample_points())


def close(got, want, tol: float) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) <= tol * (1.0 + float(np.max(np.abs(want))))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_frame_change(name, seed):
    cfg, S, N, ev = original(name)
    alg, L, tol = cfg.algebroid, cfg.lagrangian, cfg.tolerance
    A = frame_matrix(alg.m, seed)
    Ainv = np.linalg.inv(A)
    new, L2, trees = changed_frame(cfg, A)
    S2 = canonical_semispray(new, L2)
    N2 = canonical_connection(new, S2)
    ev2 = new.sample_evaluator([EvalPoint.of(p.x, Ainv @ np.array(p.y)) for p in ev.points])
    # component columns carry the sample axis first: y~ = A^-1 y is y @ A^-T
    s_vals = ev.values_of(S.components)
    assert close(ev2.values_of(S2.components), s_vals @ Ainv.T, 1e-12)
    assert close(ev2.value(L2.energy_expr), ev.value(L.energy_expr), 1e-12)
    # R[b][g] acts on component columns as R^T, a (1,1)-tensor: R~^T = A^-1 R^T A
    R, R2 = jacobi_endomorphism(alg, S, N, ev), jacobi_endomorphism(new, S2, N2, ev2)
    assert close(np.swapaxes(R2, 1, 2), Ainv @ np.swapaxes(R, 1, 2) @ A, 1e-10)

    assert spray_test(new, S2, ev2, tol).is_spray == spray_test(alg, S, ev, tol).is_spray
    functions = [c.function for c in cfg.candidates if c.kind == "conserved_function"]
    for f in [L.energy_expr, *functions]:
        got = conservation_check(new, S2, substitute(f, trees), ev2, tol).passed
        assert got == conservation_check(alg, S, f, ev, tol).passed
