"""The one home of the package's reductions and factorisations,
``algmech.linalg``: no other module makes one, a stacked call keeps the bits
of the call on each sample alone, and a report factorises its fiber metric
once."""

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import algmech.linalg as linalg
from algmech.config import load_config
from algmech.expr import Solve
from algmech.lagrangian import fiber_metric
from algmech.report import build_report

SRC = Path(__file__).resolve().parent.parent / "src" / "algmech"
GOLDEN = Path(__file__).resolve().parent / "golden"

# tokens that open a logical line: an ``@`` after one is a decorator
_LINE_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_NUMPY_REDUCTIONS = {"einsum", "matmul", "tensordot", "dot", "linalg"}


def reduction_sites(path: Path) -> list[str]:
    """``module:line: token`` for each binary ``@`` (or ``@=``) and each
    ``np.einsum``, ``np.matmul``, ``np.tensordot``, ``np.dot`` or
    ``np.linalg`` in the file."""
    with open(path, "rb") as fh:
        tokens = [
            t for t in tokenize.tokenize(fh.readline)
            if t.type not in (tokenize.NL, tokenize.COMMENT)
        ]
    sites = []
    for before, (dot, name) in zip(tokens, zip(tokens[1:], tokens[2:])):
        if name.type == tokenize.OP and name.string in ("@", "@=") and dot.type not in _LINE_START:
            sites.append(f"{path.stem}:{name.start[0]}: {name.string}")
        elif (before.string, dot.string) == ("np", ".") and name.string in _NUMPY_REDUCTIONS:
            sites.append(f"{path.stem}:{name.start[0]}: np.{name.string}")
    return sites


def test_reductions_live_in_linalg():
    sites = [s for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
             for s in reduction_sites(path)]
    assert sites == [], "reductions outside algmech.linalg:\n" + "\n".join(sites)


def test_linalg_imports_only_numpy_and_errors():
    """Of the package, linalg imports ``errors`` at most, and of what lies
    outside the standard library, numpy alone."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    imported = {
        ("." * n.level) + (n.module or "") if isinstance(n, ast.ImportFrom) else a.name
        for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
        for a in n.names
    }
    outside = {m for m in imported if m.split(".")[0] not in sys.stdlib_module_names}
    assert outside <= {"numpy", ".errors", "__future__"}, outside


def _stack(rng, P: int, *shape: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (P, *shape))


def _matrices(rng, P: int, m: int) -> np.ndarray:
    """P regular m-by-m matrices; every other one has two rows 1e-5 apart,
    so its inverse takes the Newton sweep."""
    g = _stack(rng, P, m, m) + m * np.eye(m)
    if m > 1:
        g[1::2, -1] = g[1::2, 0] + 1e-5 * _stack(rng, len(g[1::2]), m)
    return g


# the operands of each function for P samples at rank m
OPERANDS = {
    "inner": lambda r, P, m: (_stack(r, P, m), _stack(r, P, m)),
    "vecmat": lambda r, P, m: (_stack(r, P, m), _stack(r, P, m, m)),
    "matvec": lambda r, P, m: (_stack(r, P, m, m), _stack(r, P, m)),
    "matmul": lambda r, P, m: (_stack(r, P, 2 * m, 2 * m),) * 2,  # F @ F
    "a_b_abg": lambda r, P, m: (_stack(r, P, m), _stack(r, P, m), _stack(r, P, m, m, m)),
    "abe_eg": lambda r, P, m: (_stack(r, P, m, m, m), _stack(r, P, m, m)),
    "abe_b_e": lambda r, P, m: (_stack(r, P, m, m, m), _stack(r, P, m), _stack(r, P, m)),
    "e_ebg": lambda r, P, m: (_stack(r, P, m), _stack(r, P, m, m, m)),
    "inverse": lambda r, P, m: (_matrices(r, P, m),),
    "det": lambda r, P, m: (_matrices(r, P, m),),
    "cond": lambda r, P, m: (_matrices(r, P, m),),
}


@pytest.mark.parametrize("name", linalg.__all__)
def test_stacked_calls_keep_single_sample_bits(name):
    """For ranks 1 to 16 and 1, 2, 5 and 10 samples, sample p of a stacked
    call has the bits of the call on the operands' slice p alone, as a batch
    of one and (but for ``inverse``, which takes a stack) unstacked."""
    f, rng = getattr(linalg, name), np.random.default_rng(20261020)
    if name == "inverse":
        def f(g):
            inv, k = linalg.inverse(g)
            assert k == len(g)  # every matrix is regular
            return inv
    mismatches = []
    for m in range(1, 17):
        for P in (1, 2, 5, 10):
            ops = OPERANDS[name](rng, P, m)
            stacked = f(*ops)
            assert stacked.shape[0] == P
            for p in range(P):
                alone = [f(*(op[p : p + 1] for op in ops))[0]]
                if name != "inverse":
                    alone.append(f(*(op[p] for op in ops)))
                if any(np.asarray(a).tobytes() != stacked[p].tobytes() for a in alone):
                    mismatches.append((m, P, p))
    assert mismatches == []


@pytest.mark.parametrize("name", ["dense-4", "diag-8"])
def test_a_report_factorises_its_fiber_metric_once(monkeypatch, name):
    """One inverse and one condition number per report: the semispray's
    solve (dense-4 has one; diag-8's folds to quotients) and the validation
    read one factorisation of the fiber metric."""
    calls = Counter()

    def counting(fname, real):
        def counted(*args):
            calls[fname] += 1
            return real(*args)
        return counted

    for fname in ("inverse", "det", "cond"):
        monkeypatch.setattr(linalg, fname, counting(fname, getattr(linalg, fname)))
    build_report(load_config(GOLDEN / f"{name}.json"))
    assert calls == {"inverse": 1, "cond": 1}


def test_the_fiber_metric_is_the_inverse_the_solve_reads():
    cfg = load_config(GOLDEN / "dense-4.json")
    L, S = cfg.lagrangian, cfg.semispray()
    ev = cfg.algebroid.sample_evaluator(cfg.sample_points())
    system = S.components[0].system
    assert isinstance(S.components[0], Solve) and system.matrix is L.metric_exprs
    ev.values_of(S.components)
    rows = ev._inverse(system)[0]
    g, ginv, _ = fiber_metric(L, ev)
    m = cfg.algebroid.m
    for i in range(m):
        for j in range(m):
            assert ginv[:, i, j].tobytes() == rows[i][j][:, 0].tobytes()
    assert ginv.tobytes() == linalg.inverse(g)[0].tobytes()


@pytest.mark.parametrize("m", [2, 8, 64])
def test_singular_means_rcond_below_1e10_at_every_rank_and_scale(m):
    """diag(c, 1, ..., 1) has rcond_1 = 1 / c: regular at c = 1e9 and
    singular at 1e11 and 1e13, scaled by 1e-150 or 1e150 or not; the first
    matrix that is singular or not finite is the one named."""
    def diag(c):
        g = np.eye(m)
        g[0, 0] = c
        return g

    for scale in (1e-150, 1.0, 1e150):
        g = np.array([diag(1.0), diag(1e9), diag(1e11), diag(1e13)]) * scale
        inv, k = linalg.inverse(g)
        assert k == 2 and inv.shape == (2, m, m)
    assert linalg.inverse(np.array([diag(1e9), diag(1e13)]))[1] == 1
    exact = np.ones((m, m))  # an exact zero pivot: np.linalg.inv would raise
    for bad in (exact, diag(np.nan), diag(np.inf)):
        assert linalg.inverse(np.array([diag(2.0), bad, diag(1e13)]))[1] == 1
        assert linalg.inverse(np.array([diag(2.0), bad, exact]))[1] == 1
