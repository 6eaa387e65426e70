"""Pinned library outputs that the golden reports do not reach.

The reports never call the Berwald four-bracket formula, ``curvature_apply``,
the Lie or covariant derivative of h, v or F, or the Cartan converse, and
their systems all have a constant anchor.  This module evaluates those on a
rank-3 system whose anchor, structure function and fiber metric depend on x,
under the canonical and an arbitrary connection, at two points, and compares
the JSON dump of every number byte for byte (so -0.0 is not 0.0) with
``tests/golden/library-rank3.json``.

Re-baseline only for an intended change: keep a copy of the pinned file,
regenerate it, and list every moved number in CHANGES.md with the table of
``tools/numdiff.py``::

    cp tests/golden/library-rank3.json /tmp/library-rank3.old.json
    PYTHONPATH=src python tests/test_pinned_library.py
    python tools/numdiff.py /tmp/library-rank3.old.json tests/golden/library-rank3.json
"""

import json
from pathlib import Path

import numpy as np

from algmech.algebroid import BaseSection
from algmech.config import parse_config
from algmech.connection import (
    Connection,
    berwald_connection,
    curvature_apply,
    f_tensor,
    geometry_frames,
    h_tensor,
    nabla_tensor,
    v_tensor,
)
from algmech.expr import parse_expression, to_source
from algmech.jets import EvalPoint
from algmech.prolongation import (
    ProlongationSection,
    complete_lift,
    j_tensor,
    lie_derivative_tensor,
)
from algmech.symmetry import (
    cartan_from_conservation,
    cartan_symmetry_check,
    invariant_equation_residual,
    lie_symmetry_check,
    newtonoid_check,
)

PINNED = Path(__file__).resolve().parent / "golden" / "library-rank3.json"

# the tangent bundle of R^3 in the frame d1, d2 + x1^2 d3, d3, so that
# [e1, e2] = 2 x1 e3; the fiber metric depends on x1 and x2
RAW = {
    "name": "twisted-heisenberg",
    "base_dim": 3,
    "fiber_rank": 3,
    "base_coords": ["x1", "x2", "x3"],
    "fiber_coords": ["y1", "y2", "y3"],
    "anchor": [["1", "0", "0"], ["0", "1", "0"], ["0", "x1^2", "1"]],
    "structure": [{"alpha": 1, "beta": 2, "gamma": 3, "expr": "2*x1"}],
    "lagrangian": "0.5*(1+x1^2)*y1^2+0.5*y2^2+0.5*exp(0.3*x2)*y3^2+0.1*x3*y1*y3",
}
POINTS = (
    EvalPoint.of([0.4, -0.7, 1.1], [0.9, -1.3, 0.6]),
    EvalPoint.of([-1.2, 0.3, 0.5], [-0.5, 0.8, 1.7]),
)


def _parse(cfg, src):
    return parse_expression(src, cfg.algebroid.coords)


def _section(cfg, xs, vs):
    return ProlongationSection(
        tuple(_parse(cfg, s) for s in xs), tuple(_parse(cfg, s) for s in vs)
    )


def _arbitrary(cfg) -> Connection:
    ys = cfg.algebroid.fiber_coords
    rows = tuple(
        tuple(
            _parse(cfg, f"{0.2 + 0.1 * a - 0.05 * b}*{ys[b]}+{0.1 * (a + 1)}*x{a + 1}*{ys[a]}")
            for b in range(3)
        )
        for a in range(3)
    )
    return Connection(rows, canonical=False)


def _arrays(*arrays) -> list:
    return [np.asarray(a).tolist() for a in arrays]


def _one(*arrays) -> list:
    """Arrays over a batch of one, its sample axis dropped."""
    return _arrays(*(a[0] for a in arrays))


def compute() -> dict:
    cfg = parse_config(RAW)
    alg, S, L = cfg.algebroid, cfg.semispray(), cfg.lagrangian
    A = _section(cfg, ["y1*x2", "sin(x1)+y3", "x3*y2"], ["x1*y1^2", "1+y2", "cos(x3)*y1"])
    B = _section(cfg, ["1+x2^2", "y1*y2", "x1"], ["y3", "x2*y1", "exp(0.2*x1)"])
    Ssec = S.section(alg)
    Xt = BaseSection.define(alg, [_parse(cfg, s) for s in ("x2", "1-x1", "x1*x3")])
    lift = complete_lift(alg, Xt)
    out: dict = {
        "complete_lift": [to_source(c) for c in lift.x_comps + lift.v_comps],
        "points": [],
    }
    f = _parse(cfg, "y3*exp(0.3*x2)+0.1*x3*y1")
    batch = alg.sample_evaluator(POINTS)
    rec = cartan_from_conservation(alg, L, f, batch, 1e-9)
    out["cartan_from_conservation"] = {
        "sections": [_arrays(x, v) for x, v in rec.sections],
        "two_section_max": rec.two_section_max,
        "energy_max": rec.energy_max,
    }
    out["cartan_symmetry_check"] = cartan_symmetry_check(alg, L, A, batch, 1e-9).components
    for N in (cfg.connection(), _arbitrary(cfg)):
        key = "canonical" if N.canonical else "arbitrary"
        out[f"lie_symmetry_check_{key}"] = lie_symmetry_check(alg, S, Xt, batch, 1e-9, N).components
        out[f"newtonoid_check_{key}"] = newtonoid_check(alg, S, A, batch, 1e-9, N).components
    for k, p in enumerate(POINTS):
        ev = alg.evaluator(p)
        row: dict = {"complete_lift": _one(*lift.values_at(ev))}
        for N in (cfg.connection(), _arbitrary(cfg)):
            key = "canonical" if N.canonical else "arbitrary"
            tensors = {
                "J": j_tensor(alg.m),
                "h": h_tensor(alg, N),
                "v": v_tensor(alg, N),
                "F": f_tensor(alg, N),
            }
            row[key] = {
                "berwald": {
                    "A,B": _one(*berwald_connection(alg, N, A, B, ev)),
                    "S,A": _one(*berwald_connection(alg, N, Ssec, A, ev)),
                    "B,S": _one(*berwald_connection(alg, N, B, Ssec, ev)),
                },
                "curvature_apply": {
                    "A,B": _one(curvature_apply(alg, N, A, B, ev)),
                    "S,B": _one(curvature_apply(alg, N, Ssec, B, ev)),
                },
                "nabla_tensor": {
                    k: _one(nabla_tensor(alg, S, N, T, ev))
                    for k, T in tensors.items()
                },
                "lie_derivative_tensor": {
                    k: _one(lie_derivative_tensor(alg, Ssec, T, ev))
                    for k, T in tensors.items()
                },
                "invariant_equation_residual": _one(
                    invariant_equation_residual(alg, S, A, ev, N)
                ),
                "geometry_frame": geometry_frames(alg, S, N, batch)[k].to_dict(),
            }
        out["points"].append(row)
    return out


def dump(out: dict) -> str:
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_library_outputs_match_pinned():
    assert dump(compute()) == PINNED.read_text()


if __name__ == "__main__":
    PINNED.write_text(dump(compute()))
    print(f"wrote {PINNED}")
