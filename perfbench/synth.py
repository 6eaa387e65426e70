"""Synthetic rank-m systems for the ``dense-rank`` and ``diag-rank`` workloads.

Both families live on R^m with the identity anchor and zero structure, so the
algebroid is the tangent bundle and every verdict follows from the form of
the Lagrangian, whatever the sample seed:

* dense:  L = 1/2 sum y_a^2 + 1/2 (sum sin(x_a) y_a)^2   (full fiber metric)
* diag:   L = 1/2 sum (2 + sin(x_a)) y_a^2                (diagonal metric)

L is quadratic in the fibers, so its energy y^a dL/dy^a - L equals L and is
conserved; ``y1`` is not conserved, and the dilation field x = 0, v = y is not
a dynamical symmetry.
"""

from __future__ import annotations

import json
from pathlib import Path

SAMPLE_COUNT = 10


def lagrangian(kind: str, m: int) -> str:
    ys = [f"y{a}" for a in range(1, m + 1)]
    xs = [f"x{a}" for a in range(1, m + 1)]
    if kind == "dense":
        kinetic = "+".join(f"{y}^2" for y in ys)
        twist = "+".join(f"sin({x})*{y}" for x, y in zip(xs, ys))
        return f"0.5*({kinetic})+0.5*({twist})^2"
    if kind == "diag":
        return "0.5*(" + "+".join(f"(2+sin({x}))*{y}^2" for x, y in zip(xs, ys)) + ")"
    raise ValueError(f"unknown family {kind!r}")


def system(kind: str, m: int, sample_seed: int) -> dict:
    """The config document of one synthetic system."""
    xs = [f"x{a}" for a in range(1, m + 1)]
    ys = [f"y{a}" for a in range(1, m + 1)]
    L = lagrangian(kind, m)
    return {
        "name": f"{kind}-{m}",
        "base_dim": m,
        "fiber_rank": m,
        "base_coords": xs,
        "fiber_coords": ys,
        "anchor": [["1" if i == a else "0" for a in range(m)] for i in range(m)],
        "structure": [],
        "lagrangian": L,
        "candidates": [
            {
                "kind": "conserved_function",
                "name": "energy",
                "expr": L,
                "expect": {"conserved": True},
            },
            {
                "kind": "conserved_function",
                "name": "first-fiber",
                "expr": "y1",
                "expect": {"conserved": False},
            },
            {
                "kind": "prolongation_section",
                "name": "dilation-field",
                "x": ["0"] * m,
                "v": ys,
                "expect": {"dynamical": False},
            },
        ],
        "samples": {"count": SAMPLE_COUNT, "seed": sample_seed, "box": {}},
        "tolerance": 1e-9,
    }


def write_system(directory: Path, kind: str, m: int, sample_seed: int) -> Path:
    path = Path(directory) / f"{kind}-{m}.json"
    path.write_text(json.dumps(system(kind, m, sample_seed), indent=1) + "\n")
    return path
