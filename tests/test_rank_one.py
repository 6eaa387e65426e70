"""Smallest possible system: one base dimension, one fiber direction.

Mostly a guard against index bookkeeping that happens to work only for
rank >= 2 (determinant base case, einsum shapes, block assembly).
"""

import numpy as np
import pytest

from algmech.config import parse_config
from algmech.connection import (
    canonical_connection,
    connection_from_lie_derivative,
    geometry_frames,
    jacobi_endomorphism,
    jacobi_from_bracket,
)
from algmech.lagrangian import fiber_metric, symplectic_residual
from algmech.prolongation import basis_sections, spray_test


@pytest.fixture(scope="module")
def line():
    return parse_config(
        {
            "name": "line",
            "base_dim": 1,
            "fiber_rank": 1,
            "base_coords": ["q"],
            "fiber_coords": ["w"],
            "anchor": [["1"]],
            "structure": [],
            "lagrangian": "0.5*(1+q^2)*w^2",
            "samples": {"count": 25, "seed": 8833},
            "tolerance": 1e-9,
        }
    )


def test_validates(line):
    alg = line.algebroid
    assert alg.validate(alg.sample_evaluator(line.sample_points()), 1e-9).passed


def test_metric_and_field(line):
    S = line.semispray()
    samples = line.sample_points(count=10)
    g_all = fiber_metric(line.lagrangian, line.algebroid.sample_evaluator(samples))[0]
    for p, g in zip(samples, g_all):
        q, w = p.x[0], p.y[0]
        assert g[0, 0] == pytest.approx(1 + q * q, abs=1e-14)
        got = line.algebroid.evaluator(p).values_of(S.components)
        assert got[0] == pytest.approx(-q * w * w / (1 + q * q), rel=1e-13)


def test_spray_and_geometry_frame(line):
    alg = line.algebroid
    S = line.semispray()
    rep = spray_test(alg, S, alg.sample_evaluator(line.sample_points()), 1e-9)
    assert rep.is_spray  # geodesic field of a base metric
    N = canonical_connection(alg, S)
    for p in line.sample_points(count=10):
        ev = alg.evaluator(p)
        Nv = N.at(ev)
        assert np.max(np.abs(Nv - connection_from_lie_derivative(alg, S, ev))) <= 1e-10
        R2 = jacobi_endomorphism(alg, S, N, ev)
        assert np.max(np.abs(R2 - jacobi_from_bracket(alg, S, N, ev))) <= 1e-10
        # rank one leaves no room for curvature
        assert np.max(np.abs(R2)) <= 1e-10
    for frame in geometry_frames(alg, S, N, alg.sample_evaluator(line.sample_points(count=10))):
        assert max(frame.residuals.values()) <= 1e-9


def test_symplectic_equation(line):
    alg = line.algebroid
    S = line.semispray()
    for p in line.sample_points(count=10):
        ev = alg.evaluator(p)
        for B in basis_sections(1):
            assert abs(symplectic_residual(alg, line.lagrangian, S, B, ev)) <= 1e-9
