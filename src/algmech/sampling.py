"""Seeded sample-point generation.

Uses a splitmix-style 64-bit generator so identical seeds give byte-identical
sample streams on every platform.  Fiber coordinates are drawn as a magnitude
in a positive range with a randomized sign, which keeps every sample away
from the zero section (the geometry lives on the slit bundle).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .jets import EvalPoint

__all__ = ["SplitMix64", "sample_points", "DEFAULT_BASE_BOX", "DEFAULT_FIBER_BOX"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
DEFAULT_BASE_BOX = (-2.0, 2.0)
DEFAULT_FIBER_BOX = (0.1, 2.0)  # magnitude range; sign drawn separately


class SplitMix64:
    """Deterministic 64-bit generator (splitmix increment/mix construction);
    the scalar reference of :func:`sample_points`' batched stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.next_float() * (hi - lo)

    def sign(self) -> float:
        return 1.0 if (self.next_u64() & 1) == 0 else -1.0


def sample_points(
    base_coords: Sequence[str],
    fiber_coords: Sequence[str],
    count: int,
    seed: int,
    box: Mapping[str, tuple[float, float]] | None = None,
) -> list[EvalPoint]:
    """Draw ``count`` points; fiber boxes are magnitude ranges (lo > 0).

    Each point takes the next draws of :class:`SplitMix64` in order: a
    uniform per base coordinate, then a sign and a magnitude per fiber
    coordinate.  The whole stream is one ``uint64`` computation, draw k's
    state being ``seed + k * gamma`` mod 2^64, with the generator's float
    operations, so the points are bit for bit those of the scalar loop."""
    box = dict(box or {})
    n, m = len(base_coords), len(fiber_coords)
    k = np.arange(1, count * (n + 2 * m) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = (z ^ (z >> np.uint64(31))).reshape(count, n + 2 * m)
    u = (z >> np.uint64(11)) * (2.0**-53)
    bounds = [box.get(name, DEFAULT_BASE_BOX) for name in base_coords]
    bounds += [box.get(name, DEFAULT_FIBER_BOX) for name in fiber_coords]
    lo, hi = np.array(bounds, dtype=float).reshape(n + m, 2).T
    x = lo[:n] + u[:, :n] * (hi[:n] - lo[:n])
    sign = np.where(z[:, n::2] & np.uint64(1), -1.0, 1.0)
    y = sign * (lo[n:] + u[:, n + 1 :: 2] * (hi[n:] - lo[n:]))
    return [EvalPoint(tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]
