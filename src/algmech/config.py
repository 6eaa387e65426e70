"""System configuration files: loading, cross-validation, object assembly.

A system definition is a JSON document; see ``docs/config.schema.json`` and
the shipped fixtures for the exact shape.  Structure functions are listed
sparsely as ``{alpha, beta, gamma, expr}`` with 1-based indices and are
completed antisymmetrically at load time; anchor and structure entries must
parse against the base coordinates only, everything else against the full
coordinate list.  Validation failures carry a JSON-pointer-style path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .algebroid import Algebroid, BaseSection
from .connection import Connection, canonical_connection
from .errors import AlgmechError, ConfigError
from .expr import Expr, ZERO, e_neg, parse_expression
from .jets import EvalPoint
from .lagrangian import Lagrangian, canonical_semispray
from .prolongation import ProlongationSection, Semispray
from .sampling import sample_points

__all__ = ["SystemConfig", "SampleSpec", "Candidate", "load_config", "parse_config"]

DEFAULT_SAMPLE_COUNT = 50
DEFAULT_SEED = 20250810
DEFAULT_TOLERANCE = 1e-9

_FIELDS = (
    "name", "base_dim", "fiber_rank", "base_coords", "fiber_coords", "anchor", "structure",
    "lagrangian", "semispray", "connection", "candidates", "samples", "tolerance", "reference",
)
# the checks each candidate kind runs, the keys its ``expect`` may name
_CHECKS = {
    "base_section": ("lie",),
    "prolongation_section": ("dynamical", "newtonoid", "cartan"),
    "conserved_function": ("conserved",),
}
# the keys of a candidate of each kind besides ``kind``, ``name`` and ``expect``
_CANDIDATE_KEYS = {
    "base_section": ("components",),
    "prolongation_section": ("x", "v"),
    "conserved_function": ("expr",),
}


@dataclass(frozen=True)
class SampleSpec:
    count: int
    seed: int
    box: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Candidate:
    kind: str
    name: str
    expect: dict[str, bool]
    base: BaseSection | None = None
    section: ProlongationSection | None = None
    function: Expr | None = None


@dataclass(frozen=True, eq=False)
class SystemConfig:
    name: str
    algebroid: Algebroid
    lagrangian: Lagrangian | None
    semispray_override: Semispray | None
    connection_override: Connection | None
    candidates: tuple[Candidate, ...]
    samples: SampleSpec
    tolerance: float
    reference: dict[str, tuple] | None  # published tables as trees, see _parse_reference

    def semispray(self) -> Semispray:
        """The configured field, or the canonical one of the Lagrangian (built once)."""
        return self._semispray

    def connection(self) -> Connection:
        """The configured connection, or the canonical one of ``semispray()`` (built once)."""
        return self._connection

    @cached_property
    def _semispray(self) -> Semispray:
        if self.semispray_override is not None:
            return self.semispray_override
        return canonical_semispray(self.algebroid, self.lagrangian)

    @cached_property
    def _connection(self) -> Connection:
        if self.connection_override is not None:
            return self.connection_override
        return self.algebroid.derived(canonical_connection, self.semispray())

    def sample_points(self, count: int | None = None, seed: int | None = None) -> list[EvalPoint]:
        return sample_points(
            self.algebroid.base_coords,
            self.algebroid.fiber_coords,
            count if count is not None else self.samples.count,
            seed if seed is not None else self.samples.seed,
            self.samples.box,
        )

    def fiber_floor(self) -> float:
        """Smallest admissible fiber magnitude (zero-section exclusion)."""
        lows = [
            self.samples.box.get(c, (0.1, 2.0))[0]
            for c in self.algebroid.fiber_coords
        ]
        return min(lows) if lows else 0.1


def _need(raw: dict, key: str, kind, path: str):
    if key not in raw:
        raise ConfigError(f"{path}/{key}", "missing required field")
    val = raw[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{path}/{key}", "expected a number")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}/{key}", "expected an integer")
        return val
    if not isinstance(val, kind):
        raise ConfigError(f"{path}/{key}", f"expected {kind.__name__}")
    return val


def _known_keys(raw: dict, keys: tuple[str, ...], path: str) -> None:
    """A :class:`ConfigError` at the first key of ``raw`` not in ``keys``."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{path}/{key}", f"unknown key; expected one of {', '.join(keys)}")


def _parse_expr_at(source, coords, path: str) -> Expr:
    if not isinstance(source, str):
        raise ConfigError(path, "expected an expression string")
    try:
        return parse_expression(source, coords)
    except AlgmechError as err:
        raise ConfigError(path, str(err)) from err


def _parse_list(raw, count: int, coords, path: str) -> tuple[Expr, ...]:
    if not isinstance(raw, list) or len(raw) != count:
        raise ConfigError(path, f"expected {count} expressions")
    return tuple(_parse_expr_at(c, coords, f"{path}/{j}") for j, c in enumerate(raw))


def _parse_matrix(raw, rows: int, cols: int, coords, path: str) -> tuple[tuple[Expr, ...], ...]:
    if not isinstance(raw, list) or len(raw) != rows:
        raise ConfigError(path, f"expected {rows} rows")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise ConfigError(f"{path}/{i}", f"expected {cols} entries")
        out.append(
            tuple(_parse_expr_at(row[j], coords, f"{path}/{i}/{j}") for j in range(cols))
        )
    return tuple(out)


def _parse_structure(raw, m: int, base_coords, path: str):
    table: list[list[list[Expr]]] = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    seen: set[tuple[int, int, int]] = set()
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of {alpha, beta, gamma, expr} entries")
    for k, entry in enumerate(raw):
        here = f"{path}/{k}"
        if not isinstance(entry, dict):
            raise ConfigError(here, "expected an object")
        _known_keys(entry, ("alpha", "beta", "gamma", "expr"), here)
        a = _need(entry, "alpha", int, here) - 1
        b = _need(entry, "beta", int, here) - 1
        g = _need(entry, "gamma", int, here) - 1
        for label, idx in (("alpha", a), ("beta", b), ("gamma", g)):
            if not 0 <= idx < m:
                raise ConfigError(f"{here}/{label}", f"index out of range 1..{m}")
        expr = _parse_expr_at(entry["expr"] if "expr" in entry else None, base_coords, f"{here}/expr")
        if a == b:
            raise ConfigError(here, "diagonal structure entries violate antisymmetry")
        if (a, b, g) in seen or (b, a, g) in seen:
            raise ConfigError(here, "duplicate structure entry")
        seen.add((a, b, g))
        table[a][b][g] = expr
        table[b][a][g] = e_neg(expr)
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def _parse_candidates(raw, alg: Algebroid, path: str) -> tuple[Candidate, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list")
    out = []
    for k, entry in enumerate(raw):
        here = f"{path}/{k}"
        if not isinstance(entry, dict):
            raise ConfigError(here, "expected an object")
        kind = _need(entry, "kind", str, here)
        if kind not in _CHECKS:
            raise ConfigError(f"{here}/kind", f"expected one of {tuple(_CHECKS)}")
        _known_keys(entry, ("kind", "name", "expect", *_CANDIDATE_KEYS[kind]), here)
        name = _need(entry, "name", str, here) if "name" in entry else f"candidate-{k}"
        expect = entry.get("expect", {})
        if not isinstance(expect, dict) or not all(
            isinstance(v, bool) for v in expect.values()
        ):
            raise ConfigError(f"{here}/expect", "expected a map of booleans")
        _known_keys(expect, _CHECKS[kind], f"{here}/expect")
        if kind == "base_section":
            exprs = _parse_list(entry.get("components"), alg.m, alg.coords, f"{here}/components")
            out.append(
                Candidate(kind, name, dict(expect), base=BaseSection.define(alg, exprs))
            )
        elif kind == "prolongation_section":
            sec = ProlongationSection(
                _parse_list(entry.get("x"), alg.m, alg.coords, f"{here}/x"),
                _parse_list(entry.get("v"), alg.m, alg.coords, f"{here}/v"),
            )
            out.append(Candidate(kind, name, dict(expect), section=sec))
        else:
            fn = entry.get("expr")
            out.append(
                Candidate(
                    kind,
                    name,
                    dict(expect),
                    function=_parse_expr_at(fn, alg.coords, f"{here}/expr"),
                )
            )
    return tuple(out)


def _parse_samples(raw, alg: Algebroid, path: str) -> SampleSpec:
    if raw is None:
        return SampleSpec(DEFAULT_SAMPLE_COUNT, DEFAULT_SEED)
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    _known_keys(raw, ("count", "seed", "box"), path)
    count = raw.get("count", DEFAULT_SAMPLE_COUNT)
    seed = raw.get("seed", DEFAULT_SEED)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"{path}/count", "expected a positive integer")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{path}/seed", "expected an integer")
    box: dict[str, tuple[float, float]] = {}
    raw_box = raw.get("box", {})
    if not isinstance(raw_box, dict):
        raise ConfigError(f"{path}/box", "expected an object")
    for coord, rng in raw_box.items():
        here = f"{path}/box/{coord}"
        if coord not in alg.coords:
            raise ConfigError(here, "unknown coordinate")
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng)
        ):
            raise ConfigError(here, "expected [lo, hi]")
        # NaN fails the comparison; an int beyond the float range fails it too
        if not all(abs(v) <= sys.float_info.max for v in rng):
            raise ConfigError(here, "expected finite bounds")
        lo, hi = float(rng[0]), float(rng[1])
        if lo >= hi:
            raise ConfigError(here, "requires lo < hi")
        if hi - lo > sys.float_info.max:
            raise ConfigError(here, "width hi - lo overflows")
        if coord in alg.fiber_coords and lo <= 0.0:
            raise ConfigError(here, "fiber ranges are magnitudes and need lo > 0")
        box[coord] = (lo, hi)
    return SampleSpec(count, seed, box)


def _parse_reference(raw, alg: Algebroid, path: str) -> dict[str, tuple] | None:
    """The published tables of a ``reference`` block as trees over all
    coordinates, keyed as in the config: ``semispray`` (m), ``connection`` and
    ``jacobi`` (m by m), and ``curvature`` (m by m by m, listed sparsely and
    completed antisymmetrically like the structure functions).  None for no
    block or an empty one; ``note`` is a string, and other keys free."""
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    if not raw:
        return None
    if not isinstance(raw.get("note", ""), str):
        raise ConfigError(f"{path}/note", "expected a string")
    m, coords = alg.m, alg.coords
    parsers = {
        "semispray": lambda v, at: _parse_list(v, m, coords, at),
        "connection": lambda v, at: _parse_matrix(v, m, m, coords, at),
        "jacobi": lambda v, at: _parse_matrix(v, m, m, coords, at),
        "curvature": lambda v, at: _parse_structure(v, m, coords, at),
    }
    return {k: parse(raw[k], f"{path}/{k}") for k, parse in parsers.items() if k in raw}


def parse_config(raw: dict) -> SystemConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be an object")
    _known_keys(raw, _FIELDS, "")
    name = _need(raw, "name", str, "")
    n = _need(raw, "base_dim", int, "")
    m = _need(raw, "fiber_rank", int, "")
    for key, dim in (("base_dim", n), ("fiber_rank", m)):
        if dim < 1:
            raise ConfigError(f"/{key}", "expected a positive integer")
    base = _need(raw, "base_coords", list, "")
    fiber = _need(raw, "fiber_coords", list, "")
    if len(base) != n or not all(isinstance(c, str) for c in base):
        raise ConfigError("/base_coords", f"expected {n} coordinate names")
    if len(fiber) != m or not all(isinstance(c, str) for c in fiber):
        raise ConfigError("/fiber_coords", f"expected {m} coordinate names")
    if len(set(base) | set(fiber)) != n + m:
        raise ConfigError("/fiber_coords", "coordinate names must be distinct")

    anchor = _parse_matrix(_need(raw, "anchor", list, ""), n, m, base, "/anchor")
    structure = _parse_structure(raw.get("structure"), m, base, "/structure")
    alg = Algebroid(tuple(base), tuple(fiber), anchor, structure)

    lagrangian = None
    if raw.get("lagrangian") is not None:
        lagrangian = Lagrangian.define(
            alg, _parse_expr_at(raw["lagrangian"], alg.coords, "/lagrangian")
        )
    semispray = None
    if raw.get("semispray") is not None:
        semispray = Semispray(_parse_list(raw["semispray"], m, alg.coords, "/semispray"))
    if lagrangian is None and semispray is None:
        raise ConfigError("", "at least one of lagrangian/semispray is required")

    connection = None
    if raw.get("connection") is not None:
        coeffs = _parse_matrix(raw["connection"], m, m, alg.coords, "/connection")
        connection = Connection(coeffs, canonical=False)

    candidates = _parse_candidates(raw.get("candidates"), alg, "/candidates")
    samples = _parse_samples(raw.get("samples"), alg, "/samples")

    tol = checked_tolerance(raw.get("tolerance", DEFAULT_TOLERANCE), "/tolerance")

    reference = _parse_reference(raw.get("reference"), alg, "/reference")

    return SystemConfig(
        name=name,
        algebroid=alg,
        lagrangian=lagrangian,
        semispray_override=semispray,
        connection_override=connection,
        candidates=candidates,
        samples=samples,
        tolerance=tol,
        reference=reference,
    )


def checked_tolerance(value, where: str) -> float:
    """``value`` as a tolerance, from a config or ``--tol``: a positive finite
    number (JSON reads NaN and Infinity, and ``nan <= 0`` is false), else a
    :class:`ConfigError` at ``where``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value <= sys.float_info.max):
        raise ConfigError(where, "expected a positive finite number")
    return float(value)


def load_config(path) -> SystemConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError("", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("", f"invalid JSON in {path}: {err}") from err
    return parse_config(raw)
