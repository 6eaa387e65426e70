"""Report assembly and deterministic serialization.

Numbers are printed with 17 significant digits so reported values round-trip
exactly; the JSON emitter sorts keys and uses fixed separators, making a
report byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import SystemConfig
from .connection import Connection, geometry_frame
from .errors import SingularMetricError
from .expr import parse_expression
from .jets import EvalPoint
from .lagrangian import fiber_metric
from .prolongation import Semispray, spray_test
from .symmetry import (
    cartan_symmetry_check,
    conservation_check,
    dynamical_symmetry_check,
    lie_symmetry_check,
    newtonoid_check,
)

__all__ = [
    "format_float",
    "emit_json",
    "render_markdown",
    "build_report",
    "run_validation",
    "run_symmetry",
    "frame_with_reference",
]

_GEOMETRY_FRAMES_IN_REPORT = 2


def format_float(v: float) -> str:
    if not math.isfinite(v):
        return f'"{v!r}"'
    return format(v, ".17g")


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return emit_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [emit_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": ' + emit_json(obj[k], indent + 1)
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Section runners
# ---------------------------------------------------------------------------


def run_validation(
    cfg: SystemConfig, samples: Sequence[EvalPoint], tol: float
) -> dict:
    alg = cfg.algebroid
    rep = alg.validate(samples, tol)
    out: dict = {"algebroid": {**rep.residuals(), "passed": rep.passed}}
    passed = rep.passed

    if cfg.lagrangian is not None:
        worst_cond = 0.0
        regular = True
        detail = None
        for p in samples:
            try:
                _, _, cond = fiber_metric(cfg.lagrangian, p)
                worst_cond = max(worst_cond, cond)
            except SingularMetricError as err:
                regular = False
                detail = str(err)
                break
        out["metric"] = {"regular": regular, "worst_condition": worst_cond}
        if detail:
            out["metric"]["detail"] = detail
        passed = passed and regular

    consistency = None
    if cfg.lagrangian is not None and cfg.semispray_override is not None:
        from .lagrangian import canonical_semispray

        canonical = canonical_semispray(alg, cfg.lagrangian)
        worst = 0.0
        for p in samples:
            ev = alg.evaluator(p)
            delta = ev.values_of(cfg.semispray_override.components) - ev.values_of(
                canonical.components
            )
            worst = max(worst, float(np.max(np.abs(delta))))
        consistency = worst
        passed = passed and worst <= tol
    out["semispray_consistency"] = consistency
    out["passed"] = passed
    return out


def frame_with_reference(
    cfg: SystemConfig,
    S: Semispray,
    N: Connection,
    p: EvalPoint,
) -> dict:
    alg = cfg.algebroid
    frame = geometry_frame(alg, S, N, p).to_dict()
    if cfg.reference:
        frame["reference_deviation"] = _reference_deviation(cfg, frame, p)
    return frame


def _reference_deviation(cfg: SystemConfig, frame: dict, p: EvalPoint) -> dict:
    alg = cfg.algebroid
    ev = alg.evaluator(p)
    ref = cfg.reference
    m = alg.m
    out: dict = {}

    def value(src: str) -> float:
        return ev.value(parse_expression(src, alg.coords))

    if "semispray" in ref:
        computed = frame["semispray"]
        out["semispray"] = max(
            abs(computed[a] - value(ref["semispray"][a])) for a in range(m)
        )
    if "connection" in ref:
        computed = frame["connection"]
        out["connection"] = [
            [computed[a][b] - value(ref["connection"][a][b]) for b in range(m)]
            for a in range(m)
        ]
    if "jacobi" in ref:
        computed = frame["jacobi"]
        out["jacobi"] = [
            [computed[a][b] - value(ref["jacobi"][a][b]) for b in range(m)]
            for a in range(m)
        ]
    if "curvature" in ref:
        full = np.zeros((m, m, m))
        for entry in ref["curvature"]:
            a, b, g = entry["alpha"] - 1, entry["beta"] - 1, entry["gamma"] - 1
            v = value(entry["expr"])
            full[a, b, g] = v
            full[b, a, g] = -v
        computed = np.array(frame["curvature"])
        out["curvature"] = float(np.max(np.abs(computed - full)))
    return out


def run_symmetry(
    cfg: SystemConfig,
    S: Semispray,
    N: Connection,
    samples: Sequence[EvalPoint],
    tol: float,
) -> dict:
    alg = cfg.algebroid
    # the invariant form of the Lie check is stated for the canonical connection
    N_lie = N if N.canonical else None
    rows = []
    all_ok = True
    for cand in cfg.candidates:
        checks: dict = {}
        if cand.kind == "base_section":
            checks["lie"] = lie_symmetry_check(
                alg, S, cand.base, samples, tol, N_lie
            ).to_dict()
        elif cand.kind == "prolongation_section":
            checks["dynamical"] = dynamical_symmetry_check(
                alg, S, cand.section, samples, tol
            ).to_dict()
            checks["newtonoid"] = newtonoid_check(
                alg, S, cand.section, samples, tol, N
            ).to_dict()
            if cfg.lagrangian is not None:
                checks["cartan"] = cartan_symmetry_check(
                    alg, cfg.lagrangian, cand.section, samples, tol
                ).to_dict()
        else:
            cons = conservation_check(alg, S, cand.function, samples, tol)
            checks["conserved"] = {
                "sdot_max": cons.sdot_max,
                "passed": cons.passed,
                "tol": tol,
            }
        ok = all(
            checks[k]["passed"] == want for k, want in cand.expect.items() if k in checks
        )
        all_ok = all_ok and ok
        rows.append(
            {
                "name": cand.name,
                "kind": cand.kind,
                "checks": checks,
                "expect": dict(cand.expect),
                "ok": ok,
            }
        )
    return {"candidates": rows, "all_ok": all_ok}


def build_report(
    cfg: SystemConfig, seed: int | None = None, tol: float | None = None
) -> dict:
    tol = tol if tol is not None else cfg.tolerance
    samples = cfg.sample_points(seed=seed)
    alg = cfg.algebroid
    S = cfg.semispray()
    N = cfg.connection()

    validation = run_validation(cfg, samples, tol)
    spray = spray_test(alg, S, samples, tol)
    frames = [
        frame_with_reference(cfg, S, N, p)
        for p in samples[:_GEOMETRY_FRAMES_IN_REPORT]
    ]
    symmetry = run_symmetry(cfg, S, N, samples, tol)
    passed = validation["passed"] and symmetry["all_ok"]
    return {
        "meta": {
            "name": cfg.name,
            "base_dim": alg.n,
            "fiber_rank": alg.m,
            "seed": seed if seed is not None else cfg.samples.seed,
            "sample_count": len(samples),
            "tolerance": tol,
        },
        "validation": validation,
        "spray": {
            "homogeneity": spray.homogeneity,
            "euler_bracket": spray.euler_bracket,
            "is_spray": spray.is_spray,
        },
        "geometry": frames,
        "symmetry": symmetry,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


def _md_matrix(rows) -> list[str]:
    out = []
    for row in rows:
        cells = " | ".join(
            format_float(v) if isinstance(v, float) else str(v) for v in row
        )
        out.append(f"| {cells} |")
    return out


def render_frame_markdown(frame: dict, title: str = "Geometry frame") -> str:
    pt = frame["point"]
    lines = [f"## {title}", "", f"point: x = {pt['x']}, y = {pt['y']}"]
    lines += ["", "semispray components:", ""]
    lines += _md_matrix([frame["semispray"]])
    lines += ["", "connection coefficients:", ""]
    lines += _md_matrix(frame["connection"])
    lines += ["", "Jacobi endomorphism:", ""]
    lines += _md_matrix(frame["jacobi"])
    lines += ["", "residuals:", ""]
    for key in sorted(frame["residuals"]):
        lines.append(f"- {key}: {format_float(frame['residuals'][key])}")
    lines += ["", "diagnostics:", ""]
    for key in sorted(frame["diagnostics"]):
        lines.append(f"- {key}: {format_float(frame['diagnostics'][key])}")
    if "reference_deviation" in frame:
        lines += ["", "reference deviation:", ""]
        for key in sorted(frame["reference_deviation"]):
            dev = frame["reference_deviation"][key]
            if isinstance(dev, list):
                lines.append(f"{key}:")
                lines += _md_matrix(dev)
            else:
                lines.append(f"- {key}: {format_float(dev)}")
    lines.append("")
    return "\n".join(lines)


def render_symmetry_markdown(result: dict) -> str:
    lines = ["## Symmetry candidates", ""]
    lines.append("| name | kind | check | max residual | passed | ok |")
    lines.append("| --- | --- | --- | --- | --- | --- |")
    for row in result["candidates"]:
        for check_name in sorted(row["checks"]):
            chk = row["checks"][check_name]
            resid = chk.get("max_residual", chk.get("sdot_max", 0.0))
            lines.append(
                f"| {row['name']} | {row['kind']} | {check_name} | "
                f"{format_float(resid)} | {chk['passed']} | {row['ok']} |"
            )
    lines.append("")
    lines.append(f"all candidates as expected: {result['all_ok']}")
    lines.append("")
    return "\n".join(lines)


def render_markdown(report: dict) -> str:
    meta = report["meta"]
    lines = [f"# System report: {meta['name']}", ""]
    lines.append(
        f"base dim {meta['base_dim']}, fiber rank {meta['fiber_rank']}, "
        f"{meta['sample_count']} samples, seed {meta['seed']}, "
        f"tolerance {format_float(meta['tolerance'])}"
    )
    lines.append("")
    lines.append(f"**Overall: {'PASS' if report['passed'] else 'FAIL'}**")

    val = report["validation"]
    lines += ["", "## Validation", ""]
    for key, v in sorted(val["algebroid"].items()):
        if key != "passed":
            lines.append(f"- {key}: {format_float(v)}")
    if "metric" in val:
        lines.append(f"- metric regular: {val['metric']['regular']}")
    if val["semispray_consistency"] is not None:
        lines.append(
            f"- semispray consistency: {format_float(val['semispray_consistency'])}"
        )
    lines.append(f"- passed: {val['passed']}")

    spray = report["spray"]
    lines += [
        "",
        "## Homogeneity",
        "",
        f"- homogeneity residual: {format_float(spray['homogeneity'])}",
        f"- Euler-field bracket residual: {format_float(spray['euler_bracket'])}",
        f"- is spray: {spray['is_spray']}",
    ]

    for k, frame in enumerate(report["geometry"]):
        lines += ["", render_frame_markdown(frame, title=f"Geometry frame {k}")]

    lines += ["", render_symmetry_markdown(report["symmetry"])]
    return "\n".join(lines)
