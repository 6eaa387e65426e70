"""Report assembly and deterministic serialization.

Numbers are printed with 17 significant digits so reported values round-trip
exactly; the JSON emitter sorts keys and uses fixed separators, making a
report byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import linalg
from .algebroid import sweep_max
from .config import SystemConfig
from .connection import Connection, geometry_frames
from .errors import AlgmechError, EvaluationDomainError, SingularMetricError
from .jets import SampleEvaluator
from .lagrangian import canonical_semispray, metric_inverse
from .prolongation import Semispray, spray_test
from .symmetry import (
    cartan_symmetry_check,
    conservation_check,
    dynamical_symmetry_check,
    lie_symmetry_check,
    newtonoid_check,
    prepare_checks,
)

__all__ = [
    "format_float", "emit_json", "render_markdown", "build_report", "run_validation",
    "run_symmetry", "frames_with_reference", "frames_pass",
]

_GEOMETRY_FRAMES_IN_REPORT = 2

# JSON string escapes: the backslash, the quote and every control character,
# as \u00XX except the newline's \n
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES |= {ord("\n"): "\\n", ord("\\"): "\\\\", ord('"'): '\\"'}


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
        return '"' + obj.translate(_ESCAPES) + '"'
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
            f'{inner}"{str(k).translate(_ESCAPES)}": ' + emit_json(obj[k], indent + 1)
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Section runners
# ---------------------------------------------------------------------------


def run_validation(cfg: SystemConfig, ev: SampleEvaluator, tol: float) -> dict:
    alg = cfg.algebroid
    rep = alg.validate(ev, tol)
    out: dict = {"algebroid": {**rep.residuals(), "passed": rep.passed}}
    passed = rep.passed

    if cfg.lagrangian is not None:
        ev.value(cfg.lagrangian.expr)  # a domain error names its sample
        regular, detail = len(ev.points), None
        try:
            metric_inverse(cfg.lagrangian, ev)
        except SingularMetricError as err:
            regular, detail = err.index, str(err)
        # the worst condition is that of the samples before the first singular one
        conds = linalg.cond(ev.array(cfg.lagrangian.metric_exprs)[:regular])
        worst_cond = sweep_max("fiber metric condition", ev, conds)
        out["metric"] = {"regular": detail is None, "worst_condition": worst_cond}
        if detail:
            out["metric"]["detail"] = detail
        passed = passed and detail is None

    consistency = None
    if cfg.lagrangian is not None and cfg.semispray_override is not None:
        canonical = canonical_semispray(alg, cfg.lagrangian)
        with np.errstate(all="ignore"):
            delta = ev.values_of(cfg.semispray_override.components) - ev.values_of(
                canonical.components
            )
        consistency = sweep_max("semispray consistency", ev, np.abs(delta))
        passed = passed and consistency <= tol
    out["semispray_consistency"] = consistency
    out["passed"] = passed
    return out


def frames_with_reference(
    cfg: SystemConfig, S: Semispray, N: Connection, ev: SampleEvaluator
) -> list[dict]:
    """The geometry frames at the points of ``ev``, one batch: a report
    passes the head of its sweep evaluator (:meth:`SampleEvaluator.head`),
    ``geometry`` an evaluator at its point.  The Lagrangian is evaluated
    there first, so a point where it is undefined fails as it does in
    validation.  With a reference table, each frame gets its computed minus
    published values: the matrices entry by entry, the semispray and the
    curvature as their largest absolute deviation; one that is not finite
    raises :class:`EvaluationDomainError` naming the point."""
    if cfg.lagrangian is not None:
        ev.value(cfg.lagrangian.expr)  # a domain error names its point
    frames = [f.to_dict() for f in geometry_frames(cfg.algebroid, S, N, ev)]
    if cfg.reference is None:
        return frames
    published = {key: ev.array(trees) for key, trees in cfg.reference.items()}
    for k, (p, frame) in enumerate(zip(ev.points, frames)):
        out = frame["reference_deviation"] = {}
        for key, values in published.items():
            diff = np.array(frame[key]) - values[k]
            out[key] = diff.tolist() if diff.ndim == 2 else float(np.max(np.abs(diff)))
            if not np.isfinite(diff).all():
                raise EvaluationDomainError(f"reference {key} deviation is not finite at {p}")
    return frames


def frames_pass(frames: list[dict], tol: float) -> bool:
    """The gate of ``geometry`` and ``report`` on their frames: every
    residual (not diagnostic) at most max(tol, 1e-8)."""
    return all(v <= max(tol, 1e-8) for f in frames for v in f["residuals"].values())


def run_symmetry(
    cfg: SystemConfig,
    S: Semispray,
    N: Connection,
    ev: SampleEvaluator,
    tol: float,
) -> dict:
    alg = cfg.algebroid
    # the invariant form of the Lie check is stated for the canonical connection
    N_lie = N if N.canonical else None
    cands = cfg.candidates
    with contextlib.suppress(AlgmechError):  # else each check below raises in candidate order
        prepare_checks(
            alg, S, cfg.lagrangian, ev,
            [c.section for c in cands if c.kind == "prolongation_section"],
            [c.base for c in cands if c.kind == "base_section"],
            [c.function for c in cands if c.kind == "conserved_function"],
        )
    rows = []
    all_ok = True
    for cand in cfg.candidates:
        checks: dict = {}
        if cand.kind == "base_section":
            checks["lie"] = lie_symmetry_check(alg, S, cand.base, ev, tol, N_lie).to_dict()
        elif cand.kind == "prolongation_section":
            checks["dynamical"] = dynamical_symmetry_check(alg, S, cand.section, ev, tol).to_dict()
            checks["newtonoid"] = newtonoid_check(alg, S, cand.section, ev, tol, N).to_dict()
            if cfg.lagrangian is not None:
                checks["cartan"] = cartan_symmetry_check(
                    alg, cfg.lagrangian, cand.section, ev, tol
                ).to_dict()
        else:
            cons = conservation_check(alg, S, cand.function, ev, tol)
            checks["conserved"] = {
                "sdot_max": cons.sdot_max,
                "passed": cons.passed,
                "tol": tol,
            }
        ok = all(checks[k]["passed"] == want for k, want in cand.expect.items() if k in checks)
        all_ok = all_ok and ok
        rows.append(
            {"name": cand.name, "kind": cand.kind, "checks": checks, "expect": dict(cand.expect), "ok": ok}
        )
    return {"candidates": rows, "all_ok": all_ok}


def build_report(
    cfg: SystemConfig, seed: int | None = None, tol: float | None = None
) -> dict:
    """The report of ``cfg`` at ``seed``, over one sample evaluator: the
    validation, spray and symmetry sweeps share it, and the geometry frames
    read its first two rows (:meth:`SampleEvaluator.head`)."""
    tol = tol if tol is not None else cfg.tolerance
    alg = cfg.algebroid
    ev = alg.sample_evaluator(cfg.sample_points(seed=seed))
    S = cfg.semispray()
    N = cfg.connection()

    validation = run_validation(cfg, ev, tol)
    spray = spray_test(alg, S, ev, tol)
    symmetry = run_symmetry(cfg, S, N, ev, tol)
    # after the sweeps, so the frames walk only the trees they alone read
    frames = frames_with_reference(cfg, S, N, ev.head(_GEOMETRY_FRAMES_IN_REPORT))
    passed = validation["passed"] and frames_pass(frames, tol) and symmetry["all_ok"]
    return {
        "meta": {
            "name": cfg.name,
            "base_dim": alg.n,
            "fiber_rank": alg.m,
            "seed": seed if seed is not None else cfg.samples.seed,
            "sample_count": len(ev.points),
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
