"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when a check fails (or a
numeric error such as a singular metric aborts one), 2 for usage and
configuration errors.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import Iterator

from .config import SystemConfig, load_config
from .errors import AlgmechError, ConfigError, IntegrationAbortError
from .jets import EvalPoint
from .lagrangian import integrate_sode
from .prolongation import spray_test
from .report import (
    build_report,
    emit_json,
    format_float,
    frame_with_reference,
    render_frame_markdown,
    render_markdown,
    render_symmetry_markdown,
    run_symmetry,
    run_validation,
)

FIXTURES = ("driftless", "abelian", "heisenberg")


def _add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
    if needs_config:
        p.add_argument("--config", required=True, help="path to a system JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the sample seed")
    p.add_argument("--tol", type=float, default=None, help="override the tolerance")
    p.add_argument(
        "--format", choices=("json", "md"), default="json", dest="fmt",
        help="report format",
    )
    p.add_argument("--output", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algmech",
        description=(
            "Second-order dynamics on Lie algebroids: validation, geometry, "
            "symmetry verification, and integration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("validate", help="check the system axioms"))
    geo = sub.add_parser("geometry", help="evaluate the geometry at one point")
    _add_common(geo)
    geo.add_argument(
        "--at", required=True, help='evaluation point, e.g. "x=0.5,1,0,y=1,2"'
    )
    _add_common(sub.add_parser("spray-check", help="test degree-2 homogeneity"))
    _add_common(sub.add_parser("symmetry", help="verify the candidate list"))

    integ = sub.add_parser("integrate", help="integrate the dynamics (RK4)")
    integ.add_argument("--config", required=True)
    integ.add_argument("--x0", required=True, help="comma-separated base start")
    integ.add_argument("--y0", required=True, help="comma-separated fiber start")
    integ.add_argument("--dt", type=float, default=1e-3)
    integ.add_argument("--steps", type=int, default=1000)
    integ.add_argument("--output", default="trajectory.csv")

    ex = sub.add_parser("example", help="materialize a built-in fixture")
    ex.add_argument("name", choices=FIXTURES)
    ex.add_argument("--output", default=None)

    _add_common(sub.add_parser("report", help="full validation + geometry bundle"))
    return parser


def _emit(args, payload: dict, markdown: str | None = None) -> None:
    if args.fmt == "md":
        text = markdown if markdown is not None else render_markdown(payload)
    else:
        text = emit_json(payload) + "\n"
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


@contextmanager
def _writing(path) -> Iterator[None]:
    """Turns a failed write to ``path`` (say, into a missing directory) into
    a config error on ``--output``."""
    try:
        yield
    except OSError as err:
        raise ConfigError("--output", f"cannot write {path}: {err.strerror or err}") from err


def _floats(chunk: str, flag: str) -> list[float]:
    """The comma- or space-separated numbers of a command-line value."""
    parts = [p for p in re.split(r"[,\s]+", chunk.strip(" ,")) if p]
    try:
        return [float(p) for p in parts]
    except ValueError as err:
        raise ConfigError(flag, f"bad number: {err}") from err


def _parse_at(text: str, cfg: SystemConfig) -> EvalPoint:
    mo = re.fullmatch(r"\s*x\s*=\s*(.*?)[,\s]*y\s*=\s*(.*?)\s*", text)
    if mo is None:
        raise ConfigError("--at", 'expected "x=<values>,y=<values>"')
    x, y = _floats(mo.group(1), "--at"), _floats(mo.group(2), "--at")
    alg = cfg.algebroid
    if len(x) != alg.n or len(y) != alg.m:
        raise ConfigError(
            "--at", f"expected {alg.n} base and {alg.m} fiber values"
        )
    floor = cfg.fiber_floor()
    if max(abs(v) for v in y) < floor:
        raise ConfigError(
            "--at", f"fiber part too close to the zero section (|y| < {floor})"
        )
    return EvalPoint.of(x, y)


def _load(args) -> tuple[SystemConfig, float]:
    cfg = load_config(args.config)
    tol = args.tol if getattr(args, "tol", None) is not None else cfg.tolerance
    return cfg, tol


def cmd_validate(args) -> int:
    cfg, tol = _load(args)
    samples = cfg.sample_points(seed=args.seed)
    result = run_validation(cfg, samples, tol)
    _emit(args, result, markdown=None if args.fmt == "json" else _simple_md("Validation", result))
    return 0 if result["passed"] else 1


def cmd_geometry(args) -> int:
    cfg, tol = _load(args)
    p = _parse_at(args.at, cfg)
    frame = frame_with_reference(cfg, cfg.semispray(), cfg.connection(), p)
    _emit(args, frame, markdown=None if args.fmt == "json" else render_frame_markdown(frame))
    worst = max(frame["residuals"].values())
    return 0 if worst <= max(tol, 1e-8) else 1


def cmd_spray_check(args) -> int:
    cfg, tol = _load(args)
    samples = cfg.sample_points(seed=args.seed)
    rep = spray_test(cfg.algebroid, cfg.semispray(), samples, tol)
    payload = {
        "homogeneity": rep.homogeneity,
        "euler_bracket": rep.euler_bracket,
        "is_spray": rep.is_spray,
        "samples": rep.samples,
        "tol": rep.tol,
    }
    _emit(args, payload, markdown=None if args.fmt == "json" else _simple_md("Spray check", payload))
    return 0 if rep.is_spray else 1


def cmd_symmetry(args) -> int:
    cfg, tol = _load(args)
    samples = cfg.sample_points(seed=args.seed)
    result = run_symmetry(cfg, cfg.semispray(), cfg.connection(), samples, tol)
    _emit(args, result, markdown=None if args.fmt == "json" else render_symmetry_markdown(result))
    return 0 if result["all_ok"] else 1


def cmd_integrate(args) -> int:
    cfg = load_config(args.config)
    alg = cfg.algebroid
    x0, y0 = _floats(args.x0, "--x0"), _floats(args.y0, "--y0")
    if len(x0) != alg.n or len(y0) != alg.m:
        raise ConfigError("--x0/--y0", f"expected {alg.n} and {alg.m} values")
    if not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ConfigError("--dt", "must be a positive finite number")
    if args.steps < 1:
        raise ConfigError("--steps", "must be at least 1")
    try:
        traj = integrate_sode(
            alg, cfg.semispray(), x0, y0, args.dt, args.steps, lagrangian=cfg.lagrangian
        )
    except IntegrationAbortError as err:
        with _writing(args.output):
            err.partial.to_csv(args.output, alg)
        rows = len(err.partial.times)
        print(
            f"integration aborted: {err}; wrote the {rows} finite rows before it to {args.output}",
            file=sys.stderr,
        )
        return 1
    with _writing(args.output):
        traj.to_csv(args.output, alg)
    summary = {
        "steps": args.steps,
        "dt": args.dt,
        "output": args.output,
        "energy_drift": traj.energy_drift() if traj.energy is not None else None,
    }
    sys.stdout.write(emit_json(summary) + "\n")
    return 0


def cmd_example(args) -> int:
    data = (
        resources.files("algmech").joinpath(f"fixtures/{args.name}.json").read_bytes()
    )
    out = Path(args.output) if args.output else Path(f"{args.name}.json")
    with _writing(out):
        out.write_bytes(data)
    sys.stdout.write(f"wrote {out}\n")
    return 0


def cmd_report(args) -> int:
    cfg, tol = _load(args)
    report = build_report(cfg, seed=args.seed, tol=tol)
    _emit(args, report)
    return 0 if report["passed"] else 1


def _simple_md(title: str, payload: dict) -> str:
    lines = [f"# {title}", ""]

    def walk(obj, prefix=""):
        if isinstance(obj, dict):
            for k in sorted(obj, key=str):
                walk(obj[k], f"{prefix}{k}.")
        elif isinstance(obj, (list, tuple)):
            lines.append(f"- {prefix[:-1]}: {obj}")
        elif isinstance(obj, float):
            lines.append(f"- {prefix[:-1]}: {format_float(obj)}")
        else:
            lines.append(f"- {prefix[:-1]}: {obj}")

    walk(payload)
    lines.append("")
    return "\n".join(lines)


_COMMANDS = {
    "validate": cmd_validate,
    "geometry": cmd_geometry,
    "spray-check": cmd_spray_check,
    "symmetry": cmd_symmetry,
    "integrate": cmd_integrate,
    "example": cmd_example,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("config error: expression nests too deeply", file=sys.stderr)
        return 2
    except AlgmechError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
