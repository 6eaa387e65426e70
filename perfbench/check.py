"""Correctness checks for every job output, and comparison with references.

Invariant checks apply on every seed: exit code 0, every verdict equal to
the candidate's expectation, every residual within the acceptance-test
tolerance (1e-9 for checks, 1e-8 for geometry oracles, 1e-7 energy drift
along a trajectory), conserved fibers constant along the trajectory, and no
inf or NaN anywhere in an output.

At the default workload seed each output is also compared with the stored
reference under ``reference/<workload>/``: every number must agree within
1e-9 (relative above 1).  Numbers that differ at all, even in the last
digit, are counted; that drift is reported, not failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

GEOMETRY_TOL = 1e-8
ENERGY_DRIFT_TOL = 1e-7
REFERENCE_TOL = 1e-9
CSV_STRIDE = 100  # references keep every 100th trajectory row and the last

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])")
_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


def _verdicts(rows, expect: dict, tol: float) -> list[str]:
    """Symmetry rows against the config's expectations."""
    problems = []
    names = {row["name"] for row in rows}
    for name in expect:
        if name not in names:
            problems.append(f"candidate {name} missing")
    for row in rows:
        for check, want in expect.get(row["name"], {}).items():
            got = row["checks"].get(check)
            if got is None or got["passed"] != want:
                problems.append(f"{row['name']}.{check}: expected passed={want}")
        for check, got in row["checks"].items():
            resid = got.get("max_residual", got.get("sdot_max"))
            if (resid <= tol) != got["passed"]:
                problems.append(f"{row['name']}.{check}: verdict disagrees with residual {resid}")
    return problems


def _json_problems(cmd: str, doc: dict, job) -> list[str]:
    tol = job.tol
    problems = []
    if cmd in ("validate", "report"):
        val = doc["validation"] if cmd == "report" else doc
        worst = max(v for k, v in val["algebroid"].items() if k != "passed")
        if not (val["passed"] and val["algebroid"]["passed"] and worst <= tol):
            problems.append(f"validation failed (worst axiom residual {worst})")
        if not val.get("metric", {}).get("regular", True):
            problems.append("fiber metric singular")
    if cmd in ("spray-check", "report"):
        spray = doc["spray"] if cmd == "report" else doc
        if not (spray["is_spray"] and spray["homogeneity"] <= tol and spray["euler_bracket"] <= tol):
            problems.append("spray check failed")
    if cmd in ("symmetry", "report"):
        sym = doc["symmetry"] if cmd == "report" else doc
        problems += _verdicts(sym["candidates"], job.expect, tol)
        if not sym["all_ok"]:
            problems.append("symmetry all_ok is false")
    frames = doc["geometry"] if cmd == "report" else [doc] if cmd == "geometry" else []
    for frame in frames:
        worst = max(frame["residuals"].values())
        if worst > GEOMETRY_TOL:
            problems.append(f"geometry residual {worst}")
    if cmd == "report" and not doc["passed"]:
        problems.append("report not passed")
    return problems


def _md_problems(text: str, job) -> list[str]:
    """The Markdown system report of a synthetic system."""
    problems = []
    if "**Overall: PASS**" not in text:
        problems.append("report not passed")
    for needed in ("- is spray: True", "all candidates as expected: True"):
        if needed not in text:
            problems.append(f"missing {needed!r}")
    rows = {}
    section = None
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith("|"):
            section = line[:-1]
        elif section == "residuals" and line.startswith("- "):
            key, value = line[2:].split(": ")
            if float(value) > GEOMETRY_TOL:
                problems.append(f"geometry residual {key} = {value}")
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 6 and cells[0] not in ("name", "---"):
            name, _, check, resid, passed, ok = cells
            rows.setdefault(name, {})[check] = {"max_residual": float(resid), "passed": passed == "True"}
            if ok != "True":
                problems.append(f"{name}: not as expected")
    problems += _verdicts([{"name": n, "checks": c} for n, c in rows.items()], job.expect, job.tol)
    return problems


def _csv_problems(text: str, stdout: str, job) -> list[str]:
    problems = []
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], [[float(v) for v in r] for r in rows[1:]]
    if len(body) != job.steps + 1:
        return [f"{len(body)} trajectory rows, expected {job.steps + 1}"]
    if any(not math.isfinite(v) for r in body for v in r):
        return ["non-finite value in trajectory"]
    for k in (1, len(body) - 1):
        if abs(body[k][0] - k * job.dt) > 1e-9:
            problems.append(f"row {k} has time {body[k][0]}")
    if header[-1] == "E":
        drift = max(abs(r[-1] - body[0][-1]) for r in body)
        reported = json.loads(stdout)["energy_drift"]
        if drift > ENERGY_DRIFT_TOL or reported != drift:
            problems.append(f"energy drift {drift} (reported {reported})")
    if job.constant:
        col = header.index(job.constant)
        moved = max(abs(r[col] - body[0][col]) for r in body)
        if moved > REFERENCE_TOL:
            problems.append(f"{job.constant} moved by {moved}")
    return problems


def problems(job, rc, stdout: str, text: str | None) -> list[str]:
    """Everything wrong with one job's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if text is None:
        return ["no output written"]
    if job.fmt == "csv":
        return _csv_problems(text, stdout, job)
    if _NON_FINITE.search(text):
        return ["non-finite value in output"]
    if job.fmt == "md":
        return _md_problems(text, job)
    return _json_problems(job.argv[0], json.loads(text), job)


def reference_text(job, text: str) -> str:
    """What is stored as the reference of an output (trajectories subsampled)."""
    if job.fmt != "csv":
        return text
    lines = text.splitlines(keepends=True)
    body = lines[1:]
    keep = [body[k] for k in range(0, len(body), CSV_STRIDE)]
    if (len(body) - 1) % CSV_STRIDE:
        keep.append(body[-1])
    return lines[0] + "".join(keep)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_TOL * max(1.0, abs(b))


def compare(job, text: str, ref: str) -> tuple[list[str], int]:
    """(problems, count of numbers that differ at all) against a reference."""
    got = reference_text(job, text)
    if job.fmt == "json":
        pairs = _json_pairs(json.loads(got), json.loads(ref))
    else:
        a, b = _NUMBER.split(got), _NUMBER.split(ref)
        na, nb = _NUMBER.findall(got), _NUMBER.findall(ref)
        if a != b or len(na) != len(nb):
            return ["output text differs from the reference"], 0
        pairs = [(float(x), float(y)) for x, y in zip(na, nb)]
    if pairs is None:
        return ["output structure differs from the reference"], 0
    changed = sum(1 for x, y in pairs if x != y)
    far = [(x, y) for x, y in pairs if not _close(x, y)]
    found = [f"{len(far)} numbers outside {REFERENCE_TOL} of the reference, e.g. {far[0]}"] if far else []
    return found, changed


def _json_pairs(a, b):
    """Matched numeric leaves of two documents, or None if they differ otherwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        a, b = list(a.values()), [b[k] for k in a]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        out = []
        for x, y in zip(a, b):
            sub = _json_pairs(x, y)
            if sub is None:
                return None
            out += sub
        return out
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric) and not isinstance(a, bool) and not isinstance(b, bool):
        return [(float(a), float(b))]
    return [] if a == b and type(a) is type(b) else None
