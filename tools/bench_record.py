"""Record the end-to-end benchmark of this checkout as ``BENCH_<N>.json``.

    python tools/bench_record.py N [--out .] [--tiny]

Runs ``perfbench/run.py --trace 0`` five times on each of the four workloads
at the default seed, each run for about 10 s, and writes ``BENCH_<N>.json``
into ``--out``: the commit (and whether the tree had uncommitted changes),
the host (CPU count, Python and numpy versions), and per workload each
metric's unit, median, quartiles and run values, with the jobs attempted and
failed over all runs.  ``--tiny`` makes one run of about 1 s per workload at
the smallest sizes, a smoke test of the tool.  Exits 1 if a run fails to
produce its result line or any job fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUNS, SECONDS = 5, 10.0  # per workload; --tiny makes it 1 run of 1 s


def git(*args: str) -> str | None:
    """The output of a git command in the repository, None if it fails."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(workload: str, seconds: float, tiny: bool) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; all three equal for one run)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(tiny: bool) -> dict:
    runs, seconds = (1, 1.0) if tiny else (RUNS, SECONDS)
    workloads = {}
    for name in WORKLOADS:
        results = []
        for _ in range(runs):
            results.append(run_once(name, seconds, tiny))
            print(f"{name}: run {len(results)} of {runs} done", file=sys.stderr)
        units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
        workloads[name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                k: {"unit": unit, **spread([r["metrics"][k]["value"] for r in results])}
                for k, unit in units.items()
            },
        }
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "host": host(),
        "seed": DEFAULT_SEED,
        "runs": runs,
        "seconds": seconds,
        "tiny": tiny,
        "workloads": workloads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in the file name BENCH_<n>.json")
    ap.add_argument("--out", type=Path, default=ROOT, help="directory to write into (default: the repository)")
    ap.add_argument("--tiny", action="store_true", help="one 1 s run at the smallest sizes, a smoke test of this tool")
    args = ap.parse_args()
    rec = record(args.tiny)
    path = args.out / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    print(path)
    return 1 if any(w["failed"] for w in rec["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
