"""Benchmark of the algmech CLI: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  For about
``--seconds`` it starts fresh workload processes (``worker.py``) one after
another, each a closed loop of one thread, alternating a set-up-only process
with one that sets up, runs a cold pass and then one warm pass:

* ``setup_s``: ``import algmech`` plus writing and loading every config of
  the workload, in a fresh process; median over every process.
* ``cold_pass_s``: the first pass over the job list in a fresh process.
* ``pass_s``: a warm pass over the job list.
* ``peak_rss_mb``: peak resident memory of a workload process; median.

Pass times are assembled job by job: each job's median over the processes
(cold) or the warm passes, summed over the job list.  Every time is
calibrated for host speed (``hostspeed.py``): it is scaled by
``hostspeed.REFERENCE_NS`` over the speed of a fixed probe loop sampled while
it ran.  The measured, uncalibrated figures are printed alongside.

``--trace 1`` runs one workload process that alternates untraced and traced
passes, compares a pass at the default seed with the stored references, and
probes the layers (see ``tracing.py`` and ``probes.py``).  Per-span values
are per pass.

Every output of every job is checked (``check.py``).  The metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  When the benchmark cannot run at all, for instance because
``src/algmech`` is missing, it exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracing import SPANS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PROCESSES = 2
SETUP_ONLY_PER_PROCESS = 1  # set-up-only processes started before each measuring one
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def worker(mode: str, args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"workload process exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    text = f"median {statistics.median(values):.6g}"
    n = len(values)
    q = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if q > 50:
        text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return text + f" over {n} samples"


def assembled(passes: list[list[list[float]]]) -> float:
    """Pass time assembled from each job's median calibrated time over passes.

    Jobs are short next to a run, so a median per job uses every pass's
    samples, where a median over whole passes would rest on a handful.
    """
    per_job = zip(*passes)
    return sum(statistics.median(hostspeed.calibrated(*t) for t in times) for times in per_job)


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    started = time.monotonic()
    setups, cold, warm, rss = [], [], [], []
    tally = {"attempted": 0, "failed": 0, "problems": []}
    jobs_per_pass = 0
    while True:
        setups += [worker("setup", args, deadline)["setup"] for _ in range(SETUP_ONLY_PER_PROCESS)]
        t0 = time.monotonic()
        rec = worker("passes", args, deadline)
        last = time.monotonic() - t0
        setups.append(rec["setup"])
        cold.append(rec["jobs"][0])
        warm += rec["jobs"][1:]
        rss.append(rec["peak_rss_mb"])
        jobs_per_pass = rec["jobs_per_pass"]
        for key in tally:
            tally[key] += rec[key]
        elapsed = time.monotonic() - started
        # stop where the next process would end more than half a process past --seconds
        if len(cold) >= MIN_PROCESSES and (
            elapsed + last / 2 > args.seconds or time.monotonic() + 2 * last > deadline
        ):
            break
    print(
        f"{args.workload} seed {args.seed}: {len(cold)} workload processes, "
        f"{jobs_per_pass} jobs per pass, {tally['attempted']} jobs, {tally['failed']} failed "
        f"(failed_ratio {tally['failed'] / tally['attempted']:.6g})"
    )
    metrics = {
        "setup_s": statistics.median(hostspeed.calibrated(s["seconds"], s["host_ns"]) for s in setups),
        "cold_pass_s": assembled(cold),
        "pass_s": assembled(warm),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"  times calibrated to {hostspeed.REFERENCE_NS:g} ns per probe-loop iteration; measured in brackets")
    for name, raw, unit in (
        ("setup_s", [s["seconds"] for s in setups], "s"),
        ("cold_pass_s", [sum(t for t, _ in p) for p in cold], "s"),
        ("pass_s", [sum(t for t, _ in p) for p in warm], "s"),
        ("peak_rss_mb", rss, "MB"),
    ):
        print(f"  {name:<12} {metrics[name]:.6g} {unit} [{summary(raw)}]")
    return metrics, tally


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    rec = worker("trace", args, deadline, "--seconds", str(args.seconds))
    layers = rec["layers"]
    traced = statistics.mean(rec["traced_pass_s"])
    print(
        f"{args.workload} seed {args.seed}: traced {len(rec['traced_pass_s'])} passes of "
        f"{rec['jobs_per_pass']} jobs, {rec['attempted']} jobs checked, {rec['failed']} failed; "
        f"span self times sum to {rec['span_self_sum_s']:.6g} s of a {traced:.6g} s traced pass"
    )
    for name in rec["absent_spans"]:
        print(f"  span {name}: absent")
    for value, span in sorted(((layers[f"{s}.self_s"], s) for s in SPANS), reverse=True):
        if value:
            print(
                f"  {span:<36} {value:10.6f} s  {100 * value / traced:5.1f}%  "
                f"{layers[span + '.calls']:g} calls"
            )
    return layers, rec


def main() -> int:
    ap = argparse.ArgumentParser(description="algmech CLI benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "algmech" / "__init__.py").is_file():
            raise BenchmarkError(f"no algmech package under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        values, tally = (per_layer if args.trace else end_to_end)(args, deadline)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchmarkError(f"metrics not measured: {missing}")
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    for problem in tally["problems"]:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
