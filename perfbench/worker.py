"""One workload process: set-up, passes over the job list, checks, probes.

``run.py`` starts this script in a fresh interpreter for every sample that
needs one, so import and first-pass costs are paid as a CLI user pays them.
It prints one JSON object as its last line of standard output.

Modes:

* ``setup``: import ``algmech`` and write and load every config, nothing more.
* ``passes``: set-up, one cold pass, then one warm pass.
* ``trace``: set-up; untraced and traced passes in pairs while they fit in
  half of ``--seconds``; one pass at the default seed compared with the
  stored references; then the layer probes.  Spans go to
  ``.perfbench_out/spans-<workload>-<seed>.json`` at the repository root.
  Span times include the host-speed sampler's ticks, about 1.5% of a span;
  job times do not.
* ``reference``: one checked pass at the default seed, stored under
  ``reference/<workload>/``.  Run it by hand only when a reference must
  change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
import hostspeed
import probes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
MAX_REPORTED_PROBLEMS = 5


@dataclass
class Result:
    job: workloads.Job
    rc: object
    seconds: float
    host_ns: float
    stdout: str
    stderr: str


class Workload:
    """The imported CLI, the materialized configs and the job list of one seed."""

    def __init__(self, name: str, seed: int, tmp: Path, tiny: bool):
        self.sampler = hostspeed.Sampler()
        with self.sampler.timing() as self.setup:
            sys.path.insert(0, str(ROOT / "src"))
            import algmech
            from algmech import cli

            self.algmech, self.cli = algmech, cli
            paths = workloads.materialize(name, seed, tmp / f"configs-{seed}", self._example, tiny)
            self.configs = [algmech.load_config(p) for p in paths.values()]
        if Path(algmech.__file__).resolve().parent != (ROOT / "src" / "algmech").resolve():
            raise SystemExit(f"imported algmech from {algmech.__file__}, not from this checkout")
        out = tmp / f"out-{seed}"
        out.mkdir(exist_ok=True)
        self.jobs = workloads.jobs(name, seed, paths, out, tiny)

    def _example(self, name: str, path: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["example", name, "--output", str(path)])
        if rc != 0:
            raise SystemExit(f"algmech example {name} exited {rc}")

    def run_pass(self, recorder: tracing.Recorder | None = None) -> list[Result]:
        """Run every job once, in order."""
        for job in self.jobs:
            Path(job.output).unlink(missing_ok=True)
        gc.collect()  # each pass starts without the previous pass's garbage, as a fresh CLI call does
        self.sampler.restart()
        results = []
        for job in self.jobs:
            out, err = io.StringIO(), io.StringIO()
            if recorder is not None:
                recorder.job = job.id
            with self.sampler.timing() as timed:
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = self.cli.main(list(job.argv))
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # a crashing job is a failed job, not a failed run
                    rc = f"{type(exc).__name__}: {exc}"
            results.append(Result(job, rc, timed["seconds"], timed["host_ns"], out.getvalue(), err.getvalue()))
        return results


class Tally:
    """Jobs attempted and failed, with the first few problems found."""

    def __init__(self):
        self.attempted = self.failed = self.changed_numbers = self.bytes = 0
        self.problems: list[str] = []

    def fail(self, job_id: str, found: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{job_id}: {'; '.join(found)}")

    def check(self, results: list[Result], reference: Path | None = None) -> dict[str, str]:
        """Check one pass's outputs; returns job id -> output text."""
        texts = {}
        for r in results:
            self.attempted += 1
            path = Path(r.job.output)
            text = path.read_text() if path.exists() else None
            found = check.problems(r.job, r.rc, r.stdout, text)
            ref = reference / f"{r.job.id}.{r.job.fmt}" if reference else None
            if text is not None and ref is not None and ref.exists():
                differs, changed = check.compare(r.job, text, ref.read_text())
                found += differs
                self.changed_numbers += changed
            if found:
                self.fail(r.job.id, found + [r.stderr.strip()[-300:]] if r.stderr.strip() else found)
            texts[r.job.id] = (text or "") + r.stdout
            self.bytes += len((text or "").encode())
        return texts

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def reference_dir(workload: str, seed: int) -> Path | None:
    return REFERENCE / workload if seed == workloads.DEFAULT_SEED else None


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(args, tmp: Path) -> dict:
    return {"setup": Workload(args.workload, args.seed, tmp, args.tiny).setup}


def passes(args, tmp: Path) -> dict:
    w = Workload(args.workload, args.seed, tmp, args.tiny)
    tally = Tally()
    ref = reference_dir(args.workload, args.seed)
    jobs = []
    for _ in ("cold", "warm"):
        results = w.run_pass()
        jobs.append([[r.seconds, r.host_ns] for r in results])
        tally.check(results, ref)
    return {
        "setup": w.setup,
        "jobs": jobs,  # per pass, per job: [seconds, host_ns]; the first pass is the cold one
        "jobs_per_pass": len(w.jobs),
        "peak_rss_mb": rss_mb(),
        **tally.as_dict(),
    }


def traced(args, tmp: Path) -> dict:
    w = Workload(args.workload, args.seed, tmp, args.tiny)
    tally = Tally()
    ref = reference_dir(args.workload, args.seed)
    recorder = tracing.Recorder()
    # calibrated pass times, and the measured ones that spans are compared with
    untraced_s, traced_s, traced_raw_s, rk4_steps, rk4_s = [], [], [], 0, 0.0
    start = time.perf_counter()
    while True:
        results = w.run_pass()
        untraced_s.append(sum(hostspeed.calibrated(r.seconds, r.host_ns) for r in results))
        plain = tally.check(results, ref)
        for r in results:
            if r.job.steps:
                rk4_steps += r.job.steps
                rk4_s += hostspeed.calibrated(r.seconds, r.host_ns)
        with tracing.installed(recorder) as absent:
            results = w.run_pass(recorder)
        traced_s.append(sum(hostspeed.calibrated(r.seconds, r.host_ns) for r in results))
        traced_raw_s.append(sum(r.seconds for r in results))
        for job_id, text in tally.check(results, ref).items():
            if text != plain[job_id]:
                tally.fail(job_id, ["traced output differs from the untraced output"])
        spent = time.perf_counter() - start
        if spent * (1 + 1 / len(traced_s)) > args.seconds / 2:
            break

    layers: dict[str, float] = {}
    n = len(traced_s)
    self_times = recorder.self_times()
    for name in tracing.SPANS:
        total, calls = self_times.get(name, (0.0, 0))
        layers[f"{name}.self_s"] = total / n
        layers[f"{name}.calls"] = calls / n
    spans_s = sum(total for total, _ in self_times.values()) / n
    layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    layers["rk4_steps_per_s"] = rk4_steps / rk4_s if rk4_s else 0.0

    # the stored references are for the default seed, so every traced run
    # compares one pass at that seed, whatever seed it measures
    default = Workload(args.workload, workloads.DEFAULT_SEED, tmp, args.tiny)
    ref_tally = Tally()
    ref_tally.check(default.run_pass(), REFERENCE / args.workload)
    tally.attempted += ref_tally.attempted
    tally.failed += ref_tally.failed
    tally.problems += ref_tally.problems
    layers["report.bytes"] = ref_tally.bytes
    layers["report.changed_numbers"] = ref_tally.changed_numbers

    layers.update(probes.run(w.configs, w.algmech.differentiate))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    recorder.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
    return {
        "layers": layers,
        "absent_spans": absent,
        "traced_pass_s": traced_raw_s,
        "span_self_sum_s": spans_s,
        "jobs_per_pass": len(w.jobs),
        **tally.as_dict(),
    }


def write_reference(args, tmp: Path) -> dict:
    w = Workload(args.workload, workloads.DEFAULT_SEED, tmp, args.tiny)
    tally = Tally()
    results = w.run_pass()
    tally.check(results)
    if tally.failed:
        return tally.as_dict()
    target = REFERENCE / args.workload
    target.mkdir(parents=True, exist_ok=True)
    for r in results:
        text = Path(r.job.output).read_text()
        (target / f"{r.job.id}.{r.job.fmt}").write_text(check.reference_text(r.job, text))
    return tally.as_dict()


MODES = {
    "setup": setup,
    "passes": passes,
    "trace": traced,
    "reference": write_reference,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=sorted(MODES), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = ap.parse_args()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        record = MODES[args.mode](args, Path(tmp))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
