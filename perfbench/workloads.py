"""The four benchmark workloads as job lists for the ``algmech`` CLI.

Each workload is a closed loop: one process, one thread, one CLI job at a
time with no think time.  The workload seed picks the sample seeds, the
evaluation points and the initial conditions; the program sees only the
generated configs and CLI arguments.

* ``fixtures``   validate, spray-check, symmetry and report on the three
  shipped systems at two sample seeds, plus one ``geometry --at`` point per
  system.  Small trees, 50 samples: per-point jets and brackets dominate.
* ``integrate``  RK4 on driftless and heisenberg: value-only evaluation, one
  point at a time, no jets and no derived trees beyond the semispray.
* ``dense-rank`` ``report`` on dense-metric synthetic systems (m = 3, 4):
  large shared connection trees re-differentiated at every point.
* ``diag-rank``  ``report`` on the diagonal-metric synthetic system, m = 8:
  tree construction (the Laplace adjugate) dominates; 16x16 Hessians.

The synthetic reports are requested as Markdown: on these systems the JSON
report path raises ``TypeError`` because ``spray_test`` returns a numpy bool
whenever the homogeneity residual is non-zero, which it is on any system
whose field is not exactly representable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import synth

WORKLOADS = ("fixtures", "integrate", "dense-rank", "diag-rank")
DEFAULT_SEED = 1
FIXTURES = ("driftless", "abelian", "heisenberg")

INTEGRATE_DT = 1e-3
INTEGRATE_STEPS = 5000
# fiber coordinates that the dynamics keep constant (the centre of heisenberg)
CONSTANT_FIBER = {"heisenberg": "y3"}
SYNTHETIC = {
    "dense-rank": ("dense", (3, 4)),
    "diag-rank": ("diag", (8,)),
}
# "--tiny" sizes, used only by the smoke test: fixtures shrink to driftless at one seed
TINY_STEPS = 50
TINY_RANKS = {"dense-rank": (2,), "diag-rank": (3,)}


@dataclass(frozen=True)
class Job:
    id: str  # stable across seeds: names the reference output
    argv: tuple[str, ...]
    fmt: str  # "json", "md" or "csv"
    output: str
    expect: dict = field(default_factory=dict)  # candidate -> {check: verdict}
    tol: float = 1e-9
    steps: int = 0
    dt: float = 0.0
    constant: str | None = None


def config_names(workload: str, tiny: bool = False) -> list[str]:
    if workload == "fixtures":
        return list(FIXTURES[:1] if tiny else FIXTURES)
    if workload == "integrate":
        return ["driftless", "heisenberg"]
    kind, ranks = SYNTHETIC[workload]
    return [f"{kind}-{m}" for m in (TINY_RANKS[workload] if tiny else ranks)]


def materialize(workload: str, seed: int, directory: Path, example, tiny: bool = False) -> dict:
    """Write every config of the workload; returns name -> path.

    ``example(name, path)`` materializes a shipped fixture through the CLI.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    rng = random.Random(f"{workload}:{seed}:configs")
    for name in config_names(workload, tiny):
        if workload in SYNTHETIC:
            kind, m = name.split("-")
            paths[name] = synth.write_system(directory, kind, int(m), rng.randrange(1, 2**31))
        else:
            paths[name] = directory / f"{name}.json"
            example(name, paths[name])
    return paths


def _point(rng: random.Random, n: int, m: int) -> tuple[list[float], list[float]]:
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    y = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0) for _ in range(m)]
    return x, y


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def jobs(workload: str, seed: int, configs: dict, out: Path, tiny: bool = False) -> list[Job]:
    """The workload's job list; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}:jobs")
    docs = {name: json.loads(Path(path).read_text()) for name, path in configs.items()}
    expects = {
        name: {c["name"]: c.get("expect", {}) for c in doc.get("candidates", [])}
        for name, doc in docs.items()
    }
    out_list: list[Job] = []

    def add(job_id, argv, fmt, **kw):
        path = str(out / f"{job_id}.{fmt}")
        out_list.append(Job(job_id, (*argv, "--output", path), fmt, path, **kw))

    if workload == "fixtures":
        seeds = {"a": rng.randrange(1, 2**31), "b": rng.randrange(1, 2**31)}
        if tiny:
            del seeds["b"]
        for name in config_names(workload, tiny):
            cfg = str(configs[name])
            for tag, s in seeds.items():
                for cmd in ("validate", "spray-check", "symmetry", "report"):
                    add(
                        f"{cmd}-{name}-{tag}",
                        (cmd, "--config", cfg, "--seed", str(s)),
                        "json",
                        expect=expects[name],
                    )
            x, y = _point(rng, docs[name]["base_dim"], docs[name]["fiber_rank"])
            add(f"geometry-{name}", ("geometry", "--config", cfg, "--at", f"x={_csv(x)},y={_csv(y)}"), "json")
    elif workload == "integrate":
        steps = TINY_STEPS if tiny else INTEGRATE_STEPS
        for name in config_names(workload):
            x, y = _point(rng, docs[name]["base_dim"], docs[name]["fiber_rank"])
            add(
                f"integrate-{name}-{steps}",
                (
                    "integrate", "--config", str(configs[name]), f"--x0={_csv(x)}", f"--y0={_csv(y)}",
                    "--dt", repr(INTEGRATE_DT), "--steps", str(steps),
                ),
                "csv",
                steps=steps,
                dt=INTEGRATE_DT,
                constant=CONSTANT_FIBER.get(name),
            )
    else:
        for name in config_names(workload, tiny):
            add(f"report-{name}", ("report", "--config", str(configs[name]), "--format", "md"), "md", expect=expects[name])
    return out_list
