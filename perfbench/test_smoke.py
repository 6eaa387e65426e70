"""Smoke test of the benchmark itself at its smallest sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.  Every
workload runs untraced and traced with ``--tiny``; each must print every
metric ``BENCHMARK.json`` names, with its unit, and fail no job.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
            "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_and_nothing_fails(workload, trace):
    stdout, result = run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert "(failed_ratio 0)" in stdout
    else:
        assert result["metrics"]["cli.main.calls"]["value"] >= 1
        assert result["metrics"]["report.changed_numbers"]["value"] == 0


def test_node_counts_are_iterative_and_count_sharing():
    sys.path.insert(0, str(ROOT / "src"))
    from algmech.expr import BinOp, Num, Var

    x = Var("x")
    shared = BinOp("*", x, x)
    assert probes.node_counts([BinOp("+", shared, shared)]) == (3, 7)
    deep = Num(1.0)
    for _ in range(50_000):  # far beyond the recursion limit
        deep = BinOp("+", deep, x)
    assert probes.node_counts([deep]) == (50_002, 100_001)


def test_self_time_excludes_children():
    rec = tracing.Recorder()
    rec.spans = [
        ["outer", 0.0, 10.0, None, "j"],
        ["inner", 1.0, 4.0, 0, "j"],
        ["inner", 5.0, 6.0, 0, "j"],
    ]
    assert rec.self_times() == {"outer": (6.0, 1), "inner": (4.0, 2)}
