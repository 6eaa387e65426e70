"""Golden-report gate: the shipped fixtures' JSON reports stay byte-identical.

The files under ``tests/golden/`` are ``algmech report --format json`` for
each fixture at its configured seed and at seed 7, and for two synthetic
systems whose configs are stored beside them: a dense-metric rank-4 and a
diagonal-metric rank-8 system (``dense-4.json``, ``diag-8.json``; written once
from ``perfbench/synth.py`` at sample seed 20261018 and kept as plain JSON, so
a change to the generator cannot move them).  These pin the m >= 4 semispray
and connection trees, which the fixtures (m <= 3) never reach.  A change that
moves any reported number fails here.  If the move is intended, re-baseline:
keep a copy of the committed goldens, write every report golden again with
this module's ``__main__``, and run ``tools/numdiff.py`` on each old and new
file; put its table of changed numbers in CHANGES.md::

    cp -r tests/golden /tmp/golden.old
    PYTHONPATH=src python tests/test_golden.py
    for f in tests/golden/report-*.json; do
        python tools/numdiff.py /tmp/golden.old/${f##*/} $f
    done
"""

import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from algmech.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("driftless", "abelian", "heisenberg")
SYNTHETIC = ("dense-4", "diag-8")


def report_argv(tmp_path: Path, name: str, seed: str | None = None) -> tuple[list[str], Path]:
    """The ``report`` arguments of one report golden and the golden's path:
    a fixture (written into ``tmp_path``) at seed ``"default"`` or ``"7"``,
    or a synthetic system (``seed`` None)."""
    if seed is None:
        config, golden = GOLDEN / f"{name}.json", GOLDEN / f"report-{name}.json"
    else:
        config, golden = tmp_path / f"{name}.json", GOLDEN / f"report-{name}-{seed}.json"
        config.write_bytes(
            resources.files("algmech").joinpath(f"fixtures/{name}.json").read_bytes()
        )
    argv = ["report", "--config", str(config), "--format", "json"]
    if seed not in (None, "default"):
        argv += ["--seed", seed]
    return argv, golden


@pytest.mark.parametrize("seed", ["default", "7"])
@pytest.mark.parametrize("name", FIXTURES)
def test_report_matches_golden(tmp_path, capsys, name, seed):
    argv, golden = report_argv(tmp_path, name, seed)
    assert main(argv) == 0
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("name", SYNTHETIC)
def test_synthetic_report_matches_golden(tmp_path, capsys, name):
    argv, golden = report_argv(tmp_path, name)
    assert main(argv) == 0
    assert capsys.readouterr().out == golden.read_text()


# -- integrate: the RK4 trajectory, pinned byte for byte ----------------------
#
# ``integrate-{driftless,heisenberg}.csv`` are 300 RK4 steps at dt = 1e-3 from
# the start point below, with the energy column.  ``integrate-abort.*`` are the
# finite CSV prefix and the stderr line of an integration that aborts when
# ``exp`` overflows inside a step (L = 0.5*y^2 + exp(x) on a line, dt = 0.5).
# The CSVs are compared as bytes, so their ``\r\n`` line ends are pinned too;
# ``.gitattributes`` keeps git from converting them.

LINE_EXP = {
    "name": "line",
    "base_dim": 1,
    "fiber_rank": 1,
    "base_coords": ["x"],
    "fiber_coords": ["y"],
    "anchor": [["1"]],
    "structure": [],
    "lagrangian": "0.5*y^2+exp(x)",
    "candidates": [],
    "samples": {"count": 5, "seed": 1, "box": {}},
    "tolerance": 1e-9,
}

INTEGRATE_RUNS = {
    "driftless": ("--x0=0.3,-0.2,0.1", "--y0=1,0.5", "--dt=1e-3", "--steps=300"),
    "heisenberg": ("--x0=0.3,-0.2,0.1", "--y0=1,0.5,-0.25", "--dt=1e-3", "--steps=300"),
    "abort": ("--x0=1", "--y0=1", "--dt=0.5", "--steps=400"),
}


def run_integrate(tmp_path, capsys, monkeypatch, name):
    """Exit code, CSV bytes and stderr of one ``INTEGRATE_RUNS`` entry, with
    the output written to a relative path so stderr names no directory."""
    config = tmp_path / f"{name}.json"
    if name == "abort":
        config.write_text(json.dumps(LINE_EXP))
    else:
        config.write_bytes(
            resources.files("algmech").joinpath(f"fixtures/{name}.json").read_bytes()
        )
    monkeypatch.chdir(tmp_path)
    out = f"integrate-{name}.csv"
    code = main(["integrate", "--config", str(config), *INTEGRATE_RUNS[name], "--output", out])
    return code, (tmp_path / out).read_bytes(), capsys.readouterr().err


@pytest.mark.parametrize("name", ["driftless", "heisenberg"])
def test_integrate_matches_golden(tmp_path, capsys, monkeypatch, name):
    code, csv_bytes, err = run_integrate(tmp_path, capsys, monkeypatch, name)
    assert (code, err) == (0, "")
    assert csv_bytes == (GOLDEN / f"integrate-{name}.csv").read_bytes()


def test_integrate_abort_matches_golden(tmp_path, capsys, monkeypatch):
    code, csv_bytes, err = run_integrate(tmp_path, capsys, monkeypatch, "abort")
    assert code == 1
    assert csv_bytes == (GOLDEN / "integrate-abort.csv").read_bytes()
    assert err == (GOLDEN / "integrate-abort.stderr").read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(n, s) for n in FIXTURES for s in ("default", "7")]
        for name, seed in runs + [(n, None) for n in SYNTHETIC]:
            argv, golden = report_argv(Path(tmp), name, seed)
            if main([*argv, "--output", str(golden)]) != 0:
                sys.exit(f"report {name} at seed {seed} did not pass")
            print(f"wrote {golden}")
