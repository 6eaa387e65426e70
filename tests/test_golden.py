"""Golden-report gate: the shipped fixtures' JSON reports stay byte-identical.

The files under ``tests/golden/`` are ``algmech report --format json`` for
each fixture at its configured seed and at seed 7, and for two synthetic
systems whose configs are stored beside them: a dense-metric rank-4 and a
diagonal-metric rank-8 system (``dense-4.json``, ``diag-8.json``; written once
from ``perfbench/synth.py`` at sample seed 20261018 and kept as plain JSON, so
a change to the generator cannot move them).  These pin the m >= 4 semispray
and connection trees, which the fixtures (m <= 3) never reach.  A change that
moves any reported number fails here; if the move is intended, regenerate the
files and list each changed number in CHANGES.md.
"""

from importlib import resources
from pathlib import Path

import pytest

from algmech.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("seed", ["default", "7"])
@pytest.mark.parametrize("name", ["driftless", "abelian", "heisenberg"])
def test_report_matches_golden(tmp_path, capsys, name, seed):
    config = tmp_path / f"{name}.json"
    config.write_bytes(
        resources.files("algmech").joinpath(f"fixtures/{name}.json").read_bytes()
    )
    argv = ["report", "--config", str(config), "--format", "json"]
    if seed != "default":
        argv += ["--seed", seed]
    assert main(argv) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"report-{name}-{seed}.json").read_text()
    assert got == want


@pytest.mark.parametrize("name", ["dense-4", "diag-8"])
def test_synthetic_report_matches_golden(capsys, name):
    argv = ["report", "--config", str(GOLDEN / f"{name}.json"), "--format", "json"]
    assert main(argv) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"report-{name}.json").read_text()
    assert got == want
