import contextlib
import io
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from algmech.cli import main
from algmech.config import load_config, parse_config
from algmech.errors import ConfigError

DOCS = Path(__file__).resolve().parents[1] / "docs"


def fixture_bytes(name: str) -> bytes:
    return resources.files("algmech").joinpath(f"fixtures/{name}.json").read_bytes()


def fixture_path(tmp_path: Path, name: str = "driftless") -> Path:
    out = tmp_path / f"{name}.json"
    out.write_bytes(fixture_bytes(name))
    return out


def line_system(lagrangian: str, base_dim: int = 1, fiber_rank: int = 1) -> dict:
    """A system on a line (identity anchor), or with the dimensions given."""
    return {
        "name": "line",
        "base_dim": base_dim,
        "fiber_rank": fiber_rank,
        "base_coords": ["x"][:base_dim],
        "fiber_coords": ["y"][:fiber_rank],
        "anchor": [["1"][:fiber_rank]][:base_dim],
        "structure": [],
        "lagrangian": lagrangian,
        "candidates": [],
        "samples": {"count": 5, "seed": 1, "box": {}},
        "tolerance": 1e-9,
    }


def edited_fixture(tmp_path: Path, mutate, name="driftless") -> Path:
    raw = json.loads(fixture_bytes(name))
    mutate(raw)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(raw))
    return out


class TestLoadConfig:
    def test_driftless_loads(self, driftless):
        assert driftless.name == "driftless"
        assert driftless.algebroid.n == 3
        assert driftless.algebroid.m == 2
        assert len(driftless.candidates) == 7

    def test_fixtures_satisfy_schema(self):
        schema = json.loads((DOCS / "config.schema.json").read_text())
        for name in ("driftless", "abelian", "heisenberg"):
            jsonschema.validate(json.loads(fixture_bytes(name)), schema)

    def test_double_star_is_a_parse_error(self, tmp_path):
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian="u1**2"))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "/lagrangian" in str(exc.value)
        assert "offset" in str(exc.value)

    def test_unknown_identifier_names_offender(self, tmp_path):
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian="0.5*u3^2"))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "u3" in str(exc.value)

    def test_anchor_must_be_base_only(self, tmp_path):
        def mutate(raw):
            raw["anchor"][0][0] = "u1"

        path = edited_fixture(tmp_path, mutate)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "/anchor/0/0" in str(exc.value)

    def test_requires_dynamics(self, tmp_path):
        def mutate(raw):
            raw["lagrangian"] = None

        path = edited_fixture(tmp_path, mutate)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_diagonal_structure_entry_rejected(self, tmp_path):
        def mutate(raw):
            raw["structure"].append({"alpha": 1, "beta": 1, "gamma": 2, "expr": "1"})

        path = edited_fixture(tmp_path, mutate)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "antisymmetry" in str(exc.value)

    def test_fiber_box_needs_positive_floor(self, tmp_path):
        def mutate(raw):
            raw["samples"]["box"] = {"u1": [-1.0, 1.0]}

        path = edited_fixture(tmp_path, mutate)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "/samples/box/u1" in str(exc.value)

    def test_semispray_override(self, tmp_path):
        def mutate(raw):
            raw["semispray"] = ["-(u1*u2)", "u1^2"]

        cfg = load_config(edited_fixture(tmp_path, mutate))
        assert cfg.semispray_override is not None

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/system.json")

    def test_parse_config_reports_type_errors(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"name": "x", "base_dim": "three"})
        assert "/base_dim" in str(exc.value)


class TestExitCodes:
    def test_validate_fixture_passes(self, tmp_path, capsys):
        assert main(["validate", "--config", str(fixture_path(tmp_path))]) == 0

    def test_validate_tampered_structure_fails(self, tmp_path, capsys):
        def mutate(raw):
            raw["structure"][0]["expr"] = "x2"

        path = edited_fixture(tmp_path, mutate)
        assert main(["validate", "--config", str(path)]) == 1

    def test_validate_inconsistent_override_fails(self, tmp_path, capsys):
        def mutate(raw):
            raw["semispray"] = ["-(u1*u2)+1", "u1^2"]

        path = edited_fixture(tmp_path, mutate)
        assert main(["validate", "--config", str(path)]) == 1

    def test_validate_degenerate_lagrangian_fails(self, tmp_path, capsys):
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian="u1"))
        assert main(["validate", "--config", str(path)]) == 1

    def test_config_error_is_usage_error(self, tmp_path, capsys):
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian="u1**2"))
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "dims,lagrangian,command",
        [
            ((0, 1), "0.5*y^2", "validate"),
            ((0, 1), "0.5*y^2", "report"),
            ((1, 0), "x^2", "spray-check"),
            ((1, 0), "x^2", "report"),
        ],
    )
    def test_dimension_below_one_is_usage_error(
        self, tmp_path, capsys, dims, lagrangian, command
    ):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(line_system(lagrangian, *dims)))
        assert main([command, "--config", str(path)]) == 2
        message = capsys.readouterr().err.strip()
        field = "/base_dim" if dims[0] == 0 else "/fiber_rank"
        assert message == f"config error: {field}: expected a positive integer"

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["validate", "--config", "/no/such/file.json"]) == 2

    def test_symmetry_expectations_met(self, tmp_path, capsys):
        assert main(["symmetry", "--config", str(fixture_path(tmp_path))]) == 0

    def test_spray_check_passes(self, tmp_path, capsys):
        assert main(["spray-check", "--config", str(fixture_path(tmp_path))]) == 0

    def test_report_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(
            ["report", "--config", str(fixture_path(tmp_path)), "--output", str(out)]
        )
        assert code == 0

    @pytest.mark.parametrize("name", ["abelian", "heisenberg"])
    def test_other_fixtures_pass_end_to_end(self, tmp_path, capsys, name):
        cfg = fixture_path(tmp_path, name)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["symmetry", "--config", str(cfg)]) == 0
        out = tmp_path / "rep.md"
        assert main(
            ["report", "--config", str(cfg), "--format", "md", "--output", str(out)]
        ) == 0
        assert f"# System report: {name}" in out.read_text()


class TestJsonOutputOfInexactFields:
    """JSON reports of fields whose homogeneity residual is not exactly zero."""

    WOBBLE = {
        "name": "wobble",
        "base_dim": 1,
        "fiber_rank": 1,
        "base_coords": ["x"],
        "fiber_coords": ["y"],
        "anchor": [["1"]],
        "lagrangian": "0.5*(2+sin(x))*y^2",
    }

    def run_json(self, tmp_path, capsys, raw, command):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(raw))
        code = main([command, "--config", str(path), "--format", "json"])
        return code, json.loads(capsys.readouterr().out)

    def test_report_and_spray_check(self, tmp_path, capsys):
        code, spray = self.run_json(tmp_path, capsys, self.WOBBLE, "spray-check")
        assert code == 0
        assert 0.0 < spray["homogeneity"] <= spray["tol"]
        assert spray["is_spray"] is True
        code, report = self.run_json(tmp_path, capsys, self.WOBBLE, "report")
        assert code == 0
        assert report["spray"]["is_spray"] is True

    def test_non_spray_fails_with_a_json_verdict(self, tmp_path, capsys):
        raw = json.loads(fixture_bytes("driftless"))
        raw["lagrangian"] = "0.5*(u1^2+u2^2)+x3"
        del raw["reference"]
        code, spray = self.run_json(tmp_path, capsys, raw, "spray-check")
        assert code == 1
        assert spray["is_spray"] is False
        _, report = self.run_json(tmp_path, capsys, raw, "report")
        assert report["spray"]["is_spray"] is False


class TestGeometryCommand:
    def test_values_at_point(self, tmp_path, capsys):
        code = main(
            [
                "geometry",
                "--config",
                str(fixture_path(tmp_path)),
                "--at",
                "x=0.5,1,0,y=1,2",
            ]
        )
        assert code == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["semispray"] == [-2.0, 1.0]
        assert frame["connection"][0][0] == 2.0
        assert frame["connection"][1] == [0.0, 0.0]
        assert max(frame["residuals"].values()) <= 1e-9
        # the published-table comparison is carried along, not suppressed:
        # the [0][1] coefficient deviates by 2*u1 by design
        dev = frame["reference_deviation"]["connection"]
        assert dev[0][1] == pytest.approx(-2.0, abs=1e-12)
        assert dev[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_fiber_point_rejected(self, tmp_path, capsys):
        code = main(
            [
                "geometry",
                "--config",
                str(fixture_path(tmp_path)),
                "--at",
                "x=0.5,1,0,y=0.0,0.01",
            ]
        )
        assert code == 2

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        code = main(
            ["geometry", "--config", str(fixture_path(tmp_path)), "--at", "x=1,2,y=1,2"]
        )
        assert code == 2

    def test_malformed_at_rejected(self, tmp_path, capsys):
        code = main(
            ["geometry", "--config", str(fixture_path(tmp_path)), "--at", "0.5,1,0"]
        )
        assert code == 2

    def test_user_connection_override(self, tmp_path, capsys):
        """Running with the published connection table: the general
        identities still gate (and pass), while the canonical-only
        comparisons move to diagnostics and show the sign gap."""

        def mutate(raw):
            raw["connection"] = [["u2", "u1"], ["0", "0"]]

        path = edited_fixture(tmp_path, mutate)
        code = main(
            ["geometry", "--config", str(path), "--at", "x=0.5,1,0,y=1,2"]
        )
        assert code == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["connection"] == [[2.0, 1.0], [0.0, 0.0]]
        assert max(frame["residuals"].values()) <= 1e-9
        assert frame["diagnostics"]["connection_vs_lie_derivative"] == pytest.approx(
            2.0, abs=1e-12
        )


class TestExampleCommand:
    def test_byte_stable_materialization(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["example", "driftless"]) == 0
        written = (tmp_path / "driftless.json").read_bytes()
        assert written == fixture_bytes("driftless")

    def test_explicit_output(self, tmp_path, capsys):
        out = tmp_path / "sys.json"
        assert main(["example", "heisenberg", "--output", str(out)]) == 0
        assert out.read_bytes() == fixture_bytes("heisenberg")

    def test_materialized_fixture_loads_and_validates(self, tmp_path, capsys):
        out = tmp_path / "abelian.json"
        assert main(["example", "abelian", "--output", str(out)]) == 0
        assert main(["validate", "--config", str(out)]) == 0


class TestIntegrateCommand:
    def test_writes_csv_with_energy_column(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "integrate",
                "--config",
                str(fixture_path(tmp_path)),
                "--x0",
                "0,1,0",
                "--y0",
                "1,0",
                "--dt",
                "1e-3",
                "--steps",
                "200",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,u1,u2,E"
        assert len(lines) == 202
        summary = json.loads(capsys.readouterr().out)
        assert summary["energy_drift"] <= 1e-9
        # the energy column itself shows the drift bound
        energies = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-9

    def abort(self, tmp_path, capsys, lagrangian, dt):
        """Integrate L on a line from x = y = 1; return the stderr line."""
        cfg = tmp_path / "line.json"
        cfg.write_text(json.dumps(line_system(lagrangian)))
        out = tmp_path / "traj.csv"
        argv = ["integrate", "--config", str(cfg), "--x0=1", "--y0=1"]
        argv += ["--dt", dt, "--steps", "400", "--output", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.strip()
        assert "\n" not in message and "Traceback" not in message
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,x,y,E"
        assert 2 <= len(rows) < 400
        for row in rows[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(","))
        return message

    def test_blow_up_aborts_with_the_finite_prefix(self, tmp_path, capsys):
        # x'' = -4 x^3 with dt = 0.1 overflows within ten steps
        message = self.abort(tmp_path, capsys, "0.5*y^2+x^4", "0.1")
        assert message.startswith("integration aborted: non-finite state")

    def test_function_overflow_aborts_with_the_finite_prefix(self, tmp_path, capsys):
        # x'' = exp(x) runs away until exp itself overflows inside a step
        message = self.abort(tmp_path, capsys, "0.5*y^2+exp(x)", "0.5")
        assert message.startswith("integration aborted: exp overflows at ")
        assert "in 'exp(x)'" in message

    def test_wrong_dimension_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "integrate",
                "--config",
                str(fixture_path(tmp_path)),
                "--x0",
                "0,1",
                "--y0",
                "1,0",
            ]
        )
        assert code == 2


class TestBadArguments:
    """Every bad argument exits 2 with a one-line message and no traceback."""

    def usage_error(self, capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        message = captured.err.strip()
        assert message.startswith("config error: ")
        assert "\n" not in message and "Traceback" not in message
        return message

    def integrate(self, tmp_path, *extra):
        argv = ["integrate", "--config", str(fixture_path(tmp_path)), "--x0=0,1,0"]
        return argv + ["--y0=1,0", "--output", str(tmp_path / "t.csv"), *extra]

    def test_unparsable_x0(self, tmp_path, capsys):
        argv = self.integrate(tmp_path, "--x0=abc")
        assert "--x0: bad number" in self.usage_error(capsys, argv)

    @pytest.mark.parametrize(
        "flag,value", [("--dt", "0"), ("--dt", "-1"), ("--steps", "0")]
    )
    def test_step_size_and_count(self, tmp_path, capsys, flag, value):
        argv = self.integrate(tmp_path, f"{flag}={value}")
        assert flag in self.usage_error(capsys, argv)
        assert not (tmp_path / "t.csv").exists()

    def test_report_output_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        argv = ["report", "--config", str(fixture_path(tmp_path)), "--output", str(out)]
        assert "--output: cannot write" in self.usage_error(capsys, argv)

    def test_integrate_output_in_missing_directory(self, tmp_path, capsys):
        argv = self.integrate(tmp_path, "--steps=3", "--output", str(tmp_path / "no" / "t.csv"))
        assert "--output: cannot write" in self.usage_error(capsys, argv)

    @pytest.mark.parametrize("command", ["validate", "report", "spray-check"])
    def test_deeply_nested_lagrangian(self, tmp_path, capsys, command):
        terms = "+".join(f"{k % 7}*x1" for k in range(3000))
        cfg = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian=f"0.5*(u1^2+u2^2)+{terms}"))
        message = self.usage_error(capsys, [command, "--config", str(cfg)])
        assert message == "config error: expression nests too deeply"


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "abc", "1e999", "-", "1,,2", " 0.5 ", "nan", "-inf"]),
)


def _number_lists(count: int):
    return st.one_of(
        st.lists(st.floats(-3.0, 3.0).map(repr), min_size=count, max_size=count).map(",".join),
        st.lists(_NUMBERS, min_size=count, max_size=count).map(",".join),
        st.text(alphabet="xy=0123456789.,-+e ", max_size=16),
    )


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    at=st.one_of(
        st.tuples(_number_lists(3), _number_lists(2)).map(lambda t: f"x={t[0]},y={t[1]}"),
        st.text(alphabet="xy=0123456789.,-e ", max_size=20),
    ),
    x0=_number_lists(3),
    y0=_number_lists(2),
    dt=st.sampled_from(["0.01", "1e-3", "0", "-1", "1e308", "nan", "inf", "abc", ""]),
    steps=st.sampled_from(["1", "3", "0", "-2", "1.5", "x", ""]),
)
def test_fuzzed_arguments_exit_cleanly(tmp_path_factory, at, x0, y0, dt, steps):
    """Random --at, --x0, --y0, --dt and --steps strings on driftless: the
    exit code is 0, 1 or 2, and no traceback reaches stderr."""
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = fixture_path(tmp)
    runs = [
        ["geometry", "--config", str(cfg), f"--at={at}"],
        ["integrate", "--config", str(cfg), f"--x0={x0}", f"--y0={y0}", f"--dt={dt}",
         f"--steps={steps}", "--output", str(tmp / "t.csv")],
    ]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse rejects the value
                code = exit_.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestReports:
    def test_report_is_deterministic(self, tmp_path, capsys):
        cfg = fixture_path(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["report", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["report", "--config", str(cfg), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path, capsys):
        cfg = fixture_path(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["report", "--config", str(cfg), "--output", str(a), "--seed", "1"])
        main(["report", "--config", str(cfg), "--output", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_report_matches_schema(self, tmp_path, capsys):
        cfg = fixture_path(tmp_path)
        out = tmp_path / "rep.json"
        main(["report", "--config", str(cfg), "--output", str(out)])
        schema = json.loads((DOCS / "report.schema.json").read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_markdown_format(self, tmp_path, capsys):
        cfg = fixture_path(tmp_path)
        out = tmp_path / "rep.md"
        main(["report", "--config", str(cfg), "--format", "md", "--output", str(out)])
        text = out.read_text()
        assert text.startswith("# System report: driftless")
        assert "## Symmetry candidates" in text

    def test_numbers_round_trip_through_17_digits(self, tmp_path, capsys):
        cfg = fixture_path(tmp_path)
        out = tmp_path / "rep.json"
        main(["report", "--config", str(cfg), "--output", str(out)])
        report = json.loads(out.read_text())
        point = report["geometry"][0]["point"]
        samples = load_config(cfg).sample_points()
        assert tuple(point["x"]) == samples[0].x
        assert tuple(point["y"]) == samples[0].y
