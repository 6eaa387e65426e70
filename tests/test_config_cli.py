import contextlib
import io
import json
import math
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from algmech.cli import build_parser, main
from algmech.config import load_config, parse_config
from algmech.errors import ConfigError
from algmech.report import emit_json

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


# (fixture, edit, path of the key): each edit adds a key that neither the
# loader nor the schema allows there
UNKNOWN_KEYS = [
    ("driftless", lambda raw: raw.update(tolerence=1e-30), "/tolerence"),
    ("driftless", lambda raw: raw["samples"].update(cout=3), "/samples/cout"),
    (
        "driftless",
        lambda raw: raw["candidates"][0]["expect"].update(dynamicall=False),
        "/candidates/0/expect/dynamicall",
    ),
    (
        "driftless",
        lambda raw: raw["candidates"][0]["expect"].update(lie=False),
        "/candidates/0/expect/lie",
    ),
    (
        "driftless",
        lambda raw: raw["candidates"][2]["expect"].update(cartan=False),
        "/candidates/2/expect/cartan",
    ),
    (
        "driftless",
        lambda raw: raw["candidates"][1].update(expcet=raw["candidates"][1].pop("expect")),
        "/candidates/1/expcet",
    ),
    (
        "driftless",
        lambda raw: raw["candidates"][0].update(components=["1", "0"]),
        "/candidates/0/components",
    ),
    ("driftless", lambda raw: raw["candidates"][2].update(x=["1", "0"]), "/candidates/2/x"),
    ("driftless", lambda raw: raw["candidates"][5].update(v=["1", "0"]), "/candidates/5/v"),
    ("heisenberg", lambda raw: raw["structure"][0].update(exrp="x1"), "/structure/0/exrp"),
    (
        "driftless",
        lambda raw: raw["reference"]["curvature"][0].update(exrp="u2"),
        "/reference/curvature/0/exrp",
    ),
]
UNKNOWN_KEY_IDS = [
    "top-level", "samples", "expect", "lie-of-a-field", "cartan-of-a-section", "expcet",
    "components-of-a-field", "x-of-a-base-section", "v-of-a-function", "structure",
    "reference-curvature",
]
# (fixture, edit, path, loader message): a value of a type the schema forbids
MISTYPED = [
    ("driftless", lambda raw: raw["reference"].update(note={"a": 1}), "/reference/note",
     "expected a string"),
]
MISTYPED_IDS = ["reference-note"]


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
        for name in ("dense-4", "diag-8"):  # the synthetic systems of the goldens
            path = Path(__file__).resolve().parent / "golden" / f"{name}.json"
            jsonschema.validate(json.loads(path.read_text()), schema)

    @pytest.mark.parametrize(
        "name,mutate,where,message",
        [(*edit, "unknown key") for edit in UNKNOWN_KEYS] + MISTYPED,
        ids=UNKNOWN_KEY_IDS + MISTYPED_IDS,
    )
    def test_schema_rejects_the_unknown_keys_the_loader_rejects(
        self, name, mutate, where, message
    ):
        schema = json.loads((DOCS / "config.schema.json").read_text())
        raw = json.loads(fixture_bytes(name))
        jsonschema.validate(raw, schema)
        mutate(raw)
        with pytest.raises(ConfigError, match=f"^{where}: {message}"):
            parse_config(raw)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(raw, schema)

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

    def test_validate_evaluates_the_lagrangian(self, tmp_path, capsys):
        # the Lagrangian is undefined at every sample while its fiber metric
        # is the identity: validate fails with symmetry's line, naming sample 0
        lagrangian = "0.5*(u1^2+u2^2)+0*ln(0-1)"
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian=lagrangian))
        first = load_config(path).sample_points()[0]
        errors = []
        for command in ("validate", "symmetry"):
            assert main([command, "--config", str(path)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            f"check failed: ln is undefined at -1.0 in 'ln(0.0-1.0)' at {first}\n"
        )

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

    @pytest.mark.parametrize("box, floor", [(None, "0.1"), ([0.5, 1.0], "0.5")])
    def test_point_near_the_zero_section_names_the_floor(self, tmp_path, capsys, box, floor):
        # every |y| below the least lower end of the fiber boxes: the default
        # box's 0.1, or the configured one's
        def mutate(raw):
            if box is not None:
                raw["samples"]["box"] = {c: box for c in raw["fiber_coords"]}

        path = edited_fixture(tmp_path, mutate)
        assert main(["geometry", "--config", str(path), "--at", "x=0.5,1,0,y=0.09,-0.05"]) == 2
        assert capsys.readouterr() == (
            "", f"config error: --at: fiber part too close to the zero section (|y| < {floor})\n"
        )
        if box is not None:  # 0.4 is above the default floor, below this one
            assert main(["geometry", "--config", str(path), "--at", "x=0.5,1,0,y=0.4,-0.3"]) == 2
            assert capsys.readouterr().err.endswith(f"(|y| < {floor})\n")

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

    def test_real_power_at_a_tiny_base_is_defined(self, tmp_path, capsys):
        # the frame's first-order jets of x1^1.5 compute no f'' term, whose
        # 1/x1^2 overflows at x1 = 1e-200 though every quantity is finite
        lagrangian = "0.5*(v1^2+v2^2)+x1^2.5"
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian=lagrangian), "abelian")
        assert main(["geometry", "--config", str(path), "--at", "x=1e-200,1,y=1,1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert max(json.loads(captured.out)["residuals"].values()) <= 1e-9

    def test_point_where_the_lagrangian_is_undefined_fails_in_one_line(self, tmp_path, capsys):
        # S = 1/x is defined at x = -1, L = 0.5*y^2 + ln(x) is not: the
        # frame evaluates L itself, as validation does
        cfg = tmp_path / "ln.json"
        cfg.write_text(json.dumps(line_system("0.5*y^2+ln(x)")))
        assert main(["geometry", "--config", str(cfg), "--at", "x=-1,y=1"]) == 1
        assert capsys.readouterr() == (
            "", "check failed: ln is undefined at -1.0 in 'ln(x)' at (x=[-1.0], y=[1.0])\n"
        )

    @pytest.mark.parametrize("name", ["driftless", "abelian", "heisenberg"])
    def test_frame_equals_the_reports_frame(self, tmp_path, capsys, name):
        # geometry --at the point of a report's frame 0 prints that frame
        # (numbers read as floats keep the sign of a "-0")
        path = fixture_path(tmp_path, name)
        assert main(["report", "--config", str(path)]) == 0
        frame = json.loads(capsys.readouterr().out, parse_int=float)["geometry"][0]
        x, y = (",".join(map(repr, frame["point"][k])) for k in ("x", "y"))
        assert main(["geometry", "--config", str(path), "--at", f"x={x},y={y}"]) == 0
        assert capsys.readouterr().out == emit_json(frame) + "\n"

    def test_non_finite_point_fails_in_one_line(self, tmp_path, capsys):
        # every number overflows at 1e200: one line that names the point, no
        # numpy warning, and no report with "nan" or "inf" in it
        out = tmp_path / "frame.json"
        argv = ["geometry", "--config", str(fixture_path(tmp_path)), "--output", str(out)]
        argv += ["--at=x=1e200,1e200,0,y=1e200,1e200"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == (
            "check failed: geometry is not finite at "
            "(x=[1e+200, 1e+200, 0.0], y=[1e+200, 1e+200])\n"
        )
        assert not out.exists()

    def test_symmetry_on_huge_samples_fails_in_one_line(self, tmp_path, capsys):
        # every sample in [1e150, 1e151]: the brackets overflow, so the sweep
        # stops at the first sample whose residual is not finite, without a
        # numpy warning and without a report with "inf" in it
        def mutate(raw):
            coords = raw["base_coords"] + raw["fiber_coords"]
            raw["samples"]["box"] = {c: [1e150, 1e151] for c in coords}

        out = tmp_path / "symmetry.json"
        argv = ["symmetry", "--config", str(edited_fixture(tmp_path, mutate))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--output", str(out)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("check failed: dynamical residual is not finite at (x=[")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_overflowing_anchor_fails_in_one_line(self, tmp_path, capsys, command):
        # the anchor entry is +-inf at every sample with x1 != 0, so the flow
        # terms inf * 0 of the cyclic sum are NaN: the sweep names the first
        # such sample instead of letting Python's max skip the NaN
        def mutate(raw):
            raw["anchor"][0][0] = "1+x1*1e200*1e200"

        out = tmp_path / "out.json"
        argv = [command, "--config", str(edited_fixture(tmp_path, mutate, "abelian"))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--output", str(out)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("check failed: cyclic residual is not finite at (x=[")
        assert err.count("\n") == 1
        assert not out.exists()


class TestFiberMetric:
    """Lagrangians whose fiber metric overflows end without a traceback."""

    def run(self, tmp_path, command, lagrangian, name="abelian"):
        path = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian=lagrangian), name)
        out = tmp_path / "out.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--output", str(out)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code, out

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_overflowing_cutoff_marks_the_metric_singular(self, tmp_path, capsys, command):
        # g = diag(1e200, 1): the relative cutoff 1e-10 * 1e200^2 overflows to
        # inf, which marks the metric singular, as diag(1e-200, 1) is
        code, out = self.run(tmp_path, command, "0.5*1e200*v1^2+0.5*v2^2")
        assert code == 1
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        metric = report.get("validation", report)["metric"]
        assert metric["regular"] is False
        assert metric["detail"].startswith("singular fiber metric at (x=[")

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_tiny_singular_metric_is_marked_singular(self, tmp_path, capsys, command):
        # g = 2e-200 [[1, 1], [1, 1]]: exactly singular, and so small that a
        # cutoff of 1e-10 * scale^2 underflows to 0; the cutoff on g / scale
        # marks it singular, as for any other singular metric
        code, out = self.run(tmp_path, command, "1e-200*(v1+v2)^2")
        assert code == 1
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        metric = report.get("validation", report)["metric"]
        assert metric["regular"] is False
        assert metric["detail"].startswith("singular fiber metric at (x=[")

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_metric_that_is_not_finite_fails_in_one_line(self, tmp_path, capsys, command):
        code, out = self.run(tmp_path, command, "0.5*1e300*1e300*v1^2+0.5*v2^2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: fiber metric is not finite at (x=[")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_lagrangian_is_not_blamed_on_the_metric(self, tmp_path, capsys):
        # the infinite term is linear in x1, so the fiber metric read from its
        # trees is the identity; the semispray's dL/dx1 is what overflows
        lagrangian = "0.5*(y1^2+y2^2+y3^2)+1e200*1e200*x1"
        code, out = self.run(tmp_path, "validate", lagrangian, "heisenberg")
        assert code == 0
        assert json.loads(out.read_text())["metric"]["regular"] is True
        assert capsys.readouterr().err == ""
        out.unlink()
        code, out = self.run(tmp_path, "report", lagrangian, "heisenberg")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: homogeneity residual is not finite at (x=[")
        assert err.count("\n") == 1
        assert not out.exists()


class TestReference:
    """The reference block is parsed when the config loads: a bad entry is a
    config error, and a deviation that is not finite fails in one line."""

    def run(self, tmp_path, command, key, value):
        path = edited_fixture(tmp_path, lambda raw: raw["reference"].update({key: value}))
        out = tmp_path / "out.json"
        argv = [command, "--config", str(path), "--output", str(out)]
        if command == "geometry":
            argv += ["--at", "x=0.1,0.2,0.3,y=1,2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code, out

    @pytest.mark.parametrize("command", ["report", "geometry"])
    @pytest.mark.parametrize(
        "key, value, where",
        [
            ("semispray", ["u1+", "u1^2"], "semispray/0: unexpected end of input (at offset 3)"),
            ("semispray", 5, "semispray: expected 2 expressions"),
            ("semispray", ["u1"], "semispray: expected 2 expressions"),
            (
                "curvature",
                [{"alpha": 9, "beta": 2, "gamma": 1, "expr": "u2"}],
                "curvature/0/alpha: index out of range 1..2",
            ),
            (
                "curvature",
                [{"alpha": 1, "gamma": 1, "expr": "u2"}],
                "curvature/0/beta: missing required field",
            ),
            ("connection", [[1, 2], [3, 4]], "connection/0/0: expected an expression string"),
        ],
    )
    def test_bad_entry_is_a_config_error(self, tmp_path, capsys, command, key, value, where):
        code, out = self.run(tmp_path, command, key, value)
        assert code == 2
        assert capsys.readouterr().err == f"config error: /reference/{where}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "geometry"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("semispray", ["1e200*1e200", "u1^2"]),
            ("connection", [["u2", "1e200*1e200"], ["0", "0"]]),
            (
                "curvature",
                [{"alpha": 1, "beta": 2, "gamma": 1, "expr": "1e200*1e200-1e200*1e200"}],
            ),
        ],
    )
    def test_deviation_that_is_not_finite_fails_in_one_line(
        self, tmp_path, capsys, command, key, value
    ):
        code, out = self.run(tmp_path, command, key, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"check failed: reference {key} deviation is not finite at (x=[")
        assert err.count("\n") == 1
        assert not out.exists()


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

    def test_domain_error_names_the_state(self, tmp_path, capsys):
        # the energy's ln(x) is undefined at the start point, which the
        # abort names as a sweep names a sample
        cfg = tmp_path / "ln.json"
        cfg.write_text(json.dumps(line_system("0.5*y^2+ln(x)")))
        out = tmp_path / "traj.csv"
        argv = ["integrate", "--config", str(cfg), "--x0=-1", "--y0=1", "--output", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "integration aborted: ln is undefined at -1.0 in 'ln(x)' at (x=[-1.0], y=[1.0]); "
            f"wrote the 0 finite rows before it to {out}\n"
        )

    def test_matmul_overflow_aborts_in_one_line(self, tmp_path, capsys):
        # sigma y overflows in the first step: one abort line, no numpy warning
        out = tmp_path / "traj.csv"
        argv = ["integrate", "--config", str(fixture_path(tmp_path)), "--x0=1e160,1,0"]
        argv += ["--y0=0,1e154", "--dt", "1", "--steps", "3", "--output", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("integration aborted: "), lines

    @pytest.mark.parametrize(
        "anchor, argv, message, rows",
        [
            # the anchor's ln(x) fails inside sigma y at a stage's state
            (
                "ln(x)",
                ["--x0=0.5", "--y0=1", "--dt=0.1"],
                "ln is undefined at -0.06661888286057385 in 'ln(x)' at "
                "(x=[-0.06661888286057385], y=[1.0]); wrote the 4 finite rows",
                4,
            ),
            # x^3 y overflows to a non-finite state, with no domain error
            ("x^3", ["--x0=2", "--y0=1", "--dt=0.5"], "non-finite state at t = 1.0", 2),
        ],
    )
    def test_abort_inside_the_anchored_velocity(self, tmp_path, capsys, anchor, argv, message, rows):
        raw = line_system("0.5*y^2")
        raw["anchor"] = [[anchor]]
        cfg = tmp_path / "line.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["integrate", "--config", str(cfg), *argv, "--output", str(out)])
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith(f"integration aborted: {message}") and err.count("\n") == 1, err
        assert len(out.read_text().splitlines()) == 1 + rows

    def test_singular_metric_is_named_as_geometry_names_it(self, tmp_path, capsys):
        # g = [[1, x], [x, 1]] is singular at x = 1: the RK4 kernel, which
        # walks its trees again to name the fault, words the point as the
        # frame batch of ``geometry`` does
        raw = line_system("0.5*(y1^2+y2^2)+x*y1*y2", fiber_rank=2)
        raw.update(fiber_coords=["y1", "y2"], anchor=[["1", "0"]])
        cfg = tmp_path / "skew.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "traj.csv"
        argv = ["integrate", "--config", str(cfg), "--x0=1", "--y0=1,0", "--output", str(out)]
        assert main(argv) == 1
        assert main(["geometry", "--config", str(cfg), "--at", "x=1,y=1,0"]) == 1
        integrate, geometry = capsys.readouterr().err.splitlines()
        named = "singular fiber metric at (x=[1.0], y=[1.0, 0.0]) (det = "
        assert integrate.startswith(f"integration aborted: {named}")
        assert geometry.startswith(f"check failed: {named}")

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
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejects the value
            code = exit_.code
        assert code == 2
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
        "flag,value",
        [("--dt", "0"), ("--dt", "-1"), ("--steps", "0"), ("--steps", "1.5"), ("--dt", "abc")],
    )
    def test_step_size_and_count(self, tmp_path, capsys, flag, value):
        argv = self.integrate(tmp_path, f"{flag}={value}")
        assert flag in self.usage_error(capsys, argv)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "config_value,flag",
        [
            (math.nan, None),
            (math.inf, None),
            (-math.inf, None),
            (None, "nan"),
            (None, "inf"),
            (None, "-1"),
        ],
    )
    def test_tolerance_that_is_not_positive_and_finite(self, tmp_path, capsys, config_value, flag):
        # JSON reads NaN and Infinity, and argparse reads nan and inf
        cfg = fixture_path(tmp_path)
        if config_value is not None:
            cfg = edited_fixture(tmp_path, lambda raw: raw.update(tolerance=config_value))
        for command in ("validate", "symmetry"):
            argv = [command, "--config", str(cfg), "--output", str(tmp_path / "out.json")]
            where = "/tolerance" if flag is None else "--tol"
            message = self.usage_error(capsys, argv if flag is None else argv + [f"--tol={flag}"])
            assert message == f"config error: {where}: expected a positive finite number"
            assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "name,mutate,where",
        [
            *UNKNOWN_KEYS,
            (
                "driftless",
                lambda raw: raw["candidates"][0].update(name=[1, {"a": 2}]),
                "/candidates/0/name",
            ),
            *(edit[:3] for edit in MISTYPED),
        ],
        ids=[*UNKNOWN_KEY_IDS, "name", *MISTYPED_IDS],
    )
    def test_misspelt_or_mistyped_key(self, tmp_path, capsys, name, mutate, where):
        cfg = edited_fixture(tmp_path, mutate, name)
        for command in ("validate", "symmetry"):
            message = self.usage_error(capsys, [command, "--config", str(cfg)])
            assert message.startswith(f"config error: {where}: ")

    @pytest.mark.parametrize(
        "bounds",
        [[math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0], [0, 10**400]],
        ids=["nan", "inf", "-inf", "int-beyond-floats"],
    )
    def test_sample_box_bound_that_is_not_finite(self, tmp_path, capsys, bounds):
        cfg = edited_fixture(tmp_path, lambda raw: raw["samples"].update(box={"x1": bounds}))
        message = self.usage_error(capsys, ["validate", "--config", str(cfg)])
        assert message == "config error: /samples/box/x1: expected finite bounds"

    def test_sample_box_whose_width_overflows(self, tmp_path, capsys):
        box = {"x1": [-1e308, 1e308]}
        cfg = edited_fixture(tmp_path, lambda raw: raw["samples"].update(box=box))
        message = self.usage_error(capsys, ["validate", "--config", str(cfg)])
        assert message == "config error: /samples/box/x1: width hi - lo overflows"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_command_line_number_that_is_not_finite(self, tmp_path, capsys, value):
        geometry = ["geometry", "--config", str(fixture_path(tmp_path))]
        for argv, flag in (
            (geometry + [f"--at=x={value},0,0,y=1,1"], "--at"),
            (geometry + [f"--at=x=0,0,0,y=1,{value}"], "--at"),
            (self.integrate(tmp_path, f"--x0={value},0,0"), "--x0"),
            (self.integrate(tmp_path, f"--y0=1,{value}"), "--y0"),
        ):
            message = self.usage_error(capsys, argv)
            assert message == f"config error: {flag}: expected finite numbers"
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
        """Sums and chains far deeper than Python's recursion limit are not a
        usage error: every tree walk is iterative, so each run ends as any
        other does (the linear potential makes the field no spray)."""
        potentials = [
            "+".join(f"{k % 7}*x1" for k in range(1_000)),
            "+".join(f"{k % 7}*x1" for k in range(20_000)),
            "sin(" * 5_000 + "x1" + ")" * 5_000,
            "(" * 5_000 + "x1" + ")" * 5_000,
            "-" * 5_000 + "x1",
        ]
        out = tmp_path / "out.json"
        for potential in potentials:
            lagrangian = f"0.5*(u1^2+u2^2)+{potential}"
            cfg = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian=lagrangian))
            out.unlink(missing_ok=True)
            assert main([command, "--config", str(cfg), "--output", str(out)]) in (0, 1)
            assert out.exists()
            err = capsys.readouterr().err
            assert err.count("\n") <= 1 and "Traceback" not in err

    def test_domain_error_in_a_long_subexpression_is_one_short_line(self, tmp_path, capsys):
        """The message names a subexpression of 140,007 characters by its
        first 200 and its length, and still names the failing sample."""
        zeros = "+".join("0*x1" for _ in range(20_000))
        lagrangian = f"0.5*(u1^2+u2^2)+ln({zeros}-1)"
        cfg = edited_fixture(tmp_path, lambda raw: raw.update(lagrangian=lagrangian))
        assert main(["report", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 500
        assert err.startswith("check failed: ln is undefined at -1.0 in 'ln(0.0*x1+0.0*x1+")
        assert "...' (140007 characters) at (x=[" in err


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
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: "), (argv, lines)


class TestReports:
    def test_a_frame_residual_fails_report_and_geometry(self, tmp_path, capsys, monkeypatch):
        """Both commands gate on the residuals of the frames they print."""
        import algmech.connection

        exact = algmech.connection.jacobi_from_bracket
        monkeypatch.setattr(
            algmech.connection, "jacobi_from_bracket", lambda *args: exact(*args) + 1.0
        )
        cfg = str(fixture_path(tmp_path, "abelian"))
        assert main(["report", "--config", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["validation"]["passed"] and report["symmetry"]["all_ok"]
        assert report["geometry"][0]["residuals"]["jacobi_vs_bracket"] > 0.5
        assert report["passed"] is False
        assert main(["geometry", "--config", cfg, "--at", "x=0.5,1,y=1,2"]) == 1

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

    def test_control_characters_in_a_name_are_escaped(self, tmp_path, capsys):
        name = "a\tb\u0001"
        cfg = edited_fixture(tmp_path, lambda raw: raw.update(name=name))
        assert main(["report", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["name"] == name

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


# -- main's one-subcommand parser answers as the full parser does ------------

# the arguments each subcommand requires, with placeholder values
_REQUIRED = {
    "validate": ["--config", "c.json"],
    "geometry": ["--config", "c.json", "--at", "x=0,y=1"],
    "spray-check": ["--config", "c.json"],
    "symmetry": ["--config", "c.json"],
    "integrate": ["--config", "c.json", "--x0", "0", "--y0", "1"],
    "example": ["driftless"],
    "report": ["--config", "c.json"],
}
_PARSE_FAILURES = [[], ["--help"], ["bogus", "--config", "c.json"]] + [
    argv
    for name, required in _REQUIRED.items()
    for argv in (
        [name, "--help"],
        [name],  # a required option or argument missing
        [name, *required, "--nope"],
        [name, *required, "--steps" if name == "integrate" else "--seed", "1.5"],
    )
]


def _outcome(parse, argv) -> tuple[str, str, object]:
    """Standard output, standard error and exit code of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", _PARSE_FAILURES, ids=" ".join)
def test_main_parses_as_the_full_parser(argv):
    """main builds only the subcommand it is given; help, usage errors and
    bad values come out byte for byte as from the parser of every command
    (compared at run time, so they hold for any argparse version)."""
    full = _outcome(lambda a: build_parser().parse_args(a), argv)
    assert full[2] in (0, 2)  # the full parser exits: nothing is run
    assert _outcome(main, argv) == full
