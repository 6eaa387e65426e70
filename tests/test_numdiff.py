"""The re-baselining tool ``tools/numdiff.py``: it lists every moved number of
two outputs and refuses outputs that differ in anything but numbers."""

import importlib.util
from pathlib import Path

import pytest

from algmech.report import emit_json

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "numdiff.py"
_spec = importlib.util.spec_from_file_location("numdiff", _TOOL)
numdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(numdiff)


def test_json_rows_name_each_moved_number():
    old = emit_json({"a": [1.0, -0.0, 2.5], "b": {"n": 20, "ok": True}, "r": 3.0})
    new = emit_json({"a": [1.0, 0.0, 2.5000000000000004], "b": {"n": 20, "ok": True}, "r": 5.0})
    moved = numdiff.changed(numdiff.number_rows(old, new))
    assert moved == [
        ("/a/1", -0.0, 0.0, 0.0, 0.0),  # a flipped zero is listed
        ("/a/2", 2.5, 2.5000000000000004, 4.440892098500626e-16, 4.440892098500626e-16 / 2.5),
        ("/r", 3.0, 5.0, 2.0, 2.0 / 3.0),
    ]


def test_text_rows_are_named_by_line_and_column():
    old = "# Report\n- homogeneity: 1e-16\n- samples: 20\n"
    new = "# Report\n- homogeneity: 3e-16\n- samples: 20\n"
    assert numdiff.changed(numdiff.number_rows(old, new)) == [("2:16", 1e-16, 3e-16, 2e-16, 2e-16)]


@pytest.mark.parametrize(
    "old,new",
    [
        ('{"passed": true, "x": 1}', '{"passed": false, "x": 1}'),
        ('{"x": [1, 2]}', '{"x": [1, 2, 3]}'),
        ("- is spray: True\n- x: 1\n", "- is spray: False\n- x: 1\n"),
    ],
)
def test_anything_but_a_number_differs(old, new):
    assert numdiff.number_rows(old, new) is None


def test_exit_status_and_table(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"x": [0.1, 0.2]}')
    b.write_text('{"x": [0.1, 0.30000000000000004]}')
    assert numdiff.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 of 2 numbers changed; largest change 0 absolute, 0 relative\n"
    assert numdiff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "| `/x/1` | 0.2 | 0.30000000000000004 | 0.1 | 0.1 |"
    assert out[-1] == "1 of 2 numbers changed; largest change 0.1 absolute, 0.1 relative"
    b.write_text('{"y": [0.1, 0.2]}')
    assert numdiff.main([str(a), str(b)]) == 2
