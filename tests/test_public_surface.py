"""The public surface: every exported name exists, and the README's library
example runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import algmech
from algmech.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exported_names_resolve_and_the_readme_example_runs(tmp_path, capsys, monkeypatch):
    for info in pkgutil.iter_modules(algmech.__path__):
        module = importlib.import_module(f"algmech.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"algmech.{info.name}.__all__ names {missing}"

    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["example", "driftless"]) == 0
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "jacobi_vs_bracket" in printed and "True" in printed
