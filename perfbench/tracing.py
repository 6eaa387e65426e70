"""Span recorder for the traced run.

Spans wrap public ``algmech`` functions from outside: each name in
:data:`SPANS` is replaced, for the duration of a traced pass, in every
loaded ``algmech`` module (or on its class) that binds it, so the wrapper is
hit wherever a calling module looks the function up.  Only the outermost
call of a name is recorded.  A span whose function no longer exists is
reported as absent instead of raising.

Spans stay in memory as ``[name, start, end, parent, job]`` and are written
out once, at the end of the run.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

SPANS = (
    "cli.main",
    "config.load_config",
    "lagrangian.canonical_semispray",
    "connection.canonical_connection",
    "report.run_validation",
    "algebroid.Algebroid.validate",
    "lagrangian.fiber_metric",
    "prolongation.spray_test",
    "connection.geometry_frame",
    "symmetry.lie_symmetry_check",
    "symmetry.dynamical_symmetry_check",
    "symmetry.newtonoid_check",
    "symmetry.cartan_symmetry_check",
    "symmetry.conservation_check",
    "report.emit_json",
    "lagrangian.integrate_sode",
    "lagrangian.Trajectory.to_csv",
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack, open_names = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.job])
            stack.append(index)
            open_names.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                open_names.discard(name)

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self time, calls) over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child_time[k], calls + 1)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)


def _resolve(name: str):
    """(owner, attribute, function) of a span name, or None if it is gone."""
    module, *path = name.split(".")
    try:
        owner = importlib.import_module(f"algmech.{module}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, path[-1], None)
    return None if fn is None else (owner, path[-1], fn)


@contextmanager
def installed(recorder: Recorder):
    """Wrap every span function while the block runs; yields the absent names."""
    restore = []
    absent = []
    for name in SPANS:
        found = _resolve(name)
        if found is None:
            absent.append(name)
            continue
        owner, attr, fn = found
        wrapper = recorder.wrap(name, fn)
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "algmech"
                for key, value in vars(mod).items()
                if value is fn
            ]
        for target, key in bindings:
            restore.append((target, key, fn))
            setattr(target, key, wrapper)
    try:
        yield absent
    finally:
        for target, key, fn in reversed(restore):
            setattr(target, key, fn)
