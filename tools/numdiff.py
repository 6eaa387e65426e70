"""List every number that differs between two outputs of algmech.

    python tools/numdiff.py OLD NEW

OLD and NEW are two JSON documents (reports, geometry frames, the pinned
library dump) or two text outputs (Markdown reports, CSV trajectories).  JSON
documents are matched leaf by leaf with perfbench's ``_json_pairs`` and a
number is named by its JSON pointer; text is matched number by number with
perfbench's ``_NUMBER`` and a number is named by its line and column in NEW.
Each changed number gets one row of a Markdown table: position, old value,
new value, absolute change and relative change.  The relative change is
taken to max(1, |old|), the scale of perfbench's reference tolerance, so a
number that should be 0 (a residual) is measured absolutely.  A number
counts as changed when its value prints differently, so a zero that flips
sign is listed too, with a change of 0.

Exit status as for diff(1): 0 when no number moved, 1 when some did, 2 when
the two differ in anything but their numbers.

This is the re-baselining tool for the golden files: keep a copy of the
committed goldens, write them again (``python tests/test_golden.py`` and
``python tests/test_pinned_library.py``, with ``PYTHONPATH=src``), run this
on each copy and its new file, and record the tables with the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import _NUMBER, _json_pairs  # noqa: E402


def _json_rows(a, b, path: str = ""):
    """(pointer, old, new) of every numeric leaf of two documents whose
    structure ``_json_pairs`` has matched, in its order."""
    if isinstance(a, dict):
        for k in a:
            yield from _json_rows(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_rows(x, y, f"{path}/{i}")
    else:
        for x, y in _json_pairs(a, b):
            yield path or "/", x, y


def _text_rows(old: str, new: str):
    """(line:column, old, new) of every number of two texts that differ in
    their numbers only."""
    olds = [float(x) for x in _NUMBER.findall(old)]
    for mo, x in zip(_NUMBER.finditer(new), olds):
        line = new.count("\n", 0, mo.start()) + 1
        column = mo.start() - new.rfind("\n", 0, mo.start())
        yield f"{line}:{column}", x, float(mo.group())


def number_rows(old: str, new: str) -> list[tuple[str, float, float]] | None:
    """(position, old, new) of every number of the two outputs, or None when
    they differ in anything else.  ``-0`` in JSON reads as -0.0, not 0."""
    try:
        a, b = json.loads(old, parse_int=float), json.loads(new, parse_int=float)
    except json.JSONDecodeError:
        if _NUMBER.split(old) != _NUMBER.split(new):
            return None
        return list(_text_rows(old, new))
    if _json_pairs(a, b) is None:
        return None
    return list(_json_rows(a, b))


def changed(rows) -> list[tuple[str, float, float, float, float]]:
    """(position, old, new, absolute change, relative change) of each moved
    number."""
    return [
        (where, x, y, abs(y - x), abs(y - x) / max(1.0, abs(x)))
        for where, x, y in rows
        if repr(x) != repr(y)
    ]


def table(moved) -> str:
    lines = ["| position | old | new | abs change | rel change |", "|---|---|---|---|---|"]
    lines += [f"| `{w}` | {x!r} | {y!r} | {d:.3g} | {r:.3g} |" for w, x, y, d, r in moved]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/numdiff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (Path(p).read_text() for p in argv)
    rows = number_rows(old, new)
    if rows is None:
        print(f"{argv[0]} and {argv[1]} differ in more than their numbers", file=sys.stderr)
        return 2
    moved = changed(rows)
    if moved:
        print(table(moved))
        print()
    worst_abs = max((m[3] for m in moved), default=0.0)
    worst_rel = max((m[4] for m in moved), default=0.0)
    print(
        f"{len(moved)} of {len(rows)} numbers changed; "
        f"largest change {worst_abs:.3g} absolute, {worst_rel:.3g} relative"
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
