"""Count the code lines of algmech's source.

    python tools/code_lines.py [FILE ...]

Prints the number of lines of ``src/algmech/*.py`` (or of the files named)
that are code: not blank, not comment-only and not part of a docstring (the
string that opens a module, class or function body).  A line that holds code
and a comment counts.  This is the size figure that leaves out prose, read
next to ``cat src/algmech/*.py | wc -l``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "algmech"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE}
_NOT_CODE |= {tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    prose: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            prose.update(range(doc.lineno, doc.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - prose)


def main(argv: list[str]) -> int:
    files = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    print(sum(code_lines(f.read_text()) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
