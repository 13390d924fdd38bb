"""Count the code lines of each library module.

A code line is a line of ``src/odgrammar/*.py`` that holds a token other
than a comment, outside every module, class and function docstring.  A
string that spans lines counts on each line it spans, unless it is a
docstring.  Blank lines, comment lines and docstrings count nothing, so the
total moves only with the code itself.

The script prints one line per module, ``<count> <file name>``, then the
total.  Run it from the repository root:

    python tests/code_lines.py [SRC_DIR]

``SRC_DIR`` defaults to this checkout's ``src/odgrammar``; pass another
checkout's to compare the two.

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "odgrammar"

# tokens that put no code on their line
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
