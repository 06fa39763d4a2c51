#!/usr/bin/env python3
"""Count the code lines of each module under ``src/``.

Run from the repository root:

    python3 scripts/code_lines.py [SRC_DIR]

A code line is a physical line that holds a Python token outside
docstrings and comments.  ``tokenize`` finds the tokens; ``ast`` finds the
docstrings, the string constants that open a module, class or function
body, whose tokens are skipped.  Blank lines, comment lines and docstring
lines are not counted; a string literal that is not a docstring counts on
every line it spans.  Prints one line per module, sorted by path, then the
total.  Exits 0.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Token types that are layout or comments, not code.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_starts(tree: ast.Module) -> set:
    """(line, column) where each docstring of ``tree`` begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of code lines of the module at ``path``."""
    source = path.read_text()
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
