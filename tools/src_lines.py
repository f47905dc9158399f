"""Count the lines of the package source: total lines and code lines.

A code line is a line of a ``.py`` file that is not blank, not only a
comment, and not part of a docstring (the leading string of a module,
class or function).  Comments are found with ``tokenize`` and docstrings
with ``ast``, so a ``#`` inside a string or a string that is not a
docstring counts as code.

Usage: ``python3 tools/src_lines.py``.  Prints one line for the
repository's ``src``: ``<total> lines, <code> code lines``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def count_tree(root: Path) -> tuple[int, int]:
    """(total lines, code lines) summed over every ``.py`` file under ``root``."""
    totals = [count(path.read_text()) for path in sorted(root.rglob("*.py"))]
    return sum(t for t, _ in totals), sum(c for _, c in totals)


def main() -> None:
    total, code = count_tree(SRC)
    print(f"{total:,} lines, {code:,} code lines")


if __name__ == "__main__":
    main()
