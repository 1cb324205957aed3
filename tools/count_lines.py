"""Count the lines of each module of a Python package.

    python3 tools/count_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively for them
(default: ``src/matchlab``).  For every file the tool prints its total
lines and its code lines, then the totals of each directory.  A code line
holds at least one token that is not a comment and not part of a
docstring; blank lines count as neither.  A docstring is the string
literal that opens a module, class or function body.  A multi-line string
that is not a docstring counts on every line it spans.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def _files(path: Path) -> list[Path]:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/matchlab"])
    args = parser.parse_args(argv)
    for name in args.paths:
        root = Path(name)
        if not root.exists():
            sys.exit(f"count_lines: no such file or directory: {root}")
        totals = [0, 0]
        for path in _files(root):
            total, code = count(path.read_text(encoding="utf-8"))
            totals[0] += total
            totals[1] += code
            print(f"{path}\t{total} lines\t{code} code")
        if root.is_dir():
            print(f"{root} (all)\t{totals[0]} lines\t{totals[1]} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
