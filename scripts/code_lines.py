#!/usr/bin/env python3
"""Count the code lines of Python sources.

A line counts when it holds a token that is neither a comment nor part of a
module, class or function docstring; blank lines, and lines that only
continue a bracket or close an indented block, do not count. A token that
spans lines (a multi-line string that is not a docstring) counts on each.

    python3 scripts/code_lines.py [PATH ...]

Prints one row per file and the total; a directory stands for the .py files
under it, and the default is src/lljd.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree) -> set:
    """The (row, col) starts of the docstring tokens of every module, class
    and function in `tree`."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of `source` (see the module docstring)."""
    docstrings = _docstrings(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "lljd")])
    args = parser.parse_args(argv)
    files = []
    for path in map(Path, args.paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
