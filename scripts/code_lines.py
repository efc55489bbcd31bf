#!/usr/bin/env python3
"""Count the code lines of each ``spincavity`` module.

A code line holds at least one token that is not a comment; blank
lines, comment-only lines and docstrings (module, class and function
docstrings, found with ``ast``) are left out.  A statement or
expression spread over several lines counts each of them.  Prints one
row per module of ``src/spincavity`` and the total.

Usage:
    python3 scripts/code_lines.py
    python3 scripts/code_lines.py path/to/package
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "spincavity"

# tokens that make no line a code line
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """Number of code lines of one Python source file."""
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=pathlib.Path, default=PACKAGE)
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path)
              for path in sorted(args.package.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
