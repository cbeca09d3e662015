"""Count the code lines of Python files, as CHANGES.md reports them.

Usage: python tools/code_lines.py PATH...

Each PATH is a .py file or a directory searched for .py files. A line is a
code line unless it is blank, a comment line (its first non-blank character
is `#`) or part of a module, class or function docstring. Prints each file's
count and then the total, as `wc -l` does.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, of every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python module `source`."""
    skipped = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))


def python_files(paths: list[str]) -> list[Path]:
    """The .py files named by `paths`, directories searched recursively."""
    found: list[Path] = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 1
    total = 0
    for path in python_files(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
