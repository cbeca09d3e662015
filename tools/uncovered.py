"""List the statements of src/tokenwatt that a pytest run never executes.

Usage: python tools/uncovered.py [PYTEST_ARGS...]

Runs `pytest.main(PYTEST_ARGS)` in this process under `sys.settrace` and
`threading.settrace`, with this checkout's src/ first on sys.path, and
records each line of a src/tokenwatt file that runs. Child processes are
not traced, so what only a subprocess runs (`python -m tokenwatt`, for
example) is listed as never run. A statement is an `ast.stmt` other than a
def, a class, an import or a docstring, and it ran if any line of its span
did. Prints each statement that never ran as `path:line: text`, then one
count line, and exits with pytest's exit code. Uses the standard library
only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tokenwatt"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> list[ast.stmt]:
    """The statements of the Python module `source` that count, in line order."""
    tree = ast.parse(source)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False)
                  is not None}
    found = [node for node in ast.walk(tree) if isinstance(node, ast.stmt)
             and not isinstance(node, _NOT_COUNTED) and node not in docstrings]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def never_ran(source: str, ran: set[int]) -> list[ast.stmt]:
    """The counted statements of `source` none of whose lines is in `ran`."""
    return [node for node in statements(source)
            if ran.isdisjoint(range(node.lineno, node.end_lineno + 1))]


def trace_pytest(argv: list[str], files: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for `argv`, and the lines of each of `files`
    (by resolved path) that ran."""
    ran: dict[str, set[int]] = {str(f.resolve()): set() for f in files}
    local_tracers: dict[str, object] = {}  # co_filename -> its line tracer, or None

    def line_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def call_tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_tracers:
            lines = ran.get(os.path.realpath(name))
            local_tracers[name] = None if lines is None else line_tracer(lines)
        return local_tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    files = sorted(PACKAGE.rglob("*.py"))
    code, ran = trace_pytest(argv, files)
    total = missed = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        total += len(statements(source))
        for node in never_ran(source, ran[str(path.resolve())]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
