"""tools/code_lines.py counts what CHANGES.md calls code lines: every line
but blank lines, comment lines and module, class and function docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment does not make a comment line

    # an indented comment line


class Thing:
    """Class docstring."""

    size = "# not a comment"

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that is
no docstring"""
        return text


async def fetch():
    """Async function docstring."""
    "a string statement after the first is code"
    return os.sep


def bare():
    return None
'''
# code lines: import, class, size, def method, text = (2 lines), return text,
# async def, the second string, return os.sep, def bare, return None
SAMPLE_CODE_LINES = 12


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines():
    assert _tool().code_lines(SAMPLE) == SAMPLE_CODE_LINES


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert _tool().main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(SAMPLE_CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(SAMPLE_CODE_LINES + 1), "total"]]
