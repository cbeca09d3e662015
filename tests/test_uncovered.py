"""tools/uncovered.py counts as statements every ast.stmt but defs, classes,
imports and docstrings, and takes a statement as run when any line of its
span ran."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "uncovered.py"

SAMPLE = '''"""Module docstring."""

import os
from sys import argv

LIMIT = 3


class Thing:
    """Class docstring."""

    size = 1

    def method(self, flag):
        """Method docstring."""
        if flag:
            return os.sep
        total = (1 +
                 2)
        return total


def bare():
    "a string statement that is its function's docstring"
    "and one that is not"


if __name__ == "__main__":
    print(argv)
'''
# LIMIT, size, if flag, return os.sep, total = (2 lines), return total, the
# second string, if __name__, print(argv)
SAMPLE_STATEMENTS = [6, 12, 16, 17, 18, 20, 25, 28, 29]


def _tool():
    spec = importlib.util.spec_from_file_location("uncovered", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_defs_classes_imports_and_docstrings():
    assert [node.lineno for node in _tool().statements(SAMPLE)] == SAMPLE_STATEMENTS


def test_a_statement_ran_if_any_line_of_its_span_did():
    # the module ran, and method(False) reached `total`'s second line only
    ran = {6, 12, 16, 19, 20, 28}
    assert [node.lineno for node in _tool().never_ran(SAMPLE, ran)] == [17, 25, 29]
