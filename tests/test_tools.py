"""The repository's own tooling: the code-line counter behind the line counts in CHANGES.md."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import numpy as np  # a trailing comment keeps the line


# a comment line
def f(x):
    """Function docstring."""
    total = (x
             + 1)

    label = """a string that is
    not a docstring"""
    return total, label


class K:
    "Class docstring."

    y = f(
        2,
    )
'''


def test_code_lines_counts_lines_holding_a_token_past_comments_and_docstrings():
    # import, def, total (2 lines), label (2 lines), return, class, y = f( (3 lines)
    assert _load("code_lines").code_lines(SOURCE) == 11


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert [line.split() for line in out if line] == [["11", "a.py"], ["1", "b.py"], ["12", "total"]]
