"""``tools/code_lines.py`` counts the lines that hold code: not blank lines,
comments or docstrings."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string
    over two lines"""
    return (x,
            s)


class C:
    """Class docstring."""

    y = 1
'''


def test_code_lines_leaves_out_blank_lines_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the string's two lines, the return's two lines, class, y
    assert code_lines(path) == 8
