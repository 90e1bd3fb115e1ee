"""``tools/codelines.py``: code lines are non-blank, not comments and not docstrings."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

_SOURCE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment leaves the line a code line


# a comment line
def area(r):
    """A one-line docstring."""
    return max(
        math.pi * r * r,
        0.0,
    )


class Shape:
    """A class docstring."""

    sides = """not a docstring,
over two lines"""
'''


def test_only_code_lines_count():
    # import, def, the four lines of the call, class, and the two lines of the string
    assert codelines.count_code_lines(_SOURCE) == 9


def test_a_tree_is_counted_per_module_in_path_order_with_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(_SOURCE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n# note\n")
    assert codelines.count_tree(tmp_path / "pkg") == [("a.py", 1), ("b.py", 9)]
    codelines.main([str(tmp_path / "pkg")])
    assert capsys.readouterr().out == "1 a.py\n9 b.py\n10 total\n"
