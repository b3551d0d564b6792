"""The repository's stdlib tools, checked against hand counts."""

import importlib.util
from pathlib import Path


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SOURCE = '''"""A module docstring
over two lines."""

import os  # code that ends in a comment counts

# a comment alone does not


def f(x):
    """A function docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            1)


class C:
    """A class
    docstring."""
    y = 1
    "a string after the first statement is no docstring"
'''


def test_code_lines_matches_a_hand_count(tmp_path, capsys):
    tool = _tool("code_lines")
    # import, def, the two lines of s, the two of return, class, y, the late string
    assert tool.code_lines(SOURCE) == 9
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("# nothing but a comment\n\nx = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py 1", "b.py 9", "total 10"]
