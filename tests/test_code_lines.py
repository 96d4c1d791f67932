"""tools/code_lines.py counts statement lines only: no docstrings,
comments or blank lines."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import os


def f(x):
    """A function docstring."""
    # a comment
    y = (x +
         1)
    return os.sep * y
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, the two lines of y = ..., return
    assert _tool().code_lines(SOURCE) == 5


def test_code_lines_total_every_file_under_the_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["5", "1", "6"]
    assert out[-1].split() == ["6", "total"]
