"""tools/line_reach.py lists the statement lines a pytest run never
executes: module-level lines count once imported under the trace, and
docstrings and defs are not statements."""

import importlib.util
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "line_reach.py"

MODULE = '''"""A module docstring."""

LIMIT = 3


def f(x):
    """A function docstring."""
    if x > LIMIT:
        return "big"
    return ("small"
            if x else "zero")


class C:
    """Never built."""

    def g(self):
        return 1
'''

TEST = '''from reachdemo.mod import f


def test_f():
    assert f(1) == "small"
'''


def _tool():
    spec = importlib.util.spec_from_file_location("line_reach", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_statement_lines_skip_docstrings_and_defs():
    # LIMIT, the if, both returns in f (the second spans two lines), and
    # g's return
    assert _tool().statement_lines(MODULE) == {3, 8, 9, 10, 18}


def test_unreached_lines_of_a_tiny_package(tmp_path, capsys, monkeypatch):
    pkg = tmp_path / "reachdemo"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    (tmp_path / "test_reachdemo.py").write_text(TEST)
    monkeypatch.syspath_prepend(str(tmp_path))
    # no third-party plugin: tracing their first import is most of the time
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    try:
        code = _tool().main([str(tmp_path / "test_reachdemo.py"), "-q",
                             "-p", "no:cacheprovider"], root=pkg)
    finally:
        for name in ("reachdemo", "reachdemo.mod", "test_reachdemo"):
            sys.modules.pop(name, None)
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ['reachdemo/mod.py:9  return "big"',
                        "reachdemo/mod.py:18  return 1",
                        "2 statement lines never ran"]
