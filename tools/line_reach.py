"""List the statement lines of src/eiquiver that a pytest run never executes.

    python tools/line_reach.py [pytest args]

Runs pytest in process with the given arguments under sys.settrace.  The
tracer is installed before the package is imported, so module-level
statements count, and it records line events only in frames whose code
lives under src/eiquiver; code run in a subprocess is not seen.  A
statement line is the first line of a statement found by `ast`,
docstrings and def and class statements excluded.  Prints one line per
statement that never ran, "<path>:<line>  <source>", then the count, and
exits with pytest's exit code.  src is put first on sys.path.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eiquiver"
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_lines(source: str) -> set[int]:
    """The first line of every statement but docstrings and defs."""
    tree = ast.parse(source)
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *SKIP)) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, SKIP)
            and id(node) not in docs}


def traced_lines(root: Path, run) -> tuple[set[tuple[str, int]], object]:
    """(file, line) of every line event under root while run() runs, and
    what run() returned."""
    root = root.resolve()
    seen, inside = set(), {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().is_relative_to(root)
        return local if inside[name] else None

    saved = sys.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(saved)
        threading.settrace(saved)
    return {(str(Path(f).resolve()), n) for f, n in seen}, result


def unreached(root: Path, seen) -> list[tuple[Path, int, str]]:
    """Every statement line of every *.py under root not in seen."""
    out = []
    for path in sorted(root.resolve().rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        out += [(path, n, text[n - 1].strip())
                for n in sorted(statement_lines(source))
                if (str(path), n) not in seen]
    return out


def main(argv: list[str], root: Path = SRC) -> int:
    import pytest
    seen, code = traced_lines(root, lambda: pytest.main(argv))
    missed = unreached(root, seen)
    for path, n, text in missed:
        print(f"{path.relative_to(root.resolve().parent)}:{n}  {text}")
    print(f"{len(missed)} statement lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    sys.exit(main(sys.argv[1:]))
