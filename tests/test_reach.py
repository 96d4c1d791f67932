"""Reach gate: every function defined in src/eiquiver runs when the CLI
runs every command in every format on every bundled fixture (the golden
cases, which include functor on both representation documents), one
quiver with a given prime and one quiver of S4, or is named below with
what reaches it.  No fixture's group has two characters of degree above
1, and a table splits only those by class matrices, so S4 (degrees 2, 3
and 3) is the one that reaches the split.

Calls are recorded in process with sys.setprofile, from a cold model
cache and empty group intern tables (the fresh_groups fixture), so a
function a cache would skip still counts as reached only if the CLI
computes it.
"""

import ast
import json
import pathlib
import sys

import eiquiver
from eiquiver.chartab import _MODEL_CACHE
from test_golden import CASES, EXPECTED, run_cli

SRC = pathlib.Path(eiquiver.__file__).resolve().parent

# function -> what reaches it, when the CLI does not
NOT_FROM_THE_CLI = {
    "morita.inverse_functor": "tests and perfbench",
    "morita.MoritaContext.source_inverse": "tests and perfbench "
                                            "(inverse_functor)",
    "morita.MoritaContext._source_inverse": "tests and perfbench "
                                            "(source_inverse's build)",
    "morita.MoritaContext.placements": "tests and perfbench "
                                       "(inverse_functor)",
    "morita.hom_dim_cat": "tests and perfbench",
    "morita.hom_dim_quiver": "tests and perfbench",
    "morita.fixed_point_basis": "tests and perfbench (hom_dim_cat)",
    "morita._edge_system_dim": "tests and perfbench (the Hom dimensions)",
    "morita._check_quiverrep": "tests and perfbench (inverse_functor and "
                               "hom_dim_quiver)",
    "morita.catrep_document": "tools/gen_fixtures.py",
    "errors.is_out_of_memory": "the out-of-memory path of cli.main",
    "errors.clear_frames": "the out-of-memory path of cli.main",
    "errors.OutOfMemory.__init__": "the out-of-memory path of cli.main",
    "oracle.CategoryAlgebra.dim": "perfbench's oracle.build_algebra.dim "
                                  "counter",
    "linalg.char_poly": "tests (kernel_reference.character_table) and "
                        "perfbench's tracer, which wraps it by name",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file name, first line) -> module.qualname of every def in the
    package; a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out[(module, first)] = f"{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, f"{path.stem}.")
    return out


def reached_functions(argvs) -> tuple[set[tuple[str, int]], list[int]]:
    """(file name, first line) of every package function called while
    the CLI runs each argv, and each run's exit code."""
    codes = {}

    def record(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    saved = dict(_MODEL_CACHE)
    _MODEL_CACHE.clear()
    sys.setprofile(record)
    try:
        exits = [run_cli(argv)["exit"] for argv in argvs]
    finally:
        sys.setprofile(None)
        _MODEL_CACHE.update(saved)
    reached = set()
    for code in codes.values():
        path = pathlib.Path(code.co_filename).resolve()
        if path.parent == SRC:
            reached.add((path.name, code.co_firstlineno))
    return reached, exits


def test_every_function_is_reached_or_named(tmp_path, fresh_groups):
    quiver = CASES["text quiver four_object_mixed"]
    prime = run_cli(quiver)["stdout"].split()[1]
    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps({"mode": "ei-quiver", "homs": [], "objects": [
        {"id": "x", "degree": 4,
         "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}]}))
    runs = dict(CASES, prime=["--prime", prime] + quiver,
                s4=["quiver", str(s4)])
    want = {case: EXPECTED[case]["exit"] for case in CASES} | \
        {"prime": 0, "s4": 0}
    defined = defined_functions()
    reached, exits = reached_functions(list(runs.values()))
    # a run that breaks is named here, not reported as the functions it
    # no longer reaches
    assert {case: code for case, code in zip(runs, exits)
            if code != want[case]} == {}
    missed = sorted(name for key, name in defined.items()
                    if key not in reached)
    # the list names exactly what the CLI does not reach
    assert missed == sorted(NOT_FROM_THE_CLI)
