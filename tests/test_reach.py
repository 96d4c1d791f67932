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

import importlib
import json
import pathlib
import sys
import types

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


def defined_functions() -> dict[types.CodeType, str]:
    """code object -> module.qualname of every def in the package, read
    off the loaded modules, the code that runs: each module's functions
    and classes (methods, properties and cached properties), and the
    defs nested in their code's co_consts.  Lambdas and comprehensions
    are not defs, but a def nested in one is found."""
    out = {}

    def walk(code, name):
        if not code.co_name.startswith("<"):
            out[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, f"{name}.{const.co_name}")

    def members(cls):
        for attr in vars(cls).values():
            if isinstance(attr, type):
                if attr.__qualname__ == f"{cls.__qualname__}.{attr.__name__}":
                    yield attr
                continue
            for f in (attr, getattr(attr, "__func__", None),
                      getattr(attr, "func", None),
                      *(getattr(attr, k, None)
                        for k in ("fget", "fset", "fdel"))):
                if isinstance(f, types.FunctionType):
                    yield f

    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"eiquiver.{path.stem}")
        todo = [obj for obj in vars(module).values()
                if isinstance(obj, (type, types.FunctionType))
                and obj.__module__ == module.__name__]
        while todo:
            obj = todo.pop()
            if isinstance(obj, type):
                todo += members(obj)
            elif pathlib.Path(obj.__code__.co_filename).resolve() == path:
                walk(obj.__code__, f"{path.stem}.{obj.__qualname__}")
    return out


def reached_functions(argvs) -> tuple[set[types.CodeType], list[int]]:
    """The code object of every package function called while the CLI
    runs each argv, and each run's exit code."""
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
    return set(codes.values()), exits


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
    missed = sorted(name for code, name in defined.items()
                    if code not in reached)
    # the list names exactly what the CLI does not reach
    assert missed == sorted(NOT_FROM_THE_CLI)
