"""The error taxonomy: errors.py alone defines exception classes, and
each class carries its finding, exit code and stderr label."""

import ast
import importlib
import pathlib

from eiquiver import errors

PACKAGE = pathlib.Path(errors.__file__).resolve().parent


def test_only_errors_defines_exception_classes():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        module = importlib.import_module(
            "eiquiver" if path.stem == "__init__" else f"eiquiver.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    # every base must resolve in the module's namespace
                    cls = eval(ast.unparse(base), vars(module))  # noqa: S307
                    assert not (isinstance(cls, type) and
                                issubclass(cls, BaseException)), \
                        f"{path.name} defines exception class {node.name}"


def test_every_error_carries_its_finding_exit_code_and_label():
    codes = {errors.SchemaError: ("schema", 3, "schema error"),
             errors.InvariantError: ("invariant", 1, "invariant failure"),
             errors.OracleMismatch: ("oracle-mismatch", 4, "oracle mismatch")}
    for cls, (finding, code, label) in codes.items():
        e = cls("message")
        assert (e.finding, e.exit_code, e.label, str(e)) == \
            (finding, code, label, "message")
    e = errors.ValidationError("bad-prime", "message")
    assert (e.finding, e.exit_code, e.label, str(e)) == \
        ("bad-prime", 2, "validation error", "bad-prime: message")
    assert set(errors.EIQuiverError.__subclasses__()) == \
        set(codes) | {errors.ValidationError}
