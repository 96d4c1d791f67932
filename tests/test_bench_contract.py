"""The benchmark's hold on the package: every function perfbench traces,
every eiquiver module whose import it times, and every eiquiver name its
scripts import must exist, and a traced pass must fill every counter.
The scripts are read as source or run as they are, never edited here, so
a rename in the package fails this test instead of the benchmark."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _constant(path: pathlib.Path, name: str):
    """The literal value assigned to name at the top of a script."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _imported_names():
    """(script, module, name) for every eiquiver import in perfbench, name
    None for a plain `import eiquiver.x`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level and \
                    node.module.split(".")[0] == "eiquiver":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "eiquiver":
                        yield path.name, alias.name, None


TRACED = _constant(PERFBENCH / "tracing.py", "TRACED")


@pytest.mark.parametrize("name", [f"{m}.{f}" for m, fs in TRACED.items()
                                  for f in fs])
def test_every_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"eiquiver.{module}"),
                            attr))


def test_every_import_timed_module_exists():
    for m in _constant(PERFBENCH / "run.py", "MODULES"):
        importlib.import_module(f"eiquiver.{m}")


def test_every_imported_name_resolves():
    seen = list(_imported_names())
    assert seen
    for script, module, name in seen:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name) or importlib.util.find_spec(
                f"{module}.{name}") is not None, (script, module, name)


def test_a_traced_pass_fills_every_counter():
    # the counters read attributes of the traced calls' results
    # (out.orbits, alg.dim, table.dims), which name resolution above does
    # not reach; group-ladder and biset-chains at seed 0 between them
    # touch every one, in fresh interpreters as perfbench/run.py starts
    # them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    counts = Counter()
    for workload in ("group-ladder", "biset-chains"):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
             workload, "--seed", "0", "--t0", str(time.monotonic()),
             "--trace"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["failed"] == 0, (workload, out["failures"])
        counts.update(out["trace"]["counts"])
    names = _constant(PERFBENCH / "tracing.py", "COUNTER_NAMES")
    assert [n for n in names if not counts[n] > 0] == [], counts
