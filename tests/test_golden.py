"""Golden output gate: every command on every bundled category fixture,
in every output format, must give the exit code, stdout and stderr that
tests/golden.json records.

`functor` runs only on fixtures that have a `<name>_rep.json` beside
them.  The file is written by running this module as a script, and only
when an output change is intended and stated:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from conftest import FIXTURES
from eiquiver.chartab import _MODEL_CACHE
from eiquiver.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
FORMATS = ("json", "text", "dot")
COMMANDS = ("validate", "quiver", "classify", "screen", "cover", "is-free",
            "oracle", "functor")


def cases() -> dict[str, list[str]]:
    """Case name -> CLI argv, for every format x command x fixture."""
    names = sorted(p.stem for p in FIXTURES.glob("*.json")
                   if not p.stem.endswith("_rep"))
    out = {}
    for fmt in FORMATS:
        for cmd in COMMANDS:
            for name in names:
                argv = ["--format", fmt, cmd, str(FIXTURES / f"{name}.json")]
                if cmd == "functor":
                    rep = FIXTURES / f"{name}_rep.json"
                    if not rep.exists():
                        continue
                    argv.append(str(rep))
                out[f"{fmt} {cmd} {name}"] = argv
    return out


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = cases()
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert run_cli(CASES[case]) == EXPECTED[case]


def test_json_cases_in_reverse_order_from_a_cold_cache(fresh_groups):
    # tables and models persist across calls in one process; the order
    # in which they were filled must never reach the output
    _MODEL_CACHE.clear()
    for case in sorted((c for c in CASES if c.startswith("json ")),
                       reverse=True):
        assert run_cli(CASES[case]) == EXPECTED[case], case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({k: run_cli(v) for k, v in CASES.items()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
