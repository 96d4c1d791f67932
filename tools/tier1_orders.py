#!/usr/bin/env python3
"""Run the Tier-1 suite in several file orders, to show order dependence.

    python3 tools/tier1_orders.py

Runs the Tier-1 command (ROADMAP.md) four times, one after another, with
the test files named on the command line: in reverse order, then in the
orders that random.Random(s).shuffle gives the sorted list for s = 1, 2
and 3.  Prints one line per run with its passed and failed counts, and
the files of any run that failed.  Exits 1 if any run had a failure or
an error.
"""

import os
import pathlib
import random
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def orders(files: list[str]):
    """(name, files) of each run: reversed, then three seeded shuffles."""
    yield "reverse", files[::-1]
    for seed in (1, 2, 3):
        shuffled = list(files)
        random.Random(seed).shuffle(shuffled)
        yield f"shuffle {seed}", shuffled


def counts(summary: str) -> dict[str, int]:
    """The passed, failed and error counts of a pytest summary line."""
    out = {"passed": 0, "failed": 0, "error": 0}
    for n, kind in COUNT.findall(summary):
        out[kind.rstrip("s")] += int(n)
    return out


def run(files: list[str]) -> dict[str, int]:
    """The Tier-1 command on the files in the given order: the counts
    of its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", *files],
        cwd=ROOT, env=env, capture_output=True, text=True).stdout.strip()
    return counts(out.splitlines()[-1] if out else "")


def main() -> int:
    files = sorted(str(p.relative_to(ROOT))
                   for p in (ROOT / "tests").glob("test_*.py"))
    bad = False
    for name, order in orders(files):
        c = run(order)
        print(f"{name}: {c['passed']} passed, {c['failed']} failed, "
              f"{c['error']} errors", flush=True)
        if c["failed"] or c["error"] or not c["passed"]:
            bad = True
            print("  order: " + " ".join(order), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
