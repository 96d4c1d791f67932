#!/usr/bin/env python3
"""Soak the CLI with one-field mutations under a 512 MiB address space.

    python3 tools/fuzz_soak.py SEED

Runs 4,000 mutations drawn with random.Random(SEED) from the same
fixtures, fields and values as the Tier-1 fuzz gate (tests/test_fuzz.py,
whose mutation code it imports), each through the CLI in process.  The
process first caps its own address space (RLIMIT_AS) at 512 MiB, so an
allocation that a size check missed ends in MemoryError rather than
exhausting the machine; the CLI reports that as the finding
out-of-memory.  Prints one JSON summary: counts by exit code, the
slowest case, and every case that broke the gate's rules (exit 0, 2 or
3 with at most one stderr line; path-bound only from `cover` or an
ei-quiver document) or ran out of memory, with its stderr or traceback.
Exits 1 if there was any such case.
"""

import json
import pathlib
import random
import resource
import sys
import tempfile
import time
import traceback

LIMIT = 512 * 2**20
CASES = 4000

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_fuzz as fz  # noqa: E402
from eiquiver.errors import OutOfMemory, clear_frames  # noqa: E402


def draw(rng: random.Random) -> tuple[str, str, tuple, object]:
    """One case as the gate's strategy draws it: a command, then a
    document, one of its fields and a value."""
    command = rng.choice(fz.COMMANDS + ("functor",))
    names = tuple(fz.REPRESENTATIONS) if command == "functor" \
        else fz.CATEGORIES
    name = rng.choice(names)
    return command, name, rng.choice(fz.FIELDS[name]), rng.choice(fz.VALUES)


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    seed = int(argv[0])
    resource.setrlimit(resource.RLIMIT_AS,
                       (LIMIT, resource.getrlimit(resource.RLIMIT_AS)[1]))
    rng = random.Random(seed)
    codes: dict[str, int] = {}
    broken, slowest = [], (0.0, None)
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / "mutated.json"
        for _ in range(CASES):
            command, name, path, value = draw(rng)
            text = fz._mutated(name, path, value)
            f.write_text(text)
            argv = ([command, str(f)] if command != "functor" else
                    [command, str(fz.fixture_path(fz.REPRESENTATIONS[name])),
                     str(f)])
            case = [command, name, list(path),
                    "DELETE" if value is fz.DELETE else value]
            start = time.perf_counter()
            try:
                code, err = fz._run(argv)
            except Exception as e:
                # the failed call's frames hold its data; under the cap,
                # that can leave no room to format the error, so their
                # locals go first
                clear_frames(e)
                code, err = "exception", traceback.format_exc()
            took = time.perf_counter() - start
            slowest = max(slowest, (took, case), key=lambda t: t[0])
            codes[str(code)] = codes.get(str(code), 0) + 1
            if code not in (0, 2, 3) or err.count("\n") > 1 or \
                    f": {OutOfMemory.finding}: " in err or \
                    fz._misplaced_path_bound(command, text, err):
                broken.append({"case": case, "exit": code, "stderr": err})
    print(json.dumps({"seed": seed, "cases": CASES,
                      "rlimit_as_mib": LIMIT >> 20, "exit_codes": codes,
                      "slowest": {"seconds": round(slowest[0], 3),
                                  "case": slowest[1]},
                      "broken": broken}, indent=2, default=repr))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
