import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

FIXTURES = (pathlib.Path(__file__).resolve().parents[1]
            / "src" / "eiquiver" / "fixtures")


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.json"


def fixture_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def large_cover_document(n: int = 400) -> dict:
    """Trivial objects x -> y -> z with hom sizes n, n and 1, every
    composite equal: 2n + 4 morphisms, but n² paths x -> z in the free
    cover, which exceeds the default path bound at n = 400."""
    return {"mode": "explicit",
            "objects": [{"id": o, "degree": 1, "generators": []}
                        for o in "xyz"],
            "homs": [{"from": x, "to": y, "size": size,
                      "left_action": [], "right_action": []}
                     for x, y, size in (("x", "y", n), ("y", "z", n),
                                        ("x", "z", 1))],
            "compositions": [{"inner": ["x", "y"], "outer": ["y", "z"],
                              "table": [[0] * n for _ in range(n)]}]}


def trivial_line(ids, size: int = 1) -> dict:
    """An ei-quiver document: trivial objects in a line, joined by one
    arrow of the given size per step."""
    return {"mode": "ei-quiver",
            "objects": [{"id": o, "degree": 1, "generators": []} for o in ids],
            "homs": [{"from": a, "to": b, "size": size, "left_action": [],
                      "right_action": []} for a, b in zip(ids, ids[1:])]}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    import re
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          getattr(rep, "nodeid", ""))
            if m:
                n = int(m.group(1))
                if outcome != "passed":
                    results[n] = "FAIL"
                else:
                    results.setdefault(n, "PASS")
    if results:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for n in sorted(results):
            terminalreporter.write_line(f"  criterion {n}: {results[n]}")


@pytest.fixture
def fresh_groups():
    """Start the test from empty permgrp intern tables: every group it
    builds is a new object, so it sees the first-time work (Cayley rows,
    generator maps, tables under a new key) that an equal group left
    live by an earlier test would otherwise have done already.  Returns
    the function that empties them, to call again within the test."""
    from eiquiver import permgrp
    permgrp._INTERNED.clear()
    return permgrp._INTERNED.clear


@pytest.fixture(scope="session")
def categories():
    """All bundled category fixtures, loaded once."""
    from eiquiver.eicat import load_category
    names = ("line_quiver_free", "line_subcategory_nonfree",
             "fork_merge_free", "fork_merge_nonfree", "one_object_c2",
             "four_object_mixed", "two_object_c2_s3",
             "two_object_trivial_s3")
    return {n: load_category(fixture_doc(n)) for n in names}
