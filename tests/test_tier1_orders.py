"""tools/tier1_orders.py runs the suite in reverse and in three seeded
shuffles of its files, and reads the counts off pytest's summary."""

import importlib.util
import pathlib

SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "tools"
          / "tier1_orders.py")


def _tool():
    spec = importlib.util.spec_from_file_location("tier1_orders", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_orders_are_reverse_then_three_seeded_shuffles():
    files = [f"tests/test_{c}.py" for c in "abcdefgh"]
    runs = list(_tool().orders(files))
    assert [name for name, _ in runs] == \
        ["reverse", "shuffle 1", "shuffle 2", "shuffle 3"]
    assert runs[0][1] == files[::-1]
    assert all(sorted(order) == files for _, order in runs)
    assert len({tuple(order) for _, order in runs}) == 4


def test_counts_read_the_summary_line():
    counts = _tool().counts
    assert counts("3 failed, 725 passed, 1 error in 50.1s") == \
        {"passed": 725, "failed": 3, "error": 1}
    assert counts("728 passed in 54.98s") == \
        {"passed": 728, "failed": 0, "error": 0}
    assert counts("2 errors in 0.1s")["error"] == 2
    assert counts("") == {"passed": 0, "failed": 0, "error": 0}
