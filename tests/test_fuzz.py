"""Fuzz gate: one-field mutations of the bundled documents end in a finding.

Each example deletes one field of a category fixture or a representation
document, or sets it to a value from a fixed mix of wrong types, edge
integers and huge sizes, and runs the CLI in process.  Every run must
exit 0, 2 or 3 with at most one line on stderr: exit 1 means an internal
invariant failed, and an uncaught exception fails the test outright.
The finding path-bound may come only from `cover` or from loading an
ei-quiver document, the two places that build a free category.
Derandomized, so the same examples run every time.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from eiquiver import cli

CATEGORIES = ("line_quiver_free", "line_subcategory_nonfree",
              "fork_merge_free", "fork_merge_nonfree", "one_object_c2",
              "four_object_mixed", "two_object_c2_s3",
              "two_object_trivial_s3")
COMMANDS = ("validate", "quiver", "classify", "screen", "cover", "is-free",
            "oracle")
REPRESENTATIONS = {"two_object_c2_s3_rep": "two_object_c2_s3",
                   "four_object_mixed_rep": "four_object_mixed"}
DELETE = object()
VALUES = (DELETE, None, -1, 0, 1, 2, 10**9, 10**30, 1.5, "x", "3", True,
          [], {}, [0], [[0]], [1, 0], 65536)


def _fields(node, path=()):
    """The path of every dict value and list item below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


TEXTS = {name: fixture_path(name).read_text()
         for name in CATEGORIES + tuple(REPRESENTATIONS)}
FIELDS = {name: sorted(_fields(json.loads(text)), key=repr)
          for name, text in TEXTS.items()}


@st.composite
def _mutation(draw, names):
    name = draw(st.sampled_from(names))
    return name, draw(st.sampled_from(FIELDS[name])), \
        draw(st.sampled_from(VALUES))


def _mutated(name: str, path: tuple, value) -> str:
    doc = json.loads(TEXTS[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


def _misplaced_path_bound(command: str, text: str, err: str) -> bool:
    """Whether err reports path-bound where no free category is built:
    in a command other than `cover` on a document not in ei-quiver mode."""
    return (": path-bound: " in err and command != "cover"
            and json.loads(text).get("mode") != "ei-quiver")


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(
    st.tuples(st.sampled_from(COMMANDS), _mutation(CATEGORIES)),
    st.tuples(st.just("functor"), _mutation(tuple(REPRESENTATIONS)))))
# a mutation that once escaped: 65,536 arrow orbits x -> z, which the
# oracle must check, not refuse
@example(case=("oracle", ("fork_merge_free", ("homs", 2, "size"), 65536)))
def test_one_field_mutations_end_in_a_finding(tmp_path_factory, case):
    command, (name, path, value) = case
    f = tmp_path_factory.getbasetemp() / "mutated.json"
    text = _mutated(name, path, value)
    f.write_text(text)
    argv = ([command, str(f)] if command != "functor" else
            [command, str(fixture_path(REPRESENTATIONS[name])), str(f)])
    code, err = _run(argv)
    assert code in (0, 2, 3), (argv, name, path, value, err)
    assert err.count("\n") <= 1, (name, path, value, err)
    assert not _misplaced_path_bound(command, text, err), (argv, path, err)
