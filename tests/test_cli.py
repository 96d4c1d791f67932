"""The command-line front end: exit codes, output formats, determinism."""

import json

import pytest

from conftest import fixture_doc, fixture_path
from eiquiver.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(fixture_path(name))


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", fx("two_object_c2_s3"))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["objects"] == 2
    assert payload["morphisms"] == 14


def test_validate_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text",
                       "validate", fx("one_object_c2"))
    assert code == 0
    assert out.strip() == "valid: 1 objects, 2 morphisms"


def test_missing_file_is_schema_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent.json")
    assert code == 3
    assert "schema error" in err


def test_malformed_json_is_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3


def test_invalid_category_is_validation_error(capsys, tmp_path):
    doc = {"mode": "explicit",
           "objects": [{"id": "x", "degree": 1, "generators": []},
                       {"id": "y", "degree": 1, "generators": []}],
           "homs": [{"from": "x", "to": "y", "size": 1,
                     "left_action": [], "right_action": []},
                    {"from": "y", "to": "x", "size": 1,
                     "left_action": [], "right_action": []}]}
    f = tmp_path / "cyclic.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2
    assert "hom-both-directions" in err


def _set(path, value):
    """Mutation that replaces doc[path[0]][path[1]]... by value."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("fixture, mutate, code, prefix", [
    # composition naming the empty hom x->y
    ("line_subcategory_nonfree",
     _set(("compositions", 0, "outer"), ["x", "y"]), 3, "schema error"),
    ("line_subcategory_nonfree",
     _set(("compositions", 0, "table"), [["a"]]), 3, "schema error"),
    ("line_subcategory_nonfree",
     _set(("compositions", 0, "table"), 5), 3, "schema error"),
    ("line_subcategory_nonfree",
     _set(("compositions",), 5), 3, "schema error"),
    ("fork_merge_free", _set(("objects", 1, "generators"), [1]),
     2, "validation error: bad-group"),
    ("fork_merge_free", _set(("objects", 1, "generators"), 5),
     3, "schema error"),
    ("fork_merge_free", _set(("homs", 0, "left_action"), [1, 2]),
     3, "schema error"),
    # non-integers are rejected, not truncated; a string is not a pair
    pytest.param("fork_merge_free",
                 _set(("objects", 1, "generators"), [[1.7, 0]]),
                 2, "validation error: bad-group", id="float-generator"),
    pytest.param("fork_merge_free",
                 _set(("compositions", 0, "table"), [[0.5], [0]]),
                 3, "schema error", id="float-table-entry"),
    pytest.param("fork_merge_free", _set(("compositions", 0, "inner"), "xy"),
                 3, "schema error", id="string-as-pair"),
    pytest.param("fork_merge_free",
                 _set(("objects", 1, "generators"), [[True, False]]),
                 2, "validation error: bad-group", id="bool-generator"),
    pytest.param("fork_merge_free",
                 _set(("homs", 1, "right_action"), [[1.0, 0]]),
                 3, "schema error", id="float-action"),
    pytest.param("fork_merge_free", _set(("objects", 1, "degree"), 2.0),
                 3, "schema error", id="float-degree"),
    pytest.param("fork_merge_free", _set(("homs", 1, "size"), "2"),
                 3, "schema error", id="string-size"),
])
def test_malformed_tables_and_actions_end_in_a_finding(
        capsys, tmp_path, fixture, mutate, code, prefix):
    doc = fixture_doc(fixture)
    mutate(doc)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    got, out, err = run(capsys, "validate", str(f))
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1 and \
        err.endswith("\n")


def test_uncertifiable_prime_rejected(capsys):
    # 7 is not congruent to 1 mod the exponent lcm 6, and is too small
    code, _, err = run(capsys, "--prime", "7",
                       "quiver", fx("two_object_c2_s3"))
    assert code == 2
    assert "bad-prime" in err


def test_explicit_good_prime_accepted(capsys):
    code, out, _ = run(capsys, "--prime", "13",
                       "quiver", fx("two_object_c2_s3"))
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == 13
    assert len(payload["vertices"]) == 5
    assert len(payload["arrows"]) == 4


def test_prime_above_search_bound_rejected(capsys):
    # prime and 1 mod the exponent, but far beyond what the linear algebra
    # supports: rejected before any work, not left to spin
    code, _, err = run(capsys, "--prime", "3000000019",
                       "quiver", fx("four_object_mixed"))
    assert code == 2
    assert "bad-prime" in err and "exceeds the prime bound" in err


def test_quiver_dot_shows_double_arrow(capsys):
    code, out, _ = run(capsys, "--format", "dot",
                       "quiver", fx("two_object_trivial_s3"))
    assert code == 0
    edges = [ln for ln in out.splitlines() if "->" in ln]
    assert len(edges) == 4
    assert edges.count("  v0 -> v3;") == 2


def test_dot_unavailable_for_other_commands(capsys):
    code, _, err = run(capsys, "--format", "dot",
                       "classify", fx("two_object_c2_s3"))
    assert code == 2
    assert "bad-format" in err


def test_classify_verdicts(capsys):
    code, out, _ = run(capsys, "classify", fx("four_object_mixed"))
    assert code == 0
    assert json.loads(out)["verdict"] == "Finite"
    code, out, _ = run(capsys, "classify", fx("two_object_trivial_s3"))
    assert code == 0
    assert json.loads(out)["verdict"] == "Wild"


def test_screen_output(capsys):
    code, out, _ = run(capsys, "screen", fx("two_object_trivial_s3"))
    assert code == 0
    findings = json.loads(out)["findings"]
    assert len(findings) == 1
    assert findings[0]["rule"] == "induction-decomposition"
    code, out, _ = run(capsys, "screen", fx("two_object_c2_s3"))
    assert json.loads(out)["findings"] == []


def test_cover_output(capsys):
    code, out, _ = run(capsys, "cover", fx("fork_merge_nonfree"))
    assert code == 0
    payload = json.loads(out)
    assert payload["hom_sizes"]["x->z"] == 2
    assert payload["morphisms"] > payload["original_morphisms"]


def test_is_free_output(capsys):
    code, out, _ = run(capsys, "is-free", fx("line_quiver_free"))
    assert code == 0 and json.loads(out)["free"] is True
    code, out, _ = run(capsys, "is-free", fx("line_subcategory_nonfree"))
    assert code == 0 and json.loads(out)["free"] is False


def test_oracle_output(capsys):
    code, out, _ = run(capsys, "oracle", fx("two_object_trivial_s3"))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    mults = {(tuple(m["from"]), tuple(m["to"])): m["mult"]
             for m in payload["multiplicities"]}
    assert mults[(("x", 0), ("y", 2))] == 2


def test_functor_output(capsys):
    code, out, _ = run(capsys, "functor", fx("two_object_c2_s3"),
                       fx("two_object_c2_s3_rep"))
    assert code == 0
    payload = json.loads(out)
    assert [v["dim"] for v in payload["vertices"]] == [2, 1, 1, 1, 2]
    assert len(payload["arrows"]) == 4


def test_max_paths_bound(capsys):
    code, _, err = run(capsys, "--max-paths", "2",
                       "validate", fx("four_object_mixed"))
    assert code == 2
    assert "path-bound" in err


def test_reruns_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "quiver", fx("four_object_mixed"))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    for _ in range(2):
        code, out, _ = run(capsys, "functor", fx("two_object_c2_s3"),
                           fx("two_object_c2_s3_rep"))
        assert code == 0
        outs.append(out)
    assert outs[2] == outs[3]
