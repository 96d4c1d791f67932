"""The command-line front end: exit codes, output formats, determinism."""

import contextlib
import json
import resource
import weakref

import pytest

from conftest import (fixture_doc, fixture_path, large_cover_document,
                      trivial_line)
from eiquiver.cli import main
from eiquiver.errors import OutOfMemory, ValidationError
from test_golden import CASES, COMMANDS, EXPECTED, FORMATS


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
    # negative sizes are rejected, not read as an empty hom
    pytest.param("fork_merge_free", _set(("objects", 0, "degree"), -3),
                 3, "schema error: bad object entry", id="negative-degree"),
    pytest.param("fork_merge_free", _set(("homs", 1, "size"), -5),
                 3, "schema error: bad hom entry", id="negative-size"),
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


def test_zero_size_hom_is_an_empty_hom(capsys, tmp_path):
    # an empty z->x beside the nonempty x->z is no two-way pair
    doc = fixture_doc("fork_merge_free")
    doc["homs"].append({"from": "z", "to": "x", "size": 0,
                        "left_action": [], "right_action": []})
    f = tmp_path / "empty.json"
    f.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(f))[:2] == \
        run(capsys, "validate", fx("fork_merge_free"))[:2]


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


def _trivial_s3_rep(x_dim=1, y_dim=1):
    """A representation of two_object_trivial_s3: x has the trivial
    group, so only "dim" sizes it; S3 acts trivially at y."""
    one = [[1] * y_dim] if y_dim else []
    return {"p": 13,
            "objects": [{"id": "x", "dim": x_dim, "generator_matrices": []},
                        {"id": "y", "dim": y_dim,
                         "generator_matrices": [one, one]}],
            "alpha_matrices": [{"rep_index": 0,
                                "matrix": [[1] * x_dim] * y_dim}]}


@pytest.mark.parametrize("x_dim, y_dim", [(1, 1), (2, 0), (0, 1)])
def test_functor_on_zero_dimensional_objects(capsys, tmp_path, x_dim, y_dim):
    # a matrix with no rows is [] in JSON, whatever its width
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(_trivial_s3_rep(x_dim, y_dim)))
    code, out, err = run(capsys, "functor", fx("two_object_trivial_s3"),
                         str(f))
    assert (code, err) == (0, "")
    assert [v["dim"] for v in json.loads(out)["vertices"]] == \
        [x_dim, y_dim, 0, 0]


def _rep_set(path, value, base=lambda: fixture_doc("two_object_c2_s3_rep")):
    """A representation document with one field replaced."""
    def make():
        doc = base()
        _set(path, value)(doc)
        return doc
    return make


def _duplicate_x_rep():
    """The fixture's representation with a copy of x, every generator
    matrix zeroed, listed before the real one."""
    doc = fixture_doc("two_object_c2_s3_rep")
    x = next(o for o in doc["objects"] if o["id"] == "x")
    zero = {**x, "generator_matrices": [[[0] * len(row) for row in m]
                                        for m in x["generator_matrices"]]}
    doc["objects"].insert(0, zero)
    return doc


@pytest.mark.parametrize("fixture, make_rep, code, prefix", [
    pytest.param("two_object_c2_s3", _rep_set(("p",), 13.5), 3,
                 "schema error", id="float-p"),
    pytest.param("two_object_c2_s3", _rep_set(("p",), "13"), 3,
                 "schema error", id="string-p"),
    pytest.param("two_object_c2_s3", _rep_set(("p",), 10**30), 3,
                 "schema error", id="huge-p"),
    pytest.param("two_object_c2_s3", _rep_set(("p",), 0), 3,
                 "schema error", id="zero-p"),
    pytest.param("two_object_c2_s3", _rep_set(("p",), 7), 2,
                 "validation error", id="other-p"),
    pytest.param("two_object_c2_s3", _rep_set(("objects", 0, "dim"), 3.0),
                 3, "schema error", id="float-dim"),
    pytest.param("two_object_c2_s3",
                 _rep_set(("alpha_matrices", 0, "matrix", 0, 0), 0.5),
                 3, "schema error", id="float-matrix-entry"),
    pytest.param("two_object_c2_s3",
                 _rep_set(("objects", 0, "generator_matrices", 0, 0, 0),
                          True),
                 3, "schema error", id="bool-matrix-entry"),
    pytest.param("two_object_c2_s3",
                 _rep_set(("alpha_matrices", 0, "matrix"), [[1, 2], [3]]),
                 3, "schema error", id="ragged-matrix"),
    pytest.param("two_object_c2_s3",
                 _rep_set(("alpha_matrices", 0, "matrix"), [[1]]),
                 3, "schema error", id="wrong-alpha-shape"),
    pytest.param("two_object_c2_s3",
                 _rep_set(("alpha_matrices", 0, "rep_index"), 0.2),
                 3, "schema error", id="float-rep-index"),
    # a second entry for x must not replace the first
    pytest.param("two_object_c2_s3", _duplicate_x_rep, 3,
                 "schema error", id="duplicate-object"),
    pytest.param("two_object_trivial_s3",
                 _rep_set(("objects", 0, "dim"), -1, _trivial_s3_rep),
                 3, "schema error", id="negative-dim"),
    # R(y) = 0, so the representative's matrix is [] and no matrix
    # carries x's dim
    pytest.param("two_object_trivial_s3", lambda: _trivial_s3_rep(10**7, 0),
                 3, "schema error", id="huge-dim-no-matrix"),
    pytest.param("two_object_trivial_s3",
                 _rep_set(("objects", 0, "dim"), 10**7, _trivial_s3_rep),
                 3, "schema error", id="huge-dim-against-alpha"),
])
def test_malformed_representations_end_in_a_finding(
        capsys, tmp_path, fixture, make_rep, code, prefix):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(make_rep()))
    got, out, err = run(capsys, "functor", fx(fixture), str(f))
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1 and \
        err.endswith("\n")


def test_functor_rep_for_another_prime_is_a_prime_mismatch(capsys, tmp_path):
    # found before the matrices, which are no representation over F_7
    doc = fixture_doc("two_object_c2_s3_rep")
    doc["p"] = 7
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "functor", fx("two_object_c2_s3"), str(f))
    assert (code, out) == (2, "")
    assert "prime-mismatch" in err and err.count("\n") == 1


@contextlib.contextmanager
def address_space_limit(extra_bytes: int):
    """Cap this process's address space a little above its current size,
    so that a size that slips past its check fails with MemoryError
    instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    limit = used + extra_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _one_trivial_object(degree):
    return {"objects": [{"id": "x", "degree": degree, "generators": []}]}


def _one_hom(size, mode):
    # trivial groups at both ends: no action list carries the size
    return {"mode": mode,
            "objects": [{"id": "x", "degree": 1, "generators": []},
                        {"id": "y", "degree": 1, "generators": []}],
            "homs": [{"from": "x", "to": "y", "size": size,
                      "left_action": [], "right_action": []}]}


@pytest.mark.parametrize("doc", [
    pytest.param(_one_trivial_object(10**9), id="degree-1e9"),
    pytest.param(_one_trivial_object(10**30), id="degree-1e30"),
    pytest.param(_one_hom(10**9, "explicit"), id="hom-size-1e9"),
    pytest.param(_one_hom(10**9, "ei-quiver"), id="arrow-size-1e9"),
])
def test_huge_sizes_are_rejected_before_allocation(capsys, tmp_path, doc):
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc))
    with address_space_limit(512 * 2**20):
        code, out, err = run(capsys, "validate", str(f))
    # the size check's own finding, not the MemoryError that a missed
    # check would end in (reported as out-of-memory)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: too-large: ") and \
        "exceeds" in err and err.count("\n") == 1


def test_a_hom_whose_action_tables_are_past_their_bound_is_refused(
        capsys, tmp_path):
    # S7 acting on 100,000 points from a trivial object: two generator
    # rows in the document, but 5040 x 100,000 entries in left_elem
    s7 = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
    f = tmp_path / "s7_hom.json"
    f.write_text(json.dumps({
        "objects": [{"id": "x", "degree": 1, "generators": []},
                    {"id": "y", "degree": 7, "generators": s7}],
        "homs": [{"from": "x", "to": "y", "size": 100000,
                  "left_action": [list(range(100000))] * 2,
                  "right_action": []}]}))
    with address_space_limit(512 * 2**20):
        code, out, err = run(capsys, "validate", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("validation error: too-large: hom x->y: ") and \
        err.count("\n") == 1


def test_a_glued_product_is_held_to_the_path_bound(capsys, tmp_path):
    # x -> y -> z, two arrows of 10 between trivial groups: the path
    # biset x -> z has 100 elements
    doc = _one_hom(10, "ei-quiver")
    doc["objects"].append({"id": "z", "degree": 1, "generators": []})
    doc["homs"].append(dict(doc["homs"][0], **{"from": "y", "to": "z"}))
    f = tmp_path / "two_arrows.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--max-paths", "100", "validate", str(f))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "--max-paths", "99", "validate", str(f))
    assert (code, err) == (2, "validation error: path-bound: a path biset "
                              "exceeds 99 elements\n")


def test_a_character_table_past_its_bound_is_refused(capsys, tmp_path):
    # C2^12 on 12 disjoint transpositions: 4,096 classes of one element,
    # 2^24 table values where chartab.MAX_TABLE_ENTRIES is 2^22
    swaps = [list(range(24)) for _ in range(12)]
    for k, perm in enumerate(swaps):
        perm[2 * k], perm[2 * k + 1] = 2 * k + 1, 2 * k
    f = tmp_path / "c2_12.json"
    f.write_text(json.dumps({"mode": "ei-quiver", "homs": [], "objects": [
        {"id": "x", "degree": 24, "generators": swaps}]}))
    with address_space_limit(512 * 2**20):
        code, out, err = run(capsys, "quiver", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("validation error: too-large: ") and \
        "exceeds" in err and err.count("\n") == 1


def test_oracle_reads_the_tables_where_a_dense_product_table_would_not_fit(
        capsys, tmp_path):
    # x -> y -> z, two arrows of 128 between trivial groups: 16,643
    # morphisms and 256 arrow orbits, where a |Mor| x |Mor| int32 product
    # table would take 1.1 GB
    trivial = [{"id": v, "degree": 1, "generators": []} for v in "xyz"]
    arrows = [{"from": a, "to": b, "size": 128,
               "left_action": [], "right_action": []}
              for a, b in (("x", "y"), ("y", "z"))]
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"mode": "ei-quiver", "objects": trivial,
                             "homs": arrows}))
    with address_space_limit(512 * 2**20):
        code, out, err = run(capsys, "--format", "text", "oracle", str(f))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "oracle agrees with the quiver computation"
    assert len(lines) == 3


def test_max_group_holds_for_a_group_already_loaded(capsys, tmp_path,
                                                    fresh_groups):
    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps({"mode": "ei-quiver", "homs": [], "objects": [
        {"id": "x", "degree": 4,
         "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}]}))
    cold = run(capsys, "--max-group", "23", "validate", str(s4))
    assert run(capsys, "validate", str(s4))[0] == 0
    # S4 is live in this process now; the bound still refuses it
    assert run(capsys, "--max-group", "23", "validate", str(s4)) == cold
    assert cold[0] == 2 and "bad-group: group closure exceeds bound 23" \
        in cold[2]


def test_max_group_below_one_holds_on_a_cold_load(capsys, tmp_path,
                                                  fresh_groups):
    # the trivial group's one element exceeds a bound of 0, whether its
    # group is enumerated afresh or already live
    from eiquiver.permgrp import enumerate_group
    f = tmp_path / "trivial.json"
    f.write_text(json.dumps({"objects": [{"id": "x", "degree": 1}],
                             "homs": []}))
    cold = run(capsys, "--max-group", "0", "validate", str(f))
    assert cold == (2, "", "validation error: bad-group: group closure "
                    "exceeds bound 0\n")
    live = enumerate_group(1, [])
    assert run(capsys, "--max-group", "0", "validate", str(f)) == cold
    # an order equal to the bound passes, warm and cold
    assert run(capsys, "--max-group", "1", "validate", str(f))[0] == 0
    assert enumerate_group(1, [], bound=1) is live
    fresh_groups()
    assert run(capsys, "--max-group", "1", "validate", str(f))[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_returns_what_main_prints(capsys, command):
    # a command is a function of the loaded category that prints
    # nothing; its result, emitted in each format, is the CLI's stdout
    # for that golden case, or bad-format for a DOT it does not have
    from eiquiver import cli
    fn = getattr(cli, "cmd_" + command.replace("-", "_"))
    for fmt in FORMATS:
        case = f"{fmt} {command} four_object_mixed"
        args = cli.make_parser().parse_args(CASES[case])
        result = fn(args, cli._load(args))
        assert capsys.readouterr().out == ""
        if fmt == "dot" and command != "quiver":
            with pytest.raises(ValidationError) as e:
                cli._emit(args, *result)
            assert e.value.finding == "bad-format"
            assert f"{e.value.label}: {e.value}\n" == EXPECTED[case]["stderr"]
        else:
            cli._emit(args, *result)
        assert capsys.readouterr().out == EXPECTED[case]["stdout"]


def test_max_paths_bound(capsys):
    code, _, err = run(capsys, "--max-paths", "2",
                       "validate", fx("four_object_mixed"))
    assert code == 2
    assert "path-bound" in err


def test_the_path_bound_limits_only_the_cover(tmp_path, capsys, monkeypatch):
    # 804 morphisms whose free cover has 160,000 paths x -> z: only
    # `cover` builds that cover, so only `cover` meets the bound
    from eiquiver import freecover
    f = tmp_path / "large_cover.json"
    f.write_text(json.dumps(large_cover_document()))
    calls = []
    build = freecover.generate_free_category
    monkeypatch.setattr(freecover, "generate_free_category",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    code, out, err = run(capsys, "--format", "text", "is-free", str(f))
    assert (code, out, err) == (0, "not free\n", "")
    code, out, err = run(capsys, "classify", str(f))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "InfiniteUncertified"
    assert [c["rule"] for c in payload["certificates"]] == \
        ["multiple-orbits"] * 2
    assert calls == []
    for command in ("validate", "quiver", "oracle"):
        code, _, err = run(capsys, command, str(f))
        assert (code, err) == (0, ""), command
    code, _, err = run(capsys, "cover", str(f))
    assert code == 2 and "path-bound" in err


def test_only_the_commands_that_read_tables_build_them(tmp_path, capsys,
                                                      monkeypatch):
    # a generated category's tables are glued on their first read: on a
    # line of 40 objects (9,880 tables), the commands that read only the
    # hom-sets, their actions and the unfactorizables glue none
    from eiquiver import freecover
    f = tmp_path / "line.json"
    f.write_text(json.dumps(trivial_line([f"o{i}" for i in range(40)])))
    calls = []
    fill = freecover._composition_tables
    monkeypatch.setattr(freecover, "_composition_tables",
                        lambda *a: calls.append(a) or fill(*a))
    for command in ("validate", "quiver", "is-free", "classify", "screen",
                    "cover"):
        code, _, err = run(capsys, command, str(f))
        assert (code, err, calls) == (0, "", []), command
    code, _, err = run(capsys, "oracle", str(f))
    assert (code, err, len(calls)) == (0, "", 1)


EVERY_COMMAND = ["validate", "quiver", "classify", "screen", "cover",
                 "is-free", "oracle", "functor"]


def _refused_as_disconnected(capsys, tmp_path, command, doc):
    f = tmp_path / "disconnected.json"
    f.write_text(json.dumps(doc))
    rep = [fx("two_object_c2_s3_rep")] if command == "functor" else []
    code, out, err = run(capsys, command, str(f), *rep)
    assert (code, out) == (2, "")
    assert err == ("validation error: disconnected: category is not "
                   "connected as an object graph\n")


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_a_disconnected_ei_quiver_document_is_refused(capsys, tmp_path,
                                                      command):
    doc = trivial_line(["a", "b", "c"])
    doc["objects"].append({"id": "d", "degree": 1, "generators": []})
    _refused_as_disconnected(capsys, tmp_path, command, doc)


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_a_disconnected_explicit_document_is_refused(capsys, tmp_path,
                                                     command):
    trivial = {"degree": 1, "generators": []}
    _refused_as_disconnected(capsys, tmp_path, command, {
        "mode": "explicit",
        "objects": [{"id": "x", **trivial}, {"id": "y", **trivial}],
        "homs": [], "compositions": []})


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


def test_representation_too_large_to_check_is_rejected_first(
        capsys, tmp_path, monkeypatch):
    # S6 in dimension 77: two 77x77 generator matrices in the document,
    # but 720 element matrices of 77x77 to check the group relations
    from eiquiver import morita
    from eiquiver.chartab import choose_splitting_prime
    from eiquiver.permgrp import enumerate_group
    s6 = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
    dim = 77
    assert 720 * dim * dim > morita.MAX_ELEMENT_ENTRIES
    monkeypatch.setattr(morita, "element_matrices", None)
    cat = tmp_path / "s6.json"
    cat.write_text(json.dumps({"objects": [{"id": "x", "degree": 6,
                                            "generators": s6}]}))
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({
        "p": choose_splitting_prime([enumerate_group(6, s6)]).p,
        "objects": [{"id": "x", "dim": dim,
                     "generator_matrices": [eye, eye]}],
        "alpha_matrices": []}))
    code, out, err = run(capsys, "functor", str(cat), str(rep))
    assert (code, out) == (2, "")
    assert "too-large" in err and err.count("\n") == 1


def test_memory_error_is_an_out_of_memory_finding(capsys, monkeypatch):
    from eiquiver import cli

    def exhausted(args, cat):
        raise MemoryError
    monkeypatch.setattr(cli, "cmd_classify", exhausted)
    code, out, err = run(capsys, "classify", fx("two_object_c2_s3"))
    assert (code, out) == (2, "")
    assert err.startswith("validation error: out-of-memory: ") and \
        err.count("\n") == 1


def test_numpys_out_of_memory_system_error_is_an_out_of_memory_finding(
        capsys, monkeypatch):
    # numpy can raise this SystemError where an allocation fails; it is
    # handled as a MemoryError, its frames cleared too
    from eiquiver import cli
    from eiquiver.errors import NUMPY_OUT_OF_MEMORY

    class Data:
        pass
    refs, alive = [], []

    def exhausted(args, cat):
        data = Data()
        refs.append(weakref.ref(data))
        raise SystemError(NUMPY_OUT_OF_MEMORY)
    monkeypatch.setattr(cli, "cmd_classify", exhausted)
    monkeypatch.setattr(cli, "OutOfMemory", lambda: alive.append(
        refs[0]() is not None) or OutOfMemory())
    code, out, err = run(capsys, "classify", fx("two_object_c2_s3"))
    assert (code, out, alive) == (2, "", [False])
    assert err.startswith("validation error: out-of-memory: ") and \
        err.count("\n") == 1


def test_any_other_system_error_propagates(capsys, monkeypatch):
    from eiquiver import cli

    def broken(args, cat):
        raise SystemError("some other internal error")
    monkeypatch.setattr(cli, "cmd_classify", broken)
    with pytest.raises(SystemError, match="some other internal error"):
        cli.main(["classify", fx("two_object_c2_s3")])


def test_out_of_memory_frees_the_failed_calls_data(capsys, monkeypatch):
    # the frames of the call that ran out hold its data, and the loaded
    # category it was passed; both are freed before the finding is
    # built, so that there is room to report it
    from eiquiver import cli

    class Data:
        pass
    refs, alive = [], []

    def exhausted(args, cat):
        data = Data()
        refs.extend((weakref.ref(data), weakref.ref(cat)))
        raise MemoryError
    monkeypatch.setattr(cli, "cmd_classify", exhausted)
    monkeypatch.setattr(cli, "OutOfMemory", lambda: alive.extend(
        r() is not None for r in refs) or OutOfMemory())
    code, _, err = run(capsys, "classify", fx("two_object_c2_s3"))
    assert (code, alive) == (2, [False, False])
    assert err.startswith("validation error: out-of-memory: ")


def test_no_splitting_prime_is_a_bad_prime_finding(capsys, tmp_path):
    # C997 and C991: p = 1 mod 997·991 and p > 2·997 first at 1976055,
    # past the prime bound
    def cyclic(oid, n):
        return {"id": oid, "degree": n,
                "generators": [list(range(1, n)) + [0]]}
    f = tmp_path / "no_prime.json"
    f.write_text(json.dumps({
        "objects": [cyclic("x", 997), cyclic("y", 991)],
        "homs": [{"from": "x", "to": "y", "size": 1,
                  "left_action": [[0]], "right_action": [[0]]}]}))
    code, out, err = run(capsys, "quiver", str(f))
    assert (code, out) == (2, "")
    assert "bad-prime" in err and err.count("\n") == 1


def test_a_failed_table_check_is_an_invariant_failure(capsys, monkeypatch):
    # the table's rows in reverse order: the trivial character is no
    # longer first, which no input can cause
    import dataclasses
    from eiquiver import chartab
    check = chartab._check_orthogonality
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    monkeypatch.setattr(chartab, "_check_orthogonality", lambda t: check(
        dataclasses.replace(t, rows=t.rows[::-1])))
    code, out, err = run(capsys, "quiver", fx("two_object_c2_s3"))
    assert (code, out) == (1, "")
    assert err.startswith("invariant failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_undecodable_json_is_schema_error(capsys, tmp_path, data):
    f = tmp_path / "bad.json"
    f.write_bytes(data)
    code, out, err = run(capsys, "validate", str(f))
    assert (code, out) == (3, "")
    assert err.startswith("schema error: ") and "is not valid JSON" in err \
        and err.count("\n") == 1


def _renamed(doc, old, new):
    """doc with every string equal to old replaced by new."""
    if isinstance(doc, dict):
        return {k: _renamed(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, old, new) for v in doc]
    return new if doc == old else doc


def _substituted(doc, old, new):
    """doc with old replaced by new inside every string, keys included."""
    if isinstance(doc, dict):
        return {_substituted(k, old, new): _substituted(v, old, new)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [_substituted(v, old, new) for v in doc]
    return doc.replace(old, new) if isinstance(doc, str) else doc


@pytest.mark.parametrize("oid, shown", [("a\nb", r"a\nb"), ("a\rb", r"a\rb"),
                                        ("a\u2028b", r"a\u2028b"),
                                        ("a\\b", r"a\\b")])
def test_text_output_escapes_line_breaks_in_ids(capsys, tmp_path, oid,
                                                shown):
    # the object x renamed to oid: each text record stays one line,
    # with oid escaped, and JSON and DOT carry oid as they carry any id
    # (QID is a plain id in the same place)
    runs = [("quiver", "one_object_c2"), ("quiver", "two_object_c2_s3"),
            ("screen", "two_object_trivial_s3"),
            ("cover", "two_object_trivial_s3"),
            ("functor", "two_object_c2_s3", "two_object_c2_s3_rep")]

    def outputs(fmt, command, names, name):
        paths = []
        for k, doc in enumerate(names):
            f = tmp_path / f"{k}.json"
            f.write_text(json.dumps(_renamed(fixture_doc(doc), "x", name)))
            paths.append(str(f))
        code, out, err = run(capsys, "--format", fmt, command, *paths)
        assert (code, err) == (0, "")
        return out

    for command, *names in runs:
        plain, odd = (outputs("text", command, names, n) for n in ("QID", oid))
        assert "QID" in plain
        assert odd == plain.replace("QID", shown)
        assert len(odd.splitlines()) == plain.count("\n")
        plain, odd = (outputs("json", command, names, n) for n in ("QID", oid))
        assert json.loads(odd) == _substituted(json.loads(plain), "QID", oid)
        if command == "quiver":
            plain, odd = (outputs("dot", command, names, n)
                          for n in ("QID", oid))
            assert odd == plain.replace("QID", oid.replace("\\", "\\\\"))
