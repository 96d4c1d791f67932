"""The command-line front end: exit codes, output formats, determinism."""

import contextlib
import json
import resource

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
    assert (code, out) == (2, "")
    assert "too-large" in err and err.count("\n") == 1


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
