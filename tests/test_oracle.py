"""The category algebra's radical filtration and the fixed-point
arrow-count oracle."""

import random
from dataclasses import astuple, replace

import pytest

import kernel_reference as ref
from conftest import fixture_doc
from eiquiver import eicat, quiveralg
from eiquiver.eicat import load_category
from eiquiver.errors import InvariantError, OracleMismatch
from eiquiver.oracle import (build_algebra, check_against_quiver,
                             ext_quiver_oracle, radical_report)
from eiquiver.quiveralg import QuiverArrow, build_quiver
from randcats import random_free_category, random_nonfree_category


def test_algebra_dimensions(categories):
    assert build_algebra(categories["two_object_c2_s3"]).dim == 14
    assert build_algebra(categories["one_object_c2"]).dim == 2
    cat = categories["four_object_mixed"]
    assert build_algebra(cat).dim == cat.morphism_count()


def test_radical_two_object(categories):
    report = radical_report(build_algebra(categories["two_object_c2_s3"]))
    assert len(report.rad_positions) == 6
    assert len(report.rad_sq_positions) == 0
    assert len(report.unfact_positions) == 6
    assert report.nilpotency_degree == 2


def test_radical_one_object(categories):
    report = radical_report(build_algebra(categories["one_object_c2"]))
    assert report.rad_positions == ()
    assert report.nilpotency_degree == 1


def test_radical_mixed_chain(categories):
    cat = categories["four_object_mixed"]
    report = radical_report(build_algebra(cat))
    assert len(report.unfact_positions) == 2 + 6 + 1
    assert report.nilpotency_degree <= len(cat.objects)


def test_oracle_matches_quiver_on_fixtures(categories):
    for name, cat in categories.items():
        q = build_quiver(cat)
        oracle = check_against_quiver(q)
        assert oracle == {k: v % q.prime.p
                          for k, v in q.mult_map().items() if v % q.prime.p}


def test_oracle_line_adjacency(categories):
    cat = categories["line_quiver_free"]
    q = build_quiver(cat)
    oracle = ext_quiver_oracle(cat, q.prime, q.tables)
    assert oracle == {(("w", 0), ("x", 0)): 1,
                      (("x", 0), ("y", 0)): 1,
                      (("y", 0), ("z", 0)): 1}


def test_oracle_detects_tampered_multiplicity(categories):
    q = build_quiver(categories["two_object_c2_s3"])
    a = q.arrows[0]
    tampered = replace(q, arrows=(QuiverArrow(a.source, a.target,
                                              a.mult + 1, a.units),)
                       + q.arrows[1:])
    with pytest.raises(OracleMismatch):
        check_against_quiver(tampered)


def test_oracle_on_random_categories():
    rng = random.Random(88)
    for make in (random_free_category, random_nonfree_category):
        for _ in range(8):
            cat = make(rng, max_mor=150)
            q = build_quiver(cat)
            check_against_quiver(q)


# C3 acting regularly on both sides: its characters are not real, so a
# fixed-point count taken at g instead of g^-1 pairs V with W* and shows
C3_REGULAR = {"mode": "ei-quiver",
              "objects": [{"id": "x", "degree": 3, "generators": [[1, 2, 0]]},
                          {"id": "y", "degree": 3, "generators": [[1, 2, 0]]}],
              "homs": [{"from": "x", "to": "y", "size": 3,
                        "left_action": [[1, 2, 0]],
                        "right_action": [[1, 2, 0]]}]}


def _reference_cases(categories):
    rng = random.Random(9)
    return (list(categories.values()) + [load_category(C3_REGULAR)]
            + [random_free_category(rng, max_mor=150) for _ in range(6)]
            + [random_nonfree_category(rng, max_mor=150) for _ in range(6)])


def test_array_oracle_matches_the_product_by_product_reference(categories):
    for cat in _reference_cases(categories):
        basis, index, prod = ref.build_algebra(cat)
        alg = build_algebra(cat)
        assert alg.dim == len(basis) == cat.morphism_count()
        assert all(alg.offset[(m.source, m.target)] + m.index == i
                   for m, i in index.items())
        assert astuple(radical_report(alg)) == \
            ref.radical_report(cat, basis, index, prod)
        q = build_quiver(cat)
        got = ext_quiver_oracle(cat, q.prime, q.tables)
        want = ref.ext_quiver_oracle(cat, q.prime, q.tables)
        assert list(got.items()) == list(want.items())


def test_oracle_makes_no_morphism_ids_and_reads_no_stabilizer(monkeypatch):
    cat = load_category(fixture_doc("four_object_mixed"))
    q = build_quiver(cat)
    made = []

    class Counted(eicat.MorphId):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    def forbidden(*args):
        raise AssertionError("the oracle read the quiver's data")

    monkeypatch.setattr(eicat, "MorphId", Counted)
    for module in (eicat, quiveralg):
        for name in ("stabilizer_data", "orbit_representatives"):
            monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(quiveralg, "build_quiver", forbidden)
    report = radical_report(build_algebra(cat))
    ext_quiver_oracle(cat, q.prime, q.tables)
    assert made == []
    assert len(report.unfact_positions) == 9


def test_radical_report_rejects_rad_mod_rad2_off_the_unfactorizables():
    # fork_merge_free with a second, unfactorizable x->z; one composite
    # x->y->z made equal to it, after the unfactorizables are memoised,
    # puts it in rad²
    doc = fixture_doc("fork_merge_free")
    hom = doc["homs"][2]
    assert (hom["from"], hom["to"]) == ("x", "z")
    hom["size"] = 2
    cat = load_category(doc)
    assert cat.unfactorizables[("x", "z")] == (1,)
    assert cat.comp[("x", "y", "z")] == ((0,), (0,))
    radical_report(build_algebra(cat))
    cat.comp[("x", "y", "z")] = ((1,), (0,))
    with pytest.raises(InvariantError, match="rad/rad² basis disagrees"):
        radical_report(build_algebra(cat))
