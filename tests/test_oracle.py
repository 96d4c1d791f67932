"""The structure-constant algebra, radical filtration and the
fixed-point arrow-count oracle."""

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


def test_group_algebra_table(categories):
    cat = categories["one_object_c2"]
    alg = build_algebra(cat)
    g = cat.groups["x"]
    for i in range(2):
        for j in range(2):
            assert alg.prod[i][j] == g.mul(alg.basis[i].index,
                                           alg.basis[j].index)


def test_algebra_associativity(categories):
    alg = build_algebra(categories["fork_merge_free"])
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                jk = alg.prod[j][k]
                ij = alg.prod[i][j]
                lhs = alg.prod[i][jk] if jk >= 0 else -1
                rhs = alg.prod[ij][k] if ij >= 0 else -1
                assert lhs == rhs


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
        assert alg.basis == basis
        assert alg.prod.tolist() == [list(row) for row in prod]
        assert all(alg.offset[(m.source, m.target)] + m.index == i
                   for m, i in index.items())
        assert astuple(radical_report(alg)) == \
            ref.radical_report(cat, basis, index, prod)
        q = build_quiver(cat)
        got = ext_quiver_oracle(cat, q.prime, q.tables)
        want = ref.ext_quiver_oracle(cat, q.prime, q.tables)
        assert list(got.items()) == list(want.items())


def test_oracle_makes_one_morphism_per_basis_element_and_no_stabilizer(
        monkeypatch):
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
    assert len(made) == cat.morphism_count() == 29
    assert len(report.unfact_positions) == 9


def _tampered(alg, cells):
    prod = alg.prod.copy()
    for (i, j), k in cells.items():
        prod[i, j] = k
    return replace(alg, prod=prod)


def test_radical_report_rejects_a_non_ideal(categories):
    # a non-isomorphism times an automorphism, on either side, made an
    # automorphism
    alg = build_algebra(categories["two_object_c2_s3"])
    hom = alg.offset[("x", "y")]
    for cell in ((hom, alg.offset[("x", "x")]), (alg.offset[("y", "y")], hom)):
        assert alg.prod[cell] >= 0
        with pytest.raises(InvariantError, match="do not span an ideal"):
            radical_report(_tampered(alg, {cell: 0}))


def test_radical_report_rejects_a_span_that_is_not_nilpotent(categories):
    alg = build_algebra(categories["two_object_c2_s3"])
    hom = alg.offset[("x", "y")]
    assert alg.prod[hom, hom] == -1
    with pytest.raises(InvariantError, match="not nilpotent"):
        radical_report(_tampered(alg, {(hom, hom): hom}))


def test_radical_report_rejects_rad_mod_rad2_off_the_unfactorizables(
        categories):
    # x->y∘w->x made equal to the arrow y->z: then y->z lies in rad²
    alg = build_algebra(categories["line_quiver_free"])
    wx, xy, yz = (alg.offset[k] for k in (("w", "x"), ("x", "y"),
                                          ("y", "z")))
    assert alg.prod[xy, wx] == alg.offset[("w", "y")]
    with pytest.raises(InvariantError, match="rad/rad² basis disagrees"):
        radical_report(_tampered(alg, {(xy, wx): yz}))
