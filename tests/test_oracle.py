"""The category algebra's radical filtration and the fixed-point
arrow-count oracle."""

import random
from dataclasses import replace

import numpy as np
import pytest

import kernel_reference as ref
from conftest import fixture_doc
from eiquiver import eicat, oracle, quiveralg
from eiquiver.eicat import EICategory, MorphId, load_category
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


def _count(ell, k):
    """The number of morphisms with ℓ = k."""
    return sum(int((layer == k).sum()) for layer in ell.values())


def test_radical_two_object(categories):
    # rad is the one hom-set, all of it rad/rad²: rad² = 0
    ell = radical_report(build_algebra(categories["two_object_c2_s3"]))
    assert {key: layer.tolist() for key, layer in ell.items()} == \
        {("x", "y"): [1] * 6}


def test_radical_one_object(categories):
    assert radical_report(build_algebra(categories["one_object_c2"])) == {}


def test_radical_mixed_chain(categories):
    cat = categories["four_object_mixed"]
    ell = radical_report(build_algebra(cat))
    assert _count(ell, 1) == 2 + 6 + 1
    # rad^n = 0 over n objects
    assert max(int(layer.max()) for layer in ell.values()) < len(cat.objects)


def test_radical_layers_of_a_long_line():
    # o_i -> o_j is the one composite of the j - i arrows between them
    n = 30
    ids = [f"o{i}" for i in range(n)]
    cat = load_category({
        "mode": "ei-quiver",
        "objects": [{"id": o, "degree": 1, "generators": []} for o in ids],
        "homs": [{"from": a, "to": b, "size": 1} for a, b in
                 zip(ids, ids[1:])]})
    ell = radical_report(build_algebra(cat))
    assert {key: layer.tolist() for key, layer in ell.items()} == \
        {(ids[i], ids[j]): [j - i] for i in range(n) for j in range(i + 1, n)}


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


def test_oracle_counts_the_dimensions_over_the_integers(categories):
    # p more on one arrow agrees mod p with the oracle's multiplicity,
    # but not with dim rad/rad² over the integers
    q = build_quiver(categories["four_object_mixed"])
    a = q.arrows[0]
    tampered = replace(q, arrows=(replace(a, mult=a.mult + q.prime.p),)
                       + q.arrows[1:])
    with pytest.raises(OracleMismatch, match="Σ mult·dimV·dimW = 22 but "
                       "dim rad/rad² = 9"):
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
        # rad^k = {ℓ ≥ k} for every k up to the first zero power, through
        # the reference's basis
        ell = radical_report(alg)
        layers = ref.radical_report(cat, basis, index, prod)
        for k, want in enumerate(layers, 1):
            got = {index[MorphId(x, y, i)] for (x, y), layer in ell.items()
                   for i in np.flatnonzero(layer >= k).tolist()}
            assert got == want, k
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
    ell = radical_report(build_algebra(cat))
    ext_quiver_oracle(cat, q.prime, q.tables)
    assert made == []
    assert _count(ell, 1) == 9


def test_radical_report_rejects_rad_mod_rad2_off_the_unfactorizables():
    # fork_merge_free with a second, unfactorizable x->z; one composite
    # x->y->z made equal to it puts it in rad², in a category whose memo
    # is seeded with the loaded category's unfactorizables
    doc = fixture_doc("fork_merge_free")
    hom = doc["homs"][2]
    assert (hom["from"], hom["to"]) == ("x", "z")
    hom["size"] = 2
    cat = load_category(doc)
    assert cat.unfactorizables[("x", "z")] == (1,)
    assert cat.comp[("x", "y", "z")] == ((0,), (0,))
    radical_report(build_algebra(cat))

    def tampered():
        comp = {**cat.comp, ("x", "y", "z"): ((1,), (0,))}
        return EICategory(cat.objects, cat.groups, cat.homs, lambda: comp,
                          cat.topological_order)
    # unseeded, both read the same tables and agree
    radical_report(build_algebra(tampered()))
    bad = tampered()
    bad.memo("unfactorizables", lambda: cat.unfactorizables)
    with pytest.raises(InvariantError, match="rad/rad² basis disagrees"):
        radical_report(build_algebra(bad))


def test_fixed_point_counts_in_chunks_match_the_per_h_loop(categories,
                                                           monkeypatch):
    # at CLOSURE_CHUNK = 1 every chunk is one h of H, the per-h loop; at
    # 40 most chunks hold several h and the last fewer; and the default.
    # Each gives the residues of the reference's count per (h, g), on
    # every fixture and 50 randcats categories, free and not
    rng = random.Random(0xC4)
    cats = list(categories.values()) + [load_category(C3_REGULAR)]
    cats += [make(rng, max_mor=120) for _ in range(25)
             for make in (random_free_category, random_nonfree_category)]
    seen = 0
    for cat in cats:
        q = build_quiver(cat)
        want = list(ref.ext_quiver_oracle(cat, q.prime, q.tables).items())
        for chunk in (1, 40, eicat.CLOSURE_CHUNK):
            monkeypatch.setattr(oracle, "CLOSURE_CHUNK", chunk)
            assert list(ext_quiver_oracle(cat, q.prime,
                                          q.tables).items()) == want
        seen += bool(want)
    assert seen > 40
