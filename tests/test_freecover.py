"""Biset products, free categories, and the freeness decision against
its references: the unique-factorization oracle, the free cover's hom
sizes and the Cartan matrix against the quiver's path counts."""

import hashlib
import json
import random
import tracemalloc
from itertools import product

import pytest

from conftest import FIXTURES, fixture_doc, large_cover_document, trivial_line
from eiquiver.chartab import choose_splitting_prime
from eiquiver.eicat import (ArrowBiset, MorphId, ei_quiver_of,
                            load_category, unfactorizables, validate_category)
from eiquiver.errors import ValidationError
from eiquiver.freecover import (biset_product, category_has_ufp,
                                free_cover, generate_free_category, is_free)
from eiquiver.permgrp import orbits, pmul
from eiquiver.quiveralg import build_quiver
from groups import hom_size, named_group
from kernel_reference import cartan_matrix, is_free_by_cover, path_counts
from randcats import (explicit_document, random_free_category,
                      random_nonfree_category, random_quiver_document)
from ufp_reference import (decompositions, has_unique_factorization,
                           reference_has_ufp)


def regular_biset(group, src_name, tgt_name):
    """The group as a biset over itself between two labelled objects."""
    left = tuple(tuple(group.index_of[pmul(g, e)]
                       for e in group.elements) for g in group.generators)
    right = tuple(tuple(group.index_of[pmul(e, g)]
                        for e in group.elements) for g in group.generators)
    return ArrowBiset(src_name, tgt_name, len(group), left, right)


def test_biset_product_unit_law(categories):
    cat = categories["four_object_mixed"]
    quiv = ei_quiver_of(cat)
    o2 = next(a for a in quiv.arrows if (a.source, a.target) == ("H", "K"))
    s3 = cat.groups["H"]
    reg = regular_biset(s3, "G2", "H")
    prod = biset_product(o2, reg, s3)
    assert prod.size == o2.size


def test_biset_product_sizes(categories):
    cat = categories["four_object_mixed"]
    quiv = ei_quiver_of(cat)
    arr = {(a.source, a.target): a for a in quiv.arrows}
    assert biset_product(arr[("H", "K")], arr[("G", "H")],
                         cat.groups["H"]).size == 2
    assert biset_product(arr[("H", "L")], arr[("G", "H")],
                         cat.groups["H"]).size == 1
    point = ArrowBiset("a", "b", 1, (), ())
    point2 = ArrowBiset("b", "c", 1, (), ())
    assert biset_product(point2, point, named_group("1")).size == 1
    with pytest.raises(ValidationError):
        biset_product(point, point2, named_group("1"))


def test_generate_line_quiver(categories):
    cat = categories["line_quiver_free"]
    # free category on the line: every hom has exactly one morphism
    for (x, y), hs in cat.homs.items():
        assert hs.size == 1
    assert len(cat.homs) == 6


def test_generate_single_arrow():
    doc = {
        "mode": "ei-quiver",
        "objects": [{"id": "a", "degree": 1, "generators": []},
                    {"id": "b", "degree": 1, "generators": []}],
        "homs": [{"from": "a", "to": "b", "size": 1,
                  "left_action": [], "right_action": []}],
    }
    cat = load_category(doc)
    assert cat.objects == ("a", "b")
    assert hom_size(cat, "a", "b") == 1


def test_generate_mixed_quiver_hom_sizes(categories):
    cat = categories["four_object_mixed"]
    sizes = {pair: hs.size for pair, hs in cat.homs.items()}
    assert sizes == {("G", "H"): 2, ("H", "K"): 6, ("H", "L"): 1,
                     ("G", "K"): 2, ("G", "L"): 1}


def test_cyclic_quiver_rejected():
    doc = {
        "mode": "ei-quiver",
        "objects": [{"id": "a", "degree": 1, "generators": []},
                    {"id": "b", "degree": 1, "generators": []}],
        "homs": [{"from": "a", "to": "b", "size": 1,
                  "left_action": [], "right_action": []},
                 {"from": "b", "to": "a", "size": 1,
                  "left_action": [], "right_action": []}],
    }
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "cyclic-objects"


def test_loop_arrow_rejected():
    doc = {
        "mode": "ei-quiver",
        "objects": [{"id": "a", "degree": 1, "generators": []}],
        "homs": [{"from": "a", "to": "a", "size": 1,
                  "left_action": [], "right_action": []}],
    }
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "arrow-loop"


def test_path_bound():
    doc = fixture_doc("four_object_mixed")
    with pytest.raises(ValidationError) as exc:
        load_category(doc, max_paths=2)
    assert exc.value.finding == "path-bound"


def test_a_glued_product_past_the_path_bound_is_refused_unglued():
    # x -> y -> z, two arrows of 100,000 between trivial groups: a label
    # per pair of the product would take 10^10 entries
    doc = trivial_line("xyz", size=100000)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as exc:
            load_category(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "path-bound: a path biset exceeds 100000 elements"
    assert peak < 20 * 2**20


def test_free_cover_of_free_category(categories):
    for name in ("line_quiver_free", "fork_merge_free", "one_object_c2",
                 "four_object_mixed", "two_object_c2_s3"):
        cat = categories[name]
        cover = free_cover(cat)
        for pair in set(cat.homs) | set(cover.homs):
            assert hom_size(cat, *pair) == hom_size(cover, *pair)


def test_free_cover_counts_path_classes_separately(categories):
    cover = free_cover(categories["fork_merge_nonfree"])
    # the two unrelated factorizations x->y->z stay distinct in the cover
    assert hom_size(cover, "x", "z") == 2
    cover = free_cover(categories["line_subcategory_nonfree"])
    assert hom_size(cover, "w", "z") == 2


def test_cover_is_full(categories):
    # cover hom sizes never drop below the category's
    for cat in categories.values():
        cover = free_cover(cat)
        for pair in set(cat.homs) | set(cover.homs):
            assert hom_size(cover, *pair) >= hom_size(cat, *pair)


def test_is_free_goldens(categories):
    expected = {"line_quiver_free": True, "line_subcategory_nonfree": False,
                "fork_merge_free": True, "fork_merge_nonfree": False,
                "one_object_c2": True, "four_object_mixed": True,
                "two_object_c2_s3": True, "two_object_trivial_s3": True}
    for name, want in expected.items():
        assert is_free(categories[name]) is want, name


def test_ufp_oracle_agrees_with_is_free(categories):
    for name, cat in categories.items():
        assert category_has_ufp(cat) == is_free(cat) == \
            is_free_by_cover(cat) == reference_has_ufp(cat), name


def test_ufp_oracle_on_random_categories():
    rng = random.Random(501)
    for _ in range(12):
        cat = random_free_category(rng, max_mor=60)
        assert category_has_ufp(cat)
    for _ in range(6):
        cat = random_nonfree_category(rng, max_mor=60)
        assert not category_has_ufp(cat)


def test_nonunique_factorization_witness(categories):
    cat = categories["line_subcategory_nonfree"]
    long = MorphId("w", "z", 0)
    ds = decompositions(cat, long)
    # two decompositions through different middle objects
    assert len(ds) == 2
    assert {d[0].target for d in ds} == {"x", "y"}
    assert not has_unique_factorization(cat, long)


def test_full_subcategories_of_free_are_free(categories):
    for name in ("line_quiver_free", "four_object_mixed"):
        cat = categories[name]
        objs = list(cat.objects)
        for mask in range(1, 2 ** len(objs)):
            keep = [o for i, o in enumerate(objs) if mask >> i & 1]
            if len(keep) < 2:
                continue
            try:
                sub = load_category(explicit_document(cat, keep))
            except ValidationError:
                continue      # disconnected subset
            assert is_free(sub), (name, keep)


def test_generated_free_categories_pass_is_free():
    rng = random.Random(917)
    for _ in range(10):
        assert is_free(random_free_category(rng, max_mor=150))


# ---------------------------------------------------------------------------
# element order and composition pinned to the tuple-enumerating construction

def free_category_digest(cat):
    """Digest of every hom-set's actions and every composition table."""
    homs = sorted((pair, hs.size, hs.left_gen, hs.right_gen)
                  for pair, hs in cat.homs.items())
    comp = sorted(cat.comp.items())
    return hashlib.sha256(repr((homs, comp)).encode()).hexdigest()[:16]


# recorded from the construction that enumerated every path tuple and merged
# them with a union-find; random_quiver_document seeds with paths of up
# to three arrows and parallel paths
PINNED_DIGESTS = {
    "line_quiver_free": "fb16dcd5f1ff399e",
    "four_object_mixed": "0e718f30085af8c4",
    5: "a6125481a8e46a09",
    53: "a52f9d85e4ba3f42",
    168: "0d7d6ef722b01058",
    191: "533642e9313d69a7",
    244: "2b76a7e0e1d8f7b6",
    264: "ddf1f5ac1552d38a",
}


def test_free_category_element_order_pinned():
    for key, want in PINNED_DIGESTS.items():
        doc = (fixture_doc(key) if isinstance(key, str)
               else random_quiver_document(random.Random(key)))
        assert free_category_digest(load_category(doc)) == want, key


def _generated_categories():
    """(name, category) for every ei-quiver fixture, the S3 chains of 3
    to 8 objects, 200 random ei-quiver loads and the free covers of 200
    random non-free categories."""
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("mode") == "ei-quiver":
            yield path.stem, load_category(doc)
    for k in range(3, 9):
        yield f"s3 chain {k}", load_category(s3_chain_document(k))
    rng = random.Random(1103)
    loads = 0
    while loads < 200:
        try:
            cat = load_category(random_quiver_document(rng))
        except ValidationError as e:
            # a random quiver may come out disconnected
            assert e.finding == "disconnected"
            continue
        yield f"quiver {loads}", cat
        loads += 1
    for i in range(200):
        cover = free_cover(random_nonfree_category(rng, max_mor=120))
        yield f"cover {i}", cover


def test_generated_categories_satisfy_the_axioms_they_are_built_with():
    # the check of generate_free_category: its load reads no table and
    # runs no axiom check, and its memo holds the one-arrow paths as the
    # unfactorizables and True as the freeness.  Here the tables are
    # read, and each claim is checked against them
    seen = 0
    for name, cat in _generated_categories():
        assert "comp" not in cat._memo, name
        tables = dict(cat.comp)
        assert dict(cat.unfactorizables) == unfactorizables(cat), name
        validate_category(cat)
        assert category_has_ufp(cat), name
        assert dict(cat.comp) == tables, name
        seen += 1
    assert seen == 2 + 6 + 200 + 200


def path_bisets(quiv):
    """Every path's biset, by arrow-index path, folded over its arrows
    with biset_product."""
    biset = {(i,): a for i, a in enumerate(quiv.arrows)}
    frontier = list(biset)
    while frontier:
        path = frontier.pop()
        for i, a in enumerate(quiv.arrows):
            if a.source == biset[path].target:
                biset[path + (i,)] = biset_product(a, biset[path],
                                                   quiv.groups[a.source])
                frontier.append(path + (i,))
    return biset


def test_glued_path_bisets_are_numbered_as_the_concatenated_path():
    # biset_product's numbering lemma, for outer factors of any length:
    # the free category's composites read these products' classes
    long_outer = parallel = 0
    for seed in [k for k in PINNED_DIGESTS if isinstance(k, int)]:
        quiv = ei_quiver_of(load_category(
            random_quiver_document(random.Random(seed))))
        biset = path_bisets(quiv)
        ends = [(b.source, b.target) for b in biset.values()]
        parallel += len(ends) - len(set(ends))
        for r, q in product(biset, repeat=2):
            if biset[r].target != biset[q].source:
                continue
            glued = biset_product(biset[q], biset[r],
                                  quiv.groups[biset[q].source])
            whole = biset[r + q]
            assert (glued.size, glued.left_gen, glued.right_gen) == \
                (whole.size, whole.left_gen, whole.right_gen), (seed, r, q)
            long_outer += len(q) >= 2
    assert long_outer > 0 and parallel > 0


def test_the_freeness_test_glues_only_where_a_first_step_exists(
        monkeypatch):
    # on a line of 30 trivial objects, hom(x, z) holds an unfactorizable
    # only for z = x + 1: C(29, 2) of the C(30, 3) tables have first steps.
    # The tables of a generated category are glued on their first read,
    # so they are read before the count starts
    from eiquiver import freecover
    cat = load_category(trivial_line([f"o{i}" for i in range(30)]))
    assert len(cat.comp) == 4060
    calls = []
    monkeypatch.setattr(freecover, "orbits",
                        lambda *a: calls.append(a) or orbits(*a))
    assert category_has_ufp(cat)
    assert len(calls) == 406


def test_composites_and_the_freeness_test_read_labels_and_build_no_biset(
        monkeypatch):
    # a generated category's tables and the freeness test of an explicit
    # one read glue's class labels only; the tables are one entry of the
    # category's memo, absent until their first read
    from eiquiver import freecover
    cat = load_category(s3_chain_document(5))
    nonfree = load_category(large_cover_document())

    def refused(*a):
        raise AssertionError("biset_product was called")
    monkeypatch.setattr(freecover, "biset_product", refused)
    assert "comp" not in cat._memo
    tables = dict(cat.comp)
    assert cat.comp is cat.comp is cat._memo["comp"]
    assert len(tables) == 10 and dict(cat.comp) == tables
    assert category_has_ufp(nonfree) is False
    assert category_has_ufp(cat) is True
    assert nonfree.comp is nonfree.comp


def s3_chain_document(k):
    """Objects c0..c{k-1}, each with group S3, joined c_i -> c_{i+1} by
    the regular S3-biset."""
    s3 = named_group("S3")
    reg = regular_biset(s3, "", "")
    return {
        "mode": "ei-quiver",
        "objects": [{"id": f"c{i}", "degree": s3.degree,
                     "generators": [list(g) for g in s3.generators]}
                    for i in range(k)],
        "homs": [{"from": f"c{i}", "to": f"c{i + 1}", "size": reg.size,
                  "left_action": [list(g) for g in reg.left_gen],
                  "right_action": [list(g) for g in reg.right_gen]}
                 for i in range(k - 1)],
    }


@pytest.mark.parametrize("k", [8, 12])
def test_s3_regular_chain(k):
    # 6^(k-1) path tuples, but every glued hom is one regular biset
    cat = load_category(s3_chain_document(k))
    assert len(cat.homs) == k * (k - 1) // 2
    assert all(hs.size == 6 for hs in cat.homs.values())
    cover = free_cover(cat)
    assert {pr: hs.size for pr, hs in cover.homs.items()} == \
        {pr: hs.size for pr, hs in cat.homs.items()}
    assert is_free(cat) is True
    assert category_has_ufp(cat) is True


def test_local_ufp_matches_reference_on_fixtures(categories):
    for name, cat in categories.items():
        assert category_has_ufp(cat) == reference_has_ufp(cat), name


def test_local_ufp_matches_reference_on_random_categories():
    rng = random.Random(2024)
    verdicts = []
    for i in range(120):
        make = random_free_category if i % 2 else random_nonfree_category
        cat = make(rng, max_mor=80)
        verdicts.append(category_has_ufp(cat))
        assert verdicts[-1] == is_free(cat) == reference_has_ufp(cat) == \
            is_free_by_cover(cat), i
    assert verdicts.count(True) == verdicts.count(False) == 60


def test_free_cover_is_built_once_per_category_and_path_bound(monkeypatch):
    from eiquiver import freecover
    from eiquiver.reptype import rep_type
    # the explicit serialization: an ei-quiver load is its own cover
    cat = load_category(explicit_document(
        load_category(fixture_doc("four_object_mixed"))))
    calls = []
    build = freecover.generate_free_category
    monkeypatch.setattr(freecover, "generate_free_category",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    # freeness and the verdict build no cover
    assert is_free(cat)
    assert rep_type(cat, choose_splitting_prime(
        cat.groups.values())).verdict == "Finite"
    assert calls == []
    cover = free_cover(cat)
    assert len(calls) == 1
    assert free_cover(cat) is cover
    # a build that fails is not kept: a smaller bound still fails
    for _ in range(2):
        with pytest.raises(ValidationError) as exc:
            free_cover(cat, max_paths=2)
        assert exc.value.finding == "path-bound"
    assert len(calls) == 3


def test_an_ei_quiver_load_is_its_own_cover_at_its_bound(monkeypatch):
    from eiquiver import freecover
    calls = []
    build = freecover.generate_free_category
    monkeypatch.setattr(freecover, "generate_free_category",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    for bound in (100000, 500):
        cat = load_category(fixture_doc("four_object_mixed"), max_paths=bound)
        calls.clear()
        assert free_cover(cat, max_paths=bound) is cat
        assert is_free(cat)
        assert calls == []
        # any other bound builds; a smaller one still fails, every time
        other = free_cover(cat, max_paths=bound + 1)
        assert other is not cat and len(calls) == 1
        assert {pr: hs.size for pr, hs in other.homs.items()} == \
            {pr: hs.size for pr, hs in cat.homs.items()}
        for _ in range(2):
            with pytest.raises(ValidationError) as exc:
                free_cover(cat, max_paths=2)
            assert exc.value.finding == "path-bound"
        assert len(calls) == 3


def test_an_ei_quiver_load_is_freed_without_the_collector():
    # the category is its own cover, but its memo does not refer to it
    import gc
    import weakref
    gc.disable()
    try:
        for name in ("four_object_mixed", "line_quiver_free"):
            cat = load_category(fixture_doc(name))
            assert free_cover(cat) is cat and is_free(cat)
            gone = weakref.ref(cat)
            del cat
            assert gone() is None, name
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the source paper's theorem: with p dividing no group order, kC is
# hereditary exactly when C is free, and then it is Morita equivalent to
# the path algebra of its quiver; otherwise to a proper quotient of it


def _cartan_within_paths(cat):
    """Whether the Cartan matrix is at most the path counts entrywise,
    and whether the two are equal."""
    q = build_quiver(cat)
    c, paths = cartan_matrix(q), path_counts(q)
    below = all(a <= b for rc, rp in zip(c, paths) for a, b in zip(rc, rp))
    return below, c == paths


def test_cartan_matrix_equals_path_counts_exactly_when_free(categories):
    from test_kernel import C4_REGULAR
    named = dict(categories, c4_regular=load_category(C4_REGULAR))
    for name, cat in named.items():
        assert _cartan_within_paths(cat) == (True, is_free(cat)), name
    rng = random.Random(7)
    verdicts = []
    for i in range(120):
        make = random_free_category if i % 2 else random_nonfree_category
        cat = make(rng, max_mor=200)
        verdicts.append(is_free(cat))
        assert _cartan_within_paths(cat) == (True, verdicts[-1]), i
    assert verdicts.count(True) == verdicts.count(False) == 60


def test_a_category_with_a_large_cover_is_answered_without_it(monkeypatch):
    from eiquiver import freecover
    calls = []
    monkeypatch.setattr(freecover, "generate_free_category",
                        lambda *a, **kw: calls.append(a))
    cat = load_category(large_cover_document())
    assert cat.morphism_count() == 804
    assert is_free(cat) is False
    q = build_quiver(cat)
    c, paths = cartan_matrix(q), path_counts(q)
    x0, z0 = q.vertex_index[("x", 0)], q.vertex_index[("z", 0)]
    assert (c[x0][z0], paths[x0][z0]) == (1, 160000)
    assert _cartan_within_paths(cat) == (True, False)
    assert calls == []
