"""The quiver construction: goldens, acyclicity, the embedded quiver of
unfactorizables, and cover equality."""

import random
from dataclasses import replace

import pytest

import kernel_reference as ref
from eiquiver import quiveralg
from eiquiver.chartab import choose_splitting_prime
from eiquiver.eicat import stabilizer_data
from eiquiver.errors import InvariantError
from eiquiver.freecover import free_cover
from eiquiver.quiveralg import (QuiverArrow, assert_acyclic,
                                assert_embedded_ei_quiver, build_quiver,
                                quiver_document, quiver_dot, quivers_equal)
from randcats import random_free_category


def arrow_labels(q):
    return [(q.vertices[a.source].label, q.vertices[a.target].label, a.mult)
            for a in q.arrows]


def test_golden_mixed_chain(categories):
    q = build_quiver(categories["four_object_mixed"])
    assert len(q.vertices) == 11
    assert arrow_labels(q) == [
        ("G:X0", "H:X0", 1), ("G:X1", "H:X1", 1),
        ("H:X0", "K:X0", 1), ("H:X0", "L:X0", 1),
        ("H:X1", "K:X1", 1), ("H:X2", "K:X2", 1)]
    touched = {a.source for a in q.arrows} | {a.target for a in q.arrows}
    isolated = {q.vertices[i].label for i in range(11) if i not in touched}
    # the two nontrivial characters of the cyclic tail stay isolated
    assert isolated == {"L:X1", "L:X2"}


def test_golden_two_object(categories):
    q = build_quiver(categories["two_object_c2_s3"])
    assert len(q.vertices) == 5
    assert arrow_labels(q) == [
        ("x:X0", "y:X0", 1), ("x:X0", "y:X2", 1),
        ("x:X1", "y:X1", 1), ("x:X1", "y:X2", 1)]


def test_golden_regular_biset(categories):
    q = build_quiver(categories["two_object_trivial_s3"])
    assert len(q.vertices) == 4
    assert arrow_labels(q) == [
        ("x:X0", "y:X0", 1), ("x:X0", "y:X1", 1), ("x:X0", "y:X2", 2)]


def test_vertex_count_and_order(categories):
    for cat in categories.values():
        q = build_quiver(cat)
        assert len(q.vertices) == sum(len(q.tables[x].dims)
                                      for x in cat.objects)
        # vertices grouped by object in object order, dims ascending
        labels = [v.object for v in q.vertices]
        assert labels == sorted(labels, key=list(cat.objects).index)
        assert_acyclic(q)
        assert_embedded_ei_quiver(q)


def test_assert_acyclic_rejects_backward_arrow(categories):
    q = build_quiver(categories["two_object_c2_s3"])
    a = q.arrows[0]
    bad = replace(q, arrows=(QuiverArrow(a.target, a.source, a.mult,
                                         a.units),))
    with pytest.raises(InvariantError):
        assert_acyclic(bad)


def test_embedded_check_rejects_missing_trivial_arrow(categories):
    q = build_quiver(categories["two_object_c2_s3"])
    bad = replace(q, arrows=q.arrows[1:])
    with pytest.raises(InvariantError):
        assert_embedded_ei_quiver(bad)


def test_multiplicity_units_recompute(categories):
    # e and f of every arrow unit agree with a direct elementwise inner
    # product over G1 and H1 (independence from the class bookkeeping)
    for name in ("four_object_mixed", "two_object_trivial_s3"):
        cat = categories[name]
        q = build_quiver(cat)
        p = q.prime.p
        for a in q.arrows:
            sv, tv = q.vertices[a.source], q.vertices[a.target]
            for un in a.units:
                od = q.orbits[un.rep_index]
                sd = od.stab
                chi_u = ref.character(od.quotient_table, un.u)
                for handle, quot, vert, want in (
                        (sd.G1, sd.quotG, sv, un.e),
                        (sd.H1, sd.quotH, tv, un.f)):
                    infl = ref.inflate(chi_u, quot)
                    down = ref.restrict(
                        ref.character(q.tables[vert.object], vert.irr), handle)
                    got = ref.inner_product(handle.as_group(), down, infl, p)
                    assert got == want
                    assert type(got) is type(want) is int


def test_each_orbit_takes_two_multiplicity_products(categories, monkeypatch):
    calls = []
    product = quiveralg.restriction_multiplicity
    monkeypatch.setattr(quiveralg, "restriction_multiplicity",
                        lambda *a: calls.append(a) or product(*a))
    for cat in categories.values():
        prime = choose_splitting_prime(cat.groups.values())
        calls.clear()
        q = quiveralg._build_quiver(cat, prime)
        assert len(calls) == 2 * len(q.orbits)


def test_cover_quiver_equality(categories):
    for name, cat in categories.items():
        q = build_quiver(cat)
        qc = build_quiver(free_cover(cat), q.prime)
        assert quivers_equal(q, qc), name


def test_quivers_equal_detects_difference(categories):
    q1 = build_quiver(categories["two_object_c2_s3"])
    q2 = build_quiver(categories["two_object_trivial_s3"])
    assert not quivers_equal(q1, q2)


def test_random_free_categories_acyclic():
    rng = random.Random(33)
    for _ in range(15):
        cat = random_free_category(rng, max_mor=120)
        q = build_quiver(cat)
        assert_acyclic(q)
        assert_embedded_ei_quiver(q)


def test_quiver_document(categories):
    q = build_quiver(categories["two_object_trivial_s3"])
    doc = quiver_document(q)
    assert doc["prime"] == q.prime.p
    assert len(doc["vertices"]) == 4
    mults = {(a["from"], a["to"]): a["mult"] for a in doc["arrows"]}
    assert mults[(0, 3)] == 2
    for a in doc["arrows"]:
        assert a["provenance"]


def test_quiver_dot_expands_multiplicity(categories):
    q = build_quiver(categories["two_object_trivial_s3"])
    dot = quiver_dot(q)
    assert dot.startswith("digraph")
    edges = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(edges) == sum(a.mult for a in q.arrows) == 4
    assert edges.count("  v0 -> v3;") == 2


def test_quiver_and_stabilizers_are_built_once_per_category(monkeypatch):
    from eiquiver import eicat
    from eiquiver.chartab import certified_prime
    from eiquiver.eicat import load_category
    from eiquiver.reptype import rep_type, screen_two_object
    from conftest import fixture_doc
    alphas = []
    build = eicat._stabilizer_data
    monkeypatch.setattr(eicat, "_stabilizer_data",
                        lambda c, a: alphas.append((id(c), a)) or build(c, a))
    cat = load_category(fixture_doc("fork_merge_nonfree"))
    q = build_quiver(cat)
    assert build_quiver(cat, choose_splitting_prime(
        cat.groups.values())) is q
    screen = screen_two_object(cat, q.prime)
    assert rep_type(cat, q.prime).verdict == "InfiniteUncertified"
    assert screen_two_object(cat, q.prime) == screen
    # the stabilizers of the category (quiver and screens), each once;
    # rep_type reads the category's own quiver, so none of its cover
    assert len(alphas) == len(set(alphas)) > len(q.orbits)
    assert {c for c, _ in alphas} == {id(cat)}
    other = build_quiver(cat, certified_prime(37, cat.groups.values()))
    assert other is not q and other.prime.p == 37


def test_a_category_and_its_memo_are_freed_without_the_collector():
    # the quiver refers back to its category, so the memo holds it weakly:
    # nothing derived is left in a reference cycle
    import gc
    import weakref
    from eiquiver.eicat import load_category
    from eiquiver.oracle import check_against_quiver
    from eiquiver.reptype import rep_type, screen_two_object
    from conftest import fixture_doc
    gc.disable()
    try:
        for name in ("fork_merge_nonfree", "four_object_mixed"):
            cat = load_category(fixture_doc(name))
            q = build_quiver(cat)
            check_against_quiver(q)
            rep_type(cat, q.prime)
            screen_two_object(cat, q.prime)
            free_cover(cat)
            gone = weakref.ref(cat)
            del cat, q
            assert gone() is None, name
    finally:
        gc.enable()
