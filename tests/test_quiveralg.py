"""The quiver construction: goldens, acyclicity, the embedded quiver of
unfactorizables, and cover equality."""

import random
import re
from dataclasses import replace

import numpy as np
import pytest

import kernel_reference as ref
from eiquiver import quiveralg
from eiquiver.chartab import choose_splitting_prime
from eiquiver.eicat import load_category, stabilizer_data
from eiquiver.errors import InvariantError
from eiquiver.freecover import free_cover
from eiquiver.morita import (MoritaContext, QuiverRep, apply_functor,
                             expanded_arrows, hom_dim_cat, hom_dim_quiver,
                             inverse_functor)
from eiquiver.oracle import check_against_quiver
from eiquiver.quiveralg import (QuiverArrow, assert_acyclic, build_quiver,
                                quiver_document, quiver_dot)
from eiquiver.reptype import rep_type
from groups import as_group, quivers_equal
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


def test_assert_acyclic_rejects_backward_arrow(categories):
    q = build_quiver(categories["two_object_c2_s3"])
    a = q.arrows[0]
    bad = replace(q, arrows=(QuiverArrow(a.target, a.source, a.mult,
                                         a.units),))
    with pytest.raises(InvariantError):
        assert_acyclic(bad)


def test_embedded_check_rejects_missing_trivial_arrow(monkeypatch):
    # the first orbit's e at the trivial U and V is patched to 0 (no
    # x:X0 -> y:X0 unit) or 2 (two of them): every build must refuse it.
    # Each build is of a fresh load, whose memo holds no orbit data yet
    from conftest import fixture_doc
    product = quiveralg.restriction_multiplicity
    for value in (0, 2):
        cat = load_category(fixture_doc("two_object_c2_s3"))
        calls = []

        def tampered(*a):
            m = product(*a)
            calls.append(m)
            if len(calls) == 1:
                m = m.copy()
                m[0, 0] = value
            return m
        monkeypatch.setattr(quiveralg, "restriction_multiplicity", tampered)
        with pytest.raises(InvariantError, match="trivial-character"):
            build_quiver(cat)
    monkeypatch.setattr(quiveralg, "restriction_multiplicity", product)
    cat = load_category(fixture_doc("two_object_c2_s3"))
    assert build_quiver(cat).orbits[0].e[0][0] == 1


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
                # the orbit's record keeps the counts its units were made of
                assert (od.e[un.u][sv.irr], od.f[un.u][tv.irr]) == \
                    (un.e, un.f)
                sd = od.stab
                chi_u = ref.character(od.quotient_table, un.u)
                for handle, quot, vert, want in (
                        (sd.G1, sd.quotG, sv, un.e),
                        (sd.H1, sd.quotH, tv, un.f)):
                    infl = ref.inflate(chi_u, quot)
                    down = ref.restrict(
                        ref.character(q.tables[vert.object], vert.irr), handle)
                    got = ref.inner_product(as_group(handle), down, infl, p)
                    assert got == want
                    assert type(got) is type(want) is int


def test_each_orbit_takes_two_multiplicity_products(categories, monkeypatch):
    # counted on a fresh load of each fixture, whose memo holds no orbit
    # data yet
    from conftest import fixture_doc
    calls = []
    product = quiveralg.restriction_multiplicity
    monkeypatch.setattr(quiveralg, "restriction_multiplicity",
                        lambda *a: calls.append(a) or product(*a))
    for name in categories:
        cat = load_category(fixture_doc(name))
        calls.clear()
        q = build_quiver(cat)
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
        assert all(od.e[0][0] == od.f[0][0] == 1 for od in q.orbits)


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


@pytest.mark.parametrize("oid", ['a"b\\', "\\", '"', 'x\\"y', "plain"])
def test_quiver_dot_escapes_vertex_labels(oid):
    # every label is one DOT quoted string, "([^"\\]|\\.)*", that
    # unescapes back to the vertex's label and dimension
    from conftest import fixture_doc
    doc = fixture_doc("one_object_c2")
    doc["objects"][0]["id"] = oid
    q = build_quiver(load_category(doc))
    lines = [ln for ln in quiver_dot(q).splitlines() if "label=" in ln]
    assert len(lines) == len(q.vertices) == 2
    for i, (ln, v) in enumerate(zip(lines, q.vertices)):
        m = re.fullmatch(r'  v(\d+) \[label="((?:[^"\\]|\\.)*)"\];', ln)
        assert m is not None and int(m[1]) == i
        assert re.sub(r"\\(.)", r"\1", m[2]) == f"{v.label} (dim {v.dim})"


def test_quiver_and_stabilizers_are_built_once_per_category(monkeypatch):
    from eiquiver.chartab import certified_prime
    from eiquiver.eicat import load_category
    from eiquiver.reptype import rep_type, screen_two_object
    from conftest import fixture_doc
    alphas = []
    build = quiveralg.stabilizer_data
    monkeypatch.setattr(quiveralg, "stabilizer_data",
                        lambda c, a: alphas.append((id(c), a)) or build(c, a))
    cat = load_category(fixture_doc("fork_merge_nonfree"))
    q = build_quiver(cat)
    again = build_quiver(cat, choose_splitting_prime(cat.groups.values()))
    # a second build reads the very same data of every orbit
    assert len(again.orbits) == len(q.orbits)
    assert all(a is b for a, b in zip(again.orbits, q.orbits))
    screen = screen_two_object(cat, q.prime)
    assert rep_type(cat, q.prime).verdict == "InfiniteUncertified"
    assert screen_two_object(cat, q.prime) == screen
    # the stabilizers of the category (quiver and screens), each once;
    # rep_type reads the category's own quiver, so none of its cover
    assert len(alphas) == len(set(alphas)) > len(q.orbits)
    assert {c for c, _ in alphas} == {id(cat)}
    other = build_quiver(cat, certified_prime(37, cat.groups.values()))
    assert other.prime.p == 37
    assert not any(a is b for a, b in zip(other.orbits, q.orbits))


def test_the_quiver_and_the_screens_share_each_orbits_data(monkeypatch):
    # after build_quiver, neither the screens nor rep_type derive an
    # orbit the quiver has: no stabilizer data, no quotient table and no
    # multiplicity product.  Only a hom-set orbit the quiver lacks (one
    # of factorizables) is derived, once.  A second build derives nothing
    from eiquiver.chartab import character_table
    from eiquiver.reptype import screen_two_object
    from conftest import fixture_doc
    misses, stabs, tables, products = [], [], [], []
    build, stab = quiveralg._orbit_data, quiveralg.stabilizer_data
    product = quiveralg.restriction_multiplicity
    monkeypatch.setattr(quiveralg, "_orbit_data",
                        lambda c, r, p: misses.append(r) or build(c, r, p))
    monkeypatch.setattr(quiveralg, "stabilizer_data",
                        lambda c, a: stabs.append(a) or stab(c, a))
    monkeypatch.setattr(quiveralg, "character_table",
                        lambda g, p: tables.append(g) or character_table(g, p))
    monkeypatch.setattr(quiveralg, "restriction_multiplicity",
                        lambda *a: products.append(a) or product(*a))
    for name in ("fork_merge_nonfree", "line_subcategory_nonfree",
                 "four_object_mixed", "two_object_c2_s3"):
        cat = load_category(fixture_doc(name))
        q = build_quiver(cat)
        have = [od.rep for od in q.orbits]
        assert misses == stabs == have, name
        for log in (misses, stabs, tables, products):
            log.clear()
        screen_two_object(cat, q.prime)
        rep_type(cat, q.prime)
        assert not set(misses) & set(have), name
        assert stabs == misses == list(dict.fromkeys(misses)), name
        assert len(products) == 2 * len(misses), name
        # the quiver that rep_type assembles reads each object's table;
        # each new orbit reads its quotient's and its two objects'
        assert len(tables) == len(cat.objects) + 3 * len(misses), name
        for log in (misses, stabs, tables, products):
            log.clear()
        again = build_quiver(cat, q.prime)
        assert misses == stabs == products == [], name
        assert all(a is b for a, b in zip(again.orbits, q.orbits)), name


def test_a_category_and_its_memo_are_freed_without_the_collector():
    # the quiver refers back to its category and is not memoised, and no
    # value the memo holds does: nothing derived is left in a reference
    # cycle
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


# C3 with two regular arrows x -> y, the second twisted by inversion:
# both orbits have G0 = H0 = 1 and G1 = H1 = C3, but they must not merge,
# as h∘α = α∘g pairs h with g on the first and with g^-1 on the second
C3 = [[1, 2, 0]]
TWISTED_C3 = {
    "mode": "ei-quiver",
    "objects": [{"id": x, "degree": 3, "generators": C3} for x in "xy"],
    "homs": [{"from": "x", "to": "y", "size": 3, "left_action": C3,
              "right_action": right} for right in (C3, [[2, 0, 1]])],
}


def test_twisted_c3_orbits_stay_apart():
    cat = load_category(TWISTED_C3)
    q = build_quiver(cat)
    assert arrow_labels(q) == [
        ("x:X0", "y:X0", 2), ("x:X1", "y:X1", 1), ("x:X1", "y:X2", 1),
        ("x:X2", "y:X1", 1), ("x:X2", "y:X2", 1)]
    provenance = {(q.vertices[a.source].label, q.vertices[a.target].label):
                  [un.rep_index for un in a.units] for a in q.arrows}
    assert provenance[("x:X1", "y:X1")] == [0]
    assert provenance[("x:X1", "y:X2")] == [1]
    assert [len(od.quotient_table) for od in q.orbits] == [3, 3]
    check_against_quiver(q)
    verdict = rep_type(cat, q.prime)
    assert verdict.verdict == "Tame"
    assert verdict.certificates == (
        ("hereditary-graph", "components: ~A1, ~A3"),)

    ctx = MoritaContext(q)
    rng = random.Random(3)
    qreps = []
    for _ in range(2):
        dims = tuple(rng.randrange(1, 3) for _ in q.vertices)
        qreps.append(QuiverRep(q, ctx.p, dims, tuple(
            np.array([[rng.randrange(ctx.p) for _ in range(dims[ea.source])]
                      for _ in range(dims[ea.target])], dtype=np.int64)
            for ea in expanded_arrows(q))))
    reps = [inverse_functor(ctx, qr) for qr in qreps]
    for qr, r in zip(qreps, reps):
        again = apply_functor(ctx, r)
        assert again.dims == qr.dims
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.arrow_mats, qr.arrow_mats))
    for i, j in ((0, 1), (1, 0), (0, 0)):
        assert hom_dim_cat(reps[i], reps[j]) == \
            hom_dim_quiver(qreps[i], qreps[j])
