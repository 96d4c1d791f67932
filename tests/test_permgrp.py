"""Group enumeration, conjugacy classes, subgroups and quotients."""

import gc
import random
import sys
import weakref

import numpy as np
import pytest

from eiquiver import permgrp
from eiquiver.eicat import load_category
from eiquiver.errors import InvariantError, ValidationError
from eiquiver.permgrp import (PermGroup, QuotientGroup, SubgroupHandle,
                              check_perm, conjugacy_classes, class_index_of,
                              derived_cosets, enumerate_group, orbits,
                              pidentity, pmul, quotient)
from groups import (as_group, identity_pos, mul, named_group, pinv,
                    trivial_subgroup, whole_group)
from randcats import (closure_positions, explicit_document,
                      random_quiver_document)

S3 = named_group("S3")


def test_check_perm_rejects_non_permutations():
    with pytest.raises(ValidationError, match="^bad-group: "):
        check_perm([0, 0, 1], 3)
    with pytest.raises(ValidationError, match="^bad-group: "):
        check_perm([0, 1], 3)


def test_pmul_applies_right_factor_first():
    a = (1, 0, 2)   # swap 0,1
    b = (0, 2, 1)   # swap 1,2
    # (a∘b)(1) = a(b(1)) = a(2) = 2
    assert pmul(a, b) == (1, 2, 0)
    assert pmul(a, pinv(a)) == pidentity(3)


def test_enumerate_s3():
    assert len(S3) == 6
    assert S3.elements[identity_pos(S3)] == (0, 1, 2)
    # closure and inverses by full table scan
    for i in range(6):
        assert 0 <= S3.inv(i) < 6
        assert mul(S3, i, S3.inv(i)) == identity_pos(S3)
        for j in range(6):
            assert 0 <= mul(S3, i, j) < 6


def test_enumeration_is_deterministic():
    g1 = enumerate_group(3, [[1, 0, 2], [1, 2, 0]])
    g2 = enumerate_group(3, [[1, 0, 2], [1, 2, 0]])
    assert g1.elements == g2.elements
    assert g1.words == g2.words


def test_enumeration_bound():
    with pytest.raises(ValidationError, match="^bad-group: "):
        enumerate_group(3, [[1, 0, 2], [1, 2, 0]], bound=3)


S4_GENS = ((1, 0, 2, 3), (1, 2, 3, 0))


def test_an_interned_group_is_held_to_the_bound(fresh_groups):
    with pytest.raises(ValidationError) as cold:
        enumerate_group(4, S4_GENS, bound=23)
    s4 = enumerate_group(4, S4_GENS)
    with pytest.raises(ValidationError) as hit:
        enumerate_group(4, S4_GENS, bound=23)
    assert (hit.value.finding, str(hit.value)) == \
        (cold.value.finding, str(cold.value)) == \
        ("bad-group", "bad-group: group closure exceeds bound 23")
    assert enumerate_group(4, S4_GENS, bound=24) is s4


def test_equal_generators_give_one_group(fresh_groups):
    s4 = enumerate_group(4, S4_GENS)
    assert enumerate_group(4, [list(s) for s in S4_GENS]) is s4
    # the same group from its generators in the other order is another
    # object, with the BFS words of those generators (each BFS layer is
    # sorted, so here the elements come in the same order)
    swapped = enumerate_group(4, S4_GENS[::-1])
    assert swapped is not s4 and swapped.generators == S4_GENS[::-1]
    assert swapped.elements == s4.elements and swapped.words != s4.words
    assert swapped.key != s4.key
    assert enumerate_group(4, S4_GENS[::-1]) is swapped
    # as_group looks its groups up by generators and elements alike
    a4 = SubgroupHandle(s4, _even_positions(s4))
    assert as_group(a4) is as_group(a4)
    assert as_group(SubgroupHandle(s4, a4.member_positions)) is \
        as_group(a4)
    # A4 in S4's order and A4 in the BFS order of the same generators
    a4_bfs = enumerate_group(4, as_group(a4).generators)
    assert a4_bfs is not as_group(a4)
    assert a4_bfs.elements != as_group(a4).elements


def test_the_intern_table_holds_its_groups_weakly(fresh_groups):
    gens = ((1, 2, 3, 4, 5, 6, 0), (6, 5, 4, 3, 2, 1, 0))
    g = enumerate_group(7, gens)
    dead = weakref.ref(g)
    assert permgrp._INTERNED[(7, gens)] is g
    del g
    gc.collect()
    assert dead() is None
    assert (7, gens) not in permgrp._INTERNED
    assert len(permgrp._INTERNED) == 0


def test_a_reload_enumerates_no_live_group_again(fresh_groups, monkeypatch):
    # seed 5's first document loads: four objects, 46 morphisms
    doc = random_quiver_document(random.Random(5))
    fresh_groups()   # drawing the document built groups
    runs = []
    bfs = permgrp._enumerate

    def counted(degree, gens, bound):
        runs.append((degree, gens))
        return bfs(degree, gens, bound)

    monkeypatch.setattr(permgrp, "_enumerate", counted)
    cat = load_category(doc)
    again = load_category(explicit_document(cat))
    # one BFS per distinct group, none for the reload's equal groups
    assert sorted(runs) == sorted({(g.degree, g.generators)
                                   for g in cat.groups.values()})
    assert all(again.groups[o] is cat.groups[o] for o in cat.objects)


def _kept(group, kind):
    """The keys, less their kind, of what group's memo keeps of kind."""
    return [key[1:] for key in group._memo if key[0] == kind]


def test_a_member_set_is_certified_once_per_live_group(fresh_groups,
                                                       monkeypatch):
    s4 = enumerate_group(4, S4_GENS)
    a4 = _even_positions(s4)
    walks = []
    closure = permgrp._closure
    monkeypatch.setattr(permgrp, "_closure",
                        lambda *a: walks.append(a) or closure(*a))
    first = SubgroupHandle(s4, a4).generator_positions
    assert walks
    walks.clear()
    # a second handle on the same members reads the first one's walk
    assert SubgroupHandle(s4, tuple(a4)).generator_positions == first
    assert walks == []
    assert s4._memo == {("subgroup", a4): first}
    # a set that is not a subgroup is kept nowhere: it raises every time
    for _ in range(2):
        with pytest.raises(InvariantError):
            SubgroupHandle(s4, a4[:3]).generator_positions
        assert walks
        walks.clear()
    assert list(s4._memo) == [("subgroup", a4)]


def test_a_repeated_quotient_tests_normality_once(fresh_groups, monkeypatch):
    s4 = enumerate_group(4, S4_GENS)
    tests = []
    is_normal_in = SubgroupHandle.is_normal_in
    monkeypatch.setattr(SubgroupHandle, "is_normal_in",
                        lambda k, b: tests.append(k) or is_normal_in(k, b))
    v4 = tuple(i for i, e in enumerate(s4.elements)
               if all(e[e[j]] == j for j in range(4))
               and sum(e[j] != j for j in range(4)) in (0, 4))
    first = quotient(whole_group(s4), SubgroupHandle(s4, v4))
    base, kernel = whole_group(s4), SubgroupHandle(s4, v4)
    again = quotient(base, kernel)
    assert len(tests) == 1
    # the same cosets and table, over the caller's own handles
    assert again.base is base and again.kernel is kernel
    assert (again.cosets, again.projection, again.table) == \
        (first.cosets, first.projection, first.table)
    assert len(again.as_group()) == 6
    # a non-normal kernel is refused on every call, and nothing is kept
    c2 = tuple(sorted((s4.index_of[pidentity(4)], s4.index_of[S4_GENS[0]])))
    for _ in range(2):
        with pytest.raises(InvariantError, match="not normal"):
            quotient(whole_group(s4), SubgroupHandle(s4, c2))
    assert len(tests) == 3
    assert _kept(s4, "quotient") == [(whole_group(s4).member_positions, v4)]


def test_the_certificate_tables_make_no_reference_cycle(fresh_groups,
                                                        monkeypatch):
    from eiquiver import chartab
    from eiquiver.quiveralg import build_quiver
    # the model cache holds each table's group: start it empty, and drop
    # what this category put there before looking
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    doc = random_quiver_document(random.Random(5))
    fresh_groups()   # drawing the document built groups, kept by a cache
    cat = load_category(doc)
    quiver = build_quiver(cat)
    groups = [weakref.ref(g) for g in cat.groups.values()]
    assert any(_kept(g(), "subgroup") and _kept(g(), "quotient")
               and _kept(g(), "action") for g in groups)
    gc.disable()
    try:
        chartab._MODEL_CACHE.clear()
        del cat, quiver
        # freed by reference counts alone, with no collector pass
        assert [g() for g in groups] == [None] * len(groups)
    finally:
        gc.enable()


def test_generator_maps_are_the_generators_right_products(categories):
    s4 = enumerate_group(4, S4_GENS)
    groups = [S3, s4, named_group("Q8"), named_group("1")] + \
        _as_groups(categories)
    for g in groups:
        assert len(g.generator_maps) == len(g.generators)
        for times_s, s in zip(g.generator_maps, g.generators):
            assert times_s == g.right_products(s).tolist()


def _as_groups(categories):
    """as_group() groups: A4 <= S4, A5 <= S5, S4/V4, (S5 x C3)/C3, and the
    G1 and H1 stabilizers of four_object_mixed."""
    from eiquiver.eicat import orbit_representatives, stabilizer_data
    s4 = enumerate_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    s5 = enumerate_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    s5c3 = enumerate_group(8, [[1, 0, 2, 3, 4, 5, 6, 7],
                               [1, 2, 3, 4, 0, 5, 6, 7],
                               [0, 1, 2, 3, 4, 6, 7, 5]])
    v4 = SubgroupHandle(s4, tuple(
        i for i, e in enumerate(s4.elements)
        if e in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))))
    c3 = SubgroupHandle(s5c3, tuple(i for i, e in enumerate(s5c3.elements)
                                    if e[:5] == (0, 1, 2, 3, 4)))
    out = [as_group(SubgroupHandle(s4, _even_positions(s4))),
           as_group(SubgroupHandle(s5, _even_positions(s5))),
           quotient(whole_group(s4), v4).as_group(),
           quotient(whole_group(s5c3), c3).as_group()]
    cat = categories["four_object_mixed"]
    for rep, _ in orbit_representatives(cat):
        sd = stabilizer_data(cat, rep)
        out += [as_group(sd.G1), as_group(sd.H1)]
    return out


def test_word_reconstruction(categories):
    # each stored word multiplies out to its element, in enumerated
    # groups and in as_group() groups, whose words come from the
    # closure of their generators but whose elements keep parent or
    # coset order
    for g in [S3] + _as_groups(categories):
        assert g.words[0] == () and len(set(g.words)) == len(g)
        for e, word in zip(g.elements, g.words):
            acc = pidentity(g.degree)
            for k in word:
                acc = pmul(acc, g.generators[k])
            assert acc == e


def test_named_group_orders_and_exponents():
    expected = {"1": (1, 1), "C2": (2, 2), "C3": (3, 3), "C4": (4, 4),
                "V4": (4, 2), "S3": (6, 6), "C6": (6, 6), "D4": (8, 4),
                "C2xC2xC2": (8, 2)}
    for name, (order, exponent) in expected.items():
        g = named_group(name)
        assert len(g) == order
        assert g.exponent == exponent


def test_s3_conjugacy_classes():
    classes = conjugacy_classes(S3)
    assert [len(c) for c in classes] == [1, 3, 2]
    assert classes[0].members == (identity_pos(S3),)


def test_conjugacy_classes_brute_force():
    rng = random.Random(11)
    for name in ("C4", "V4", "S3", "D4"):
        g = named_group(name)
        classes = conjugacy_classes(g)
        sizes = [len(c) for c in classes]
        assert sum(sizes) == len(g)
        assert all(len(g) % s == 0 for s in sizes)
        # disjoint and exhaustive
        members = sorted(m for c in classes for m in c.members)
        assert members == list(range(len(g)))
        # independent conjugation oracle
        class_of = class_index_of(g, classes)
        for _ in range(20):
            a = rng.randrange(len(g))
            t = rng.randrange(len(g))
            conj = mul(g, mul(g, t, a), g.inv(t))
            assert class_of[conj] == class_of[a]


def test_quotient_s3_by_c3():
    three_cycle = S3.index_of[(1, 2, 0)]
    kernel = SubgroupHandle(S3, tuple(closure_positions(S3, [three_cycle])))
    q = quotient(whole_group(S3), kernel)
    assert len(q) == 2
    assert len(q) * len(kernel) == len(S3)
    # projection is a homomorphism on all pairs
    for a in range(6):
        for b in range(6):
            assert q.table[q.projection[a]][q.projection[b]] == \
                q.projection[mul(S3, a, b)]
    model = q.as_group()
    assert len(model) == 2


def test_a_quotient_whose_generators_miss_a_coset_is_an_internal_error():
    three_cycle = S3.index_of[(1, 2, 0)]
    kernel = SubgroupHandle(S3, tuple(closure_positions(S3, [three_cycle])))
    q = quotient(whole_group(S3), kernel)
    assert len(q.as_group()) == 2
    # every base generator sent to the identity coset generates only it
    lost = QuotientGroup(q.base, q.kernel, q.cosets,
                         dict.fromkeys(q.projection, 0), q.table)
    with pytest.raises(InvariantError, match="miss an element"):
        lost.as_group()


def test_quotient_rejects_non_normal_kernel():
    transposition = S3.index_of[(1, 0, 2)]
    kernel = SubgroupHandle(S3, tuple(closure_positions(S3, [transposition])))
    with pytest.raises(InvariantError):
        quotient(whole_group(S3), kernel)


def test_quotient_rejects_a_kernel_of_another_group_or_outside_its_base():
    with pytest.raises(InvariantError, match="different parent groups"):
        quotient(whole_group(S3), trivial_subgroup(named_group("C2")))
    with pytest.raises(InvariantError, match="not contained in base"):
        quotient(trivial_subgroup(S3), whole_group(S3))


def test_quotient_trivial_cases():
    g = named_group("C2")
    assert len(quotient(whole_group(g), whole_group(g))) == 1
    q = quotient(whole_group(g), trivial_subgroup(g))
    assert len(q) == 2


def test_subgroup_as_group_round_trip():
    transposition = S3.index_of[(1, 0, 2)]
    h = SubgroupHandle(S3, tuple(closure_positions(S3, [transposition])))
    model = as_group(h)
    assert len(model) == 2
    assert set(model.elements) <= set(S3.elements)


def _closure_orbit(i: int, perms) -> frozenset:
    orbit = {i}
    while True:
        grown = orbit | {p[j] for p in perms for j in orbit}
        if grown == orbit:
            return frozenset(orbit)
        orbit = grown


def _random_perm(rng: random.Random, n: int) -> list[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def _orbit_cases():
    rng = random.Random(23)
    yield 0, [], None
    yield 5, [], None
    yield 5, [], [3, 1]
    p = [1, 2, 0, 4, 3, 5]
    yield 6, [p, p], None
    yield 6, [p, list(p)], [4, 5]
    # the orbit {0, 5} meets points only at 5, above orbit {1, 3}'s 3
    yield 6, [[5, 3, 2, 1, 4, 0]], [3, 5]
    for _ in range(60):
        n = rng.randrange(1, 13)
        perms = [_random_perm(rng, n) for _ in range(rng.randrange(4))]
        if perms and rng.random() < 0.3:
            perms.append(list(rng.choice(perms)))
        points = (None if rng.random() < 0.5 else
                  rng.sample(range(n), rng.randrange(n + 1)))
        yield n, perms, points


@pytest.mark.parametrize("n, perms, points", list(_orbit_cases()))
def test_orbits_match_brute_force_closure(n, perms, points):
    orbit_of = [_closure_orbit(i, perms) for i in range(n)]
    meeting = {orbit_of[i] for i in (range(n) if points is None else points)}
    ordered = sorted(meeting, key=min)
    label, least = orbits(n, perms, points)
    assert least == [min(o) for o in ordered]
    assert label == [ordered.index(o) if o in meeting else -1
                     for o in orbit_of]


def _subgroups(g: PermGroup) -> list[tuple[int, ...]]:
    """Every subgroup of g generated by at most two elements."""
    return sorted({tuple(closure_positions(g, [a, b]))
                   for a in range(len(g)) for b in range(a, len(g))})


def test_quotient_cosets_match_brute_force_on_s4():
    g = enumerate_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    subgroups = _subgroups(g)   # all of S4's subgroups are 2-generated
    assert len(subgroups) == 30
    checked = 0
    for base in subgroups:
        for kernel in subgroups:
            if not set(kernel) <= set(base) or any(
                    mul(g, mul(g, t, k), g.inv(t)) not in kernel
                    for t in base for k in kernel):
                continue
            cosets = sorted({tuple(sorted(mul(g, i, k) for k in kernel))
                             for i in base})
            coset_of = {i: c for c, coset in enumerate(cosets) for i in coset}
            q = quotient(SubgroupHandle(g, base), SubgroupHandle(g, kernel))
            assert q.cosets == tuple(cosets)
            assert q.projection == coset_of
            assert q.table == tuple(
                tuple(coset_of[mul(g, a[0], b[0])] for b in cosets)
                for a in cosets)
            checked += 1
    # 93 pairs, among them S4 over each of its four normal subgroups
    assert checked == 93


def test_quotient_by_a_normal_subgroup_takes_few_position_lookups(
        monkeypatch, fresh_groups):
    s5 = enumerate_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    even = _even_positions(s5)
    calls = []
    positions = PermGroup.positions

    def counted(self, perms):
        calls.append(len(perms))
        return positions(self, perms)

    monkeypatch.setattr(PermGroup, "positions", counted)
    q = quotient(whole_group(s5), SubgroupHandle(s5, even))
    assert len(q) == 2
    # the parent made one call per member of S5 and per coset: 125
    assert len(calls) <= 12


def _even_positions(g: PermGroup) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(g.elements)
                 if sum(e[a] > e[b] for a in range(g.degree)
                        for b in range(a + 1, g.degree)) % 2 == 0)


def _dihedral(n: int) -> PermGroup:
    return enumerate_group(n, [[(i + 1) % n for i in range(n)],
                               [(-i) % n for i in range(n)]])


def _row_group(name: str) -> PermGroup:
    """A freshly built group, so no row of it is cached yet."""
    if name == "C72":
        return enumerate_group(72, [[(i + 1) % 72 for i in range(72)]])
    if name == "D48":
        return _dihedral(24)
    s5 = enumerate_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    if name == "S5":
        return s5
    if name == "A5 as_group":
        return as_group(SubgroupHandle(s5, _even_positions(s5)))
    s4 = enumerate_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    v4 = SubgroupHandle(s4, tuple(
        i for i, e in enumerate(s4.elements)
        if e in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))))
    return quotient(whole_group(s4), v4).as_group()


@pytest.mark.parametrize("name", ["C72", "D48", "S5", "A5 as_group",
                                  "S4/V4 as_group"])
def test_cayley_rows_match_composition(name, fresh_groups):
    # rows are gathers along the BFS words; the reference composes the
    # two permutations and looks the product up
    g = _row_group(name)
    want = [[g.index_of[pmul(a, b)] for b in g.elements] for a in g.elements]
    order = list(range(len(g)))
    random.Random(0).shuffle(order)
    # half the rows in a random order, each walking up whatever part of
    # its word has no row yet; then the whole table over them
    for i in order[:len(g) // 2]:
        assert g.row(i).tolist() == want[i]
    assert g.cayley.tolist() == want
    assert all(g.row(i).tolist() == want[i] for i in order)
    fresh_groups()   # so that the whole table is built with no row kept
    assert _row_group(name).cayley.tolist() == want


def test_whole_cayley_table_looks_up_each_generator_once(monkeypatch,
                                                         fresh_groups):
    g = _dihedral(24)
    calls = []
    positions = PermGroup.positions

    def counted(self, perms):
        calls.append(len(perms))
        return positions(self, perms)

    monkeypatch.setattr(PermGroup, "positions", counted)
    assert g.cayley.shape == (48, 48)
    # one lookup of s times every element per generator, none per row
    assert calls == [48] * len(g.generators)


def test_a_row_at_the_end_of_a_long_word_needs_no_recursion():
    # C_n's last element has a word of length n - 1, longer than the
    # recursion limit
    n = sys.getrecursionlimit() + 10
    g = enumerate_group(n, [[(i + 1) % n for i in range(n)]])
    assert len(g.words[n - 1]) == n - 1
    assert g.row(n - 1).tolist() == [(j + n - 1) % n for j in range(n)]


def test_derived_cosets_keep_no_cayley_row(fresh_groups):
    # G' is closed by the one closure routine and its cosets are orbits
    # of right multiplication, as a quotient's are: S5's A5 and its
    # other coset, with no row of S5's Cayley table kept
    g = enumerate_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    label, acts = derived_cosets(g)
    assert label[0] == 0 and np.bincount(label).tolist() == [60, 60]
    assert [act.tolist() for act in acts] == [[1, 0], [0, 1]]
    assert all(row is None for row in g._rows)
