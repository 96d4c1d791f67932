"""Category loading, validation, composition, unfactorizables, orbits
and stabilizer data."""

import copy
import random
import re

import numpy as np
import pytest

from conftest import fixture_doc, trivial_line
import kernel_reference as ref
from eiquiver.eicat import (EICategory, MorphId, components, ei_quiver_of,
                            incoming_tables, load_category,
                            orbit_representatives, stabilizer_data,
                            unfactorizables, validate_category)
from eiquiver.errors import InvariantError, SchemaError, ValidationError
from groups import hom_size, mul
from kernel_reference import compose
from randcats import (explicit_document, random_free_category,
                      random_nonfree_category, random_quiver_document)

ALL_FIXTURES = ("line_quiver_free", "line_subcategory_nonfree",
                "fork_merge_free", "fork_merge_nonfree", "one_object_c2",
                "four_object_mixed", "two_object_c2_s3",
                "two_object_trivial_s3")


def test_load_two_object_fixture(categories):
    cat = categories["two_object_c2_s3"]
    assert cat.objects == ("x", "y")
    assert cat.morphism_count() == 2 + 6 + 6
    assert hom_size(cat, "x", "y") == 6
    assert hom_size(cat, "y", "x") == 0


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_category([])                       # not an object
    with pytest.raises(SchemaError):
        load_category({"mode": "explicit"})     # no objects
    with pytest.raises(SchemaError):
        load_category({"mode": "nonsense", "objects": []})
    # an empty object list never reaches the connectivity check
    for mode in ("explicit", "ei-quiver"):
        with pytest.raises(SchemaError, match="missing or empty 'objects'"):
            load_category({"mode": mode, "objects": [], "homs": []})
    doc = fixture_doc("two_object_c2_s3")
    doc["homs"][0]["from"] = "nope"
    with pytest.raises(SchemaError):
        load_category(doc)


def test_components_come_in_order_of_their_first_vertex():
    # repeated and reversed pairs and a pair (v, v) join nothing new, and
    # an isolated vertex is a component of its own
    pairs = [("e", "b"), ("b", "e"), ("e", "b"), ("f", "f"), ("d", "c"),
             ("c", "e")]
    assert components("abcdef", pairs) == [{"a"}, {"b", "c", "d", "e"},
                                           {"f"}]
    # the order is the vertex list's, not the least vertex's
    assert components([3, 1, 2], [(2, 1)]) == [{3}, {1, 2}]
    assert components([3, 1, 2], [(2, 3), (1, 2)]) == [{1, 2, 3}]
    assert components([], []) == []


def test_skeletality_violation():
    doc = {
        "mode": "explicit",
        "objects": [{"id": "x", "degree": 1, "generators": []},
                    {"id": "y", "degree": 1, "generators": []}],
        "homs": [
            {"from": "x", "to": "y", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "y", "to": "x", "size": 1,
             "left_action": [], "right_action": []},
        ],
    }
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "hom-both-directions"


def test_endo_hom_entry_rejected():
    doc = {
        "mode": "explicit",
        "objects": [{"id": "x", "degree": 2, "generators": [[1, 0]]}],
        "homs": [{"from": "x", "to": "x", "size": 2,
                  "left_action": [[1, 0]], "right_action": [[1, 0]]}],
    }
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "endo-hom"


def test_parallel_arrows_are_kept_in_document_order():
    # two arrows x -> y into C2: the hom-set is the first one's element,
    # then the second's two, which C2 swaps
    doc = {"mode": "ei-quiver",
           "objects": [{"id": "x", "degree": 1, "generators": []},
                       {"id": "y", "degree": 2, "generators": [[1, 0]]}],
           "homs": [{"from": "x", "to": "y", "size": 1, "left_action": [[0]]},
                    {"from": "x", "to": "y", "size": 2,
                     "left_action": [[1, 0]]}]}
    assert load_category(doc).homs[("x", "y")].left_gen == ((0, 2, 1),)


def _line_doc(wz_size=1, wyz_table=None, wxz_table=None):
    """Full line category w->x->y->z in explicit mode."""
    homs = [("w", "x"), ("x", "y"), ("y", "z"),
            ("w", "y"), ("x", "z"), ("w", "z")]
    return {
        "mode": "explicit",
        "objects": [{"id": o, "degree": 1, "generators": []}
                    for o in ("w", "x", "y", "z")],
        "homs": [{"from": a, "to": b,
                  "size": wz_size if (a, b) == ("w", "z") else 1,
                  "left_action": [], "right_action": []}
                 for a, b in homs],
        "compositions": [
            {"inner": ["w", "x"], "outer": ["x", "y"], "table": [[0]]},
            {"inner": ["x", "y"], "outer": ["y", "z"], "table": [[0]]},
            {"inner": ["w", "y"], "outer": ["y", "z"],
             "table": wyz_table or [[0]]},
            {"inner": ["w", "x"], "outer": ["x", "z"],
             "table": wxz_table or [[0]]},
        ],
    }


def test_full_line_category_valid():
    cat = load_category(_line_doc())
    assert hom_size(cat, "w", "z") == 1


def test_associativity_violation_reported():
    # the two bracketings of the chain w->x->y->z land on different
    # elements of hom(w, z)
    doc = _line_doc(wz_size=2, wyz_table=[[0]], wxz_table=[[1]])
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "associativity"
    assert "w->x->y->z" in str(exc.value)


def _chain_doc(group_at, xy, yz, xz, table):
    """Objects x -> y -> z, C2 at group_at and trivial groups elsewhere;
    each hom is (size, left_action, right_action)."""
    objects = [{"id": o, "degree": 2, "generators": [[1, 0]] if o == group_at
                else []} for o in "xyz"]
    homs = [{"from": a, "to": b, "size": size, "left_action": left,
             "right_action": right}
            for (a, b), (size, left, right) in
            ((("x", "y"), xy), (("y", "z"), yz), (("x", "z"), xz))]
    return {"mode": "explicit", "objects": objects, "homs": homs,
            "compositions": [{"inner": ["x", "y"], "outer": ["y", "z"],
                              "table": table}]}


@pytest.mark.parametrize("doc, message", [
    # Aut(z) swaps hom(y, z) but fixes the composites in hom(x, z)
    (_chain_doc("z", (1, [], []), (2, [[1, 0]], []), (2, [[0, 1]], []),
                [[0], [1]]), "(h∘β)∘α ≠ h∘(β∘α)"),
    # Aut(x) swaps hom(x, y) but fixes the composites in hom(x, z)
    (_chain_doc("x", (2, [], [[1, 0]]), (1, [], []), (2, [], [[0, 1]]),
                [[0, 1]]), "(β∘α)∘g ≠ β∘(α∘g)"),
    # Aut(y) swaps hom(x, y) but fixes hom(y, z)
    (_chain_doc("y", (2, [[1, 0]], []), (2, [], [[0, 1]]), (2, [], []),
                [[0, 1], [0, 1]]), "(β∘h)∘α ≠ β∘(h∘α)"),
])
def test_tables_must_commute_with_each_generator_action(doc, message):
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "associativity"
    assert str(exc.value).endswith(f"{message} for hom chain x->y->z")


def test_bad_action_rejected():
    doc = copy.deepcopy(fixture_doc("two_object_c2_s3"))
    doc["homs"][0]["right_action"] = [[0, 0, 1, 2, 3, 4]]
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "bad-action"


def test_noncommuting_actions_rejected():
    # left and right actions both by the same 3-cycle on 3 points do not
    # commute with a transposition on the other side
    doc = {
        "mode": "explicit",
        "objects": [{"id": "x", "degree": 3, "generators": [[1, 2, 0]]},
                    {"id": "y", "degree": 2, "generators": [[1, 0]]}],
        "homs": [{"from": "x", "to": "y", "size": 3,
                  "left_action": [[1, 0, 2]], "right_action": [[1, 2, 0]]}],
    }
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "actions-not-commuting"


@pytest.mark.parametrize("side", ["left", "right"])
def test_an_action_breaking_a_relation_is_action_inconsistent(side):
    # C4 = <s> acts on a hom of size 3 by a 3-cycle c, on the left when
    # C4 is the target's group and on the right when it is the source's.
    # Along the BFS words s^k acts as c^k, and e * s matches c^k * c for
    # every element e = s^k but the last: s^3 * s = 1, while c^4 = c
    c4 = {"degree": 4, "generators": [[1, 2, 3, 0]]}
    trivial = {"degree": 1, "generators": []}
    x, y = (trivial, c4) if side == "left" else (c4, trivial)
    doc = {"mode": "explicit",
           "objects": [{"id": "x", **x}, {"id": "y", **y}],
           "homs": [{"from": "x", "to": "y", "size": 3,
                     "left_action": [[1, 2, 0]] if side == "left" else [],
                     "right_action": [[1, 2, 0]] if side == "right" else []}]}
    with pytest.raises(ValidationError) as exc:
        load_category(doc)
    assert exc.value.finding == "action-inconsistent"
    assert f"{side} action on hom x->y" in str(exc.value)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_bad_action_after_a_good_one_is_still_action_inconsistent(
        side, fresh_groups):
    # C4 acts on 3 points first by a transposition, which respects its
    # relations and is kept in C4's table, then by a 3-cycle, which does
    # not: the same finding and message as from cold tables, every time
    c4 = {"degree": 4, "generators": [[1, 2, 3, 0]]}
    trivial = {"degree": 1, "generators": []}
    x, y = (trivial, c4) if side == "left" else (c4, trivial)

    def doc(action):
        return {"mode": "explicit",
                "objects": [{"id": "x", **x}, {"id": "y", **y}],
                "homs": [{"from": "x", "to": "y", "size": 3,
                          "left_action": [action] if side == "left" else [],
                          "right_action": [action] if side == "right"
                          else []}]}

    def refusal():
        with pytest.raises(ValidationError) as exc:
            load_category(doc([1, 2, 0]))
        return exc.value.finding, str(exc.value)

    cold = refusal()
    assert cold == ("action-inconsistent", f"action-inconsistent: {side} "
                    "action on hom x->y does not respect the group "
                    "relations")
    good = load_category(doc([1, 0, 2]))
    c4_group = good.groups["y" if side == "left" else "x"]
    assert [key for key in c4_group._memo if key[0] == "action"] == \
        [("action", side, 3, ((1, 0, 2),))]
    assert refusal() == refusal() == cold
    assert [key for key in c4_group._memo if key[0] == "action"] == \
        [("action", side, 3, ((1, 0, 2),))]


def test_trivial_groups_act_by_identities_of_each_homs_size():
    # one trivial group serves every object, and its generator lists are
    # empty whatever the size: the size tells its actions apart
    doc = {"mode": "ei-quiver",
           "objects": [{"id": o, "degree": 1, "generators": []}
                       for o in "xyz"],
           "homs": [{"from": a, "to": b, "size": size, "left_action": [],
                     "right_action": []}
                    for a, b, size in (("x", "y", 2), ("y", "z", 3))]}
    cat = load_category(doc)
    assert {hs.size for hs in cat.homs.values()} == {2, 3, 6}
    for hs in cat.homs.values():
        assert hs.left_elem == hs.right_elem == (tuple(range(hs.size)),)


def test_a_reload_checks_each_action_once(fresh_groups, monkeypatch):
    from eiquiver import eicat
    doc = random_quiver_document(random.Random(5))
    fresh_groups()   # drawing the document built groups
    checks = []
    respects = eicat.respects_relations

    def counted(group, images, gens, mul):
        checks.append((group.key, mul, len(images[0]), gens))
        return respects(group, images, gens, mul)

    monkeypatch.setattr(eicat, "respects_relations", counted)
    cat = load_category(doc)
    first = len(checks)
    again = load_category(explicit_document(cat))
    # once per distinct (group, side, size, generator images), and the
    # reload shares the first load's element actions
    assert first == len(checks) == len(set(checks)) > 0
    for key, hs in cat.homs.items():
        assert again.homs[key].left_elem is hs.left_elem
        assert again.homs[key].right_elem is hs.right_elem


# trivial groups and two arrows per step: no group acts, so a tampered
# entry in range can only break associativity over chains
DOUBLED_LINE = {"mode": "ei-quiver",
                "objects": [{"id": o, "degree": 1, "generators": []}
                            for o in "wxyz"],
                "homs": [{"from": a, "to": b, "size": 2, "left_action": [],
                          "right_action": []}
                         for a, b in ("wx", "xy", "yz")]}


def _one_entry_tampered(cat):
    """cat with one composition table entry changed, for every entry and
    every other value in range or one past either end."""
    for key, table in cat.comp.items():
        size = cat.homs[(key[0], key[2])].size
        for b, row in enumerate(table):
            for a, old in enumerate(row):
                for new in set(range(-1, size + 1)) - {old}:
                    rows = [list(r) for r in table]
                    rows[b][a] = new
                    comp = {**cat.comp, key: tuple(map(tuple, rows))}
                    yield EICategory(cat.objects, cat.groups, cat.homs,
                                     lambda comp=comp: comp,
                                     cat.topological_order)


def _outcome(validate, cat):
    try:
        validate(cat)
    except (SchemaError, ValidationError) as e:
        return type(e).__name__, e.finding, str(e)
    return None


@pytest.mark.parametrize("chunk", [1, 1 << 16])
def test_validation_matches_the_entrywise_reference(monkeypatch, chunk):
    from eiquiver import eicat
    monkeypatch.setattr(eicat, "CLOSURE_CHUNK", chunk)
    docs = [fixture_doc(n) for n in ALL_FIXTURES] + [DOUBLED_LINE]
    rng = random.Random(5)
    docs += [explicit_document(random_free_category(rng)) for _ in range(3)]
    messages = set()
    for doc in docs:
        for cat in _one_entry_tampered(load_category(doc)):
            got = _outcome(validate_category, cat)
            assert got == _outcome(ref.validate_category, cat)
            assert got is not None
            messages.add(got[2].split(" for ")[0].split(" on ")[0])
    assert messages >= {"associativity: (h∘β)∘α ≠ h∘(β∘α)",
                        "associativity: (β∘α)∘g ≠ β∘(α∘g)",
                        "associativity: (β∘h)∘α ≠ β∘(h∘α)",
                        "associativity: γ∘(β∘α) ≠ (γ∘β)∘α"}
    assert any(m.endswith("entry out of range") for m in messages)


def _held_nowhere(cat):
    """Per hom-set, the indices in no composition table, read entry by
    entry."""
    held = {key: set() for key in cat.homs}
    for (x, _, y), table in cat.comp.items():
        for row in table:
            held[(x, y)].update(row)
    return {key: set(range(hs.size)) - held[key]
            for key, hs in cat.homs.items()}


def _chain_at(message):
    """(x, y, z, w), (c, b, a) from a chain law failure's message."""
    m = re.search(r"chain (\S+)->(\S+)->(\S+)->(\S+) "
                  r"at \((\d+),(\d+),(\d+)\)", message)
    return m.groups()[:4], tuple(map(int, m.groups()[4:]))


# a -> b -> c -> d with a detour b -> e -> c; the detour's arrows come
# first, so hom(b, c) is (composite, arrow): its one unfactorizable is 1
DETOUR = {"mode": "ei-quiver",
          "objects": [{"id": o, "degree": 1, "generators": []}
                      for o in "abcde"],
          "homs": [{"from": x, "to": y, "size": 1}
                   for x, y in ("be", "ec", "ab", "bc", "cd")]}


@pytest.mark.parametrize("doc, moved", [(trivial_line("vwxyz", 2), 296),
                                        (DETOUR, 4)])
def test_lights_test_skips_only_the_factorizable_betas(doc, moved):
    # the chain law is checked at unfactorizable β alone (Light's test,
    # see validate_category).  Where the entrywise reference first fails
    # at a factorizable β, validation reports a later failure instead: of
    # the same class and finding, at an unfactorizable β, and a true
    # failure of the law.  On the line every hom-set two or more steps
    # long holds only composites, and 296 of its 1,164 tampers are
    # first found at such a chain.  DETOUR has the unfactorizable β = 1
    # after a composite, so its positions are read through the
    # restriction
    cat = load_category(doc)
    differ = 0
    for bad in _one_entry_tampered(cat):
        got = _outcome(validate_category, bad)
        want = _outcome(ref.validate_category, bad)
        assert got is not None and got[:2] == want[:2]
        if got == want:
            continue
        differ += 1
        unfact = _held_nowhere(bad)
        (_, y, z, _), (_, b, _) = _chain_at(want[2])
        assert b not in unfact[(y, z)]
        (x, y, z, w), (c, b, a) = _chain_at(got[2])
        assert b in unfact[(y, z)]
        t = bad.comp
        assert t[(x, z, w)][c][t[(x, y, z)][b][a]] != \
            t[(x, y, w)][t[(y, z, w)][c][b]][a]
    assert differ == moved


def test_incoming_tables_list_every_table_once_after_its_factors():
    docs = [fixture_doc(n) for n in ALL_FIXTURES] + [
        DOUBLED_LINE, trivial_line([f"o{i}" for i in range(12)])]
    rng = random.Random(11)
    docs += [explicit_document(random_free_category(rng)) for _ in range(3)]
    for doc in docs:
        cat = load_category(doc)
        pos = {x: i for i, x in enumerate(cat.topological_order)}
        index = incoming_tables(cat)
        assert list(index) == sorted(cat.homs,
                                     key=lambda k: pos[k[1]] - pos[k[0]])
        done, listed = set(), []
        for (x, y), tables in index.items():
            for z, t in tables:
                assert {(x, z), (z, y)} <= done
                assert t.dtype == np.intp
                assert t.tolist() == [list(r) for r in cat.comp[(x, z, y)]]
                listed.append((x, z, y))
            assert [z for z, _ in tables] == \
                [z for u, z, w in cat.comp if (u, w) == (x, y)]
            done.add((x, y))
        assert sorted(listed) == sorted(cat.comp)
        assert len(listed) == len(cat.comp)


def test_identity_composition(categories):
    for name in ALL_FIXTURES:
        cat = categories[name]
        for m in ref.morphisms(cat):
            assert compose(cat, ref.identity(cat, m.target), m) == m
            assert compose(cat, m, ref.identity(cat, m.source)) == m


def test_left_action_enumerates_hom(categories):
    cat = categories["two_object_c2_s3"]
    alpha = MorphId("x", "y", 0)
    images = {compose(cat, MorphId("y", "y", h), alpha).index
              for h in range(6)}
    assert images == set(range(6))


def test_compose_rejects_mismatched_pair(categories):
    cat = categories["two_object_c2_s3"]
    with pytest.raises(ValidationError):
        compose(cat, MorphId("x", "y", 0), MorphId("x", "y", 0))


def test_associativity_exhaustive(categories):
    cat = categories["four_object_mixed"]
    ms = ref.morphisms(cat)
    for f in ms:
        for g in ms:
            if f.source != g.target:
                continue
            for h in ms:
                if g.source != h.target:
                    continue
                assert compose(cat, compose(cat, f, g), h) == \
                    compose(cat, f, compose(cat, g, h))


def test_unfactorizables(categories):
    cat = categories["two_object_c2_s3"]
    assert unfactorizables(cat)[("x", "y")] == tuple(range(6))
    cat = categories["four_object_mixed"]
    unf = unfactorizables(cat)
    assert unf[("G", "H")] == (0, 1)
    assert unf[("H", "K")] == tuple(range(6))
    assert unf[("H", "L")] == (0,)
    assert unf.get(("G", "K"), ()) == ()       # all composites through H
    assert unf.get(("G", "L"), ()) == ()
    cat = categories["line_quiver_free"]
    unf = unfactorizables(cat)
    for (x, y), idxs in unf.items():
        adjacent = (x, y) in (("w", "x"), ("x", "y"), ("y", "z"))
        assert bool(idxs) == adjacent


def test_unfactorizable_closure(categories):
    # h o alpha o g stays unfactorizable (two-sided orbit closure)
    for name in ALL_FIXTURES:
        cat = categories[name]
        unf = unfactorizables(cat)
        for (x, y), idxs in unf.items():
            idx_set = set(idxs)
            for i in idxs:
                for h in range(len(cat.groups[y])):
                    for g in range(len(cat.groups[x])):
                        m = compose(cat, MorphId(y, y, h),
                                    compose(cat, MorphId(x, y, i),
                                            MorphId(x, x, g)))
                        assert m.index in idx_set


def test_orbit_representatives(categories):
    reps = orbit_representatives(categories["two_object_c2_s3"])
    assert len(reps) == 1
    rep, orbit = reps[0]
    assert rep == MorphId("x", "y", 0)
    assert len(orbit) == 6
    reps = orbit_representatives(categories["four_object_mixed"])
    assert [(r.source, r.target) for r, _ in reps] == \
        [("G", "H"), ("H", "K"), ("H", "L")]
    assert [len(orb) for _, orb in reps] == [2, 6, 1]


def test_two_orbit_homset():
    doc = {
        "mode": "ei-quiver",
        "objects": [{"id": "x", "degree": 1, "generators": []},
                    {"id": "y", "degree": 1, "generators": []}],
        "homs": [
            {"from": "x", "to": "y", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "x", "to": "y", "size": 1,
             "left_action": [], "right_action": []},
        ],
    }
    cat = load_category(doc)
    assert hom_size(cat, "x", "y") == 2
    assert len(orbit_representatives(cat)) == 2


def test_stabilizer_data_two_object(categories):
    cat = categories["two_object_c2_s3"]
    sd = stabilizer_data(cat, MorphId("x", "y", 0))
    assert (len(sd.G0), len(sd.G1), len(sd.H0), len(sd.H1)) == (1, 2, 1, 2)
    assert len(sd.quotG) == len(sd.quotH) == 2
    assert sd.quotH.table is sd.quotG.table


def test_stabilizer_data_mixed(categories):
    cat = categories["four_object_mixed"]
    rep = next(r for r, _ in orbit_representatives(cat)
               if (r.source, r.target) == ("G", "H"))
    sd = stabilizer_data(cat, rep)
    assert (len(sd.G0), len(sd.G1), len(sd.H0), len(sd.H1)) == (1, 2, 3, 6)
    assert len(sd.quotG) == len(sd.quotH) == 2


def test_stabilizer_data_trivial_ends(categories):
    cat = categories["line_quiver_free"]
    sd = stabilizer_data(cat, MorphId("w", "x", 0))
    assert len(sd.G0) == len(sd.G1) == len(sd.H0) == len(sd.H1) == 1
    assert len(sd.quotG) == 1


def test_quotient_order_invariant(categories):
    # |G1|/|G0| = |H1|/|H0| on every orbit representative
    for name in ALL_FIXTURES:
        cat = categories[name]
        for rep, _ in orbit_representatives(cat):
            sd = stabilizer_data(cat, rep)
            assert len(sd.G1) * len(sd.H0) == len(sd.H1) * len(sd.G0)


def _orbit_categories(categories):
    rng = random.Random(11)
    return (list(categories.values())
            + [random_free_category(rng, max_mor=150) for _ in range(8)]
            + [random_nonfree_category(rng, max_mor=150) for _ in range(4)])


def test_quotH_is_numbered_through_the_biset(categories):
    # h∘alpha = alpha∘g puts h in the coset numbered as g's, on G1/G0's
    # own table, and the numbering is a homomorphism with kernel H0
    for cat in _orbit_categories(categories):
        for rep, _ in orbit_representatives(cat):
            sd = stabilizer_data(cat, rep)
            hs = cat.homs[(rep.source, rep.target)]
            H, a = cat.groups[rep.target], rep.index
            qG, qH = sd.quotG, sd.quotH
            assert qH.table is qG.table
            assert qH.cosets[0] == sd.H0.member_positions
            for h in sd.H1.member_positions:
                for g in sd.G1.member_positions:
                    if hs.left_elem[h][a] == hs.right_elem[g][a]:
                        assert qH.projection[h] == qG.projection[g]
                for k in sd.H1.member_positions:
                    assert qH.projection[mul(H, h, k)] == \
                        qG.table[qH.projection[h]][qH.projection[k]]


def test_stabilizer_data_builds_one_quotient(monkeypatch, categories):
    from eiquiver import eicat
    calls = []
    build = eicat.quotient
    monkeypatch.setattr(eicat, "quotient",
                        lambda b, k: calls.append(b) or build(b, k))
    for cat in categories.values():
        for rep, _ in orbit_representatives(cat):
            calls.clear()
            eicat.stabilizer_data(cat, rep)
            assert len(calls) == 1


# S3 acting on a C2 hom through the sign, C2 regularly: G0 = A3 < G1 = S3
SIGN_BISET = {
    "mode": "ei-quiver",
    "objects": [{"id": "x", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
                {"id": "y", "degree": 2, "generators": [[1, 0]]}],
    "homs": [{"from": "x", "to": "y", "size": 2, "left_action": [[1, 0]],
              "right_action": [[1, 0], [0, 1]]}],
}


def _relabel(q, moves):
    """q with each member g in moves given the coset moves[g]."""
    from eiquiver.permgrp import QuotientGroup
    proj = dict(q.projection)
    proj.update(moves)
    return QuotientGroup(q.base, q.kernel, q.cosets, proj, q.table)


def _swap(q, i, j):
    """q with cosets i and j trading numbers in its projection."""
    return _relabel(q, {g: i + j - c for g, c in q.projection.items()
                        if c in (i, j)})


def _order_2_and_3(q):
    return (next(c for c in range(1, len(q)) if q.table[c][c] == 0),
            next(c for c in range(1, len(q)) if q.table[c][c] != 0))


@pytest.mark.parametrize("doc, pair, corrupt, match", [
    # one transposition leaves its coset of A3: sign(t) gets two cosets
    (SIGN_BISET, ("x", "y"), lambda q: _relabel(q, {q.cosets[1][0]: 0}),
     "two cosets of G1/G0 reach one point"),
    # coset 0 no longer holds the identity: its fibre is not H0
    ("four_object_mixed", ("G", "H"), lambda q: _swap(q, 0, 1),
     "fibres over G1/G0 are not the cosets of H0"),
    # an involution and a 3-cycle of S3 trade numbers: no automorphism
    ("four_object_mixed", ("H", "K"), lambda q: _swap(q, *_order_2_and_3(q)),
     "not multiplicative"),
])
def test_a_wrong_quotient_is_caught(monkeypatch, doc, pair, corrupt, match):
    from eiquiver import eicat
    cat = load_category(fixture_doc(doc) if isinstance(doc, str) else doc)
    rep = next(r for r, _ in orbit_representatives(cat)
               if (r.source, r.target) == pair)
    eicat.stabilizer_data(cat, rep)
    build = eicat.quotient
    monkeypatch.setattr(eicat, "quotient", lambda b, k: corrupt(build(b, k)))
    with pytest.raises(InvariantError, match=match):
        eicat.stabilizer_data(cat, rep)


def test_ei_quiver_of(categories):
    quiv = ei_quiver_of(categories["four_object_mixed"])
    assert len(quiv.objects) == 4
    assert len(quiv.arrows) == 3
    quiv = ei_quiver_of(categories["two_object_c2_s3"])
    assert len(quiv.arrows) == 1
    assert quiv.arrows[0].size == 6
    quiv = ei_quiver_of(categories["one_object_c2"])
    assert len(quiv.objects) == 1 and not quiv.arrows


TRIPLED_LINE = {"mode": "ei-quiver",
                "objects": [{"id": o, "degree": 1, "generators": []}
                            for o in "wxyz"],
                "homs": [{"from": a, "to": b, "size": 3, "left_action": [],
                          "right_action": []}
                         for a, b in ("wx", "xy", "yz")]}


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_closure_check_in_chunks(monkeypatch, chunk):
    from eiquiver import eicat
    from eiquiver.errors import InvariantError
    from eiquiver.permgrp import SubgroupHandle, enumerate_group
    monkeypatch.setattr(eicat, "CLOSURE_CHUNK", chunk)
    # subgroups are certified by their generating sets: S4 and A4 close,
    # a 3-cycle without its inverse and two transpositions without their
    # product outgrow their members, and no subgroup is empty
    s4 = enumerate_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    pos = s4.index_of
    a4 = tuple(i for i, e in enumerate(s4.elements)
               if sum(e[j] > e[k] for j in range(4)
                      for k in range(j + 1, 4)) % 2 == 0)
    for members in (tuple(range(24)), a4):
        gens = SubgroupHandle(s4, members).generator_positions
        assert 2 ** len(gens) <= len(members)
        assert len(enumerate_group(4, [s4.elements[k] for k in gens])) == \
            len(members)
    for members in ((pos[(0, 1, 2, 3)], pos[(1, 2, 0, 3)]),
                    (pos[(0, 1, 2, 3)], pos[(1, 0, 2, 3)],
                     pos[(0, 2, 1, 3)])):
        with pytest.raises(InvariantError, match="outgrow"):
            SubgroupHandle(s4, tuple(sorted(members))).generator_positions
    with pytest.raises(InvariantError, match="not a subgroup"):
        SubgroupHandle(s4, ()).generator_positions
    # composition closes associatively over the chain w->x->y->z, checked
    # in chunks of γ: three chunks at the small sizes, one at the default.
    # A wrong entry under the last γ is found at the same place whatever
    # the chunk size.
    cat = load_category(TRIPLED_LINE)
    validate_category(cat)
    rows = [list(r) for r in cat.comp[("x", "y", "z")]]
    rows[2][1] = (rows[2][1] + 1) % 9
    comp = {**cat.comp, ("x", "y", "z"): tuple(map(tuple, rows))}
    bad = EICategory(cat.objects, cat.groups, cat.homs, lambda: comp,
                     cat.topological_order)
    got = _outcome(validate_category, bad)
    assert got == _outcome(ref.validate_category, bad)
    assert got[1] == "associativity" and "w->x->y->z at (2," in got[2]


def test_the_action_table_bound_is_checked_at_its_edge(monkeypatch):
    # S3 acting on the 6 elements of hom x -> y: 36 entries in left_elem
    from eiquiver import eicat
    doc = fixture_doc("two_object_trivial_s3")
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 36)
    assert load_category(doc).morphism_count() == 1 + 6 + 6
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 35)
    with pytest.raises(ValidationError,
                       match="^too-large: hom x->y: .* needs 36 "):
        load_category(doc)
