"""Graph recognition, the hereditary decision and the two-object
infinite-type screens."""

import random
import re
from types import SimpleNamespace

import kernel_reference as ref
from eiquiver.chartab import SplittingPrime, choose_splitting_prime
from eiquiver.eicat import MorphId, load_category
from eiquiver.freecover import free_cover
from eiquiver.quiveralg import build_quiver, orbit_data
from eiquiver.reptype import (classify_graph, is_hereditary, rep_type,
                              screen_two_object)
from groups import named_group, quivers_equal, trivial_subgroup
from randcats import (coset_biset, random_free_category,
                      random_nonfree_category)
from test_freecover import s3_chain_document


def graph(n, edges):
    """A stand-in quiver: n vertices and (source, target, mult) arrows."""
    return SimpleNamespace(
        vertices=list(range(n)),
        arrows=[SimpleNamespace(source=a, target=b, mult=m)
                for a, b, m in edges])


def path_edges(n):
    return [(i, i + 1, 1) for i in range(n - 1)]


def names_of(comps):
    return sorted(c.name for c in comps)


def test_dynkin_recognition():
    assert names_of(classify_graph(graph(5, path_edges(5)))) == ["A5"]
    assert names_of(classify_graph(graph(1, []))) == ["A1"]
    # D5: path 0-1-2 with two extra leaves on vertex 0
    d5 = path_edges(3) + [(0, 3, 1), (0, 4, 1)]
    assert names_of(classify_graph(graph(5, d5))) == ["D5"]
    # E6: arms 1,2,2 around the branch vertex
    e6 = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (4, 5, 1)]
    assert names_of(classify_graph(graph(6, e6))) == ["E6"]
    # E8: arms 1,2,4
    e8 = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1),
          (4, 6, 1), (6, 7, 1)]
    assert names_of(classify_graph(graph(8, e8))) == ["E8"]


def test_euclidean_recognition():
    assert names_of(classify_graph(graph(2, [(0, 1, 2)]))) == ["~A1"]
    cycle = [(i, (i + 1) % 4, 1) for i in range(4)]
    assert names_of(classify_graph(graph(4, cycle))) == ["~A3"]
    star = [(0, i, 1) for i in range(1, 5)]
    assert names_of(classify_graph(graph(5, star))) == ["~D4"]
    # ~E6: three arms of length 2 from a center
    e6t = [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)]
    assert names_of(classify_graph(graph(7, e6t))) == ["~E6"]
    # ~D6: two branch vertices joined by a path, two leaves each
    d6t = [(0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1),
           (4, 6, 1)]
    assert names_of(classify_graph(graph(7, d6t))) == ["~D6"]


def test_wild_recognition():
    # double edge inside a larger component
    assert names_of(classify_graph(
        graph(3, [(0, 1, 2), (1, 2, 1)]))) == ["wild"]
    # degree-5 vertex
    assert names_of(classify_graph(
        graph(6, [(0, i, 1) for i in range(1, 6)]))) == ["wild"]
    # triple edge
    assert names_of(classify_graph(graph(2, [(0, 1, 3)]))) == ["wild"]
    # loop
    assert names_of(classify_graph(graph(1, [(0, 0, 1)]))) == ["wild"]


def test_multiple_components():
    comps = classify_graph(graph(7, path_edges(5) + [(5, 6, 1)]))
    assert names_of(comps) == ["A2", "A5"]


def test_classification_is_relabeling_invariant():
    rng = random.Random(7)
    shapes = [path_edges(6),
              [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (4, 5, 1)],
              [(i, (i + 1) % 5, 1) for i in range(5)],
              [(0, 1, 2), (1, 2, 1)]]
    for edges in shapes:
        n = max(max(a, b) for a, b, _ in edges) + 1
        base = names_of(classify_graph(graph(n, edges)))
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            remapped = [(perm[a], perm[b], m) for a, b, m in edges]
            assert names_of(classify_graph(graph(n, remapped))) == base


def test_is_hereditary(categories):
    p13 = choose_splitting_prime(
        categories["four_object_mixed"].groups.values())
    assert p13.p == 13
    assert is_hereditary(categories["four_object_mixed"], p13)
    assert not is_hereditary(categories["fork_merge_nonfree"],
                             choose_splitting_prime(
                                 categories["fork_merge_nonfree"]
                                 .groups.values()))
    # a prime dividing a group order disqualifies even a free category
    two = SplittingPrime(2, 2, 2)
    assert not is_hereditary(categories["fork_merge_free"], two)


def test_rep_type_finite(categories):
    cat = categories["two_object_c2_s3"]
    v = rep_type(cat, choose_splitting_prime(cat.groups.values()))
    assert v.verdict == "Finite"
    assert v.certificates[0][0] == "hereditary-graph"
    assert "A5" in v.certificates[0][1]
    cat = categories["four_object_mixed"]
    assert rep_type(cat, choose_splitting_prime(
        cat.groups.values())).verdict == "Finite"


def test_rep_type_wild(categories):
    cat = categories["two_object_trivial_s3"]
    v = rep_type(cat, choose_splitting_prime(cat.groups.values()))
    assert v.verdict == "Wild"
    assert v.certificates[0][0] == "hereditary-graph"


def test_rep_type_one_object():
    cat = load_category({"mode": "explicit",
                         "objects": [{"id": "x", "degree": 1,
                                      "generators": []}], "homs": []})
    assert rep_type(cat, choose_splitting_prime(
        cat.groups.values())).verdict == "Finite"


def test_rep_type_nonfree(categories):
    # the finite-cover rule reads the category's own quiver, which is
    # its free cover's
    for name, verdict in (("fork_merge_nonfree", "InfiniteUncertified"),
                          ("line_subcategory_nonfree", "Unknown")):
        cat = categories[name]
        assert rep_type(cat, choose_splitting_prime(
            cat.groups.values())).verdict == verdict
        assert quivers_equal(build_quiver(cat),
                             build_quiver(free_cover(cat)))


def test_screen_regular_biset(categories):
    prime = choose_splitting_prime(
        categories["two_object_trivial_s3"].groups.values())
    findings = screen_two_object(categories["two_object_trivial_s3"], prime)
    assert len(findings) == 1
    pair, rule, witness = findings[0]
    assert pair == ("x", "y")
    assert rule == "induction-decomposition"
    assert "not multiplicity free" in witness


def test_screen_silent_on_finite_example(categories):
    cat = categories["two_object_c2_s3"]
    prime = choose_splitting_prime(cat.groups.values())
    assert screen_two_object(cat, prime) == []


def test_screen_multiple_orbits(categories):
    cat = categories["fork_merge_nonfree"]
    prime = choose_splitting_prime(cat.groups.values())
    findings = screen_two_object(cat, prime)
    assert any(rule == "multiple-orbits" and pair == ("y", "z")
               for pair, rule, _ in findings)


def test_screen_both_intransitive():
    c2 = named_group("C2")
    triv = trivial_subgroup(c2).member_positions
    size, la, ra = coset_biset(c2, triv, c2, triv)
    cat = load_category({
        "mode": "explicit",
        "objects": [{"id": "x", "degree": 2, "generators": [[1, 0]]},
                    {"id": "y", "degree": 2, "generators": [[1, 0]]}],
        "homs": [{"from": "x", "to": "y", "size": size,
                  "left_action": la, "right_action": ra}],
    })
    prime = choose_splitting_prime(cat.groups.values())
    findings = screen_two_object(cat, prime)
    assert [(rule) for _, rule, _ in findings] == ["both-intransitive"]


def test_screen_soundness_on_random_free_categories():
    # whenever a screen fires on a hereditary category, its quiver graph
    # cannot be all-Dynkin; and a Finite verdict silences every screen
    rng = random.Random(6021)
    for _ in range(25):
        cat = random_free_category(rng, max_mor=200)
        prime = choose_splitting_prime(cat.groups.values())
        findings = screen_two_object(cat, prime)
        verdict = rep_type(cat, prime)
        if findings:
            comps = classify_graph(build_quiver(cat, prime))
            assert not all(c.kind == "Dynkin" for c in comps)
        if verdict.verdict == "Finite":
            assert not findings


def _screened_categories(categories):
    """(name, category) for every fixture, the S3 chains of 3 to 8
    objects, and 100 free and 100 non-free random categories."""
    yield from categories.items()
    for k in range(3, 9):
        yield f"s3 chain {k}", load_category(s3_chain_document(k))
    rng = random.Random(3817)
    for i in range(100):
        yield f"free {i}", random_free_category(rng, max_mor=120)
        yield f"nonfree {i}", random_nonfree_category(rng, max_mor=120)


WITNESS = re.compile(r"(target|source) side, summand X(\d+) of the "
                     r"double-coset induction: (.*)")


def test_screens_match_the_per_side_table_reference(categories):
    # the screens read e and f off the orbit data where the reference
    # builds K1's table, sums it over K0 and restricts to K1: the same
    # rules fire on the same pairs and sides, and each induction witness
    # names a quotient irreducible U whose e or f row is its reason
    seen = fired = 0
    for name, cat in _screened_categories(categories):
        prime = choose_splitting_prime(cat.groups.values())
        got = screen_two_object(cat, prime)
        want = ref.screen_two_object(cat, prime)

        def sides(findings):
            return [(pair, rule, witness.split(" side")[0])
                    for pair, rule, witness in findings]
        assert sides(got) == sides(want), name
        for (x, y), rule, witness in got:
            if rule != "induction-decomposition":
                continue
            side, u, why = WITNESS.fullmatch(witness).groups()
            # the hom-set is one orbit, so 0 is its least member
            od = orbit_data(cat, MorphId(x, y, 0), prime)
            row = (od.f if side == "target" else od.e)[int(u)]
            distinct = sum(1 for m in row if m)
            assert max(row) >= 2 or distinct > 3, name
            assert why == ("not multiplicity free" if max(row) >= 2
                           else f"{distinct} distinct summands"), name
            fired += 1
        seen += 1
    assert seen == 8 + 6 + 200
    assert fired > 0
