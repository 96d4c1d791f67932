"""Seeded random category generation for the property suites.

Free categories are produced from random acyclic EI quivers whose arrow
bisets are products of coset spaces H/K x J\\G (always a genuine biset:
the outer translation actions commute).  Non-free categories come from
two freeness-breaking surgeries on a free category: passing to a full
subcategory, or shrinking one automorphism group to a proper subgroup.
"""

import random

from eiquiver.eicat import EICategory, load_category
from eiquiver.errors import EIQuiverError
from eiquiver.freecover import is_free
from eiquiver.permgrp import PermGroup
from groups import identity_pos, mul, named_group

GROUP_NAMES = ("1", "C2", "C3", "C4", "V4", "S3", "C6", "D4", "C2xC2xC2")


def closure_positions(group: PermGroup, seeds) -> list[int]:
    members = {identity_pos(group)}
    frontier = list(members | set(seeds))
    while frontier:
        a = frontier.pop()
        if a not in members:
            members.add(a)
        for b in list(members):
            for c in (mul(group, a, b), mul(group, b, a)):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    return sorted(members)


def random_subgroup(rng: random.Random, group: PermGroup) -> list[int]:
    seeds = [rng.randrange(len(group)) for _ in range(rng.randint(0, 2))]
    return closure_positions(group, seeds)


def coset_biset(src: PermGroup, j_members, tgt: PermGroup, k_members):
    """Actions of the (tgt, src)-biset (tgt/K) x (J\\src).

    Returns (size, left_action rows per tgt generator, right_action rows
    per src generator)."""
    k_set, j_set = set(k_members), set(j_members)
    left_cosets = []    # aK, ordered by least member
    seen = set()
    for a in range(len(tgt)):
        if a in seen:
            continue
        coset = frozenset(mul(tgt, a, k) for k in k_set)
        seen |= coset
        left_cosets.append(coset)
    right_cosets = []   # Jb
    seen = set()
    for b in range(len(src)):
        if b in seen:
            continue
        coset = frozenset(mul(src, j, b) for j in j_set)
        seen |= coset
        right_cosets.append(coset)
    lc_of = {a: i for i, c in enumerate(left_cosets) for a in c}
    rc_of = {b: i for i, c in enumerate(right_cosets) for b in c}
    nl, nr = len(left_cosets), len(right_cosets)
    size = nl * nr

    def pos(li, ri):
        return li * nr + ri

    left_action = []
    for g in tgt.generators:
        gp = tgt.index_of[g]
        row = [0] * size
        for li, c in enumerate(left_cosets):
            li2 = lc_of[mul(tgt, gp, min(c))]
            for ri in range(nr):
                row[pos(li, ri)] = pos(li2, ri)
        left_action.append(row)
    right_action = []
    for g in src.generators:
        gp = src.index_of[g]
        row = [0] * size
        for ri, c in enumerate(right_cosets):
            ri2 = rc_of[mul(src, min(c), gp)]
            for li in range(nl):
                row[pos(li, ri)] = pos(li, ri2)
        right_action.append(row)
    return size, left_action, right_action


def random_quiver_document(rng: random.Random) -> dict:
    n = rng.randint(2, 4)
    names = [f"o{i}" for i in range(n)]
    groups = {o: named_group(rng.choice(GROUP_NAMES)) for o in names}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                edges.append((i, j))
    # connect stragglers to keep the object graph connected
    touched = {v for e in edges for v in e}
    for i in range(n):
        if i not in touched or not edges:
            edges.append((i, (i + 1) % n) if i + 1 < n else (0, i))
    edges = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    homspecs = []
    for i, j in edges:
        x, y = names[i], names[j]
        src, tgt = groups[x], groups[y]
        size, la, ra = coset_biset(src, random_subgroup(rng, src),
                                   tgt, random_subgroup(rng, tgt))
        homspecs.append({"from": x, "to": y, "size": size,
                         "left_action": la, "right_action": ra})
    return {
        "mode": "ei-quiver",
        "objects": [{"id": o, "degree": groups[o].degree,
                     "generators": [list(g) for g in groups[o].generators]}
                    for o in names],
        "homs": homspecs,
    }


def random_free_category(rng: random.Random, max_mor: int = 300,
                         max_paths: int = 20000) -> EICategory:
    while True:
        doc = random_quiver_document(rng)
        try:
            cat = load_category(doc, max_paths=max_paths)
        except EIQuiverError:
            continue
        if cat.morphism_count() <= max_mor:
            return cat


def explicit_document(cat: EICategory, keep=None) -> dict:
    """Serialize (a full subcategory of) a category to an explicit-mode
    document."""
    if keep is None:
        keep = cat.objects
    keep = [o for o in cat.objects if o in set(keep)]
    doc = {
        "mode": "explicit",
        "objects": [{"id": o,
                     "degree": cat.groups[o].degree,
                     "generators": [list(g)
                                    for g in cat.groups[o].generators]}
                    for o in keep],
        "homs": [],
        "compositions": [],
    }
    kept = set(keep)
    for (x, y), hs in cat.homs.items():
        if x in kept and y in kept:
            doc["homs"].append({
                "from": x, "to": y, "size": hs.size,
                "left_action": [list(g) for g in hs.left_gen],
                "right_action": [list(g) for g in hs.right_gen]})
    for (x, y, z), table in cat.comp.items():
        if x in kept and y in kept and z in kept:
            doc["compositions"].append({
                "inner": [x, y], "outer": [y, z],
                "table": [list(row) for row in table]})
    return doc


def shrunk_group_document(rng: random.Random, cat: EICategory) -> dict | None:
    """Explicit document with one object's group cut to the subgroup
    generated by a proper subset of its generators."""
    candidates = [o for o in cat.objects if cat.groups[o].generators]
    if not candidates:
        return None
    obj = rng.choice(candidates)
    gens = cat.groups[obj].generators
    kept_idx = sorted(rng.sample(range(len(gens)),
                                 rng.randrange(len(gens))))
    doc = explicit_document(cat)
    for entry in doc["objects"]:
        if entry["id"] == obj:
            entry["generators"] = [list(gens[k]) for k in kept_idx]
    for entry in doc["homs"]:
        if entry["from"] == obj:
            entry["right_action"] = [entry["right_action"][k]
                                     for k in kept_idx]
        if entry["to"] == obj:
            entry["left_action"] = [entry["left_action"][k]
                                    for k in kept_idx]
    return doc


def random_nonfree_category(rng: random.Random, max_mor: int = 300,
                            max_paths: int = 20000) -> EICategory:
    while True:
        cat = random_free_category(rng, max_mor, max_paths)
        docs = []
        if len(cat.objects) > 2:
            drop = rng.choice(cat.objects[1:-1])
            docs.append(explicit_document(
                cat, [o for o in cat.objects if o != drop]))
        doc = shrunk_group_document(rng, cat)
        if doc is not None:
            docs.append(doc)
        rng.shuffle(docs)
        for doc in docs:
            try:
                cand = load_category(doc, max_paths=max_paths)
            except EIQuiverError:
                continue
            if cand.morphism_count() <= max_mor and not is_free(cand):
                return cand
