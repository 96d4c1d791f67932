#!/usr/bin/env python3
"""Regenerate the bundled JSON fixtures in src/eiquiver/fixtures/.

Each fixture is a small category document exercising one structural
feature: free/non-free line and fork shapes, mixed automorphism groups,
and the regular-biset category of infinite representation type.  The
representation fixture is produced with the library itself so that its
matrices are in the canonical bases.
"""

import json
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from eiquiver.permgrp import enumerate_group, pmul  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src/eiquiver/fixtures"

S3_GENS = [[1, 0, 2], [1, 2, 0]]
s3 = enumerate_group(3, S3_GENS)


def s3_left_right_actions():
    """Left/right translation actions on S3 itself, per generator."""
    left = []
    right = []
    for g in s3.generators:
        left.append([s3.index_of[pmul(g, e)] for e in s3.elements])
        right.append([s3.index_of[pmul(e, g)] for e in s3.elements])
    return left, right


def write(name, doc):
    path = OUT / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("wrote", path)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    left6, right6 = s3_left_right_actions()
    # right multiplication by the embedded order-2 element
    t = (1, 0, 2)
    right_by_t = [s3.index_of[pmul(e, t)] for e in s3.elements]

    write("line_quiver_free.json", {
        "mode": "ei-quiver",
        "objects": [{"id": o, "degree": 1, "generators": []}
                    for o in ("w", "x", "y", "z")],
        "homs": [
            {"from": "w", "to": "x", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "x", "to": "y", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "y", "to": "z", "size": 1,
             "left_action": [], "right_action": []},
        ],
    })

    # the line category with the middle morphism deleted: the long
    # composite then factors in two unrelated ways
    write("line_subcategory_nonfree.json", {
        "mode": "explicit",
        "objects": [{"id": o, "degree": 1, "generators": []}
                    for o in ("w", "x", "y", "z")],
        "homs": [
            {"from": "w", "to": "x", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "y", "to": "z", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "w", "to": "y", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "x", "to": "z", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "w", "to": "z", "size": 1,
             "left_action": [], "right_action": []},
        ],
        "compositions": [
            {"inner": ["w", "x"], "outer": ["x", "z"], "table": [[0]]},
            {"inner": ["w", "y"], "outer": ["y", "z"], "table": [[0]]},
        ],
    })

    # fork through a C2 middle object: the two parallel outgoing
    # morphisms are swapped by the automorphism, which restores unique
    # factorization
    write("fork_merge_free.json", {
        "mode": "explicit",
        "objects": [
            {"id": "x", "degree": 1, "generators": []},
            {"id": "y", "degree": 2, "generators": [[1, 0]]},
            {"id": "z", "degree": 1, "generators": []},
        ],
        "homs": [
            {"from": "x", "to": "y", "size": 1,
             "left_action": [[0]], "right_action": []},
            {"from": "y", "to": "z", "size": 2,
             "left_action": [], "right_action": [[1, 0]]},
            {"from": "x", "to": "z", "size": 1,
             "left_action": [], "right_action": []},
        ],
        "compositions": [
            {"inner": ["x", "y"], "outer": ["y", "z"], "table": [[0], [0]]},
        ],
    })

    # same shape without the swapping automorphism: two unrelated
    # factorizations of the composite
    write("fork_merge_nonfree.json", {
        "mode": "explicit",
        "objects": [
            {"id": "x", "degree": 1, "generators": []},
            {"id": "y", "degree": 1, "generators": []},
            {"id": "z", "degree": 1, "generators": []},
        ],
        "homs": [
            {"from": "x", "to": "y", "size": 1,
             "left_action": [], "right_action": []},
            {"from": "y", "to": "z", "size": 2,
             "left_action": [], "right_action": []},
            {"from": "x", "to": "z", "size": 1,
             "left_action": [], "right_action": []},
        ],
        "compositions": [
            {"inner": ["x", "y"], "outer": ["y", "z"], "table": [[0], [0]]},
        ],
    })

    write("one_object_c2.json", {
        "mode": "explicit",
        "objects": [{"id": "x", "degree": 2, "generators": [[1, 0]]}],
        "homs": [],
    })

    # chain of four objects with mixed groups: C2 -> S3 -> S3 and
    # C2 -> S3 -> C3; bisets of sizes 2 (stabilizers 1 and C3), 6
    # (biregular) and 1 (fixed by everything)
    write("four_object_mixed.json", {
        "mode": "ei-quiver",
        "objects": [
            {"id": "G", "degree": 2, "generators": [[1, 0]]},
            {"id": "H", "degree": 3, "generators": S3_GENS},
            {"id": "K", "degree": 3, "generators": S3_GENS},
            {"id": "L", "degree": 3, "generators": [[1, 2, 0]]},
        ],
        "homs": [
            {"from": "G", "to": "H", "size": 2,
             "left_action": [[1, 0], [0, 1]], "right_action": [[1, 0]]},
            {"from": "H", "to": "K", "size": 6,
             "left_action": left6, "right_action": right6},
            {"from": "H", "to": "L", "size": 1,
             "left_action": [[0]], "right_action": [[0], [0]]},
        ],
    })

    # hom-set = S3 as a biset: left regular S3 action, right action of
    # C2 through an embedded order-2 element
    write("two_object_c2_s3.json", {
        "mode": "explicit",
        "objects": [
            {"id": "x", "degree": 2, "generators": [[1, 0]]},
            {"id": "y", "degree": 3, "generators": S3_GENS},
        ],
        "homs": [
            {"from": "x", "to": "y", "size": 6,
             "left_action": left6, "right_action": [right_by_t]},
        ],
    })

    # hom-set = S3 with only the left regular action; infinite
    # representation type
    write("two_object_trivial_s3.json", {
        "mode": "explicit",
        "objects": [
            {"id": "x", "degree": 1, "generators": []},
            {"id": "y", "degree": 3, "generators": S3_GENS},
        ],
        "homs": [
            {"from": "x", "to": "y", "size": 6,
             "left_action": left6, "right_action": []},
        ],
    })

    # category representations assembled in canonical bases from seeded
    # quiver data: over two_object_c2_s3, R(x) = k^2 + S and
    # R(y) = k + eps + V2^2; over four_object_mixed, whose composites
    # G->H->K and G->H->L come with composition tables, every object
    # carries each of its irreducibles once or twice (L's X1 not at all)
    write("two_object_c2_s3_rep.json", canonical_rep(
        "two_object_c2_s3",
        {("x", 0): 2, ("x", 1): 1, ("y", 0): 1, ("y", 1): 1, ("y", 2): 2},
        7301))
    write("four_object_mixed_rep.json", canonical_rep(
        "four_object_mixed",
        {("G", 0): 1, ("G", 1): 2, ("H", 0): 1, ("H", 1): 1, ("H", 2): 2,
         ("K", 0): 2, ("K", 1): 1, ("K", 2): 1, ("L", 0): 1, ("L", 1): 0,
         ("L", 2): 1},
        7302))


def canonical_rep(name, want, seed):
    """The representation document of inverse_functor applied to a quiver
    representation with multiplicity want[(object, irreducible)] at each
    vertex and arrow matrices drawn from random.Random(seed)."""
    from eiquiver.eicat import load_category
    from eiquiver.quiveralg import build_quiver
    from eiquiver.morita import (MoritaContext, QuiverRep, catrep_document,
                                 expanded_arrows, inverse_functor)
    from eiquiver import linalg

    cat = load_category(json.loads((OUT / f"{name}.json").read_text()))
    q = build_quiver(cat)
    ctx = MoritaContext(q)
    dims = tuple(want[(v.object, v.irr)] for v in q.vertices)
    rng = random.Random(seed)
    mats = []
    for ea in expanded_arrows(q):
        b, a = dims[ea.target], dims[ea.source]
        m = linalg.zeros(b, a)
        for i in range(b):
            for j in range(a):
                m[i, j] = rng.randrange(q.prime.p)
        mats.append(m)
    qrep = QuiverRep(q, q.prime.p, dims, tuple(mats))
    return catrep_document(inverse_functor(ctx, qrep))

if __name__ == "__main__":
    main()
