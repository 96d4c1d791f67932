"""Seeded input generators for the benchmark workloads.

Pure Python, sharing no code with the package or its tests, so that an edit
to either cannot shift a workload.  Every generator takes a random.Random
and returns plain JSON-able documents: the program only ever sees those.

- random_cases / random_quiver_document: connected acyclic EI quivers over
  groups of order at most 8, each arrow carrying a coset biset
  (tgt/K) x (J\\src), with a surgery plan and a representation seed each.
  Their size is bounded before they are returned, so the program never meets
  a path bound or an oversized category.
- s3_chain_document: objects c0 -> ... -> c(k-1), each with group S3, joined
  by regular S3-bisets whose points are relabelled at random.
- surgery plans: which object to drop, or which generators to keep, for the
  two surgeries that break freeness.
"""

from __future__ import annotations

import itertools
from math import prod

# the same small catalogue as the package's named groups, copied here
GROUPS = {
    "1": (1, ()),
    "C2": (2, ((1, 0),)),
    "C3": (3, ((1, 2, 0),)),
    "C4": (4, ((1, 2, 3, 0),)),
    "V4": (4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "S3": (3, ((1, 0, 2), (1, 2, 0))),
    "C6": (6, ((1, 2, 3, 4, 5, 0),)),
    "D4": (4, ((1, 2, 3, 0), (1, 0, 3, 2))),
    "C2xC2xC2": (6, ((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                     (0, 1, 2, 3, 5, 4))),
}

# bounds on one random category: the tuples a free-category builder
# enumerates (sum over quiver paths of the product of biset sizes), and
# the largest single biset
MAX_PATH_TUPLES = 120
MAX_BISET = 12


def pmul(a, b):
    """Composite a∘b of permutations (apply b first)."""
    return tuple(a[i] for i in b)


def closure(degree: int, gens) -> list:
    ident = tuple(range(degree))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = pmul(g, s)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(elems)


def _subgroup(rng, elems, degree):
    seeds = [rng.choice(elems) for _ in range(rng.randint(0, 2))]
    return set(closure(degree, seeds))


def coset_biset(src, j_set, tgt, k_set) -> dict:
    """Hom entry for the (tgt, src)-biset (tgt/K) x (J\\src); src and tgt
    are (degree, generators, elements)."""
    _, tgt_gens, tgt_elems = tgt
    _, src_gens, src_elems = src
    left = _cosets(tgt_elems, lambda a: {pmul(a, k) for k in k_set})
    right = _cosets(src_elems, lambda b: {pmul(j, b) for j in j_set})
    lc = {a: i for i, c in enumerate(left) for a in c}
    rc = {b: i for i, c in enumerate(right) for b in c}
    nr = len(right)
    size = len(left) * nr
    left_action = [[lc[pmul(g, min(left[p // nr]))] * nr + p % nr
                    for p in range(size)] for g in tgt_gens]
    right_action = [[p // nr * nr + rc[pmul(min(right[p % nr]), s)]
                     for p in range(size)] for s in src_gens]
    return {"size": size, "left_action": left_action,
            "right_action": right_action}


def _cosets(elems, coset_of):
    out, seen = [], set()
    for a in elems:
        if a not in seen:
            c = frozenset(coset_of(a))
            seen |= c
            out.append(c)
    return out


def quiver_paths(n: int, edges) -> list:
    """All directed paths (as edge-index tuples) of a DAG on 0..n-1."""
    out_of = {i: [e for e, (a, _) in enumerate(edges) if a == i]
              for i in range(n)}
    paths, frontier = [], [(e,) for e in range(len(edges))]
    while frontier:
        paths.extend(frontier)
        frontier = [p + (e,) for p in frontier
                    for e in out_of[edges[p[-1]][1]]]
    return paths


def random_quiver_document(rng, kinds) -> dict:
    """A random connected acyclic EI quiver document within the bounds, on
    objects o0, o1, ... whose groups are the given catalogue names."""
    groups = [(GROUPS[k][0], GROUPS[k][1], closure(*GROUPS[k]))
              for k in kinds]
    n = len(kinds)
    names = [f"o{i}" for i in range(n)]
    while True:
        # a random spanning tree keeps the object graph connected
        edges = {(rng.randrange(j), j) for j in range(1, n)}
        edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3}
        edges = sorted(edges)
        # (J, K) per edge; the bisets are built once the bounds hold
        subgroups = [(_subgroup(rng, groups[i][2], groups[i][0]),
                      _subgroup(rng, groups[j][2], groups[j][0]))
                     for i, j in edges]
        sizes = [len(groups[i][2]) // len(js) * len(groups[j][2]) // len(ks)
                 for (i, j), (js, ks) in zip(edges, subgroups)]
        tuples = sum(prod(sizes[e] for e in p)
                     for p in quiver_paths(n, edges))
        if max(sizes) <= MAX_BISET and tuples <= MAX_PATH_TUPLES:
            break
    homs = [{"from": names[i], "to": names[j],
             **coset_biset(groups[i], js, groups[j], ks)}
            for (i, j), (js, ks) in zip(edges, subgroups)]
    return {
        "mode": "ei-quiver",
        "objects": [{"id": o, "degree": g[0],
                     "generators": [list(s) for s in g[1]]}
                    for o, g in zip(names, groups)],
        "homs": homs,
    }


def random_cases(rng, count: int) -> list:
    """`count` random quiver documents, each with a surgery plan and a seed
    for its random representations.  Object counts cycle through 2, 3, 4
    and the groups are dealt from a shuffled pool holding every catalogue
    group equally often, so that the cost of a pass varies little with the
    seed; at least one group of each category is nontrivial, so that a
    surgery exists."""
    sizes = [2 + i % 3 for i in range(count)]
    pool = sorted(GROUPS) * (sum(sizes) // len(GROUPS) + 1)
    rng.shuffle(pool)
    cases = []
    for n in sizes:
        kinds = [pool.pop() for _ in range(n)]
        while all(k == "1" for k in kinds):
            kinds[-1] = rng.choice(sorted(GROUPS))
        doc = random_quiver_document(rng, kinds)
        cases.append({"doc": doc, "surgery": surgery_plan(rng, doc),
                      "rep_seed": rng.randrange(2 ** 32)})
    return cases


def reachable(doc: dict) -> set:
    """Ordered object pairs joined by a path of arrows in a quiver
    document: exactly the nonempty hom sets of its free category."""
    pairs = {(h["from"], h["to"]) for h in doc["homs"]}
    while True:
        more = {(a, d) for a, b in pairs for c, d in pairs if b == c}
        if more <= pairs:
            return pairs
        pairs |= more


def droppable_objects(doc: dict) -> list:
    """Objects whose removal leaves a connected full subcategory of the
    free category; only inner objects, so the surgery can break paths."""
    ids = [o["id"] for o in doc["objects"]]
    homs = reachable(doc)
    out = []
    for drop in ids[1:-1]:
        keep = [o for o in ids if o != drop]
        seen, todo = {keep[0]}, [keep[0]]
        while todo:
            a = todo.pop()
            for b in keep:
                if b not in seen and ((a, b) in homs or (b, a) in homs):
                    seen.add(b)
                    todo.append(b)
        if len(seen) == len(keep):
            out.append(drop)
    return out


def surgery_plan(rng, doc: dict) -> dict:
    """Choose one freeness-breaking surgery for the free category of doc:
    drop an inner object, or cut one group down to the subgroup generated
    by a proper subset of its generators."""
    drops = droppable_objects(doc)
    shrinkable = [o["id"] for o in doc["objects"] if o["generators"]]
    if drops and (not shrinkable or rng.random() < 0.5):
        return {"kind": "drop", "object": rng.choice(drops)}
    obj = rng.choice(shrinkable)
    ngens = len(next(o for o in doc["objects"]
                     if o["id"] == obj)["generators"])
    keep = sorted(rng.sample(range(ngens), rng.randrange(ngens)))
    return {"kind": "shrink", "object": obj, "keep": keep}


def s3_chain_document(rng, k: int) -> dict:
    """S3 chain of k objects joined by regular bisets, points relabelled."""
    degree, gens = GROUPS["S3"]
    elems = closure(degree, gens)
    homs = []
    for i in range(k - 1):
        label = list(range(len(elems)))
        rng.shuffle(label)
        pos = {g: label[n] for n, g in enumerate(elems)}
        left = [[0] * len(elems) for _ in gens]
        right = [[0] * len(elems) for _ in gens]
        for g in elems:
            for r, s in enumerate(gens):
                left[r][pos[g]] = pos[pmul(s, g)]
                right[r][pos[g]] = pos[pmul(g, s)]
        homs.append({"from": f"c{i}", "to": f"c{i + 1}", "size": len(elems),
                     "left_action": left, "right_action": right})
    return {
        "mode": "ei-quiver",
        "objects": [{"id": f"c{i}", "degree": degree,
                     "generators": [list(s) for s in gens]}
                    for i in range(k)],
        "homs": homs,
    }


def explicit_s3_chain_document(k: int) -> dict:
    """The same chain's free category written out explicitly: every hom
    c_i -> c_j (i < j) is the regular biset S3, and composition is the group
    product.  Used only to record the outputs expected once the free-cover
    builder accepts chains too long for it today."""
    degree, gens = GROUPS["S3"]
    elems = closure(degree, gens)
    idx = {g: n for n, g in enumerate(elems)}
    regular = {"size": len(elems),
               "left_action": [[idx[pmul(s, g)] for g in elems]
                               for s in gens],
               "right_action": [[idx[pmul(g, s)] for g in elems]
                                for s in gens]}
    pairs = list(itertools.combinations(range(k), 2))
    table = [[idx[pmul(b, a)] for a in elems] for b in elems]
    return {
        "mode": "explicit",
        "objects": [{"id": f"c{i}", "degree": degree,
                     "generators": [list(s) for s in gens]}
                    for i in range(k)],
        "homs": [{"from": f"c{i}", "to": f"c{j}", **regular}
                 for i, j in pairs],
        "compositions": [{"inner": [f"c{i}", f"c{j}"],
                          "outer": [f"c{j}", f"c{m}"], "table": table}
                         for i, j in pairs for m in range(j + 1, k)],
    }
