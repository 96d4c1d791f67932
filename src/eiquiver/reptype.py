"""Representation type: ADE/affine graph recognition, the hereditary
criterion, and the two-object screening rules for non-free categories.

The certified branch: for a free category whose group orders are
invertible, the algebra is hereditary and its type is read off the
underlying multigraph of the quiver (Dynkin = finite, Euclidean = tame,
anything else = wild).  For non-free categories only two certificates
exist: finite type when the free cover's quiver is all-Dynkin, and
infinite type when a two-object screen fires; tame-vs-wild is never
claimed there.  The free cover has the category's own unfactorizable
bisets, so its quiver is the category's quiver, and the finite-cover
rule reads that one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import (SplittingPrime, character_table, choose_splitting_prime,
                      restriction_multiplicity)
from .eicat import EICategory, MorphId, homset_orbits, stabilizer_data
from .freecover import DEFAULT_PATH_BOUND, is_free
from .quiveralg import BuiltQuiver, build_quiver


@dataclass(frozen=True)
class GraphComponent:
    kind: str            # "Dynkin" | "Euclidean" | "Wild"
    name: str            # e.g. "A5", "~E7", "wild"
    vertices: tuple[int, ...]


def _branch_lengths(adj, center, skip=None):
    """Lengths of the dangling paths from a branch vertex of a tree."""
    out = []
    for nb in adj[center]:
        if skip is not None and nb == skip:
            continue
        length, prev, cur = 1, center, nb
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            length += 1
        out.append(length)
    return sorted(out)


def _classify_component(verts, edges) -> GraphComponent:
    """edges: dict over unordered vertex pairs -> multiplicity."""
    verts = tuple(sorted(verts))
    nv = len(verts)
    ne = sum(edges.values())
    wild = GraphComponent("Wild", "wild", verts)
    if any(a == b for (a, b) in edges):
        return wild
    if any(m >= 2 for m in edges.values()):
        if nv == 2 and len(edges) == 1 and ne == 2:
            return GraphComponent("Euclidean", "~A1", verts)
        return wild
    adj = {v: [] for v in verts}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = {v: len(adj[v]) for v in verts}
    if ne == nv - 1:  # tree
        branch3 = [v for v in verts if deg[v] == 3]
        if any(deg[v] > 4 for v in verts):
            return wild
        deg4 = [v for v in verts if deg[v] == 4]
        if deg4:
            if len(deg4) == 1 and not branch3 and nv == 5:
                return GraphComponent("Euclidean", "~D4", verts)
            return wild
        if not branch3:
            return GraphComponent("Dynkin", f"A{nv}", verts)
        if len(branch3) == 1:
            arms = tuple(_branch_lengths(adj, branch3[0]))
            dynkin = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}
            affine = {(2, 2, 2): "~E6", (1, 3, 3): "~E7", (1, 2, 5): "~E8"}
            if arms[:2] == (1, 1):
                return GraphComponent("Dynkin", f"D{nv}", verts)
            if arms in dynkin:
                return GraphComponent("Dynkin", dynkin[arms], verts)
            if arms in affine:
                return GraphComponent("Euclidean", affine[arms], verts)
            return wild
        if len(branch3) == 2:
            leafy = all(
                sum(1 for nb in adj[v] if deg[nb] == 1) >= 2 for v in branch3)
            if leafy:
                return GraphComponent("Euclidean", f"~D{nv - 1}", verts)
        return wild
    if ne == nv and all(deg[v] == 2 for v in verts):
        return GraphComponent("Euclidean", f"~A{nv - 1}", verts)
    return wild


def classify_graph(quiver: BuiltQuiver) -> list[GraphComponent]:
    """Classification of the underlying undirected multigraph, one entry
    per connected component, ordered by least vertex."""
    n = len(quiver.vertices)
    edges: dict[tuple[int, int], int] = {}
    adj = {v: set() for v in range(n)}
    for a in quiver.arrows:
        key = (min(a.source, a.target), max(a.source, a.target))
        edges[key] = edges.get(key, 0) + a.mult
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen = set()
    out = []
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        ce = {e: m for e, m in edges.items() if e[0] in comp}
        out.append(_classify_component(comp, ce))
    return out


def is_hereditary(cat: EICategory, prime: SplittingPrime,
                  max_paths: int = DEFAULT_PATH_BOUND) -> bool:
    """Free with all group orders invertible mod p."""
    if any(len(g) % prime.p == 0 for g in cat.groups.values()):
        return False
    return is_free(cat, max_paths)


@dataclass(frozen=True)
class RepTypeVerdict:
    verdict: str    # Finite | Tame | Wild | InfiniteUncertified | Unknown
    certificates: tuple[tuple[str, str], ...]  # (rule, witness)


def _graph_verdict(comps) -> str:
    if all(c.kind == "Dynkin" for c in comps):
        return "Finite"
    if all(c.kind != "Wild" for c in comps):
        return "Tame"
    return "Wild"


def rep_type(cat: EICategory, prime: SplittingPrime | None = None,
             max_paths: int = DEFAULT_PATH_BOUND) -> RepTypeVerdict:
    if prime is None:
        prime = choose_splitting_prime(cat.groups.values())
    hereditary = is_hereditary(cat, prime, max_paths)
    comps = classify_graph(build_quiver(cat, prime))
    names = ", ".join(c.name for c in comps)
    if hereditary:
        return RepTypeVerdict(
            _graph_verdict(comps),
            (("hereditary-graph", f"components: {names}"),))
    if all(c.kind == "Dynkin" for c in comps):
        return RepTypeVerdict(
            "Finite",
            (("finite-cover", f"cover quiver components: {names}"),))
    findings = screen_two_object(cat, prime)
    if findings:
        certs = tuple((rule, f"{pair}: {witness}")
                      for pair, rule, witness in findings)
        return RepTypeVerdict("InfiniteUncertified", certs)
    return RepTypeVerdict("Unknown", ())


# ---------------------------------------------------------------------------
# two-object screens

def screen_two_object(cat: EICategory, prime: SplittingPrime):
    """Infinite-type screens over every connected two-object full
    subcategory.  Returns a list of ((x, y), rule, witness) findings."""
    p = prime.p
    findings = []
    pos = {x: i for i, x in enumerate(cat.objects)}
    for (x, y) in sorted(cat.homs, key=lambda k: (pos[k[0]], pos[k[1]])):
        hs = cat.homs[(x, y)]
        orbits = homset_orbits(hs, range(hs.size))
        if len(orbits) > 1:
            findings.append(((x, y), "multiple-orbits",
                             f"{len(orbits)} biset orbits"))
            continue
        sd = stabilizer_data(cat, MorphId(x, y, orbits[0][0]))
        g_transitive = len(sd.H1) == len(cat.groups[y])
        h_transitive = len(sd.G1) == len(cat.groups[x])
        if not g_transitive and not h_transitive:
            findings.append(((x, y), "both-intransitive",
                             "neither endomorphism group acts transitively"))
            continue
        sides = []
        if h_transitive:   # examine the target-side tower H0 ≤ H1 ≤ H
            sides.append(("target", sd.H0, sd.H1, cat.groups[y]))
        if g_transitive:   # opposite category: source-side tower G0 ≤ G1 ≤ G
            sides.append(("source", sd.G0, sd.G1, cat.groups[x]))
        for side, k0, k1, big in sides:
            sub_table = character_table(k1.as_group(), prime)
            in_k0 = set(k0.member_positions)
            # S is a summand of the induction of k from K0 iff its
            # restriction to K0 contains the trivial module, iff S summed
            # over K0 is nonzero
            on_k0 = sub_table.values[:, [pos in in_k0 for pos in
                                         k1.member_positions]].sum(1) % p
            # mults[s][t] = <T restricted to K1, S>
            mults = restriction_multiplicity(
                character_table(big, prime), k1, sub_table.values, p).T
            for s in range(len(sub_table)):
                if on_k0[s] == 0:
                    continue
                repeated = any(m >= 2 for m in mults[s])
                distinct = sum(1 for m in mults[s] if m)
                if repeated or distinct > 3:
                    why = ("not multiplicity free" if repeated
                           else f"{distinct} distinct summands")
                    findings.append(
                        ((x, y), "induction-decomposition",
                         f"{side} side, summand X{s} of the double-coset "
                         f"induction: {why}"))
                    break
    return findings
