"""Representation type: ADE/affine graph recognition, the hereditary
criterion, and the two-object screening rules for non-free categories.

The certified branch: the algebra is hereditary exactly when the
category is free (unique factorization, freecover.is_free) with
invertible group orders, and its type is then read off the underlying
multigraph of the quiver (Dynkin = finite, Euclidean = tame, anything
else = wild).  For non-free categories only two certificates exist:
finite type when the free cover's quiver is all-Dynkin, and infinite
type when a two-object screen fires; tame-vs-wild is never claimed
there.  The free cover has the category's own unfactorizable
bisets, so its quiver is the category's quiver, and the finite-cover
rule reads that one without building the cover.

The screens read each hom-set's orbit through quiveralg.orbit_data, so
an orbit the quiver has is derived once for both.  A screen row is an
irreducible S of K1 (G1 or H1) whose restriction to K0 (G0 or H0)
contains the trivial module.  K0 is normal in K1, so by Clifford's
theorem K0 then acts trivially on S: S is infl U for an irreducible U
of K1/K0, and its multiplicities ⟨T↓K1, S⟩ over the irreducibles T of
the object's group are U's row of e (K1 = G1) or of f (K1 = H1).  The
witness "summand X{i}" numbers U among the quotient's irreducibles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import SplittingPrime
from .eicat import EICategory, MorphId, components, homset_orbits
from .freecover import is_free
from .quiveralg import BuiltQuiver, build_quiver, orbit_data


@dataclass(frozen=True)
class GraphComponent:
    kind: str            # "Dynkin" | "Euclidean" | "Wild"
    name: str            # e.g. "A5", "~E7", "wild"
    vertices: tuple[int, ...]


def _branch_lengths(adj, center):
    """Lengths of the dangling paths from a branch vertex of a tree."""
    out = []
    for nb in adj[center]:
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
    per connected component (eicat.components), ordered by least
    vertex."""
    edges: dict[tuple[int, int], int] = {}
    for a in quiver.arrows:
        key = (min(a.source, a.target), max(a.source, a.target))
        edges[key] = edges.get(key, 0) + a.mult
    return [_classify_component(comp, {e: m for e, m in edges.items()
                                       if e[0] in comp})
            for comp in components(range(len(quiver.vertices)), edges)]


def is_hereditary(cat: EICategory, prime: SplittingPrime) -> bool:
    """Free (is_free) with all group orders invertible mod p."""
    if any(len(g) % prime.p == 0 for g in cat.groups.values()):
        return False
    return is_free(cat)


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


def rep_type(cat: EICategory, prime: SplittingPrime) -> RepTypeVerdict:
    """The representation-type verdict with its certificates over F_p,
    p a prime certified for the category's groups.  Freeness comes from
    is_free and the graph from the category's own quiver, so no free
    cover is built."""
    hereditary = is_hereditary(cat, prime)
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
    findings = []
    pos = {x: i for i, x in enumerate(cat.objects)}
    for (x, y) in sorted(cat.homs, key=lambda k: (pos[k[0]], pos[k[1]])):
        hs = cat.homs[(x, y)]
        orbits = homset_orbits(hs, range(hs.size))
        if len(orbits) > 1:
            findings.append(((x, y), "multiple-orbits",
                             f"{len(orbits)} biset orbits"))
            continue
        od = orbit_data(cat, MorphId(x, y, orbits[0][0]), prime)
        g_transitive = len(od.stab.H1) == len(cat.groups[y])
        h_transitive = len(od.stab.G1) == len(cat.groups[x])
        if not g_transitive and not h_transitive:
            findings.append(((x, y), "both-intransitive",
                             "neither endomorphism group acts transitively"))
            continue
        sides = []
        if h_transitive:   # examine the target-side tower H0 ≤ H1 ≤ H
            sides.append(("target", od.f))
        if g_transitive:   # opposite category: source-side tower G0 ≤ G1 ≤ G
            sides.append(("source", od.e))
        for side, mults in sides:
            # mults[u][t] = <T restricted to K1, infl U>: the summands of
            # the induction of k from K0 are the inflated U (see above)
            for u, row in enumerate(mults):
                repeated = any(m >= 2 for m in row)
                distinct = sum(1 for m in row if m)
                if repeated or distinct > 3:
                    why = ("not multiplicity free" if repeated
                           else f"{distinct} distinct summands")
                    findings.append(
                        ((x, y), "induction-decomposition",
                         f"{side} side, summand X{u} of the double-coset "
                         f"induction: {why}"))
                    break
    return findings
