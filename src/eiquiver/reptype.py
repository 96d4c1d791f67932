"""Representation type: ADE/affine graph recognition, the hereditary
criterion, and the two-object screening rules for non-free categories.

The certified branch: the algebra is hereditary exactly when the
category is free (unique factorization, freecover.is_free) with
invertible group orders, and its type is then read off the underlying
multigraph of the quiver (Dynkin = finite, Euclidean = tame, anything
else = wild).  Each connected component is named by one rule: a
tree with one branch vertex (degree above 2) by its sorted arm lengths,
(1, 1, k) being D_n and one table (_ARMS) naming E6, E7, E8, ~D4, ~E6,
~E7 and ~E8, any other key wild; the verdict is read off the set of
component kinds.  For non-free categories only two certificates exist:
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
    """Sorted lengths of the dangling paths from a branch vertex of a
    tree."""
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
    return tuple(sorted(out))


# Every tree with one branch vertex that is neither D_n nor wild, by its
# sorted arm lengths.
_ARMS = {(1, 1, 1, 1): ("Euclidean", "~D4"), (1, 2, 2): ("Dynkin", "E6"),
         (1, 2, 3): ("Dynkin", "E7"), (1, 2, 4): ("Dynkin", "E8"),
         (2, 2, 2): ("Euclidean", "~E6"), (1, 3, 3): ("Euclidean", "~E7"),
         (1, 2, 5): ("Euclidean", "~E8")}


def _graph_type(n, edges):
    """(kind, name) of a connected multigraph on n vertices, edges a
    dict over unordered vertex pairs -> multiplicity, or None when it is
    wild.  A branch vertex has degree above 2."""
    if any(a == b for a, b in edges):
        return None
    if any(m > 1 for m in edges.values()):
        return ("Euclidean", "~A1") if sum(edges.values()) == n == 2 else None
    adj = {v: [] for e in edges for v in e}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    branch = [v for v in adj if len(adj[v]) > 2]
    if len(edges) >= n:
        return None if branch or len(edges) > n else ("Euclidean", f"~A{n - 1}")
    if not branch:
        return "Dynkin", f"A{n}"
    if len(branch) == 1:
        arms = _branch_lengths(adj, branch[0])
        return ("Dynkin", f"D{n}") if arms[:-1] == (1, 1) else _ARMS.get(arms)
    if len(branch) == 2 and all(len(adj[v]) == 3 and sum(
            len(adj[u]) == 1 for u in adj[v]) == 2 for v in branch):
        return "Euclidean", f"~D{n - 1}"
    return None


def classify_graph(quiver: BuiltQuiver) -> list[GraphComponent]:
    """Classification of the underlying undirected multigraph, one entry
    per connected component (eicat.components), ordered by least
    vertex."""
    edges: dict[tuple[int, int], int] = {}
    for a in quiver.arrows:
        key = (min(a.source, a.target), max(a.source, a.target))
        edges[key] = edges.get(key, 0) + a.mult
    out = []
    for comp in components(range(len(quiver.vertices)), edges):
        own = {e: m for e, m in edges.items() if e[0] in comp}
        kind, name = _graph_type(len(comp), own) or ("Wild", "wild")
        out.append(GraphComponent(kind, name, tuple(sorted(comp))))
    return out


def is_hereditary(cat: EICategory, prime: SplittingPrime) -> bool:
    """Free (is_free) with all group orders invertible mod p."""
    if any(len(g) % prime.p == 0 for g in cat.groups.values()):
        return False
    return is_free(cat)


@dataclass(frozen=True)
class RepTypeVerdict:
    verdict: str    # Finite | Tame | Wild | InfiniteUncertified | Unknown
    certificates: tuple[tuple[str, str], ...]  # (rule, witness)


def rep_type(cat: EICategory, prime: SplittingPrime) -> RepTypeVerdict:
    """The representation-type verdict with its certificates over F_p,
    p a prime certified for the category's groups.  Freeness comes from
    is_free and the graph from the category's own quiver, so no free
    cover is built."""
    hereditary = is_hereditary(cat, prime)
    comps = classify_graph(build_quiver(cat, prime))
    names = ", ".join(c.name for c in comps)
    kinds = {c.kind for c in comps}
    if hereditary:
        return RepTypeVerdict(
            "Wild" if "Wild" in kinds else
            "Tame" if "Euclidean" in kinds else "Finite",
            (("hereditary-graph", f"components: {names}"),))
    if kinds <= {"Dynkin"}:
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
