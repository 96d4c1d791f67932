"""The ordinary quiver of a category algebra.

Vertices are pairs (object, irreducible character of its automorphism
group).  For each two-sided orbit of unfactorizable morphisms, with
stabilizer quotients G1/G0 ≅ H1/H0, the number of arrows from (x, V) to
(y, W) contributed by the orbit is

    Σ_U  ⟨V↓G1, infl U⟩ · ⟨W↓H1, infl U⟩

summed over the irreducibles U of G1/G0.  H1/H0 is numbered through the
biset on G1/G0's cosets (eicat.stabilizer_data), so one U inflates to
both sides.  Each orbit takes two products: the matrix of
⟨V↓G1, infl U⟩ over every (V, U), and that of ⟨W↓H1, infl U⟩ over every
(W, U).  All multiplicities are exact integers recovered from F_p inner
products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import (CharTable, SplittingPrime, character_table,
                      choose_splitting_prime, inflate,
                      restriction_multiplicity)
from .eicat import EICategory, MorphId, StabilizerData, orbit_representatives, \
    stabilizer_data
from .errors import InvariantError


@dataclass(frozen=True)
class QuiverVertex:
    object: str
    irr: int          # row index in the object's character table
    dim: int

    @property
    def label(self) -> str:
        return f"{self.object}:X{self.irr}"


@dataclass(frozen=True)
class ArrowUnit:
    """One summand of an arrow count: orbit `rep_index`, quotient
    irreducible `u`, with restriction multiplicities e and f."""
    rep_index: int
    u: int
    e: int
    f: int


@dataclass(frozen=True)
class QuiverArrow:
    source: int       # vertex indices
    target: int
    mult: int
    units: tuple[ArrowUnit, ...]


@dataclass(frozen=True)
class OrbitData:
    rep: MorphId
    orbit: tuple[int, ...]
    stab: StabilizerData
    quotient_table: CharTable


@dataclass(frozen=True)
class BuiltQuiver:
    cat: EICategory
    prime: SplittingPrime
    tables: dict[str, CharTable]
    vertices: tuple[QuiverVertex, ...]
    vertex_index: dict[tuple[str, int], int]
    arrows: tuple[QuiverArrow, ...]
    orbits: tuple[OrbitData, ...]

    def mult_map(self) -> dict[tuple[tuple[str, int], tuple[str, int]], int]:
        out = {}
        for a in self.arrows:
            s, t = self.vertices[a.source], self.vertices[a.target]
            out[((s.object, s.irr), (t.object, t.irr))] = a.mult
        return out


def build_quiver(cat: EICategory, prime: SplittingPrime | None = None) -> BuiltQuiver:
    """The quiver over F_p (by default the least splitting prime), built
    once per prime while any caller holds it, through the category's
    memo (weakly, as the quiver refers back to the category)."""
    if prime is None:
        prime = choose_splitting_prime(cat.groups.values())
    return cat.memo(("quiver", prime), lambda: _build_quiver(cat, prime),
                    weak=True)


def _build_quiver(cat: EICategory, prime: SplittingPrime) -> BuiltQuiver:
    p = prime.p
    tables = {x: character_table(cat.groups[x], prime) for x in cat.objects}

    vertices: list[QuiverVertex] = []
    vertex_index: dict[tuple[str, int], int] = {}
    for x in cat.objects:
        for i, d in enumerate(tables[x].dims):
            vertex_index[(x, i)] = len(vertices)
            vertices.append(QuiverVertex(x, i, d))

    orbits: list[OrbitData] = []
    counts: dict[tuple[int, int], list[ArrowUnit]] = {}
    for ridx, (rep, orb) in enumerate(orbit_representatives(cat)):
        sd = stabilizer_data(cat, rep)
        qtable = character_table(sd.quotG.as_group(), prime)
        orbits.append(OrbitData(rep, orb, sd, qtable))
        x, y = rep.source, rep.target
        # es[u][v] = ⟨V↓G1, infl U⟩ and fs[u][w] = ⟨W↓H1, infl U⟩
        es = restriction_multiplicity(tables[x], sd.G1,
                                      inflate(qtable, sd.quotG), p).T.tolist()
        fs = restriction_multiplicity(tables[y], sd.H1,
                                      inflate(qtable, sd.quotH), p).T.tolist()
        for u in range(len(qtable)):
            for v, e in enumerate(es[u]):
                if e == 0:
                    continue
                for w, f in enumerate(fs[u]):
                    if f == 0:
                        continue
                    key = (vertex_index[(x, v)], vertex_index[(y, w)])
                    counts.setdefault(key, []).append(ArrowUnit(ridx, u, e, f))

    arrows = tuple(
        QuiverArrow(s, t, sum(un.e * un.f for un in units), tuple(units))
        for (s, t), units in sorted(counts.items())
    )
    built = BuiltQuiver(cat, prime, tables, tuple(vertices), vertex_index,
                        arrows, tuple(orbits))
    assert_acyclic(built)
    return built


def assert_acyclic(q: BuiltQuiver) -> None:
    """Every arrow must point strictly forward in the object order."""
    pos = {x: i for i, x in enumerate(q.cat.topological_order)}
    for a in q.arrows:
        s, t = q.vertices[a.source], q.vertices[a.target]
        if s.object == t.object or pos[s.object] >= pos[t.object]:
            raise InvariantError(
                f"arrow {s.label} -> {t.label} is not forward in the object "
                "order; the quiver of an EI category algebra must be acyclic")


def assert_embedded_ei_quiver(q: BuiltQuiver) -> None:
    """The trivial-character vertices reproduce the EI quiver: each orbit
    contributes exactly one trivial->trivial arrow via the trivial U."""
    for ridx, od in enumerate(q.orbits):
        x, y = od.rep.source, od.rep.target
        seen = 0
        for a in q.arrows:
            s, t = q.vertices[a.source], q.vertices[a.target]
            if (s.object, s.irr, t.object, t.irr) != (x, 0, y, 0):
                continue
            for un in a.units:
                if un.rep_index == ridx and un.u == 0:
                    if un.e != 1 or un.f != 1:
                        raise InvariantError(
                            "trivial-character multiplicities must be 1")
                    seen += 1
        if seen != 1:
            raise InvariantError(
                f"orbit {ridx} does not contribute exactly one arrow "
                "between trivial-character vertices")


def quivers_equal(a: BuiltQuiver, b: BuiltQuiver) -> bool:
    """Same vertex set (object, irreducible, dim) and multiplicity map."""
    va = [(v.object, v.irr, v.dim) for v in a.vertices]
    vb = [(v.object, v.irr, v.dim) for v in b.vertices]
    return va == vb and a.mult_map() == b.mult_map()


# ---------------------------------------------------------------------------
# serialization

def quiver_document(q: BuiltQuiver) -> dict:
    verts = [{"object": v.object, "irreducible": v.irr, "dim": v.dim}
             for v in q.vertices]
    arrows = []
    for a in q.arrows:
        prov = [{"orbit": un.rep_index,
                 "rep": [q.orbits[un.rep_index].rep.source,
                         q.orbits[un.rep_index].rep.target,
                         q.orbits[un.rep_index].rep.index],
                 "quotient_irreducible": un.u,
                 "e": un.e, "f": un.f} for un in a.units]
        arrows.append({"from": a.source, "to": a.target, "mult": a.mult,
                       "provenance": prov})
    return {"prime": q.prime.p, "vertices": verts, "arrows": arrows}


def quiver_dot(q: BuiltQuiver) -> str:
    lines = ["digraph quiver {"]
    for i, v in enumerate(q.vertices):
        lines.append(f'  v{i} [label="{v.label} (dim {v.dim})"];')
    # one edge per multiplicity unit, so parallel arrows are visible
    for a in q.arrows:
        lines.extend(f"  v{a.source} -> v{a.target};" for _ in range(a.mult))
    lines.append("}")
    return "\n".join(lines)
