"""The ordinary quiver of a category algebra.

Vertices are pairs (object, irreducible character of its automorphism
group).  For each two-sided orbit of unfactorizable morphisms, with
stabilizer quotients G1/G0 ≅ H1/H0, the number of arrows from (x, V) to
(y, W) contributed by the orbit is

    Σ_U  ⟨V↓G1, infl U⟩ · ⟨W↓H1, infl U⟩

summed over the irreducibles U of G1/G0.  H1/H0 is numbered through the
biset on G1/G0's cosets (eicat.stabilizer_data), so one U inflates to
both sides.

orbit_data is the one routine for an orbit's data: its stabilizer
data, the table of G1/G0, and the matrices e of ⟨V↓G1, infl U⟩ over
every (U, V) and f of ⟨W↓H1, infl U⟩ over every (U, W), two products.
All multiplicities are exact integers recovered from F_p inner
products.  It runs once per (orbit, prime), through the category's
memo; OrbitData refers to no category, so the memo holds it.  The
quiver, the two-object screens (reptype) and the functor's κ and μ
bases (morita) all read it.  build_quiver keeps no memo: it assembles
the vertices and arrows from orbit_data on every call, checks that
arrows point forward (assert_acyclic), and orbit_data checks that
e = f = 1 at the trivial U, V and W, so each orbit gives one
x:X0 -> y:X0 unit: the embedded EI quiver.
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
    """One two-sided orbit of unfactorizables: its representative, its
    stabilizer data, the table of G1/G0 and the multiplicities
    e[u][v] = ⟨V↓G1, infl U⟩ and f[u][w] = ⟨W↓H1, infl U⟩."""
    rep: MorphId
    stab: StabilizerData
    quotient_table: CharTable
    e: tuple[tuple[int, ...], ...]
    f: tuple[tuple[int, ...], ...]


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


def orbit_data(cat: EICategory, rep: MorphId,
               prime: SplittingPrime) -> OrbitData:
    """The data of rep's two-sided orbit over F_p; once per (rep, prime),
    through the category's memo."""
    return cat.memo(("orbit", rep, prime), lambda: _orbit_data(cat, rep, prime))


def _orbit_data(cat: EICategory, rep: MorphId,
                prime: SplittingPrime) -> OrbitData:
    sd = stabilizer_data(cat, rep)
    qtable = character_table(sd.quotG.as_group(), prime)
    tx = character_table(cat.groups[rep.source], prime)
    ty = character_table(cat.groups[rep.target], prime)
    es = tuple(map(tuple, restriction_multiplicity(
        tx, sd.G1, inflate(qtable, sd.quotG)).T.tolist()))
    fs = tuple(map(tuple, restriction_multiplicity(
        ty, sd.H1, inflate(qtable, sd.quotH)).T.tolist()))
    # the embedded EI quiver: the trivial U gives one x:X0 -> y:X0 unit
    if es[0][0] != 1 or fs[0][0] != 1:
        raise InvariantError(
            f"the orbit of {rep.source}->{rep.target}[{rep.index}] does not "
            "contribute exactly one arrow between trivial-character vertices")
    return OrbitData(rep, sd, qtable, es, fs)


def build_quiver(cat: EICategory, prime: SplittingPrime | None = None) -> BuiltQuiver:
    """The quiver over F_p (by default the least splitting prime),
    assembled from each orbit's orbit_data on every call."""
    if prime is None:
        prime = choose_splitting_prime(cat.groups.values())
    tables = {x: character_table(cat.groups[x], prime) for x in cat.objects}

    vertices: list[QuiverVertex] = []
    vertex_index: dict[tuple[str, int], int] = {}
    for x in cat.objects:
        for i, d in enumerate(tables[x].dims):
            vertex_index[(x, i)] = len(vertices)
            vertices.append(QuiverVertex(x, i, d))

    orbits = tuple(orbit_data(cat, rep, prime)
                   for rep, _ in orbit_representatives(cat))
    counts: dict[tuple[int, int], list[ArrowUnit]] = {}
    for ridx, od in enumerate(orbits):
        x, y = od.rep.source, od.rep.target
        for u in range(len(od.quotient_table)):
            for v, e in enumerate(od.e[u]):
                if e == 0:
                    continue
                for w, f in enumerate(od.f[u]):
                    if f == 0:
                        continue
                    key = (vertex_index[(x, v)], vertex_index[(y, w)])
                    counts.setdefault(key, []).append(ArrowUnit(ridx, u, e, f))

    arrows = tuple(
        QuiverArrow(s, t, sum(un.e * un.f for un in units), tuple(units))
        for (s, t), units in sorted(counts.items())
    )
    built = BuiltQuiver(cat, prime, tables, tuple(vertices), vertex_index,
                        arrows, orbits)
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
        # a DOT quoted string escapes its backslashes and quotes
        label = v.label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{i} [label="{label} (dim {v.dim})"];')
    # one edge per multiplicity unit, so parallel arrows are visible
    for a in q.arrows:
        lines.extend(f"  v{a.source} -> v{a.target};" for _ in range(a.mult))
    lines.append("}")
    return "\n".join(lines)
