"""The category data model.

A finite EI category is stored as: one permutation group per object
(its endomorphisms), one biset per ordered pair of distinct objects (the
hom-set, with commuting left/right actions of the endpoint groups), and
explicit composition tables for pairs of non-endomorphisms.  Composition
with an endomorphism is always derived from the stored actions, never
duplicated in tables.

Validation is eager and total at load time: every axiom is checked
exhaustively, which is affordable at the scales this tool targets, and
every downstream computation silently assumes the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError, ValidationError, InvariantError
from .permgrp import (GroupIso, Perm, PermGroup, QuotientGroup,
                      SubgroupHandle, enumerate_group, is_int, pidentity,
                      pmul, quotient, word_products)


@dataclass(frozen=True)
class HomSet:
    source: str
    target: str
    size: int
    left_gen: tuple[Perm, ...]    # one permutation per generator of Aut(target)
    right_gen: tuple[Perm, ...]   # one per generator of Aut(source)
    left_elem: tuple[Perm, ...] = field(compare=False, repr=False)
    right_elem: tuple[Perm, ...] = field(compare=False, repr=False)


def make_homset(source: str, target: str, size: int,
                left_gen, right_gen,
                src_group: PermGroup, tgt_group: PermGroup) -> HomSet:
    try:
        left_gen = tuple(tuple(g) for g in left_gen)
        right_gen = tuple(tuple(g) for g in right_gen)
    except TypeError as e:
        raise SchemaError(f"hom {source}->{target}: each action must be a "
                          f"list of integers: {e}") from e
    if not all(is_int(i) for g in left_gen + right_gen for i in g):
        raise SchemaError(f"hom {source}->{target}: each action must be a "
                          "list of integers")
    if len(left_gen) != len(tgt_group.generators):
        raise SchemaError(f"hom {source}->{target}: need one left action per "
                          f"generator of Aut({target})")
    if len(right_gen) != len(src_group.generators):
        raise SchemaError(f"hom {source}->{target}: need one right action per "
                          f"generator of Aut({source})")
    for g in left_gen + right_gen:
        if sorted(g) != list(range(size)):
            raise ValidationError("bad-action",
                                  f"hom {source}->{target}: action is not a "
                                  f"permutation of {size} elements")
    ident = pidentity(size)
    left_elem = word_products(tgt_group, left_gen, ident, pmul)
    right_elem = word_products(src_group, right_gen, ident,
                               lambda acc, g: pmul(g, acc))
    hs = HomSet(source, target, size, left_gen, right_gen, left_elem, right_elem)
    _check_actions(hs, src_group, tgt_group)
    return hs


def _check_actions(hs: HomSet, src_group: PermGroup, tgt_group: PermGroup) -> None:
    ident = pidentity(hs.size)
    # word extension must be independent of the word: compare against every
    # (element, generator) product, which fixes all products by induction
    for k, s in enumerate(tgt_group.generators):
        for e, prod in enumerate(tgt_group.right_products(s).tolist()):
            if hs.left_elem[prod] != pmul(hs.left_elem[e], hs.left_gen[k]):
                raise ValidationError("action-inconsistent",
                                      f"left action on hom {hs.source}->{hs.target} "
                                      "does not respect the group relations")
    for k, s in enumerate(src_group.generators):
        for e, prod in enumerate(src_group.right_products(s).tolist()):
            if hs.right_elem[prod] != pmul(hs.right_gen[k], hs.right_elem[e]):
                raise ValidationError("action-inconsistent",
                                      f"right action on hom {hs.source}->{hs.target} "
                                      "does not respect the group relations")
    if hs.left_elem[tgt_group.identity_pos] != ident or \
       hs.right_elem[src_group.identity_pos] != ident:
        raise ValidationError("identity-law",
                              f"identity does not act trivially on hom "
                              f"{hs.source}->{hs.target}")
    for lg in hs.left_gen:
        for rg in hs.right_gen:
            if pmul(lg, rg) != pmul(rg, lg):
                raise ValidationError("actions-not-commuting",
                                      f"left and right actions on hom "
                                      f"{hs.source}->{hs.target} do not commute")


@dataclass(frozen=True)
class MorphId:
    source: str
    target: str
    index: int   # hom-set index, or group element position for endomorphisms

    @property
    def is_endo(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class EICategory:
    objects: tuple[str, ...]
    groups: dict[str, PermGroup]
    homs: dict[tuple[str, str], HomSet]
    # comp[(x, y, z)][outer][inner] = index in hom(x, z)
    comp: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]]
    topological_order: tuple[str, ...]

    def hom_size(self, x: str, y: str) -> int:
        if x == y:
            return len(self.groups[x])
        hs = self.homs.get((x, y))
        return hs.size if hs else 0

    def morphisms(self) -> list[MorphId]:
        out = []
        for x in self.objects:
            out.extend(MorphId(x, x, i) for i in range(len(self.groups[x])))
        for x in self.objects:
            for y in self.objects:
                if (x, y) in self.homs:
                    out.extend(MorphId(x, y, i)
                               for i in range(self.homs[(x, y)].size))
        return out

    def morphism_count(self) -> int:
        return sum(len(g) for g in self.groups.values()) + \
            sum(h.size for h in self.homs.values())

    def identity(self, x: str) -> MorphId:
        return MorphId(x, x, self.groups[x].identity_pos)


def compose(cat: EICategory, f: MorphId, g: MorphId) -> MorphId:
    """The composite f∘g (g first); raises on a non-composable pair."""
    if f.source != g.target:
        raise ValidationError("non-composable",
                              f"cannot compose {f} after {g}")
    if f.is_endo and g.is_endo:
        return MorphId(f.source, f.target, cat.groups[f.source].mul(f.index, g.index))
    if f.is_endo:
        hs = cat.homs[(g.source, g.target)]
        return MorphId(g.source, g.target, hs.left_elem[f.index][g.index])
    if g.is_endo:
        hs = cat.homs[(f.source, f.target)]
        return MorphId(f.source, f.target, hs.right_elem[g.index][f.index])
    table = cat.comp.get((g.source, g.target, f.target))
    if table is None:
        raise ValidationError("missing-composition",
                              f"no composition table for "
                              f"{g.source}->{g.target}->{f.target}")
    return MorphId(g.source, f.target, table[f.index][g.index])


def _object_order(objects, homs) -> tuple[str, ...]:
    """Topological order of objects along nonempty hom-sets (Kahn)."""
    indeg = {x: 0 for x in objects}
    succ = {x: [] for x in objects}
    for (x, y) in homs:
        succ[x].append(y)
        indeg[y] += 1
    order = []
    ready = [x for x in objects if indeg[x] == 0]
    while ready:
        x = ready.pop(0)
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
    if len(order) != len(objects):
        raise ValidationError("cyclic-objects",
                              "object preorder contains a cycle")
    return tuple(order)


def _check_connected(objects, homs) -> None:
    if not objects:
        raise ValidationError("empty", "category has no objects")
    adj = {x: set() for x in objects}
    for (x, y) in homs:
        adj[x].add(y)
        adj[y].add(x)
    seen = {objects[0]}
    stack = [objects[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(objects):
        raise ValidationError("disconnected",
                              "category is not connected as an object graph")


def validate_category(cat: EICategory) -> None:
    """All axioms: skeletality, connectivity, composition closure,
    identity laws (via actions) and associativity over every composable
    triple of non-endomorphisms mixed with generator endomorphisms."""
    for (x, y) in cat.homs:
        if (y, x) in cat.homs:
            raise ValidationError("hom-both-directions",
                                  f"hom-sets {x}->{y} and {y}->{x} both nonempty")
    _check_connected(cat.objects, cat.homs)

    # every composable pair of homs must have a target hom-set and a table
    for (x, y) in cat.homs:
        for (y2, z) in cat.homs:
            if y2 != y or z == x:
                continue
            if (x, z) not in cat.homs:
                raise ValidationError("composition-not-closed",
                                      f"composable homs {x}->{y}->{z} but "
                                      f"hom {x}->{z} is empty")
            table = cat.comp.get((x, y, z))
            if table is None:
                raise ValidationError("missing-composition",
                                      f"no table for {x}->{y}->{z}")
            outer, inner = cat.homs[(y, z)], cat.homs[(x, y)]
            tgt = cat.homs[(x, z)]
            if len(table) != outer.size or any(len(row) != inner.size for row in table):
                raise SchemaError(f"table {x}->{y}->{z} has wrong shape")
            for row in table:
                for v in row:
                    if not 0 <= v < tgt.size:
                        raise SchemaError(f"table {x}->{y}->{z} entry out of range")

    # tables must commute with the endomorphism actions (associativity of
    # every triple containing an endomorphism reduces to the generator cases)
    for (x, y, z), table in cat.comp.items():
        inner, outer, tgt = cat.homs[(x, y)], cat.homs[(y, z)], cat.homs[(x, z)]
        for b in range(outer.size):
            for a in range(inner.size):
                c = table[b][a]
                for k, act in enumerate(outer.left_gen):
                    if table[act[b]][a] != tgt.left_elem[
                            cat.groups[z].index_of[cat.groups[z].generators[k]]][c]:
                        raise ValidationError(
                            "associativity",
                            f"(h∘β)∘α ≠ h∘(β∘α) for hom chain {x}->{y}->{z}")
                for k, act in enumerate(inner.right_gen):
                    if table[b][act[a]] != tgt.right_elem[
                            cat.groups[x].index_of[cat.groups[x].generators[k]]][c]:
                        raise ValidationError(
                            "associativity",
                            f"(β∘α)∘g ≠ β∘(α∘g) for hom chain {x}->{y}->{z}")
                for k in range(len(cat.groups[y].generators)):
                    gpos = cat.groups[y].index_of[cat.groups[y].generators[k]]
                    if table[outer.right_elem[gpos][b]][a] != \
                            table[b][inner.left_elem[gpos][a]]:
                        raise ValidationError(
                            "associativity",
                            f"(β∘h)∘α ≠ β∘(h∘α) for hom chain {x}->{y}->{z}")

    # associativity over triples of non-endomorphisms
    for (x, y) in cat.homs:
        for (yy, z) in cat.homs:
            if yy != y:
                continue
            for (zz, w) in cat.homs:
                if zz != z:
                    continue
                t_xy_z = cat.comp[(x, y, z)]
                t_yz_w = cat.comp[(y, z, w)]
                t_xz_w = cat.comp[(x, z, w)]
                t_xy_w = cat.comp[(x, y, w)]
                for c in range(cat.homs[(z, w)].size):
                    for b in range(cat.homs[(y, z)].size):
                        cb = t_yz_w[c][b]
                        for a in range(cat.homs[(x, y)].size):
                            if t_xz_w[c][t_xy_z[b][a]] != t_xy_w[cb][a]:
                                raise ValidationError(
                                    "associativity",
                                    f"γ∘(β∘α) ≠ (γ∘β)∘α on chain "
                                    f"{x}->{y}->{z}->{w} at ({c},{b},{a})")


def load_category(document: dict, max_group: int = 10000,
                  max_paths: int = 100000) -> EICategory:
    """Build and fully validate a category from its JSON document."""
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    mode = document.get("mode", "explicit")
    if mode not in ("explicit", "ei-quiver"):
        raise SchemaError(f"unknown mode {mode!r}")
    objs = document.get("objects")
    if not isinstance(objs, list) or not objs:
        raise SchemaError("missing or empty 'objects' array")
    objects: list[str] = []
    groups: dict[str, PermGroup] = {}
    for spec in objs:
        try:
            oid = str(spec["id"])
            degree = spec["degree"]
            if not is_int(degree):
                raise TypeError(f"degree {degree!r} is not an integer")
            gens = list(spec.get("generators", []))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad object entry: {e}") from e
        if oid in groups:
            raise SchemaError(f"duplicate object id {oid!r}")
        try:
            groups[oid] = enumerate_group(degree, gens, bound=max_group)
        except ValueError as e:
            raise ValidationError("bad-group", str(e)) from e
        objects.append(oid)

    homspecs = document.get("homs", [])
    if not isinstance(homspecs, list):
        raise SchemaError("'homs' must be an array")

    if mode == "ei-quiver":
        from .freecover import build_ei_quiver_input, generate_free_category
        quiv = build_ei_quiver_input(objects, groups, homspecs)
        return generate_free_category(quiv, max_paths=max_paths)

    homs: dict[tuple[str, str], HomSet] = {}
    for hspec in homspecs:
        try:
            x, y = str(hspec["from"]), str(hspec["to"])
            size = hspec["size"]
            if not is_int(size):
                raise TypeError(f"size {size!r} is not an integer")
            lga = hspec.get("left_action", [])
            rga = hspec.get("right_action", [])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad hom entry: {e}") from e
        if x not in groups or y not in groups:
            raise SchemaError(f"hom references unknown object {x!r} or {y!r}")
        if x == y:
            raise ValidationError("endo-hom",
                                  "endomorphisms are given by the object group, "
                                  "not a hom entry")
        if (x, y) in homs:
            raise SchemaError(f"duplicate hom entry {x}->{y}")
        if size > 0:
            homs[(x, y)] = make_homset(x, y, size, lga, rga, groups[x], groups[y])

    comp: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]] = {}
    compspecs = document.get("compositions", [])
    if not isinstance(compspecs, list):
        raise SchemaError("'compositions' must be an array")
    for cspec in compspecs:
        try:
            outer, inner = cspec["outer"], cspec["inner"]
            if not (isinstance(outer, list) and isinstance(inner, list)):
                raise TypeError("outer and inner must be [from, to] lists")
            ox, oy = map(str, outer)
            ix, iy = map(str, inner)
            table = tuple(tuple(row) for row in cspec["table"])
            if not all(is_int(v) for row in table for v in row):
                raise TypeError("table entries must be integers")
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad composition entry: {e}") from e
        if iy != ox:
            raise SchemaError("composition inner target must equal outer source")
        key = (ix, ox, oy)
        if key in comp:
            raise SchemaError(f"duplicate composition table for {key}")
        comp[key] = table

    # report two-way hom pairs as the skeletality violation they are,
    # rather than as the object cycle they induce
    for (x, y) in homs:
        if (y, x) in homs:
            raise ValidationError("hom-both-directions",
                                  f"hom sets {x}->{y} and {y}->{x} are "
                                  "both nonempty")
    # after the two-way check: over a two-way pair, a table x->y->x names
    # the absent hom x->x
    for (x, y, z) in comp:
        for a, b in ((x, y), (y, z), (x, z)):
            if (a, b) not in homs:
                raise SchemaError(f"composition table {x}->{y}->{z} names "
                                  f"the empty hom {a}->{b}")
    topo = _object_order(tuple(objects), homs)
    cat = EICategory(tuple(objects), groups, homs, comp, topo)
    validate_category(cat)
    return cat


# ---------------------------------------------------------------------------
# unfactorizable morphisms, orbits, stabilizer data

def unfactorizables(cat: EICategory) -> dict[tuple[str, str], tuple[int, ...]]:
    """Per ordered pair, the hom indices that are composites of no two
    non-isomorphisms."""
    out = {}
    for (x, y), hs in cat.homs.items():
        factorizable = set()
        for z in cat.objects:
            if z in (x, y):
                continue
            if (x, z) in cat.homs and (z, y) in cat.homs:
                table = cat.comp[(x, z, y)]
                for b in range(cat.homs[(z, y)].size):
                    factorizable.update(table[b])
        out[(x, y)] = tuple(i for i in range(hs.size) if i not in factorizable)
    return out


def homset_orbits(hs: HomSet, indices) -> list[tuple[int, ...]]:
    """The two-sided orbits meeting the given hom indices, each sorted,
    in order of least member."""
    gens = hs.left_gen + hs.right_gen
    remaining = set(indices)
    out = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for perm in gens:
                j = perm[i]
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        remaining -= seen
        out.append(tuple(sorted(seen)))
    return out


def orbit_representatives(cat: EICategory) -> list[tuple[MorphId, tuple[int, ...]]]:
    """One (representative, orbit) per two-sided orbit of unfactorizables,
    in deterministic (source, target, least-index) order."""
    unfact = unfactorizables(cat)
    out = []
    pos = {x: i for i, x in enumerate(cat.objects)}
    for (x, y) in sorted(cat.homs, key=lambda k: (pos[k[0]], pos[k[1]])):
        mine = set(unfact[(x, y)])
        for orb in homset_orbits(cat.homs[(x, y)], mine):
            if not set(orb) <= mine:
                raise InvariantError(
                    "orbit of an unfactorizable leaves the unfactorizable set")
            out.append((MorphId(x, y, orb[0]), orb))
    return out


@dataclass(frozen=True)
class StabilizerData:
    alpha: MorphId
    G0: SubgroupHandle
    G1: SubgroupHandle
    H0: SubgroupHandle
    H1: SubgroupHandle
    quotG: QuotientGroup
    quotH: QuotientGroup
    phi: GroupIso           # quotG -> quotH


def _assert_closed(g: PermGroup, members: tuple[int, ...], what: str) -> None:
    s = set(members)
    js = list(members)
    for a in members:
        if g.inv(a) not in s:
            raise InvariantError(f"{what} not closed under inverse")
        if not s.issuperset(g.left_products(a, js).tolist()):
            raise InvariantError(f"{what} not closed under product")


def stabilizer_data(cat: EICategory, alpha: MorphId) -> StabilizerData:
    """Pointwise and orbit-wise stabilizers of alpha, with the canonical
    quotient isomorphism solving alpha∘g = h∘alpha."""
    hs = cat.homs[(alpha.source, alpha.target)]
    G = cat.groups[alpha.source]
    H = cat.groups[alpha.target]
    a = alpha.index
    g0 = tuple(g for g in range(len(G)) if hs.right_elem[g][a] == a)
    h0 = tuple(h for h in range(len(H)) if hs.left_elem[h][a] == a)
    h_orbit = {hs.left_elem[h][a] for h in range(len(H))}
    g_orbit = {hs.right_elem[g][a] for g in range(len(G))}
    g1 = tuple(g for g in range(len(G)) if hs.right_elem[g][a] in h_orbit)
    h1 = tuple(h for h in range(len(H)) if hs.left_elem[h][a] in g_orbit)
    for grp, members, name in ((G, g0, "G0"), (G, g1, "G1"),
                               (H, h0, "H0"), (H, h1, "H1")):
        _assert_closed(grp, members, name)
    G0, G1 = SubgroupHandle(G, g0), SubgroupHandle(G, g1)
    H0, H1 = SubgroupHandle(H, h0), SubgroupHandle(H, h1)
    quotG = quotient(G1, G0)
    quotH = quotient(H1, H0)
    if len(quotG) != len(quotH):
        raise InvariantError("quotient orders |G1|/|G0| and |H1|/|H0| differ")

    mapping = [-1] * len(quotG)
    for ci, coset in enumerate(quotG.cosets):
        g = coset[0]
        target_idx = hs.right_elem[g][a]
        h = next(h for h in h1 if hs.left_elem[h][a] == target_idx)
        mapping[ci] = quotH.projection[h]
    phi = GroupIso(quotG, quotH, tuple(mapping))
    phi.validate()
    # every g in G1 must match phi on its full coset
    for g in g1:
        target_idx = hs.right_elem[g][a]
        hset = {quotH.projection[h] for h in h1 if hs.left_elem[h][a] == target_idx}
        if hset != {phi(quotG.projection[g])}:
            raise InvariantError("quotient isomorphism disagrees with the biset")
    return StabilizerData(alpha, G0, G1, H0, H1, quotG, quotH, phi)


# ---------------------------------------------------------------------------
# the finite EI quiver of a category

@dataclass(frozen=True)
class ArrowBiset:
    source: str
    target: str
    size: int
    left_gen: tuple[Perm, ...]
    right_gen: tuple[Perm, ...]
    # provenance inside the originating category, when extracted from one
    orbit: tuple[int, ...] | None = None


@dataclass(frozen=True)
class EIQuiverData:
    objects: tuple[str, ...]
    groups: dict[str, PermGroup]
    arrows: tuple[ArrowBiset, ...]


def ei_quiver_of(cat: EICategory) -> EIQuiverData:
    """Vertices are the objects with their groups; one arrow per two-sided
    orbit of unfactorizables, carrying the orbit as a biset."""
    arrows = []
    for rep, orb in orbit_representatives(cat):
        hs = cat.homs[(rep.source, rep.target)]
        posmap = {m: i for i, m in enumerate(orb)}
        left = tuple(tuple(posmap[perm[m]] for m in orb) for perm in hs.left_gen)
        right = tuple(tuple(posmap[perm[m]] for m in orb) for perm in hs.right_gen)
        arrows.append(ArrowBiset(rep.source, rep.target, len(orb), left, right, orb))
    return EIQuiverData(cat.objects, dict(cat.groups), tuple(arrows))
