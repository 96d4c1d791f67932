"""The category data model.

A finite EI category is stored as: one permutation group per object
(its endomorphisms), one biset per ordered pair of distinct objects (the
hom-set, with commuting left/right actions of the endpoint groups), and
explicit composition tables for pairs of non-endomorphisms.  Composition
with an endomorphism is always derived from the stored actions, never
duplicated in tables.

This module owns the whole category document.  load_category reads the
`homs` entries of both modes in one loop: each is a biset (from, to,
size, left_action, right_action), with one parse, one unknown-object
check, one size check and one make_homset, and then each mode applies
its own rules.  An explicit hom may not be a loop (endo-hom) or repeat
a pair, and a size of 0 is an empty hom; an ei-quiver arrow may not be
a loop (arrow-loop), has a size of at least 1, and parallel arrows are
kept as ArrowBisets in document order, for
freecover.generate_free_category.

An explicit document is validated eagerly and totally at load time:
every axiom is checked exhaustively, which is affordable at the scales
this tool targets, and every downstream computation silently assumes the
axioms.  A category generated from an EI quiver (freecover) satisfies
them by construction.  Its load checks only that it is connected, and
its composition tables are built on the first read of `comp`, by the
commands that read tables; the tests check the construction's tables
against validate_category.  Both loads find connectivity with
components, the package's one connected-components search, which
reptype.classify_graph runs on the quiver's underlying graph.

A category is immutable once loaded, so what is derived from it is
derived once: `EICategory.memo`, one store, keeps per category its
composition tables (`comp`, made by its `tables` function), their index
(incoming_tables), its unfactorizables, its orbit representatives, its
freeness and free cover per path bound (freecover), and each arrow
orbit's data per splitting prime (quiveralg.orbit_data, which holds the
orbit's stabilizer data).  No value refers back to its category, so
nothing derived makes a reference cycle.  A generated category's memo
starts with what its construction knows: its unfactorizables, its
freeness and its own free cover.  Every caller shares the one cached
object and must not modify it.  A build that raises caches nothing, so
the next call raises again.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import SchemaError, ValidationError, InvariantError
from .permgrp import (DEFAULT_SIZE_BOUND, Perm, PermGroup, QuotientGroup,
                      SubgroupHandle, enumerate_group, is_int, memo,
                      orbit_members, orbits, pidentity, pmul, quotient,
                      respects_relations, word_products)


# The largest permutation degree, hom size or arrow size a document may
# declare.  A group without generators, or a hom between two such groups,
# carries that number in no list of the document, so it is checked
# before anything is built from it.
MAX_POINTS = 100000

# The default bound on a free category's paths and path bisets (freecover)
DEFAULT_PATH_BOUND = 100000

# The entry budget: the most entries one int table sized by the input
# may hold, checked by check_entries before the table is allocated.  Its
# tables are a hom's left_elem and right_elem (make_homset), |G|·size
# per side; a character table's values (chartab), classes times |G|; a
# representation's element matrices, |G_x|·dim^2 per object, and its
# morphism matrices, sum |hom(x, y)|·dim y·dim x over the hom-sets
# (morita.check_rep_sizes).  The document's generators bound none of them.
MAX_ELEMENT_ENTRIES = 1 << 22

# The most entries one batched product holds: associativity over chains
# (validate_category), morita's retraction and build_catrep's products and
# the oracle's fixed-point counts are taken in chunks (chunks) of at most
# this many entries, or of one item where one item holds more, never as
# one whole array.
CLOSURE_CHUNK = 1 << 16


def check_points(n: int, what: str) -> None:
    """Reject a declared degree or size above MAX_POINTS."""
    if n > MAX_POINTS:
        raise ValidationError("too-large", f"{what} {n} exceeds {MAX_POINTS}")


def check_entries(n: int, what: str) -> None:
    """Reject a table, named by what, of n entries above
    MAX_ELEMENT_ENTRIES, before it is allocated."""
    if n > MAX_ELEMENT_ENTRIES:
        raise ValidationError("too-large", f"{what} needs {n} entries, more "
                              f"than {MAX_ELEMENT_ENTRIES}")


def chunks(n: int, each: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at most
    max(1, CLOSURE_CHUNK // each) items of each entries: the one chunk
    rule of every batched product.  CLOSURE_CHUNK is read at the call."""
    step = max(1, CLOSURE_CHUNK // each)
    return [slice(i, i + step) for i in range(0, n, step)]


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
    order = max(len(src_group), len(tgt_group))
    check_entries(order * size, f"hom {source}->{target}: a group of order "
                  f"{order} acting on {size} elements")
    hom = f"{source}->{target}"
    left_elem = _element_actions(hom, "left", tgt_group, size, left_gen, pmul)
    right_elem = _element_actions(hom, "right", src_group, size, right_gen,
                                  _right_pmul)
    if any(pmul(lg, rg) != pmul(rg, lg)
           for lg, rg in product(left_gen, right_gen)):
        raise ValidationError("actions-not-commuting",
                              f"left and right actions on hom {hom} do not "
                              "commute")
    return HomSet(source, target, size, left_gen, right_gen, left_elem,
                  right_elem)


def _right_pmul(acc: Perm, g: Perm) -> Perm:
    """A right action's product: the action of a*b is b's after a's."""
    return pmul(g, acc)


def _element_actions(hom: str, side: str, group: PermGroup, size: int,
                     gens: tuple[Perm, ...], mul) -> tuple[Perm, ...]:
    """Every element's action on one side of a hom, from its generators'
    (word_products), or action-inconsistent unless they respect the
    group's relations.  The identity's word is empty, so it acts
    trivially: the identity laws hold by construction.  The images are
    a pure function of the group and (side, size, gens), so they are
    expanded and checked once per key while the group lives (its memo),
    and kept only once the check has passed.  The size is part of the
    key: a trivial group has no generators, whatever the hom's size."""
    def build():
        elem = word_products(group, gens, pidentity(size), mul)
        if not respects_relations(group, elem, gens, mul):
            raise ValidationError("action-inconsistent",
                                  f"{side} action on hom {hom} does not "
                                  "respect the group relations")
        return elem
    return group.memo(("action", side, size, gens), build)


@dataclass(frozen=True)
class MorphId:
    source: str
    target: str
    index: int   # hom-set index, or group element position for endomorphisms


@dataclass(frozen=True, eq=False)
class EICategory:
    """A category compares by identity: its tables are a function."""
    objects: tuple[str, ...]
    groups: dict[str, PermGroup]
    homs: dict[tuple[str, str], HomSet]
    tables: Callable[[], Mapping]   # makes comp; refers to no category
    topological_order: tuple[str, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    # comp[(x, y, z)][outer][inner] = index in hom(x, z).  The tables are
    # tuples of Python ints, in document order (for a free category, the
    # order they are generated in, on the first read): a category written
    # back out as an explicit document, one list per row, must load
    # again, and load_category accepts only ints as table entries.  The
    # folds read them as arrays through incoming_tables.
    @property
    def comp(self) -> Mapping[tuple[str, str, str],
                              tuple[tuple[int, ...], ...]]:
        """tables(), through the memo."""
        return self.memo("comp", self.tables)

    def morphism_count(self) -> int:
        return sum(len(g) for g in self.groups.values()) + \
            sum(h.size for h in self.homs.values())

    def memo(self, key, build):
        """permgrp.memo() in the category's own store.  A value must not
        refer back to the category: held by it, that would make a
        reference cycle that only the garbage collector frees, and a
        pass over many categories would keep them all alive
        meanwhile."""
        return memo(self._memo, key, build)

    @property
    def unfactorizables(self) -> Mapping[tuple[str, str], tuple[int, ...]]:
        """unfactorizables(self), through the memo."""
        return self.memo("unfactorizables",
                         lambda: MappingProxyType(unfactorizables(self)))


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


def components(vertices, pairs) -> list[set]:
    """The connected components of the undirected graph on vertices with
    an edge per pair (u, v), each a set, in order of their first vertex:
    the package's one components search (the load's connectivity check
    and reptype.classify_graph)."""
    adj = {v: [] for v in vertices}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    out, seen = [], set()
    for v in vertices:
        if v not in seen:
            comp, stack = {v}, [v]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            out.append(comp)
    return out


def _check_connected(objects, homs) -> None:
    """disconnected unless the objects form one component along the
    hom-sets; load_category refuses an empty object list first."""
    if len(components(objects, homs)) > 1:
        raise ValidationError("disconnected",
                              "category is not connected as an object graph")


def validate_category(cat: EICategory) -> None:
    """All axioms but skeletality (load_category's check): connectivity,
    composition closure, identity laws (via actions) and associativity
    over every composable triple of non-endomorphisms mixed with
    generator endomorphisms.  Each axiom is one whole-table comparison,
    and the failure reported is the first in table order.

    The chain law γ∘(β∘α) = (γ∘β)∘α over non-endomorphisms is checked
    only at unfactorizable β, by Light's associativity test (A. H.
    Clifford and G. B. Preston, The Algebraic Theory of Semigroups I,
    1961, §1.2): if the law holds at β₁ and at β₂ for all α and γ, it
    holds at β₁∘β₂, since
    γ∘((β₁∘β₂)∘α) = γ∘(β₁∘(β₂∘α)) = (γ∘β₁)∘(β₂∘α)
                  = ((γ∘β₁)∘β₂)∘α = (γ∘(β₁∘β₂))∘α.
    Every factorizable β is δ∘β′ in some table, and both factors join
    objects at a smaller topological distance than β's ends, so by
    induction on that distance the law holds at every β.  A chain
    failure is reported at the first chain, and the first (γ, β, α) in
    it, with β unfactorizable."""
    _check_connected(cat.objects, cat.homs)

    nexts = {v: [w for (u, w) in cat.homs if u == v] for v in cat.objects}
    # every composable pair of homs must have a target hom-set and a table
    for x, y, z in ((x, y, z) for (x, y) in cat.homs for z in nexts[y]
                    if z != x):
        if (x, z) not in cat.homs:
            raise ValidationError("composition-not-closed",
                                  f"composable homs {x}->{y}->{z} but "
                                  f"hom {x}->{z} is empty")
        table = cat.comp.get((x, y, z))
        if table is None:
            raise ValidationError("missing-composition",
                                  f"no table for {x}->{y}->{z}")
        if len(table) != cat.homs[(y, z)].size or \
                set(map(len, table)) != {cat.homs[(x, y)].size}:
            raise SchemaError(f"table {x}->{y}->{z} has wrong shape")
        if min(map(min, table)) < 0 or \
                max(map(max, table)) >= cat.homs[(x, z)].size:
            raise SchemaError(f"table {x}->{y}->{z} entry out of range")
    # the tables as arrays, now that every entry is in range; the index
    # goes into the category's memo, like the unfactorizables below
    tables = {(x, z, y): t for (x, y), tabs in incoming_tables(cat).items()
              for z, t in tabs}

    # tables must commute with the endomorphism actions (associativity of
    # every triple containing an endomorphism reduces to the generator
    # cases); make_homset's relation check makes each generator's element
    # act by its generator action, so those are read directly.  The
    # tables are taken in cat.comp order, the order the first failure is
    # reported in
    for (x, y, z), t in ((key, tables[key]) for key in cat.comp):
        inner, outer, tgt = cat.homs[(x, y)], cat.homs[(y, z)], cat.homs[(x, z)]
        fails = np.zeros((3,) + t.shape, dtype=bool)   # [law, β, α]
        for h, h_tgt in zip(outer.left_gen, tgt.left_gen):
            fails[0] |= t.take(h, axis=0) != np.array(h_tgt)[t]
        for g, g_tgt in zip(inner.right_gen, tgt.right_gen):
            fails[1] |= t.take(g, axis=1) != np.array(g_tgt)[t]
        for r, l in zip(outer.right_gen, inner.left_gen):
            fails[2] |= t.take(r, axis=0) != t.take(l, axis=1)
        if fails.any():
            # the first failing (β, α) in table order, at its first law
            law = np.argwhere(fails.transpose(1, 2, 0))[0][2]
            raise ValidationError("associativity", (
                "(h∘β)∘α ≠ h∘(β∘α)", "(β∘α)∘g ≠ β∘(α∘g)",
                "(β∘h)∘α ≠ β∘(h∘α)")[law] + f" for hom chain {x}->{y}->{z}")

    # associativity over chains x->y->z->w of homs at unfactorizable β
    # (Light's test, see above), in chunks of γ.  The unfactorizables go
    # into the category's memo: they read only range-checked tables, and
    # a category that fails validation is discarded with its memo
    unfact = {key: np.array(u, dtype=np.intp)
              for key, u in cat.unfactorizables.items() if u}
    for x, y, z, w in ((x, y, z, w) for (x, y) in cat.homs
                       for z in nexts[y] if (y, z) in unfact
                       for w in nexts[z]):
        beta = unfact[(y, z)]
        t_xyz, t_yzw = tables[(x, y, z)][beta], tables[(y, z, w)][:, beta]
        t_xzw, t_xyw = tables[(x, z, w)], tables[(x, y, w)]
        for cs in chunks(len(t_xzw), t_xyz.size):
            bad = (t_xzw[cs].take(t_xyz, axis=1) !=
                   t_xyw.take(t_yzw[cs], axis=0))
            if bad.any():
                c, b, a = np.argwhere(bad)[0].tolist()
                raise ValidationError(
                    "associativity", f"γ∘(β∘α) ≠ (γ∘β)∘α on chain "
                    f"{x}->{y}->{z}->{w} at ({cs.start + c},{beta[b]},{a})")


def load_category(document: dict, max_group: int = DEFAULT_SIZE_BOUND,
                  max_paths: int = DEFAULT_PATH_BOUND) -> EICategory:
    """Build and fully validate a category from its JSON document."""
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    mode = document.get("mode", "explicit")
    if mode not in ("explicit", "ei-quiver"):
        raise SchemaError(f"unknown mode {mode!r}")
    objs = document.get("objects")
    if not isinstance(objs, list) or not objs:
        raise SchemaError("missing or empty 'objects' array")
    groups: dict[str, PermGroup] = {}     # in document order
    for spec in objs:
        try:
            oid = str(spec["id"])
            degree = spec["degree"]
            if not is_int(degree) or degree < 0:
                raise TypeError(f"degree {degree!r} is not a nonnegative "
                                "integer")
            gens = list(spec.get("generators", []))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad object entry: {e}") from e
        if oid in groups:
            raise SchemaError(f"duplicate object id {oid!r}")
        check_points(degree, f"object {oid}: degree")
        groups[oid] = enumerate_group(degree, gens, bound=max_group)
    objects = tuple(groups)

    homspecs = document.get("homs", [])
    if not isinstance(homspecs, list):
        raise SchemaError("'homs' must be an array")
    free = mode == "ei-quiver"
    entry = "arrow" if free else "hom"
    homs: dict[tuple[str, str], HomSet] = {}
    arrows: list[ArrowBiset] = []       # parallel arrows, in document order
    for hspec in homspecs:
        try:
            x, y = str(hspec["from"]), str(hspec["to"])
            size = hspec["size"]
            if not is_int(size) or size < 0:
                raise TypeError(f"size {size!r} is not a nonnegative integer")
            lga = hspec.get("left_action", [])
            rga = hspec.get("right_action", [])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad {entry} entry: {e}") from e
        if x not in groups or y not in groups:
            raise SchemaError(f"{entry} references unknown object {x!r} or "
                              f"{y!r}")
        if free:
            if x == y:
                raise ValidationError("arrow-loop", "loop arrows make the "
                                      "free category infinite")
            if size == 0:
                raise SchemaError(f"arrow {x}->{y} must have positive size")
        elif x == y:
            raise ValidationError("endo-hom",
                                  "endomorphisms are given by the object group, "
                                  "not a hom entry")
        elif (x, y) in homs:
            raise SchemaError(f"duplicate hom entry {x}->{y}")
        check_points(size, f"{entry} {x}->{y}: size")
        if size == 0:       # an empty hom
            continue
        hs = make_homset(x, y, size, lga, rga, groups[x], groups[y])
        if free:
            arrows.append(ArrowBiset(x, y, size, hs.left_gen, hs.right_gen))
        else:
            homs[(x, y)] = hs
    if free:
        from .freecover import generate_free_category
        return generate_free_category(
            EIQuiverData(objects, groups, tuple(arrows)), max_paths=max_paths)

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
    topo = _object_order(objects, homs)
    cat = EICategory(objects, groups, homs, lambda: comp, topo)
    validate_category(cat)
    return cat


# ---------------------------------------------------------------------------
# unfactorizable morphisms, orbits, stabilizer data

def incoming_tables(cat: EICategory) -> dict[tuple[str, str], list]:
    """Per hom-set x -> y, the composition tables x -> z -> y that
    compose into it, each as (z, t) with t[δ, β] = δ∘β, an index array.
    Hom-sets come in order of the topological distance from x to y, ties
    in cat.homs order, so both factors of every table join a pair that
    comes earlier; each hom-set's tables come in cat.comp order.  Once
    per category, through its memo: validate_category builds it after
    its range checks, and every later fold reads that one index."""
    return cat.memo("incoming_tables", lambda: _incoming_tables(cat))


def _incoming_tables(cat: EICategory) -> dict[tuple[str, str], list]:
    pos = {x: i for i, x in enumerate(cat.topological_order)}
    index = {key: [] for key in sorted(cat.homs,
                                       key=lambda k: pos[k[1]] - pos[k[0]])}
    for (x, z, y), table in cat.comp.items():
        index[(x, y)].append((z, np.array(table, dtype=np.intp)))
    return index


def unfactorizables(cat: EICategory) -> dict[tuple[str, str], tuple[int, ...]]:
    """Per ordered pair, the hom indices that are composites of no two
    non-isomorphisms: those in no composition table x -> z -> y.  A
    loaded category has a table for exactly its composable pairs of
    non-isomorphisms."""
    held = {k: np.zeros(hs.size, dtype=bool) for k, hs in cat.homs.items()}
    for key, tables in incoming_tables(cat).items():
        for _, t in tables:
            held[key][t] = True
    return {k: tuple(np.flatnonzero(~h).tolist()) for k, h in held.items()}


def homset_orbits(hs: HomSet, indices) -> list[tuple[int, ...]]:
    """The two-sided orbits meeting the given hom indices, each sorted,
    in order of least member."""
    label, least = orbits(hs.size, hs.left_gen + hs.right_gen, indices)
    return orbit_members(label, len(least))


def orbit_representatives(
        cat: EICategory) -> tuple[tuple[MorphId, tuple[int, ...]], ...]:
    """One (representative, orbit) per two-sided orbit of unfactorizables,
    in deterministic (source, target, least-index) order; once per
    category, through its memo."""
    return cat.memo("orbit_representatives",
                    lambda: _orbit_representatives(cat))


def _orbit_representatives(cat: EICategory):
    unfact = cat.unfactorizables
    out = []
    pos = {x: i for i, x in enumerate(cat.objects)}
    for (x, y) in sorted(cat.homs, key=lambda k: (pos[k[0]], pos[k[1]])):
        mine = set(unfact[(x, y)])
        for orb in homset_orbits(cat.homs[(x, y)], mine):
            if not set(orb) <= mine:
                raise InvariantError(
                    "orbit of an unfactorizable leaves the unfactorizable set")
            out.append((MorphId(x, y, orb[0]), orb))
    return tuple(out)


@dataclass(frozen=True)
class StabilizerData:
    G0: SubgroupHandle
    G1: SubgroupHandle
    H0: SubgroupHandle
    H1: SubgroupHandle
    quotG: QuotientGroup
    quotH: QuotientGroup    # numbered through the biset, on quotG's table


def stabilizer_data(cat: EICategory, alpha: MorphId) -> StabilizerData:
    """Pointwise and orbit-wise stabilizers of alpha and the quotient
    G1/G0.  The biset gives G1/G0 ≅ H1/H0: h∘alpha = alpha∘g sends h to
    g's coset, so quotH is H1 numbered on quotG's cosets and table.  G0,
    G1, H0 and H1 are certified as subgroups by their generating sets
    (SubgroupHandle.generator_positions), and the checks make that map a
    homomorphism onto G1/G0 with kernel H0, so H0 is normal.  Not
    memoised here: quiveralg.orbit_data keeps it, once per orbit."""
    hs = cat.homs[(alpha.source, alpha.target)]
    G = cat.groups[alpha.source]
    H = cat.groups[alpha.target]
    a = alpha.index
    right = [hs.right_elem[g][a] for g in range(len(G))]    # alpha∘g
    left = [hs.left_elem[h][a] for h in range(len(H))]      # h∘alpha
    g0 = tuple(g for g in range(len(G)) if right[g] == a)
    h0 = tuple(h for h in range(len(H)) if left[h] == a)
    h_orbit, g_orbit = set(left), set(right)
    g1 = tuple(g for g in range(len(G)) if right[g] in h_orbit)
    h1 = tuple(h for h in range(len(H)) if left[h] in g_orbit)
    G0, G1 = SubgroupHandle(G, g0), SubgroupHandle(G, g1)
    H0, H1 = SubgroupHandle(H, h0), SubgroupHandle(H, h1)
    for handle in (G0, G1, H0, H1):
        handle.generator_positions   # InvariantError unless a subgroup
    quotG = quotient(G1, G0)

    coset_at: dict[int, int] = {}
    for g in g1:
        c = quotG.projection[g]
        if coset_at.setdefault(right[g], c) != c:
            raise InvariantError("two cosets of G1/G0 reach one point of "
                                 "the biset")
    proj = {h: coset_at[left[h]] for h in h1}
    cosets = orbit_members([proj.get(h, -1) for h in range(len(H))],
                           len(quotG))
    if cosets[0] != h0 or any(len(c) != len(h0) for c in cosets):
        raise InvariantError("the biset's fibres over G1/G0 are not the "
                             "cosets of H0")
    table = quotG.table
    for s in H1.generator_positions:
        times_s = H.right_products(H.elements[s]).tolist()
        ps = proj[s]
        if any(proj[times_s[h]] != table[proj[h]][ps] for h in h1):
            raise InvariantError("the biset's map H1 -> G1/G0 is not "
                                 "multiplicative")
    quotH = QuotientGroup(H1, H0, tuple(cosets), proj, table)
    return StabilizerData(G0, G1, H0, H1, quotG, quotH)


# ---------------------------------------------------------------------------
# the finite EI quiver of a category

@dataclass(frozen=True)
class ArrowBiset:
    source: str
    target: str
    size: int
    left_gen: tuple[Perm, ...]
    right_gen: tuple[Perm, ...]


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
        arrows.append(ArrowBiset(rep.source, rep.target, len(orb), left, right))
    return EIQuiverData(cat.objects, dict(cat.groups), tuple(arrows))
