"""Free categories on finite EI quivers and the freeness test.

The free category on an EI quiver has the quiver's groups as
endomorphisms and, between distinct objects, the disjoint union over
directed paths of glued biset products: tuples of arrow-biset elements
modulo the middle-vertex moves (t·h, s) ~ (t, h·s).  The glued product is
the biset tensor product over the middle group, which is associative, so
each path biset is built as a left fold over the path's arrows.  The
composites of two paths' elements are the classes of the two path
bisets' product, numbered as the concatenated path's biset.  glue is
the one gluing routine, and it returns only the class of each pair: the
composites and the freeness test below read those labels, and
biset_product, the fold's step, builds a biset from them.  Only the
`cover` command and the loading of ei-quiver documents build a free
category, and --max-paths bounds that build, each glued product before
it is made.  This module reads no document: eicat.load_category parses
an ei-quiver document's arrows and hands them here as EIQuiverData.
The build is the fold and the hom-sets.  The composites are glued into
composition tables only when a command reads them (`oracle`, `functor`),
and are never checked against the axioms at load: the category is
free, with the one-arrow paths as its unfactorizables, by construction.
tests/test_freecover.py validates the tables of generated categories
instead.

Freeness is decided by the source paper's definition: a category is free
when every non-endomorphism factors uniquely into unfactorizables, up to
automorphisms at the intermediate objects.  category_has_ufp tests this
locally: every non-endomorphism α that is not unfactorizable must have
its first steps (z, β, δ), with β unfactorizable and δ∘β = α, all pass
through one object z and form a single Aut(z)-orbit under
h·(β, δ) = (h∘β, δ∘h⁻¹): one class of the glued product
hom(z, y) ×_{Aut(z)} hom(x, z).  It reads only the composition tables and
actions, so no free category is built to answer it.  A generated
category's freeness is known from its construction, so is_free gives it
without this test.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import ValidationError
from .eicat import (DEFAULT_PATH_BOUND, ArrowBiset, EICategory, EIQuiverData,
                    _check_connected, _object_order, ei_quiver_of,
                    incoming_tables, make_homset)
from .permgrp import PermGroup, orbits


def glue(b2: ArrowBiset, b1: ArrowBiset,
         middle: PermGroup) -> tuple[list[int], list[int]]:
    """The classes of the glued product of an (K, H)-biset with an
    (H, G)-biset: the biset tensor product b2 ×_H b1 (Bouc, *Biset
    Functors for Finite Groups*, LNM 1990, §2.3).  A HomSet has every
    field read here, so composites δ∘β in a category glue the same way.

    Elements are pairs (s, t), s in b1 and t in b2, modulo the moves
    (s, t·h) ~ (h·s, t) over the generators h of the middle group.  Pair
    (s, t) sits at s·|b2| + t, and the result is permgrp.orbits' (label,
    least) over those positions: classes are numbered by their least
    pair.

    Numbering lemma: if b1 and b2 number their classes by their least
    path tuples R(s) and Q(t), so does the product, whose classes are
    sets of tuples u + v, u in some s and v in some t.  All tuples of b1
    have one length, so u + v compares as the pair (u, v), and the least
    tuple of a class is the least R(s) + Q(t) over its pairs (s, t).
    R and Q are increasing, since distinct classes have distinct least
    tuples, so that least tuple is R(s) + Q(t) at the class's least pair
    (s, t), and the order of the classes by least tuple is their order
    by least pair.  An arrow numbers its elements by their one-arrow
    tuples, so by induction every fold of biset_product over a path
    numbers its classes by least tuple, and the product of two path
    bisets is numbered as the biset of the concatenated path.
    """
    if b2.source != b1.target:
        raise ValidationError("biset-middle-mismatch",
                              f"cannot glue {b1.source}->{b1.target} with "
                              f"{b2.source}->{b2.target}")
    n2 = b2.size
    # (s, t) ~ (h·s, t·h⁻¹): the classes are the orbits of these
    # permutations of the pairs
    moves = []
    for k in range(len(middle.generators)):
        rinv = [0] * n2
        for t, u in enumerate(b2.right_gen[k]):
            rinv[u] = t
        moves.append([ls * n2 + rt for ls in b1.left_gen[k] for rt in rinv])
    return orbits(b1.size * n2, moves)


def biset_product(b2: ArrowBiset, b1: ArrowBiset,
                  middle: PermGroup) -> ArrowBiset:
    """The glued product b2 ×_H b1 as a biset: glue's classes, with the
    outer actions descended to them."""
    cls, first = glue(b2, b1, middle)
    n2 = b2.size
    least = [divmod(m, n2) for m in first]
    left_gen = tuple(tuple(cls[s * n2 + act[t]] for s, t in least)
                     for act in b2.left_gen)
    right_gen = tuple(tuple(cls[act[s] * n2 + t] for s, t in least)
                      for act in b1.right_gen)
    return ArrowBiset(b1.source, b2.target, len(least), left_gen, right_gen)


def _quiver_paths(quiv: EIQuiverData, bound: int):
    """All directed arrow-index paths per object pair, by DFS from each
    object in turn; each pair's paths are sorted.

    A path is recorded when it is pushed, and siblings are pushed in
    reverse arrow order, so the pairs come in that push order.  It fixes
    the order of cat.homs (and of cat.comp) for an ei-quiver load, and
    through _object_order, Kahn's algorithm over cat.homs, the
    object_order that validate prints: four_object_mixed (arrows G -> H,
    H -> K, H -> L) gives G, H, L, K.  A rewrite must keep this order, or
    re-record the goldens on purpose.

    Raises on a directed cycle (the free category would be infinite)."""
    arrows_from: dict[str, list[int]] = {x: [] for x in quiv.objects}
    for i, a in enumerate(quiv.arrows):
        arrows_from[a.source].append(i)

    # object-level cycle detection first, so DFS below terminates
    _object_order(quiv.objects,
                  {(a.source, a.target): None for a in quiv.arrows})

    paths: dict[tuple[str, str], list[tuple[int, ...]]] = {}
    count = 0
    for x in quiv.objects:
        stack = [(x, ())]
        while stack:
            cur, pfx = stack.pop()
            # keep DFS order deterministic: push in reverse arrow order
            for i in reversed(arrows_from[cur]):
                path = pfx + (i,)
                tgt = quiv.arrows[i].target
                paths.setdefault((x, tgt), []).append(path)
                count += 1
                if count > bound:
                    raise ValidationError(
                        "path-bound",
                        f"free category exceeds {bound} paths")
                stack.append((tgt, path))
    for key in paths:
        paths[key].sort()
    return paths


def generate_free_category(quiv: EIQuiverData,
                           max_paths: int = DEFAULT_PATH_BOUND) -> EICategory:
    """The free EI category on the quiver, with its composition tables
    made on their first read.

    Each path biset is a left fold of biset_product over the path's
    arrows, memoised by prefix.  Hom elements are ordered by path (sorted),
    then by class in least-tuple order.  That fold and the hom-sets are
    all the construction builds: it knows the rest.  The unfactorizables
    are the classes of the one-arrow paths, the category is free, and it
    is its own free cover, so its memo holds these from the start.  Its
    tables function is _composition_tables over the kept path bisets,
    and the category's memo keeps what it returns on the first read of
    comp.  The axioms hold by construction, so only connectivity is
    checked here; tests/test_freecover.py validates the tables.
    """
    paths = _quiver_paths(quiv, max_paths)
    biset: dict[tuple[int, ...], ArrowBiset] = {}
    for path in sorted((p for plist in paths.values() for p in plist),
                       key=len):
        prefix, b = biset.get(path[:-1]), quiv.arrows[path[-1]]
        middle = quiv.groups[b.source]
        # a class holds at most |middle| pairs, so more pairs than
        # max_paths·|middle| glue to more than max_paths classes: that
        # product is refused before a label per pair is made
        if prefix is not None:
            if prefix.size * b.size > max_paths * len(middle):
                raise ValidationError(
                    "path-bound", f"a path biset exceeds {max_paths} elements")
            b = biset_product(b, prefix, middle)
        if b.size > max_paths:
            raise ValidationError("path-bound",
                                  f"a path biset exceeds {max_paths} elements")
        biset[path] = b

    homs, unfact = {}, {}
    base: dict[tuple[int, ...], int] = {}     # offset of a path's classes
    for (x, y), plist in paths.items():
        size = 0
        for path in plist:
            base[path] = size
            size += biset[path].size
        left_gen = tuple(tuple(base[p] + c for p in plist
                               for c in biset[p].left_gen[k])
                         for k in range(len(quiv.groups[y].generators)))
        right_gen = tuple(tuple(base[p] + c for p in plist
                                for c in biset[p].right_gen[k])
                          for k in range(len(quiv.groups[x].generators)))
        homs[(x, y)] = make_homset(x, y, size, left_gen, right_gen,
                                   quiv.groups[x], quiv.groups[y])
        unfact[(x, y)] = tuple(base[p] + c for p in plist if len(p) == 1
                               for c in range(biset[p].size))

    _check_connected(quiv.objects, homs)
    cat = EICategory(quiv.objects, dict(quiv.groups), homs,
                     lambda: _composition_tables(paths, biset, base, homs,
                                                 quiv.groups),
                     _object_order(quiv.objects, homs))
    cat.memo("unfactorizables", lambda: MappingProxyType(unfact))
    cat.memo("free", lambda: True)
    # its quiver of unfactorizables is quiv again, so it is its own free
    # cover at this bound (see free_cover)
    cat.memo(("free_cover", max_paths), lambda: None)
    return cat


def _composition_tables(paths, biset, base, homs, groups) -> dict:
    """The composition tables of generate_free_category's category, in
    the order of its paths.  The composites of two paths' hom elements
    are their classes in the two path bisets' glued product: by glue's
    numbering lemma, it numbers them as the concatenated path's biset."""
    # the block (qpath, rpath) of table (x, y, z): row qc holds the
    # classes of the pairs (rc, qc), at rc·|qpath biset| + qc
    outer_from: dict[str, list] = {}
    for (y, z), outer in paths.items():
        outer_from.setdefault(y, []).append((z, outer))
    comp = {}
    for (x, y), inner in paths.items():
        for z, outer in outer_from.get(y, ()):
            table = [[0] * homs[(x, y)].size for _ in range(homs[(y, z)].size)]
            for qpath in outer:
                n = biset[qpath].size
                for rpath in inner:
                    label, _ = glue(biset[qpath], biset[rpath], groups[y])
                    off, col = base[rpath + qpath], base[rpath]
                    for qc in range(n):
                        table[base[qpath] + qc][col:col + biset[rpath].size] \
                            = [off + c for c in label[qc::n]]
            comp[(x, y, z)] = tuple(map(tuple, table))
    return comp


def free_cover(cat: EICategory, max_paths: int = DEFAULT_PATH_BOUND) -> EICategory:
    """Free category on the category's quiver of unfactorizables, built
    once per path bound through the category's memo.  A category that
    generate_free_category built (an ei-quiver document's, or a cover) is
    its own cover at the bound it was built at: its memo holds None there,
    not the category itself, so that no reference cycle keeps it alive.
    The cover's hom-sets are built, its composition tables only once
    read (generate_free_category)."""
    cover = cat.memo(("free_cover", max_paths), lambda: generate_free_category(
        ei_quiver_of(cat), max_paths=max_paths))
    return cat if cover is None else cover


def category_has_ufp(cat: EICategory) -> bool:
    """Whether every non-endomorphism factors uniquely into unfactorizables,
    up to automorphisms at the intermediate objects.

    Tested locally on the first-step sets
    P(α) = {(z, β, δ) : β ∈ unfact(x, z), δ ∈ hom(z, y), δ∘β = α}
    of the non-endomorphisms α: x -> y.  P(α) is empty exactly when α is
    unfactorizable: a composite of non-isomorphisms has an unfactorizable
    first factor, since the object order is finite.  Every other P(α)
    must pass through one object z and form one orbit of Aut(z) under
    h·(β, δ) = (h∘β, δ∘h⁻¹).  That orbit of a step lies in P(α), since
    h∘β is unfactorizable and (δ∘h⁻¹)∘(h∘β) = α; so the pairs (β, δ) of
    each composable triple (x, z, y) are labelled by orbit, their class
    in glue(hom(z, y), hom(x, z), Aut(z)), and P(α) is one
    orbit through one object exactly when all its steps carry the same
    object and orbit number.  A triple whose hom(x, z) holds no
    unfactorizable has no first steps and is skipped unglued.

    Proof of equivalence with the global property U(α) (α has a
    decomposition, and any two are related by automorphism chains), by
    induction on the length ℓ(α) of α's longest decomposition.  An
    unfactorizable α has only the decomposition (α,), so U holds and the
    local test has nothing to check.  Otherwise the decompositions of α
    are the (β,) + d with (z, β, δ) ∈ P(α) and d a decomposition of δ,
    and ℓ(δ) < ℓ(α).  If the local test holds everywhere: P(α) is
    nonempty and U(δ) holds by induction, so α has a decomposition; given
    two, (β,) + d and (β',) + d', both go through z and share an orbit
    number, so β' = h∘β, δ' = δ∘h⁻¹ for some h; then d'·h (first factor
    precomposed with h) is a decomposition of δ, related to d by U(δ),
    so h followed by that chain relates the two.  Conversely, if U holds
    everywhere: a first step of any decomposition lies in P(α); two
    elements of P(α) extend (by U of their δ) to decompositions of α,
    which being related pass through the same objects, and the first
    automorphism h of their chain gives β' = h∘β while the rest
    telescopes to δ' = δ∘h⁻¹, so the two steps share z and an orbit.

    Only composition tables and actions are read, so the answer is
    independent of the free cover construction.
    """
    unfact = cat.unfactorizables
    step_orbit: dict[tuple[str, str, int], tuple[str, int]] = {}
    for (x, y), tables in incoming_tables(cat).items():
        for z, table in tables:
            if not unfact[(x, z)]:
                continue
            # (β, δ) and (h∘β, δ∘h⁻¹) are one class of the glued product
            # hom(z, y) ×_{Aut(z)} hom(x, z), the pair at β·n + δ; the
            # composite δ∘β is at alpha[β][δ]
            n = cat.homs[(z, y)].size
            label, _ = glue(cat.homs[(z, y)], cat.homs[(x, z)], cat.groups[z])
            alpha = table.T.tolist()
            for b in unfact[(x, z)]:
                for c, a in zip(label[b * n:(b + 1) * n], alpha[b]):
                    if step_orbit.setdefault((x, y, a), (z, c)) != (z, c):
                        return False
    return True


def is_free(cat: EICategory) -> bool:
    """Whether the category is free: category_has_ufp, derived once per
    category through its memo.  generate_free_category puts True there."""
    return cat.memo("free", lambda: category_has_ufp(cat))
