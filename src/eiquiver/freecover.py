"""Free categories on finite EI quivers and the freeness test.

The free category on an EI quiver has the quiver's groups as
endomorphisms and, between distinct objects, the disjoint union over
directed paths of glued biset products: tuples of arrow-biset elements
modulo the middle-vertex moves (t·h, s) ~ (t, h·s).  The glued product is
the biset tensor product over the middle group, which is associative, so
each path biset is built as a left fold over the path's arrows.
Composition walks a concatenated tuple through the glued prefixes' class
maps.

A category is free exactly when the canonical functor from the free
category on its own quiver of unfactorizables is bijective on hom-sets;
since it is always surjective, comparing cardinalities suffices.  An
independent oracle checks the equivalent unique-factorization property
locally: every non-endomorphism α that is not unfactorizable must have
its first steps (z, β, δ), with β unfactorizable and δ∘β = α, all pass
through one object z and form a single Aut(z)-orbit under
h·(β, δ) = (h∘β, δ∘h⁻¹).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError, ValidationError
from .eicat import (ArrowBiset, EICategory, EIQuiverData, _object_order,
                    ei_quiver_of, make_homset, unfactorizables,
                    validate_category)
from .permgrp import PermGroup, is_int

DEFAULT_PATH_BOUND = 100000


def build_ei_quiver_input(objects, groups: dict[str, PermGroup],
                          homspecs) -> EIQuiverData:
    """Parse the arrow list of an ei-quiver document into quiver data."""
    arrows = []
    for hspec in homspecs:
        try:
            x, y = str(hspec["from"]), str(hspec["to"])
            size = hspec["size"]
            if not is_int(size):
                raise TypeError(f"size {size!r} is not an integer")
            lga = hspec.get("left_action", [])
            rga = hspec.get("right_action", [])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad arrow entry: {e}") from e
        if x not in groups or y not in groups:
            raise SchemaError(f"arrow references unknown object {x!r} or {y!r}")
        if x == y:
            raise ValidationError("arrow-loop",
                                  "loop arrows make the free category infinite")
        if size <= 0:
            raise SchemaError(f"arrow {x}->{y} must have positive size")
        # reuse the hom-set validator: same action axioms apply to arrows
        hs = make_homset(x, y, size, lga, rga, groups[x], groups[y])
        arrows.append(ArrowBiset(x, y, size, hs.left_gen, hs.right_gen))
    return EIQuiverData(tuple(objects), dict(groups), tuple(arrows))


@dataclass(frozen=True)
class GluedBiset(ArrowBiset):
    """A glued product with its quotient map: class_of[s][t] is the
    class of the pair (s, t), and least[c] is the least pair of class c."""
    class_of: tuple[tuple[int, ...], ...] = ()
    least: tuple[tuple[int, int], ...] = ()


def biset_product(b2: ArrowBiset, b1: ArrowBiset,
                  middle: PermGroup) -> GluedBiset:
    """Glued product of an (K, H)-biset with an (H, G)-biset.

    Elements are pairs (s, t), s in b1 and t in b2, modulo the moves
    (s, t·h) ~ (h·s, t) over the generators h of the middle group; the
    outer actions descend to the classes.  Classes are numbered by their
    least pair.  If b1's classes are numbered by their least path tuple
    R(s), so are the product's, since the least tuple of a class is the
    least R(s) + (t,) over its pairs.
    """
    if b2.source != b1.target:
        raise ValidationError("biset-middle-mismatch",
                              f"cannot glue {b1.source}->{b1.target} with "
                              f"{b2.source}->{b2.target}")
    n2 = b2.size
    # (s, t) ~ (h·s, t·h⁻¹): the classes are orbits of these permutations
    moves = []
    for k in range(len(middle.generators)):
        rinv = [0] * n2
        for t, u in enumerate(b2.right_gen[k]):
            rinv[u] = t
        moves.append((b1.left_gen[k], rinv))
    cls = [-1] * (b1.size * n2)
    least = []
    for start in range(len(cls)):
        if cls[start] >= 0:
            continue
        cls[start] = len(least)
        least.append(divmod(start, n2))
        stack = [start]
        while stack:
            s, t = divmod(stack.pop(), n2)
            for lact, rinv in moves:
                j = lact[s] * n2 + rinv[t]
                if cls[j] < 0:
                    cls[j] = cls[start]
                    stack.append(j)
    left_gen = tuple(tuple(cls[s * n2 + act[t]] for s, t in least)
                     for act in b2.left_gen)
    right_gen = tuple(tuple(cls[act[s] * n2 + t] for s, t in least)
                      for act in b1.right_gen)
    class_of = tuple(tuple(cls[s * n2:(s + 1) * n2]) for s in range(b1.size))
    return GluedBiset(b1.source, b2.target, len(least), left_gen, right_gen,
                      class_of=class_of, least=tuple(least))


def _quiver_paths(quiv: EIQuiverData, bound: int):
    """All directed arrow-index paths per object pair, DFS in arrow order.

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
    """The free EI category on the quiver, as a fully explicit category.

    Each path biset is a left fold of biset_product over the path's
    arrows, memoised by prefix.  Hom elements are ordered by path (sorted),
    then by class in least-tuple order.
    """
    paths = _quiver_paths(quiv, max_paths)
    biset: dict[tuple[int, ...], ArrowBiset] = {}
    reps: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # least tuples
    for path in sorted((p for plist in paths.values() for p in plist),
                       key=len):
        arrow = quiv.arrows[path[-1]]
        if len(path) > 1:
            b = biset_product(arrow, biset[path[:-1]],
                              quiv.groups[arrow.source])
        else:
            b = arrow
        if b.size > max_paths:
            raise ValidationError("path-bound",
                                  f"a path biset exceeds {max_paths} elements")
        biset[path] = b
        reps[path] = ([reps[path[:-1]][s] + (t,) for s, t in b.least]
                      if len(path) > 1 else [(t,) for t in range(b.size)])

    homs = {}
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

    # the composite of (rpath, rc) and (qpath, qc) is the class of
    # rc's tuples followed by qc's least tuple, walked through the
    # class maps of the glued prefixes
    comp = {}
    for (x, y), inner in paths.items():
        for (y2, z), outer in paths.items():
            if y2 != y:
                continue
            table = [[0] * homs[(x, y)].size for _ in range(homs[(y, z)].size)]
            for qpath in outer:
                for rpath in inner:
                    full = rpath + qpath
                    maps = [biset[full[:j]].class_of
                            for j in range(len(rpath) + 1, len(full) + 1)]
                    for qc, qrep in enumerate(reps[qpath]):
                        row = table[base[qpath] + qc]
                        for rc in range(biset[rpath].size):
                            c = rc
                            for m, t in zip(maps, qrep):
                                c = m[c][t]
                            row[base[rpath] + rc] = base[full] + c
            comp[(x, y, z)] = tuple(map(tuple, table))

    topo = _object_order(quiv.objects, homs)
    cat = EICategory(quiv.objects, dict(quiv.groups), homs, comp, topo)
    validate_category(cat)
    return cat


def free_cover(cat: EICategory, max_paths: int = DEFAULT_PATH_BOUND) -> EICategory:
    """Free category on the category's quiver of unfactorizables."""
    return generate_free_category(ei_quiver_of(cat), max_paths=max_paths)


def is_free(cat: EICategory, max_paths: int = DEFAULT_PATH_BOUND,
            cover: EICategory | None = None) -> bool:
    """Whether the canonical functor from the free cover is bijective.

    The functor is always surjective, so equality of hom-set sizes over
    every object pair decides it.  A cover already built may be passed in.
    """
    if cover is None:
        cover = free_cover(cat, max_paths=max_paths)
    pairs = set(cat.homs) | set(cover.homs)
    return all(cat.hom_size(*pr) == cover.hom_size(*pr) for pr in pairs)


def _first_step_orbit(cat: EICategory, x: str, z: str, y: str,
                      beta: int, delta: int) -> set[tuple[int, int]]:
    """The orbit of (β, δ) under h·(β, δ) = (h∘β, δ∘h⁻¹), h in Aut(z)."""
    grp = cat.groups[z]
    after = cat.homs[(z, y)].right_elem
    moves = [(lact, after[grp.inv(grp.index_of[g])])
             for lact, g in zip(cat.homs[(x, z)].left_gen, grp.generators)]
    seen = {(beta, delta)}
    stack = [(beta, delta)]
    while stack:
        b, d = stack.pop()
        for lact, ract in moves:
            nxt = (lact[b], ract[d])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def category_has_ufp(cat: EICategory) -> bool:
    """Whether every non-endomorphism factors uniquely into unfactorizables,
    up to automorphisms at the intermediate objects.

    Tested locally on the first-step sets
    P(α) = {(z, β, δ) : β ∈ unfact(x, z), δ ∈ hom(z, y), δ∘β = α}
    of the non-endomorphisms α: x -> y.  P(α) is empty exactly when α is
    unfactorizable: a composite of non-isomorphisms has an unfactorizable
    first factor, since the object order is finite.  Every other P(α)
    must pass through one object z and form one orbit of Aut(z) under
    h·(β, δ) = (h∘β, δ∘h⁻¹).

    Proof of equivalence with the global property U(α) (α has a
    decomposition, and any two are related by automorphism chains), by
    induction on the length ℓ(α) of α's longest decomposition.  An
    unfactorizable α has only the decomposition (α,), so U holds and the
    local test has nothing to check.  Otherwise the decompositions of α
    are the (β,) + d with (z, β, δ) ∈ P(α) and d a decomposition of δ,
    and ℓ(δ) < ℓ(α).  If the local test holds everywhere: P(α) is
    nonempty and U(δ) holds by induction, so α has a decomposition; given
    two, (β,) + d and (β',) + d', both go through z, and β' = h∘β,
    δ' = δ∘h⁻¹ for some h; then d'·h (first factor precomposed with h) is
    a decomposition of δ, related to d by U(δ), so h followed by that
    chain relates the two.  Conversely, if U holds everywhere: a first
    step of any decomposition lies in P(α); two elements of P(α) extend
    (by U of their δ) to decompositions of α, which being related pass
    through the same objects, and the first automorphism h of their chain
    gives β' = h∘β while the rest telescopes to δ' = δ∘h⁻¹.

    Only composition tables and actions are read, so this stays
    independent of the cover construction and serves as an oracle for
    is_free.
    """
    unfact = unfactorizables(cat)
    first_steps: dict[tuple[str, str, int], list] = {}
    for (x, z, y), table in cat.comp.items():
        for beta in unfact[(x, z)]:
            for delta, row in enumerate(table):
                first_steps.setdefault((x, y, row[beta]), []).append(
                    (z, beta, delta))
    for (x, y, _), steps in first_steps.items():
        # the orbit lies in the part of P(α) through z, so it is all of
        # P(α), through one object, exactly when the sizes agree
        z, beta, delta = steps[0]
        if len(_first_step_orbit(cat, x, z, y, beta, delta)) != len(steps):
            return False
    return True
