"""Groups, subgroups and helpers that only the tests use: a small
catalog of named groups for the property-test generators, the whole and
the trivial subgroup of a group, a subgroup as a group of its own, the
plain inverse of a permutation that the inverse table must match, the
identity's position, one product read off the Cayley table, a
category's hom sizes, and quiver equality."""

from functools import lru_cache

from eiquiver.permgrp import (Perm, PermGroup, SubgroupHandle, _generated,
                              enumerate_group, pidentity)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def identity_pos(g: PermGroup) -> int:
    return g.index_of[pidentity(g.degree)]


def mul(g: PermGroup, i: int, j: int) -> int:
    """Position of element i times element j, from the Cayley table."""
    return int(g.row(i)[j])


def hom_size(cat, x: str, y: str) -> int:
    """|hom(x, y)|: the group's order when x == y, else the hom-set's
    size, 0 when it is empty."""
    if x == y:
        return len(cat.groups[x])
    hs = cat.homs.get((x, y))
    return hs.size if hs else 0


def quivers_equal(a, b) -> bool:
    """Same vertex set (object, irreducible, dim) and multiplicity map."""
    va = [(v.object, v.irr, v.dim) for v in a.vertices]
    vb = [(v.object, v.irr, v.dim) for v in b.vertices]
    return va == vb and a.mult_map() == b.mult_map()


def whole_group(g: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(g, tuple(range(len(g))))


def trivial_subgroup(g: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(g, (identity_pos(g),))


def as_group(sub: SubgroupHandle) -> PermGroup:
    """The subgroup as a PermGroup of its own, generated by its generator
    positions, with its elements in parent order (so out of BFS order
    in general): the one live group of those generators and elements."""
    e = sub.parent.elements
    return _generated(sub.parent.degree,
                      [e[k] for k in sub.generator_positions],
                      [e[i] for i in sub.member_positions])


@lru_cache(maxsize=None)
def named_group(name: str) -> PermGroup:
    cat = {
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
        "A4": (4, ((1, 2, 0, 3), (1, 0, 3, 2))),
        # i and j acting on Q8 = {1, i, -1, -i, j, -k, -j, k} by right
        # multiplication
        "Q8": (8, ((1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3))),
        "S3xC4": (7, ((1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6),
                      (0, 1, 2, 4, 5, 6, 3))),
        "C2xC4xC3": (9, ((1, 0, 2, 3, 4, 5, 6, 7, 8),
                         (0, 1, 3, 4, 5, 2, 6, 7, 8),
                         (0, 1, 2, 3, 4, 5, 7, 8, 6))),
    }
    degree, gens = cat[name]
    return enumerate_group(degree, gens)
