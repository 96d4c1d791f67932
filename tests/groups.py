"""Groups, subgroups and inverses that only the tests build: a small
catalog of named groups for the property-test generators, the whole and
the trivial subgroup of a group, and the plain inverse of a permutation
that the inverse table must match."""

from functools import lru_cache

from eiquiver.permgrp import Perm, PermGroup, SubgroupHandle, enumerate_group


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def whole_group(g: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(g, tuple(range(len(g))))


def trivial_subgroup(g: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(g, (g.identity_pos,))


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
    }
    degree, gens = cat[name]
    return enumerate_group(degree, gens)
