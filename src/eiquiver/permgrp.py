"""Finite permutation groups by full enumeration.

Groups here are tiny (the tool targets orders up to ~10^4, typical inputs
are far smaller), so everything is done by explicit element lists instead
of stabilizer chains.  Element order is globally deterministic: breadth
first from the identity, generators in the given order, ties broken
lexicographically on image sequences.  Every downstream artifact (class
order, character rows, quiver vertex labels) inherits its reproducibility
from this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

DEFAULT_SIZE_BOUND = 10000


class GroupError(ValueError):
    pass


Perm = tuple[int, ...]  # images of 0..degree-1


def check_perm(images, degree: int) -> Perm:
    try:
        t = tuple(int(i) for i in images)
    except (TypeError, ValueError) as e:
        raise GroupError(f"not a permutation of degree {degree}: "
                         f"{images}") from e
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise GroupError(f"not a permutation of degree {degree}: {images}")
    return t


def pmul(a: Perm, b: Perm) -> Perm:
    """Composite a∘b (apply b first)."""
    return tuple(a[b[i]] for i in range(len(a)))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def pidentity(degree: int) -> Perm:
    return tuple(range(degree))


def word_products(group: PermGroup, gen_images, identity, product) -> tuple:
    """Image of every element of group, in element order, as the product of
    its generators' images along the element's BFS word: each letter k
    turns acc into product(acc, gen_images[k]).

    A left action passes pmul (the action of a*b applies b's permutation
    first); a right action passes pmul with its arguments swapped (the
    action of a*b is b's after a's); matrices pass their product mod p.
    """
    out = []
    for w in group.words:
        acc = identity
        for k in w:
            acc = product(acc, gen_images[k])
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    index_of: dict[Perm, int] = field(compare=False, repr=False)
    # word in generator indices reaching each element from the identity
    words: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity_pos(self) -> int:
        return self.index_of[pidentity(self.degree)]

    def mul(self, i: int, j: int) -> int:
        return self.index_of[pmul(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return self.index_of[pinv(self.elements[i])]

    def exponent(self) -> int:
        from math import lcm

        e = 1
        for g in self.elements:
            n, x = 1, g
            ident = pidentity(self.degree)
            while x != ident:
                x = pmul(x, g)
                n += 1
            e = lcm(e, n)
        return e


def enumerate_group(degree: int, generators, bound: int = DEFAULT_SIZE_BOUND) -> PermGroup:
    """Generate the closure of the given permutations, BFS from identity."""
    gens = tuple(check_perm(g, degree) for g in generators)
    ident = pidentity(degree)
    elements: list[Perm] = [ident]
    words: list[tuple[int, ...]] = [()]
    index_of: dict[Perm, int] = {ident: 0}
    frontier = [ident]
    while frontier:
        # lexicographic tie-break inside each BFS layer
        layer: list[tuple[Perm, tuple[int, ...]]] = []
        for g in frontier:
            w = words[index_of[g]]
            for k, s in enumerate(gens):
                h = pmul(g, s)
                if h not in index_of and all(h != x for x, _ in layer):
                    layer.append((h, w + (k,)))
        layer.sort(key=lambda t: t[0])
        frontier = []
        for h, w in layer:
            if h in index_of:
                continue
            if len(elements) >= bound:
                raise GroupError(f"group closure exceeds bound {bound}")
            index_of[h] = len(elements)
            elements.append(h)
            words.append(w)
            frontier.append(h)
    return PermGroup(degree, gens, tuple(elements), index_of, tuple(words))


@dataclass(frozen=True)
class ConjClass:
    rep: int          # position of the lexicographically least member
    members: tuple[int, ...]  # sorted positions

    def __len__(self) -> int:
        return len(self.members)


def conjugacy_classes(g: PermGroup) -> list[ConjClass]:
    """Classes in order of first appearance in the element enumeration
    (the identity class always comes first)."""
    seen = [False] * len(g)
    classes = []
    for i in range(len(g)):
        if seen[i]:
            continue
        orbit = set()
        for t in range(len(g)):
            c = g.mul(g.mul(t, i), g.inv(t))
            orbit.add(c)
        for j in orbit:
            seen[j] = True
        members = tuple(sorted(orbit))
        rep = min(members, key=lambda j: g.elements[j])
        classes.append(ConjClass(rep, members))
    return classes


def class_index_of(g: PermGroup, classes: list[ConjClass]) -> list[int]:
    """Map element position -> class index."""
    out = [-1] * len(g)
    for ci, c in enumerate(classes):
        for j in c.members:
            out[j] = ci
    return out


@dataclass(frozen=True)
class SubgroupHandle:
    parent: PermGroup
    member_positions: tuple[int, ...]  # sorted

    def __len__(self) -> int:
        return len(self.member_positions)

    def as_group(self) -> PermGroup:
        """The subgroup as a standalone PermGroup, elements in parent order."""
        elems = tuple(self.parent.elements[i] for i in self.member_positions)
        index_of = {e: k for k, e in enumerate(elems)}
        return PermGroup(self.parent.degree, elems, elems, index_of,
                         tuple((k,) for k in range(len(elems))))

    def is_normal_in(self, other: "SubgroupHandle") -> bool:
        g = self.parent
        mine = set(self.member_positions)
        for t in other.member_positions:
            for i in self.member_positions:
                if g.mul(g.mul(t, i), g.inv(t)) not in mine:
                    return False
        return True


def whole_group(g: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(g, tuple(range(len(g))))


def trivial_subgroup(g: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(g, (g.identity_pos,))


@dataclass(frozen=True)
class QuotientGroup:
    base: SubgroupHandle
    kernel: SubgroupHandle
    cosets: tuple[tuple[int, ...], ...]   # partition of base positions
    projection: dict[int, int]            # base position -> coset index
    table: tuple[tuple[int, ...], ...]    # coset multiplication

    def __len__(self) -> int:
        return len(self.cosets)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def as_group(self) -> PermGroup:
        """Left-regular permutation model, in coset order: element q is
        the permutation c -> q*c of coset indices."""
        n = len(self)
        elems = tuple(tuple(self.table[q][c] for c in range(n)) for q in range(n))
        # regular model is faithful, so all permutations are distinct
        index_of = {e: k for k, e in enumerate(elems)}
        return PermGroup(n, elems, elems, index_of,
                         tuple((k,) for k in range(n)))


def quotient(base: SubgroupHandle, kernel: SubgroupHandle) -> QuotientGroup:
    g = base.parent
    if kernel.parent is not g:
        raise GroupError("kernel and base live in different parent groups")
    base_set = set(base.member_positions)
    if not set(kernel.member_positions) <= base_set:
        raise GroupError("kernel is not contained in base")
    if not kernel.is_normal_in(base):
        raise GroupError("kernel is not normal in base")
    cosets: list[tuple[int, ...]] = []
    projection: dict[int, int] = {}
    for i in base.member_positions:
        if i in projection:
            continue
        coset = tuple(sorted(g.mul(i, k) for k in kernel.member_positions))
        ci = len(cosets)
        cosets.append(coset)
        for j in coset:
            projection[j] = ci
    table = tuple(
        tuple(projection[g.mul(c1[0], c2[0])] for c2 in cosets) for c1 in cosets
    )
    return QuotientGroup(base, kernel, tuple(cosets), projection, table)


@dataclass(frozen=True)
class GroupIso:
    source: QuotientGroup
    target: QuotientGroup
    mapping: tuple[int, ...]  # source coset index -> target coset index

    def __call__(self, c: int) -> int:
        return self.mapping[c]

    def inverse(self) -> "GroupIso":
        back = [0] * len(self.mapping)
        for a, b in enumerate(self.mapping):
            back[b] = a
        return GroupIso(self.target, self.source, tuple(back))

    def validate(self) -> None:
        n = len(self.source)
        if len(self.target) != n or sorted(self.mapping) != list(range(n)):
            raise GroupError("quotient map is not a bijection")
        for a in range(n):
            for b in range(n):
                lhs = self.mapping[self.source.mul(a, b)]
                rhs = self.target.mul(self.mapping[a], self.mapping[b])
                if lhs != rhs:
                    raise GroupError("quotient map is not multiplicative")


# small catalog used by the property-test generators
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
        "C2xC2xC2": (6, ((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4))),
    }
    degree, gens = cat[name]
    return enumerate_group(degree, gens)
