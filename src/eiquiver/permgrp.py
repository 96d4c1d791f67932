"""Finite permutation groups by full enumeration, with table-driven
arithmetic on element positions.

Groups here are small (the tool targets orders up to ~10^4, typical inputs
are far smaller), so a group is its explicit element list instead of a
stabilizer chain.  Products and inverses of elements, named by their
positions in that list, are table lookups in the manner of Holt, Eick and
O'Brien, *Handbook of Computational Group Theory* (2005): each group keeps
an inverse table and a Cayley table, both numpy int32.  Cayley rows are
built one at a time, on first use, so a group holds only the rows its
callers have asked for, never a full |G| x |G| table up front.  A row
composes one element with the whole element array in numpy and looks the
results up.  Loops that meet each element once (action checks, closure
and normality tests, cosets) take the same whole-array products without
storing them, so they never fill the table either.  pmul composes single
permutations, for enumeration and biset actions, and with pinv is the
plain definition the tables must match.

Element order is globally deterministic: breadth first from the identity,
generators in the given order, ties broken lexicographically on image
sequences.  Every downstream artifact (class order, character rows, quiver
vertex labels) inherits its reproducibility from this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_SIZE_BOUND = 10000


class GroupError(ValueError):
    pass


Perm = tuple[int, ...]  # images of 0..degree-1


def is_int(v) -> bool:
    """True for an integer as JSON gives it: no float or string, and no
    bool (whose type is a subclass of int, not int)."""
    return type(v) is int


def check_perm(images, degree: int) -> Perm:
    try:
        t = tuple(images)
    except TypeError as e:
        raise GroupError(f"not a permutation of degree {degree}: "
                         f"{images}") from e
    if not all(is_int(i) for i in t) or len(t) != degree or \
            sorted(t) != list(range(degree)):
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
    A word less its last letter is the word of an earlier element, so
    each image is one product from that element's.
    """
    image = {(): identity}
    for w in group.words:
        if w:
            image[w] = product(image[w[:-1]], gen_images[w[-1]])
    return tuple(image[w] for w in group.words)


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

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as an n x degree int32 array, row k element k."""
        return np.array(self.elements, dtype=np.int32).reshape(
            len(self), self.degree)

    def positions(self, perms: np.ndarray) -> np.ndarray:
        """Position of each row of an m x degree array of elements."""
        index_of = self.index_of
        return np.array([index_of[t] for t in map(tuple, perms.tolist())],
                        dtype=np.int32)

    @cached_property
    def inverse(self) -> np.ndarray:
        """The inverse table: inverse[i] is the position of element i's
        inverse."""
        return self.positions(np.argsort(self.array, axis=1))

    @cached_property
    def _rows(self) -> list:
        return [None] * len(self)

    def row(self, i: int) -> np.ndarray:
        """Row i of the Cayley table, built on first use: row(i)[j] is
        the position of element i times element j (j applied first)."""
        r = self._rows[i]
        if r is None:
            r = self._rows[i] = self.left_products(i, slice(None))
        return r

    def left_products(self, i: int, js) -> np.ndarray:
        """Positions of element i times each element in js (positions),
        without storing a Cayley row: for loops that meet each i once."""
        a = self.array
        return self.positions(a[i][a[js]])

    def right_products(self, s: Perm) -> np.ndarray:
        """Position of every element times the permutation s (s applied
        first), in element order: one map per generator instead of a
        Cayley row per element."""
        return self.positions(self.array[:, np.asarray(s, dtype=np.intp)])

    def mul(self, i: int, j: int) -> int:
        return int(self.row(i)[j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    @cached_property
    def key(self) -> int:
        """A small integer naming this group's generators and elements:
        equal groups get equal keys, and a cache keyed on it hashes one
        int per lookup instead of the element list."""
        return _GROUP_KEYS.setdefault((self.generators, self.elements),
                                      len(_GROUP_KEYS))

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


_GROUP_KEYS: dict = {}


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
    (the identity class always comes first), found as orbits under
    conjugation by a generating set of at most log2|G| elements:
    O(|G| log |G|) lookups."""
    a = g.array
    conj = []   # conj[k][j]: position of s^-1 * element j * s, s = gens[k]
    for s in _generating_subset(g):
        s = np.array(s, dtype=np.int32)
        conj.append(g.positions(np.argsort(s)[a[:, s]]).tolist())
    seen = [False] * len(g)
    classes = []
    for i in range(len(g)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:
            for c in conj:
                k = c[j]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        members = tuple(sorted(orbit))
        rep = min(members, key=lambda j: g.elements[j])
        classes.append(ConjClass(rep, members))
    return classes


def _generating_subset(g: PermGroup) -> list[Perm]:
    """The generators of g less each one in the closure of those kept
    before it.  A kept generator at least doubles that closure, so at most
    log2|G| remain, even for a group whose generators are all its
    elements."""
    gens = g.generators
    kept: list[Perm] = []
    closure = {pidentity(g.degree)}
    for n, s in enumerate(gens):
        if len(closure) == len(g):
            break
        if s in closure:
            continue
        kept.append(s)
        if n + 1 < len(gens):
            closure = enumerate_group(g.degree, kept, len(g)).index_of
    return kept


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
        """The subgroup as a standalone PermGroup, elements in parent order
        (built once per handle, so its tables are too)."""
        return self._group

    @cached_property
    def _group(self) -> PermGroup:
        elems = tuple(self.parent.elements[i] for i in self.member_positions)
        index_of = {e: k for k, e in enumerate(elems)}
        return PermGroup(self.parent.degree, elems, elems, index_of,
                         tuple((k,) for k in range(len(elems))))

    def is_normal_in(self, other: "SubgroupHandle") -> bool:
        g = self.parent
        a = g.array
        mine = set(self.member_positions)
        members = a[list(self.member_positions)]
        for t in other.member_positions:
            # t * i * t^-1 for every member i, without Cayley rows
            conj = g.positions(a[t][members[:, a[g.inv(t)]]])
            if not mine.issuperset(conj.tolist()):
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
        the permutation c -> q*c of coset indices (built once per
        quotient)."""
        return self._group

    @cached_property
    def _group(self) -> PermGroup:
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
    # products with kernel members and coset representatives only: no
    # Cayley row is stored, even when base is the whole group
    cosets: list[tuple[int, ...]] = []
    projection: dict[int, int] = {}
    kernel_pos = list(kernel.member_positions)
    for i in base.member_positions:
        if i in projection:
            continue
        coset = tuple(sorted(g.left_products(i, kernel_pos).tolist()))
        ci = len(cosets)
        cosets.append(coset)
        for j in coset:
            projection[j] = ci
    reps = [c[0] for c in cosets]
    table = tuple(
        tuple(projection[j] for j in g.left_products(r, reps).tolist())
        for r in reps
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
