"""Finite permutation groups by full enumeration, with table-driven
arithmetic on element positions.

Groups here are small (the tool targets orders up to ~10^4, typical inputs
are far smaller), so a group is its explicit element list instead of a
stabilizer chain.  Products and inverses of elements, named by their
positions in that list, are table lookups in the manner of Holt, Eick and
O'Brien, *Handbook of Computational Group Theory* (2005): each group keeps
an inverse table and a Cayley table, both numpy int32.  Cayley rows are
built on first use, so a group holds only the rows its callers have
asked for (and those on their words' paths), never a full |G| x |G|
table unless a caller reads it whole (PermGroup.cayley).  Rows follow the
BFS words of the enumeration: element i is its word-parent times its
word's last letter s, so row i is the parent's row read at s's row, one
numpy gather.  Looking products up by permutation (positions) is left
to each generator's row, made once per group, and to loops that meet
each element once (action checks, normality tests, cosets), which take
whole-array products without storing them and so never fill the table
either.  pmul composes single permutations, for enumeration and biset
actions, and is the plain definition the tables must match.

orbits is the package's one orbit search, numbering orbits by least
member: conjugacy classes, two-sided hom-set orbits, glued-biset
classes (freecover.biset_product, which the free category's composites
and the unique-factorization test read), and the cosets of a quotient
and of the derived subgroup (derived_cosets) are all orbits of a few
permutations, the cosets under right multiplication by the subgroup's
generators.  A subgroup is a short list of generators (Holt, Eick and
O'Brien, section 4.1), whose closure by enumerate_group (_closure), the
one closure routine, certifies its members: those of
SubgroupHandle.generator_positions and of the derived subgroup alike.
Normality, cosets and a quotient's as_group need only those generators,
at most log2 of its order.

Groups are interned: enumerate_group and QuotientGroup.as_group return
the one live PermGroup of the given generators (and elements), kept in
a table of weak references, so the BFS runs once per distinct live
group.  Its lazy caches are built once and live as long as any holder
of the shared group does (a category, a memo, or a character table in
chartab._MODEL_CACHE): the inverse table, word levels, generator maps
and Cayley rows, and one store, PermGroup.memo, of what the group has
certified:
  - ("subgroup", members): the generator positions of each member set
    SubgroupHandle.generator_positions certified a subgroup;
  - ("quotient", base, kernel): the cosets, projection and table of each
    pair of member sets quotient() accepted;
  - ("action", side, size, gens): the element images of each set of
    generator images that respects_relations accepted
    (eicat._element_actions).
Each is a pure function of the group and its key, so a hit gives what
the checks would give again; the memo holds only ints, tuples and
dicts of ints, never a handle or a group.  Lazy caches are the only
state a shared group changes.

memo() is the package's one get-or-build: PermGroup.memo, the category
memo (eicat.EICategory.memo) and the process cache of tables, models
and functor bases (chartab._MODEL_CACHE) are each a dict read through
it, so each builds once per key and stores nothing when a check in the
build fails.

Element order is globally deterministic: breadth first from the identity,
generators in the given order, ties broken lexicographically on image
sequences.  Every downstream artifact (class order, character rows, quiver
vertex labels) inherits its reproducibility from this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, count
from math import lcm
from weakref import WeakValueDictionary

import numpy as np

from .errors import InvariantError, ValidationError

DEFAULT_SIZE_BOUND = 10000


Perm = tuple[int, ...]  # images of 0..degree-1


def is_int(v) -> bool:
    """True for an integer as JSON gives it: no float or string, and no
    bool (whose type is a subclass of int, not int)."""
    return type(v) is int


def check_perm(images, degree: int) -> Perm:
    try:
        t = tuple(images)
    except TypeError:
        t = None
    if t is None or not all(is_int(i) for i in t) or len(t) != degree or \
            sorted(t) != list(range(degree)):
        raise ValidationError("bad-group", f"not a permutation of degree "
                              f"{degree}: {images}")
    return t


def pmul(a: Perm, b: Perm) -> Perm:
    """Composite a∘b (apply b first)."""
    return tuple([a[i] for i in b])


def pidentity(degree: int) -> Perm:
    return tuple(range(degree))


def memo(store: dict, key, build, *args):
    """store[key], built as build(*args) on the first call for key: one
    build per key, the same object, shared read-only, on every later
    call, and nothing stored when the build raises.  Every cache in the
    package is kept through it."""
    try:
        return store[key]
    except KeyError:
        pass   # build outside the handler: its errors chain no KeyError
    value = store[key] = build(*args)
    return value


def word_products(group: PermGroup, gen_images, identity, product) -> tuple:
    """Image of every element of group, in element order, as the product of
    its generators' images along the element's BFS word: each letter k
    turns acc into product(acc, gen_images[k]).

    A left action passes pmul (the action of a*b applies b's permutation
    first); a right action passes pmul with its arguments swapped (the
    action of a*b is b's after a's).  Matrices do not come here: they
    are built one batched product per level (morita.element_matrices).
    A word less its last letter is the word of an element one level up
    in word_levels, so each image is one product from that element's.
    """
    images = [identity] * len(group)
    for s, kids, parents in group.word_levels:
        g = gen_images[s]
        for k, parent in zip(kids.tolist(), parents.tolist()):
            images[k] = product(images[parent], g)
    return tuple(images)


def respects_relations(group: PermGroup, images, gen_images, product) -> bool:
    """Whether images[e * s_k] equals product(images[e], gen_images[k])
    for every element e and generator s_k.  By induction on word length
    this holds exactly when images (from word_products) does not depend
    on the words chosen, that is, when the generator images satisfy the
    group's relations."""
    for k, times_s in enumerate(group.generator_maps):
        for e, es in enumerate(times_s):
            if images[es] != product(images[e], gen_images[k]):
                return False
    return True


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    index_of: dict[Perm, int] = field(compare=False, repr=False)
    # word in generator indices reaching each element from the identity
    words: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    # a small integer naming this group, never reused: equal live groups
    # are one object (_INTERNED), so they share one key, and a cache keyed
    # on it hashes one int per lookup instead of the element list
    key: int = field(default_factory=count().__next__, init=False,
                     compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __len__(self) -> int:
        return len(self.elements)

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

    @cached_property
    def _word_pos(self) -> dict:
        return {w: i for i, w in enumerate(self.words)}

    def _generator_row(self, s: int) -> np.ndarray:
        """Row of generator s, kept like any other row: looked up in the
        element index (left_products) at most once per group."""
        rows, k = self._rows, self.index_of[self.generators[s]]
        if rows[k] is None:
            rows[k] = self.left_products(k, slice(None))
        return rows[k]

    def row(self, i: int) -> np.ndarray:
        """Row i of the Cayley table, built on first use: row(i)[j] is
        the position of element i times element j (j applied first).

        Element i is its word-parent times its word's last letter s, so
        row(i) = row(parent)[generator s's row], one gather; the empty
        word's row is arange(|G|).  The walk up the word is a loop, so a
        long word (C_n has one of length n - 1) needs no recursion.  A
        request keeps every row on its word's path that was not kept
        before: at most word length + 1 rows (one for the empty word of
        the identity), plus the row of each generator it uses that no
        request has kept yet.
        """
        rows, word_pos = self._rows, self._word_pos
        path = []   # i's word and its prefixes with no row yet, longest first
        w = self.words[i]
        while w and rows[word_pos[w]] is None:
            path.append(w)
            w = w[:-1]
        r = rows[word_pos[w]] if w else np.arange(len(self), dtype=np.int32)
        for w in reversed(path):
            r = rows[word_pos[w]] = r[self._generator_row(w[-1])]
        rows[i] = r
        return r

    @cached_property
    def word_levels(self) -> tuple:
        """(s, children, parents) per word length and last letter s,
        shorter words first: children are the positions of the elements
        whose words have that length and end in s, and parents the
        positions of those words less s (the identity's, with the empty
        word, for words of length 1).  Every parent's word is shorter,
        so images along the words can be built one level at a time, one
        batched product per entry, whatever the element order: in the
        groups of QuotientGroup.as_group a parent may come after its
        children."""
        word_pos, levels = self._word_pos, {}
        for i, w in enumerate(self.words):
            if w:
                kids, parents = levels.setdefault((len(w), w[-1]), ([], []))
                kids.append(i)
                parents.append(word_pos[w[:-1]])
        return tuple((s, np.array(kids, dtype=np.intp),
                      np.array(parents, dtype=np.intp))
                     for (_, s), (kids, parents) in sorted(levels.items()))

    @cached_property
    def cayley(self) -> np.ndarray:
        """The whole Cayley table, cayley[i] = row(i), for callers that
        read every row; the kept rows become views of the table.  In the
        groups of QuotientGroup.as_group a word-parent may come after its
        children, so a row may first build its parents' rows."""
        n = len(self)
        table = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            table[i] = self.row(i)
            self._rows[i] = table[i]
        return table

    def left_products(self, i: int, js) -> np.ndarray:
        """Positions of element i times each element in js (positions),
        without storing a Cayley row: for loops that meet each i once,
        and for each generator's row."""
        a = self.array
        return self.positions(a[i][a[js]])

    def right_products(self, s: Perm) -> np.ndarray:
        """Position of every element times the permutation s (s applied
        first), in element order: one map per generator instead of a
        Cayley row per element."""
        return self.positions(self.array[:, np.asarray(s, dtype=np.intp)])

    @cached_property
    def generator_maps(self) -> list[list[int]]:
        """right_products of each generator, as lists: element e times
        generator k is element generator_maps[k][e]."""
        return [self.right_products(s).tolist() for s in self.generators]

    def memo(self, key, build):
        """memo() in the group's own store, kept while the group lives:
        what the group certified (see the module docstring), plain data
        only, never a handle or a group."""
        return memo(self._memo, key, build)

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    @cached_property
    def exponent(self) -> int:
        """The lcm of the cycle lengths of every element."""
        e = 1
        for g in self.elements:
            seen = [False] * self.degree
            for j in range(self.degree):
                n = 0
                while not seen[j]:
                    seen[j] = True
                    j, n = g[j], n + 1
                e = lcm(e, n or 1)
        return e


# Every live group once, weakly: (degree, generators) names the group
# enumerate_group made of them, (degree, generators, elements) the one
# _generated returned for them.
_INTERNED: WeakValueDictionary = WeakValueDictionary()


def enumerate_group(degree: int, generators, bound: int = DEFAULT_SIZE_BOUND) -> PermGroup:
    """Generate the closure of the given permutations, BFS from identity;
    a non-permutation or more than bound elements is ValidationError
    ("bad-group").  A live group of the same generators is returned as
    it is, without a BFS."""
    gens = tuple(check_perm(g, degree) for g in generators)
    if (group := _INTERNED.get((degree, gens))) is None:
        group = _INTERNED[degree, gens] = _enumerate(degree, gens, bound)
    if len(group) > bound:
        raise ValidationError("bad-group", f"group closure exceeds bound {bound}")
    return group


def _enumerate(degree: int, gens: tuple[Perm, ...], bound: int) -> PermGroup:
    """enumerate_group's BFS."""
    ident = pidentity(degree)
    elements: list[Perm] = [ident]
    words: list[tuple[int, ...]] = [()]
    index_of: dict[Perm, int] = {ident: 0}
    frontier = [ident]
    while frontier:
        # each new element keeps the first word that reaches it; the
        # layer is numbered in lexicographic order
        layer: dict[Perm, tuple[int, ...]] = {}
        for g in frontier:
            w = words[index_of[g]]
            for k, s in enumerate(gens):
                h = pmul(g, s)
                if h not in index_of:
                    layer.setdefault(h, w + (k,))
        frontier = sorted(layer)
        for h in frontier:
            if len(elements) >= bound:
                raise ValidationError("bad-group",
                                      f"group closure exceeds bound {bound}")
            index_of[h] = len(elements)
            elements.append(h)
            words.append(layer[h])
    return PermGroup(degree, gens, tuple(elements), index_of, tuple(words))


@dataclass(frozen=True)
class ConjClass:
    rep: int          # position of the lexicographically least member
    members: tuple[int, ...]  # sorted positions

    def __len__(self) -> int:
        return len(self.members)


def orbits(n: int, perms, points=None) -> tuple[list[int], list[int]]:
    """The orbits of 0..n-1 under perms, each a sequence of images,
    numbered in order of least member: label[i] is the orbit number of
    point i and least[c] the least member of orbit c.  Given points, only
    the orbits meeting them are labelled, and every other point gets -1.

    """
    label = [-1] * n
    least = []
    for start in range(n) if points is None else sorted(points):
        if label[start] >= 0:
            continue
        c = len(least)
        label[start] = c
        low = start
        stack = [start]
        while stack:
            i = stack.pop()
            for perm in perms:
                j = perm[i]
                if label[j] < 0:
                    label[j] = c
                    stack.append(j)
                    if j < low:
                        low = j
        least.append(low)
    if least != sorted(least):
        # an orbit may meet points above a member outside them
        rank = sorted(range(len(least)), key=least.__getitem__)
        new = {c: k for k, c in enumerate(rank)}
        label = [new[c] if c >= 0 else -1 for c in label]
        least.sort()
    return label, least


def orbit_members(label: list[int], count: int) -> list[tuple[int, ...]]:
    """The members of each of count orbits, sorted, from orbits' label."""
    members: list[list[int]] = [[] for _ in range(count)]
    for i, c in enumerate(label):
        if c >= 0:
            members[c].append(i)
    return [tuple(m) for m in members]


def conjugacy_classes(g: PermGroup) -> list[ConjClass]:
    """Classes in order of first appearance in the element enumeration
    (the identity class always comes first), found as orbits under
    conjugation by g's generators: O(|G|) lookups per generator.  The
    groups of QuotientGroup.as_group have at most log2|G| generators; a
    document's group has the ones it lists, all its elements if it lists
    them."""
    a = g.array
    conj = []   # conj[k][j]: position of s^-1 * element j * s, s = gens[k]
    for s in g.generators:
        s = np.array(s, dtype=np.int32)
        conj.append(g.positions(np.argsort(s)[a[:, s]]).tolist())
    label, least = orbits(len(g), conj)
    return [ConjClass(min(members, key=lambda j: g.elements[j]), members)
            for members in orbit_members(label, len(least))]


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

    @cached_property
    def generator_positions(self) -> tuple[int, ...]:
        """The members, in parent order, less each one in the closure of
        those kept before it.  A kept member at least doubles that
        closure, so at most log2 of the subgroup's order remain.  Every
        member lies in the last closure, and no closure may outgrow the
        member count, so InvariantError unless the members are exactly
        that closure, a subgroup.  The walk runs once per member set
        while the parent lives (its memo); a set that is not a subgroup
        is not kept, and raises on every call."""
        g, members = self.parent, self.member_positions

        def walk():
            kept, closure = [], {pidentity(g.degree): 0}
            for i in members:
                if g.elements[i] not in closure:
                    kept.append(i)
                    closure = _closure(g.degree, [g.elements[k] for k in kept],
                                       len(members)).index_of
            if len(closure) != len(members):
                raise InvariantError("the members are not a subgroup")
            return tuple(kept)
        return g.memo(("subgroup", members), walk)

    def is_normal_in(self, other: "SubgroupHandle") -> bool:
        """Whether other's generators conjugate this subgroup into itself,
        which for a finite subgroup is normality: t*N*t^-1 within N has
        |N| members, so it is N."""
        g = self.parent
        a = g.array
        mine = set(self.member_positions)
        members = a[list(self.member_positions)]
        for t in other.generator_positions:
            # t * i * t^-1 for every member i, without Cayley rows
            conj = g.positions(a[t][members[:, a[g.inv(t)]]])
            if not mine.issuperset(conj.tolist()):
                return False
        return True


@dataclass(frozen=True)
class QuotientGroup:
    base: SubgroupHandle
    kernel: SubgroupHandle
    cosets: tuple[tuple[int, ...], ...]   # partition of base positions
    projection: dict[int, int]            # base position -> coset index
    table: tuple[tuple[int, ...], ...]    # coset multiplication

    def __len__(self) -> int:
        return len(self.cosets)

    def as_group(self) -> PermGroup:
        """Left-regular permutation model, in coset order: element q is
        the permutation c -> q*c of coset indices, a row of the table,
        generated by the distinct non-identity cosets (coset 0 holds the
        identity) of the base's generators; looked up on every call and
        built only when no equal group is live."""
        cosets = dict.fromkeys(self.projection[s]
                               for s in self.base.generator_positions)
        return _generated(len(self), [self.table[q] for q in cosets if q],
                          self.table)


def _closure(degree: int, gens, bound: int) -> PermGroup:
    """enumerate_group of generators taken from a subgroup or quotient of
    bound elements: a closure that outgrows them is an internal error."""
    try:
        return enumerate_group(degree, gens, bound)
    except ValidationError as e:
        raise InvariantError(f"generators outgrow their group: {e}") from e


def _generated(degree: int, gens, elements) -> PermGroup:
    """The group generated by gens with its elements in the given order,
    each with its word from the closure's BFS; InvariantError unless that
    closure is exactly elements.  A live group of the same generators
    and elements is returned as it is: the closure itself, when elements
    are in its BFS order, so equal live groups are one object."""
    key = (degree, tuple(gens), tuple(elements))
    if (group := _INTERNED.get(key)) is None:
        closure = _closure(degree, gens, len(elements))
        index_of = {e: k for k, e in enumerate(elements)}
        if closure.index_of.keys() != index_of.keys():
            raise InvariantError("generators miss an element of their group")
        words = closure.words
        group = _INTERNED[key] = closure if closure.elements == key[2] \
            else PermGroup(degree, closure.generators, key[2], index_of,
                           tuple(words[closure.index_of[e]] for e in elements))
    return group


def derived_cosets(g: PermGroup) -> tuple[np.ndarray, list[np.ndarray]]:
    """The cosets of the derived subgroup G' of g, the elements of the
    abelian group g/G': label[i] is the coset of element i, numbered by
    least member, so that coset 0 is G' itself, and acts[k][c] the coset
    of generator k times coset c.

    G' is the normal closure of the commutators s^-1 t^-1 s t of g's
    generators.  Each of those, then each conjugate t k t^-1 of a kept
    generator k by a generator t of g, is kept when it lies outside the
    closure (_closure) of those kept before it, which it then at least
    doubles: at most log2|G'| are kept.  Every kept generator's
    conjugates are tried, so the last closure N is normal; it holds
    every commutator of generators, so g/N is abelian, and it lies in
    G', so it is G'.  The cosets i G' are the orbits of right
    multiplication by the kept generators, as in quotient(), and each
    generator of g acts on them through their least members.  No Cayley
    row is stored.
    """
    gens = g.generators
    inverses = [g.elements[g.inv(g.index_of[s])] for s in gens]
    pending = [pmul(pmul(si, ti), pmul(s, t))
               for (s, si), (t, ti) in combinations(zip(gens, inverses), 2)]
    kept, derived = [], {pidentity(g.degree): 0}
    for c in pending:   # the list grows with each kept generator's conjugates
        if c not in derived:
            kept.append(c)
            derived = _closure(g.degree, kept, len(g)).index_of
            pending += [pmul(pmul(t, c), ti) for t, ti in zip(gens, inverses)]
    label, least = orbits(len(g), [g.right_products(k).tolist() for k in kept])
    label = np.array(label)
    return label, [label[g.left_products(g.index_of[s], least)] for s in gens]


def quotient(base: SubgroupHandle, kernel: SubgroupHandle) -> QuotientGroup:
    """base/kernel on its cosets; its checks fail only on a bug.  The
    checks and the coset search run once per pair of member sets while
    the parent lives (its memo); a hit is the same cosets and table over
    the caller's handles."""
    g = base.parent
    if kernel.parent is not g:
        raise InvariantError("kernel and base live in different parent groups")
    found = g.memo(("quotient", base.member_positions,
                    kernel.member_positions), lambda: _quotient(base, kernel))
    return QuotientGroup(base, kernel, *found)


def _quotient(base: SubgroupHandle, kernel: SubgroupHandle) -> tuple:
    """quotient()'s checks, then its cosets, projection and table."""
    g = base.parent
    if not set(kernel.member_positions) <= set(base.member_positions):
        raise InvariantError("kernel is not contained in base")
    if not kernel.is_normal_in(base):
        raise InvariantError("kernel is not normal in base")
    # the cosets i*K are the orbits of right multiplication by K's
    # generators: one map per generator, and no Cayley row is stored
    label, least = orbits(len(g), [g.right_products(g.elements[k]).tolist()
                                   for k in kernel.generator_positions],
                          points=base.member_positions)
    cosets = orbit_members(label, len(least))
    projection = {i: label[i] for i in base.member_positions}
    reps = [c[0] for c in cosets]
    table = tuple(
        tuple(projection[j] for j in g.left_products(r, reps).tolist())
        for r in reps
    )
    return tuple(cosets), projection, table
