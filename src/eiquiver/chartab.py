"""Exact character theory over a splitting prime field.

All scalars live in F_p where p ≡ 1 (mod exponent) for every group in
play and p exceeds twice the largest group order.  Under those
constraints F_p is a splitting field for every group and subgroup
involved, every group algebra is split semisimple, and all multiplicities
agree with their characteristic-0 counterparts and are recovered exactly
as least nonnegative residues.

A character table is its linear characters, written down, and the rest
by the Burnside/Dixon method (Dixon, Numer. Math. 10, 1967; Schneider,
J. Symbolic Comput. 9, 1990).  The linear characters are those of the
abelian group G/G', built one generator at a time as powers of one
primitive root of unity, from the cosets of the derived subgroup
(permgrp.derived_cosets).  The others' central characters are the
simultaneous eigenvectors of the class-multiplication matrices over
F_p within the nullspace of the linear rows, each matrix's
eigenvalues the roots of its certified minimal polynomial
(linalg.eigenspaces).  Each subspace is an echelon basis B, B[piv] = I,
so a class matrix M acts on it by (M B)[piv], read with no linear
system, and B (M B)[piv] = M B certifies that M stabilizes it.  So an
abelian group, or one with a single non-linear character, builds no
class matrix.  Class 0 is the identity class, whose matrix is the
identity and splits nothing, so it is skipped.  A table holds r x |G|
values (CharTable.values), so a group for which that exceeds
MAX_TABLE_ENTRIES is refused first.

Characters are kept in one form: a table's rows, one r x r int64 array
of values per class and the only store of them, and CharTable.values,
one gather of it at every element.  Restriction multiplicities and
inflation work on whole tables at once: each is one array product or
one gather over those values.

_MODEL_CACHE holds, for the life of the process and without a bound,
every character table, irreducible model, list of model coefficients
and functor basis, and the commutant's shuffled order of each group
order, each built through permgrp.memo under a key whose first element
names its kind:
  - ("table", p, group.key): a character table;
  - ("model", p, group.key, i): the model of irreducible i
    (morita.irreducible_model);
  - ("coefs", p, group.key): one list over the irreducibles i of model
    i's coefficients U(g^-1)[0, .] at every element g
    (morita.MoritaContext.copies);
  - ("hom", p, group.key, K1's member positions, the coset of each
    member's inverse, the quotient group's key, v, u): a kappa or mu
    basis (morita.MoritaContext.stabilizer_hom);
  - ("inverse", the same signature, v): an L_V
    (morita.MoritaContext.source_inverse).
  - ("shuffle", n): 0..n-1 in morita.commutant's fixed shuffled order
    (morita._shuffled).
Equal live groups are one object (permgrp interns them), so group.key,
never reused, names a group's generators and element order; an entry is
a deterministic function of its key, so a hit is exactly what a fresh
computation would give, and every check runs inside the build, so
nothing is stored when one fails.  A table holds its group, which
therefore stays interned, with its Cayley rows, as long as the table is
cached; so do the two groups a functor entry is keyed by, whose tables
it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import isqrt, lcm

import numpy as np

from . import linalg
from .errors import InvariantError, ValidationError
from .permgrp import (ConjClass, PermGroup, QuotientGroup, SubgroupHandle,
                      class_index_of, conjugacy_classes, derived_cosets,
                      memo)

PRIME_SEARCH_BOUND = 10**6

# classes times group order: a table's values at every element
MAX_TABLE_ENTRIES = 1 << 22

_MODEL_CACHE: dict = {}


def _isprime(n: int) -> bool:
    """Trial division: every prime tested here is at most
    PRIME_SEARCH_BOUND."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class SplittingPrime:
    p: int
    certified_exponent: int   # lcm of exponents of registered groups
    certified_max_order: int

    def certify(self, g: PermGroup) -> None:
        if self.certified_exponent % g.exponent != 0 or len(g) > self.certified_max_order:
            raise ValidationError("bad-prime", f"prime {self.p} not certified "
                                  f"for a group of order {len(g)}")


def splitting_prime_for(exponent: int, max_order: int) -> SplittingPrime:
    """Minimal prime p ≡ 1 mod exponent with p > 2*max_order."""
    p = 2 * max_order + 1
    p += (1 - p) % exponent      # the least candidate ≡ 1 mod exponent
    while p <= PRIME_SEARCH_BOUND:
        if _isprime(p):
            return SplittingPrime(p, exponent, max_order)
        p += exponent
    raise ValidationError("bad-prime",
                          f"no splitting prime below {PRIME_SEARCH_BOUND}")


def _exponent_and_max_order(groups) -> tuple[int, int]:
    """The lcm of the groups' exponents and their largest order."""
    groups = list(groups)
    return lcm(1, *(g.exponent for g in groups)), max([1, *map(len, groups)])


def certified_prime(p: int, groups) -> SplittingPrime:
    """Certify a user-supplied prime against the given groups, or raise
    ValidationError("bad-prime"), as do the other prime checks here."""
    # beyond the bound, products in linalg.matmul can overflow int64
    if p > PRIME_SEARCH_BOUND:
        raise ValidationError(
            "bad-prime", f"{p} exceeds the prime bound {PRIME_SEARCH_BOUND}")
    if not _isprime(p):
        raise ValidationError("bad-prime", f"{p} is not prime")
    ex, mx = _exponent_and_max_order(groups)
    if p % ex != 1 and ex > 1:
        raise ValidationError(
            "bad-prime", f"{p} is not 1 mod the group exponent {ex}")
    if p <= 2 * mx:
        raise ValidationError(
            "bad-prime", f"{p} must exceed twice the largest group order {mx}")
    return SplittingPrime(p, ex, mx)


def choose_splitting_prime(groups) -> SplittingPrime:
    groups = list(groups)
    if not groups:
        raise ValidationError("bad-prime", "need at least one group")
    return splitting_prime_for(*_exponent_and_max_order(groups))


@dataclass(frozen=True, eq=False)
class CharTable:
    """A table compares by identity: its rows are an array."""
    group: PermGroup
    p: int
    classes: tuple[ConjClass, ...]
    class_of: tuple[int, ...]              # element position -> class index
    rows: np.ndarray                       # r x r int64, values per class
    dims: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def values(self) -> np.ndarray:
        """Each irreducible character at each element, an r x |G| int64
        array: values[i, e] = rows[i, class_of[e]]."""
        return self.rows[:, self.class_of]


def _class_mult_matrices(g: PermGroup, classes, class_of, p: int):
    """Yield M_0, M_1, ... in class order, with
    (M_i)[j,k] = #{(u,v) in C_i x C_j : uv = w_k} for fixed w_k.

    For each k, v = u^-1 w_k over all u is the inverse table read along
    the Cayley row of w_k^-1, so the class-rep rows, gathered once, give
    each v's class; M_i is then one bincount over u in C_i, reduced mod
    p in place.  Only one matrix's r^2 counts exist at a time, not all
    r^3, and a caller that stops early builds no more.
    """
    r = len(classes)
    cls = np.asarray(class_of)
    rows = np.array([g.row(k) for k in g.inverse[[c.rep for c in classes]]])
    vcls = cls[g.inverse[rows.T]] * r + np.arange(r)   # u, k -> j*r + k
    for c in classes:
        m = np.bincount(vcls[list(c.members)].ravel(),
                        minlength=r * r).reshape(r, r)
        yield np.remainder(m, p, out=m)


def _split_common_eigenvectors(mats, start: np.ndarray, p: int):
    """Intersect eigenspaces of the commuting matrices, within the
    invariant subspace spanned by start's columns, until 1-dimensional,
    pulling the next matrix from the iterable mats only while some space
    is not yet a line: a start of at most one column pulls none.  The
    first, the identity class's matrix, is the identity: it is skipped.
    Each subspace is (B, piv) with B[piv] = I, so M acts on it by
    S = (M B)[piv], and B S = M B certifies that M stabilizes it."""
    spaces = [linalg.column_echelon(start, p)] if start.shape[1] else []
    mats = islice(mats, 1, None)
    while any(len(piv) != 1 for _, piv in spaces):
        m = next(mats, None)
        if m is None:
            raise InvariantError(
                "eigenspaces did not split; prime is not splitting")
        nxt = []
        for basis, piv in spaces:
            if len(piv) == 1:
                nxt.append((basis, piv))
                continue
            mb = linalg.matmul(m, basis, p)
            s = mb[piv]
            if not np.array_equal(linalg.matmul(basis, s, p), mb):
                raise InvariantError("class-sum matrix does not stabilize subspace")
            nxt.extend(
                linalg.column_echelon(linalg.matmul(basis, ns.T, p), p)
                for ns in linalg.eigenspaces(s, p))
        spaces = nxt
    return [basis[:, 0] for basis, _ in spaces]


def _root_of_unity(e: int, p: int) -> int:
    """A primitive e-th root of unity mod p, for e dividing p - 1: the
    first x^((p-1)/e), x = 2, 3, ..., none of whose powers e/q, q a
    prime factor of e, is 1."""
    primes = [q for q in range(2, e + 1) if e % q == 0 and _isprime(q)]
    for x in range(2, p):
        z = pow(x, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in primes):
            return z
    raise InvariantError(f"no primitive {e}-th root of unity mod {p}")


def _linear_characters(g: PermGroup, classes, p: int) -> np.ndarray:
    """The |G:G'| linear characters of g at its class representatives,
    one row each: the characters of A = G/G', whose elements are the
    cosets of the derived subgroup G'.

    A is built up one generator s of g at a time, B = <B, s>, each
    character as exponents of one primitive e-th root of unity zeta,
    e = g.exponent.  With m the least power of s in B, the elements
    b s^i (b in B, i < m) are distinct, and each character chi of B,
    chi(s^m) = zeta^t, has the m extensions chi'(b s^i) = chi(b) zeta^(iu),
    u = t/m + j e/m for j < m.  m divides t, as the order of zeta^t
    divides that of s^m.
    """
    label, acts = derived_cosets(g)
    e = g.exponent
    where = np.full(label.max() + 1, -1)   # coset -> its index in B, or -1
    where[0] = 0                           # the coset G' of the identity
    elems = np.zeros(1, dtype=np.intp)
    exps = np.zeros((1, 1), dtype=np.int64)   # character, element of B
    for act in acts:
        layers = [elems]   # layers[i] = B s^i, elems[0] the identity
        while where[(nxt := act[layers[-1]])[0]] < 0:
            layers.append(nxt)
        m = len(layers)
        u = exps[:, where[nxt[0]], None] // m + np.arange(m) * (e // m)
        exps = (exps[:, None, None, :] + u[:, :, None, None]
                * np.arange(m)[:, None]) % e
        exps = exps.reshape(len(elems) * m, -1)
        elems = np.concatenate(layers)
        where[elems] = np.arange(len(elems))
    zeta, powers = _root_of_unity(e, p), [1]
    for _ in range(1, e):
        powers.append(powers[-1] * zeta % p)
    return np.array(powers)[exps[:, where[label[[c.rep for c in classes]]]]]


def character_table(g: PermGroup, prime: SplittingPrime) -> CharTable:
    """The character table of g over F_p, computed once per (p, g.key).
    The prime is certified for g on every call, so it splits g and a new
    table that fails a check is a bug (InvariantError).  A hit returns
    the cached table, whose group is g: equal groups are one object."""
    prime.certify(g)
    return memo(_MODEL_CACHE, ("table", prime.p, g.key), _compute_table, g,
                prime.p)


def _compute_table(g: PermGroup, p: int) -> CharTable:
    classes = tuple(conjugacy_classes(g))
    class_of = tuple(class_index_of(g, list(classes)))
    r, n = len(classes), len(g)
    if r * n > MAX_TABLE_ENTRIES:
        raise ValidationError(
            "too-large", f"a character table of {r} classes on a group of "
            f"order {n} exceeds {MAX_TABLE_ENTRIES} entries")
    inv_class = [class_of[g.inv(classes[k].rep)] for k in range(r)]
    linear = _linear_characters(g, classes, p)
    # the other characters' central characters span the nullspace of the
    # linear rows, which are closed under complex conjugation; an abelian
    # group has none
    start = (linalg.nullspace(linear, p).T if len(linear) < r
             else linalg.zeros(r, 0))
    mats = _class_mult_matrices(g, classes, class_of, p)
    om = np.array(_split_common_eigenvectors(mats, start, p),
                  dtype=np.int64).reshape(-1, r)
    if not om[:, 0].all():
        raise InvariantError("eigenvector vanishes at the identity class")
    om = om * np.array([linalg.inv_scalar(x, p) for x in om[:, 0].tolist()],
                       dtype=np.int64)[:, None] % p
    inv_sizes = np.array([linalg.inv_scalar(len(c), p) for c in classes])
    # ω_k = |C_k| χ(g_k) / d and orthogonality pin down d^2
    norms = (om * om[:, inv_class] % p * inv_sizes % p).sum(axis=1) % p
    degrees = []
    for acc in norms.tolist():
        d2 = n * linalg.inv_scalar(acc, p) % p
        # d² ≤ |G| < p, so d² is its own least residue
        d = isqrt(d2)
        if d * d != d2:
            raise InvariantError("squared character degree is not a square")
        degrees.append(d)
    rows = np.vstack([linear, np.array(degrees, dtype=np.int64)[:, None]
                      * om % p * inv_sizes % p])
    # lexicographic by row, the first class (the degree) leading
    rows = rows[np.lexsort(rows.T[::-1])]
    dims = tuple(rows[:, 0].tolist())
    if sum(d * d for d in dims) != n:
        raise InvariantError("sum of squared degrees does not match group order")
    table = CharTable(g, p, classes, class_of, rows, dims)
    _check_orthogonality(table)
    return table


def _check_orthogonality(t: CharTable) -> None:
    """Row orthogonality in class space: with X the table, s_k = |C_k|
    and k' the class of the inverses of C_k,
    sum_k s_k X[i,k] X[j,k'] = |G| [i = j], one r x r product mod p."""
    g, p, x = t.group, t.p, t.rows
    sizes = np.array([len(c) for c in t.classes], dtype=np.int64)
    inv_class = [t.class_of[g.inv(c.rep)] for c in t.classes]
    gram = linalg.matmul(x * sizes % p, x[:, inv_class].T, p)
    if not np.array_equal(gram, len(g) * linalg.eye(len(t)) % p):
        raise InvariantError("row orthogonality fails")
    if not (x[0] == 1).all():
        raise InvariantError("first irreducible is not the trivial character")


def restriction_multiplicity(table: CharTable, sub: SubgroupHandle,
                             mu: np.ndarray) -> np.ndarray:
    """The matrix of multiplicities <chi_i restricted to sub, mu_j>, for
    the irreducible characters chi_i of table (on sub's parent) and the
    class functions mu_j on sub (rows of mu, indexed by member), over
    the table's own field: |sub|^-1 sum_k chi_i(k) mu_j(k^-1), one
    product mod table.p.

    Each entry is an integer, as p exceeds twice every group order, so
    every multiplicity is its own least residue.
    """
    p = table.p
    members = np.asarray(sub.member_positions)
    inv = np.searchsorted(members, sub.parent.inverse[members])
    return linalg.matmul(table.values[:, members], mu[:, inv].T,
                         p) * linalg.inv_scalar(len(sub), p) % p


def inflate(table: CharTable, quot: QuotientGroup) -> np.ndarray:
    """The quotient's irreducible characters pulled back to its base
    subgroup: one row per character, indexed by member of the base."""
    return table.values[:, [quot.projection[i]
                            for i in quot.base.member_positions]]
