"""Exact character theory over a splitting prime field.

All scalars live in F_p where p ≡ 1 (mod exponent) for every group in
play and p exceeds twice the largest group order.  Under those
constraints F_p is a splitting field for every group and subgroup
involved, every group algebra is split semisimple, and all multiplicities
agree with their characteristic-0 counterparts and are recovered exactly
as least nonnegative residues.

Character tables are computed by the Burnside/Dixon method: simultaneous
eigenvectors of the class-multiplication matrices over F_p, each
eigenvector of a simple eigenvalue taken from one Krylov basis per matrix
(linalg.eigenspaces).  Class 0 is the identity class, whose matrix is the
identity and splits nothing, so it is skipped.

Characters are kept in one form: a table's rows, one value per class,
and CharTable.values, the same rows read at every element.  Restriction
multiplicities and inflation work on whole tables at once: each is one
array product or one gather over those values.

_MODEL_CACHE holds, for the life of the process and without a bound,
every character table on (p, group.key) and every irreducible model
(morita.irreducible_model) on (p, group.key, i).  group.key names a
group's generators and element order, and a table or model is a
deterministic function of those and p, so a hit is exactly what a fresh
computation would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm

import numpy as np

from . import linalg
from .permgrp import (ConjClass, PermGroup, QuotientGroup, SubgroupHandle,
                      class_index_of, conjugacy_classes)

PRIME_SEARCH_BOUND = 10**6

_MODEL_CACHE: dict = {}


class CharTableError(ValueError):
    pass


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
            raise CharTableError(
                f"prime {self.p} not certified for a group of order {len(g)}")


def splitting_prime_for(exponent: int, max_order: int) -> SplittingPrime:
    """Minimal prime p ≡ 1 mod exponent with p > 2*max_order."""
    p = 2 * max_order + 1
    # align to the residue class 1 mod exponent
    if exponent > 1:
        p += (1 - p) % exponent
    else:
        p = max(p, 3)
    while p <= PRIME_SEARCH_BOUND:
        if p > 2 * max_order and _isprime(p):
            return SplittingPrime(p, exponent, max_order)
        p += exponent if exponent > 1 else 1
    raise CharTableError(f"no splitting prime below {PRIME_SEARCH_BOUND}")


def _exponent_and_max_order(groups) -> tuple[int, int]:
    """The lcm of the groups' exponents and their largest order."""
    ex = 1
    mx = 1
    for g in groups:
        ex = lcm(ex, g.exponent)
        mx = max(mx, len(g))
    return ex, mx


def certified_prime(p: int, groups) -> SplittingPrime:
    """Certify a user-supplied prime against the given groups, or raise."""
    # beyond the bound, products in linalg.matmul can overflow int64
    if p > PRIME_SEARCH_BOUND:
        raise CharTableError(f"{p} exceeds the prime bound {PRIME_SEARCH_BOUND}")
    if not _isprime(p):
        raise CharTableError(f"{p} is not prime")
    ex, mx = _exponent_and_max_order(groups)
    if p % ex != 1 and ex > 1:
        raise CharTableError(f"{p} is not 1 mod the group exponent {ex}")
    if p <= 2 * mx:
        raise CharTableError(f"{p} must exceed twice the largest group order {mx}")
    return SplittingPrime(p, ex, mx)


def choose_splitting_prime(groups) -> SplittingPrime:
    groups = list(groups)
    if not groups:
        raise CharTableError("need at least one group")
    return splitting_prime_for(*_exponent_and_max_order(groups))


@dataclass(frozen=True)
class CharTable:
    group: PermGroup
    p: int
    classes: tuple[ConjClass, ...]
    class_of: tuple[int, ...]              # element position -> class index
    rows: tuple[tuple[int, ...], ...]      # irreducible values per class
    dims: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def values(self) -> np.ndarray:
        """Each irreducible character at each element, an r x |G| int64
        array: values[i, e] = rows[i][class_of[e]]."""
        return np.array(self.rows, dtype=np.int64)[:, list(self.class_of)]


def _class_mult_matrices(g: PermGroup, classes, class_of, p: int):
    """M_i with (M_i)[j,k] = #{(u,v) in C_i x C_j : uv = w_k} for fixed w_k.

    For each k, v = u^-1 w_k over all u is the inverse table read along
    the Cayley row of w_k^-1, so each column is one bincount.
    """
    r = len(classes)
    cls = np.asarray(class_of)
    mats = np.zeros((r, r, r), dtype=np.int64)
    for k in range(r):
        v = g.inverse[g.row(g.inv(classes[k].rep))]
        mats[:, :, k] = np.bincount(cls * r + cls[v],
                                    minlength=r * r).reshape(r, r)
    return [m % p for m in mats]


def _split_common_eigenvectors(mats, r: int, p: int):
    """Intersect eigenspaces of the commuting matrices until 1-dimensional.
    mats[0], the identity class's matrix, is the identity: it is skipped."""
    spaces = [linalg.eye(r)]  # columns span each subspace
    for m in mats[1:]:
        nxt = []
        for c in spaces:
            if c.shape[1] == 1:
                nxt.append(c)
                continue
            mc = linalg.matmul(m, c, p)
            s = linalg.solve(c, mc, p)
            if s is None:
                raise CharTableError("class-sum matrix does not stabilize subspace")
            for ns in linalg.eigenspaces(s, p):
                sub = linalg.matmul(c, ns.T % p, p)
                # canonicalize the spanning columns
                sub = linalg.row_space(sub.T, p).T
                nxt.append(sub)
        spaces = nxt
        if all(c.shape[1] == 1 for c in spaces):
            break
    if any(c.shape[1] != 1 for c in spaces):
        raise CharTableError("eigenspaces did not split; prime is not splitting")
    return [c[:, 0] for c in spaces]


def character_table(g: PermGroup, prime: SplittingPrime) -> CharTable:
    """The character table of g over F_p, computed once per (p, g.key).
    The prime is certified for g on every call.  A hit returns the table
    of the first equal group seen, whose group is equal to g."""
    prime.certify(g)
    key = (prime.p, g.key)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = _compute_table(g, prime.p)
    return _MODEL_CACHE[key]


def _compute_table(g: PermGroup, p: int) -> CharTable:
    classes = tuple(conjugacy_classes(g))
    class_of = tuple(class_index_of(g, list(classes)))
    r = len(classes)
    inv_class = [class_of[g.inv(classes[k].rep)] for k in range(r)]
    mats = _class_mult_matrices(g, classes, class_of, p)
    omegas = _split_common_eigenvectors(mats, r, p)
    inv_sizes = [linalg.inv_scalar(len(c), p) for c in classes]

    n = len(g)
    rows = []
    for om in omegas:
        om = [int(x) % p for x in om]
        if om[0] == 0:
            raise CharTableError("eigenvector vanishes at the identity class")
        scale = linalg.inv_scalar(om[0], p)
        om = [x * scale % p for x in om]
        # ω_k = |C_k| χ(g_k) / d and orthogonality pin down d^2
        acc = 0
        for k in range(r):
            acc = (acc + om[k] * om[inv_class[k]] * inv_sizes[k]) % p
        d2 = n * linalg.inv_scalar(acc, p) % p
        # d² ≤ |G| < p, so d² is its own least residue
        d = isqrt(d2)
        if d * d != d2:
            raise CharTableError("squared character degree is not a square")
        row = tuple(d * om[k] % p * inv_sizes[k] % p for k in range(r))
        rows.append(row)

    rows.sort(key=lambda row: (row[0], row))
    dims = tuple(row[0] for row in rows)
    if sum(d * d for d in dims) != n:
        raise CharTableError("sum of squared degrees does not match group order")
    table = CharTable(g, p, classes, class_of, tuple(rows), dims)
    _check_orthogonality(table)
    return table


def _check_orthogonality(t: CharTable) -> None:
    """Row orthogonality in class space: with X the table, s_k = |C_k|
    and k' the class of the inverses of C_k,
    sum_k s_k X[i,k] X[j,k'] = |G| [i = j], one r x r product mod p."""
    g, p = t.group, t.p
    x = np.array(t.rows, dtype=np.int64)
    sizes = np.array([len(c) for c in t.classes], dtype=np.int64)
    inv_class = [t.class_of[g.inv(c.rep)] for c in t.classes]
    gram = linalg.matmul(x * sizes % p, x[:, inv_class].T, p)
    if not np.array_equal(gram, len(g) * linalg.eye(len(t)) % p):
        raise CharTableError("row orthogonality fails")
    if any(v != 1 for v in t.rows[0]):
        raise CharTableError("first irreducible is not the trivial character")


def restriction_multiplicity(table: CharTable, sub: SubgroupHandle,
                             mu: np.ndarray, p: int) -> np.ndarray:
    """The matrix of multiplicities <chi_i restricted to sub, mu_j>, for
    the irreducible characters chi_i of table (on sub's parent) and the
    class functions mu_j on sub (rows of mu, indexed by member):
    |sub|^-1 sum_k chi_i(k) mu_j(k^-1), one product mod p.

    Each entry is an integer, as p exceeds twice every group order, so
    every multiplicity is its own least residue.
    """
    members = np.asarray(sub.member_positions)
    inv = np.searchsorted(members, sub.parent.inverse[members])
    return linalg.matmul(table.values[:, members], mu[:, inv].T,
                         p) * linalg.inv_scalar(len(sub), p) % p


def inflate(table: CharTable, quot: QuotientGroup) -> np.ndarray:
    """The quotient's irreducible characters pulled back to its base
    subgroup: one row per character, indexed by member of the base."""
    return table.values[:, [quot.projection[i]
                            for i in quot.base.member_positions]]
