"""The whole-array F_p kernel and the table-driven group arithmetic,
checked against the plain loop versions in kernel_reference."""

import random
import tracemalloc

import numpy as np
import pytest

import kernel_reference as ref
from eiquiver import linalg
from eiquiver.chartab import (_MODEL_CACHE, character_table,
                              choose_splitting_prime, inflate,
                              restriction_multiplicity)
from eiquiver.eicat import load_category, orbit_representatives, \
    stabilizer_data
from eiquiver.morita import _edge_system_dim
from eiquiver.permgrp import (SubgroupHandle, conjugacy_classes,
                              enumerate_group, quotient)
from groups import as_group, named_group, whole_group
from randcats import random_free_category, random_nonfree_category

PRIMES = (2, 3, 13, 433, 999983)
NAMED = ("1", "C2", "C3", "C4", "V4", "S3", "C6", "D4", "C2xC2xC2")


def _matrices(p, rng):
    """Zero, identity, empty, dense, rank-deficient and sparse shapes."""
    out = [np.zeros((3, 4), dtype=np.int64), np.eye(4, dtype=np.int64)]
    for m, n in ((0, 0), (0, 3), (3, 0), (1, 1), (4, 5), (5, 4), (6, 6),
                 (9, 7)):
        k = min(m, n) // 2
        out.append(rng.integers(0, p, (m, n)))
        out.append(rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))
                   % p)
        out.append(rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.2))
    # runs of columns with no pivot, which rref passes over in one step:
    # wide low-rank shapes, zero blocks before, between and after the
    # pivots, all zero, and a last row alone in the trailing columns
    for m, n, k in ((2, 96, 1), (8, 96, 4)):
        out.append(rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))
                   % p)
    blocks = np.zeros((6, 40), dtype=np.int64)
    blocks[:, 4:7] = rng.integers(0, p, (6, 3))
    blocks[:, 20:22] = rng.integers(0, p, (6, 2))
    out.append(blocks)
    out.append(np.zeros((3, 50), dtype=np.int64))
    tail = np.zeros((5, 30), dtype=np.int64)
    tail[:4, :10] = rng.integers(0, p, (4, 2)) @ rng.integers(0, p, (2, 10))
    tail[4, 20:] = rng.integers(0, p, 10)
    out.append(tail % p)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_rref_nullspace_solve_match_reference(p):
    rng = np.random.default_rng(p)
    for a in _matrices(p, rng):
        m, n = a.shape
        r, pivots = linalg.rref(a, p)
        want_r, want_pivots = ref.rref(a.tolist(), p)
        assert (r.tolist(), pivots) == (want_r, want_pivots)
        ns = linalg.nullspace(a, p)
        assert ns.shape == (n - len(pivots), n)
        assert ns.tolist() == ref.nullspace(a.tolist(), p, n)
        assert not np.any(a @ ns.T % p)
        # kernel_reference.solve, the tests' one solver, solves every
        # consistent system
        b = a @ rng.integers(0, p, (n, 2)) % p
        x = np.array(ref.solve(a.tolist(), b.tolist(), p, n, 2),
                     dtype=np.int64).reshape(n, 2)
        assert np.array_equal(a @ x % p, b)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_and_singular(p):
    # the read morita.inverse_functor makes: for a square a, the rref of
    # [a | b] has its first n pivots at 0..n-1 exactly when a is
    # invertible, and is then [I | a^-1 b]
    rng = np.random.default_rng(p + 1)
    singular = np.array([[1, 2], [2, 4]])
    for a in [rng.integers(0, p, (n, n)) for n in (0, 1, 3, 6)] + [singular]:
        n = len(a)
        b = rng.integers(0, p, (n, 2))
        red, piv = linalg.rref(np.hstack([a, b]), p)
        assert (piv[:n] == list(range(n))) == bool(ref.det(a.tolist(), p))
        if piv[:n] == list(range(n)):
            assert np.array_equal(a @ red[:, n:] % p, b)


@pytest.mark.parametrize("p", PRIMES)
def test_char_poly_is_det_of_x_minus_a(p):
    rng = np.random.default_rng(p + 2)
    for a in [m for m in _matrices(p, rng) if m.shape[0] == m.shape[1]] + \
            [rng.integers(0, p, (n, n)) for n in range(2, 12)]:
        n = a.shape[0]
        cp = linalg.char_poly(a, p)
        assert len(cp) == n + 1 and cp[0] == 1
        for x in range(min(p, 5)):
            xi_a = (x * np.eye(n, dtype=np.int64) - a) % p
            assert linalg.poly_eval(cp, x, p) == ref.det(xi_a.tolist(), p)


@pytest.mark.parametrize("p", PRIMES)
def test_char_poly_of_companion_matrix(p):
    # det(xI - C) is exactly the polynomial C is the companion of
    rng = np.random.default_rng(p + 3)
    for n in range(1, 9):
        low = [int(c) for c in rng.integers(0, p, n)]   # c_0 .. c_{n-1}
        comp = np.zeros((n, n), dtype=np.int64)
        comp[np.arange(1, n), np.arange(n - 1)] = 1
        comp[:, n - 1] = [-c % p for c in low]
        assert linalg.char_poly(comp, p) == [1] + low[::-1]


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", PRIMES + (241, 1621, 7919, 131071))
def test_poly_roots_match_the_scan(p):
    # split polynomials with repeated roots and a nonmonic leading
    # coefficient, some times a quadratic, which may have no root.  The
    # scan over F_p costs p evaluations, so large primes get fewer cases
    rng = random.Random(p)
    for _ in range(3 if p > 10 ** 5 else 60):
        f = [rng.randrange(1, p)]
        for _ in range(rng.randrange(8)):
            r = rng.choice((rng.randrange(p), 0, 1, p - 1))
            f = _polymul(f, [1, -r % p], p)
        if rng.random() < 0.3:
            f = _polymul(f, [1, rng.randrange(p), rng.randrange(p)], p)
        assert linalg.poly_roots(f, p) == ref.poly_roots(f, p)


def _from_roots(roots, p):
    f = [1]
    for r in roots:
        f = _polymul(f, [1, -r % p], p)
    return f


@pytest.mark.parametrize("p", (2, 3, 13))
def test_every_split_quadratic_gives_its_roots(p):
    # the recursion's base case, on every pair of distinct roots
    for r in range(p):
        for s in range(r + 1, p):
            assert linalg.poly_roots(_from_roots([r, s], p), p) == [r, s]


@pytest.mark.parametrize("p", (433, 999983))
def test_random_quadratics_give_their_roots(p):
    rng = random.Random(p)
    pairs = [(0, rng.randrange(1, p)), (rng.randrange(1, p), 0)]
    pairs += [(r, -r % p) for r in (1, p - 1, rng.randrange(2, p - 1))]
    pairs += [tuple(rng.sample(range(p), 2)) for _ in range(40)]
    for r, s in pairs:
        assert linalg.poly_roots(_from_roots([r, s], p), p) == sorted((r, s))


@pytest.mark.parametrize("p, degree", ((97, 48), (433, 72)))
def test_high_degree_split_polynomials_give_their_roots(p, degree):
    # distinct roots, and roots drawn from a few so that most repeat
    rng = random.Random(p + degree)
    for pool in (range(p), rng.sample(range(p), 5), (0, 1, p - 1)):
        if len(pool) < degree:
            roots = [rng.choice(pool) for _ in range(degree)]
        else:
            roots = rng.sample(pool, degree)
        assert linalg.poly_roots(_from_roots(roots, p), p) == sorted(roots)


def test_x72_minus_1_at_433_gives_the_72nd_roots_of_unity():
    unity = [x for x in range(1, 433) if pow(x, 72, 433) == 1]
    assert len(unity) == 72
    assert linalg.poly_roots([1] + [0] * 71 + [-1], 433) == unity


def _conjugate(d, p, rng, first=None):
    """P d P^-1 for a random invertible P, with first as P's first column
    if given: then first lies in the invariant span of P's leading
    columns that d's leading block acts on."""
    while True:
        pm = np.array([[rng.randrange(p) for _ in d] for _ in d],
                      dtype=np.int64)
        if first is not None:
            pm[:, 0] = first
        if ref.det(pm.tolist(), p):
            return pm @ d % p @ ref.inverse(pm, p) % p


def _jordan(blocks):
    """The Jordan matrix with one block J_n(lam) per (lam, n)."""
    m = sum(n for _, n in blocks)
    out = np.zeros((m, m), dtype=np.int64)
    i = 0
    for lam, n in blocks:
        out[range(i, i + n), range(i, i + n)] = lam
        out[range(i, i + n - 1), range(i + 1, i + n)] = 1
        i += n
    return out


def _eigen_cases(p, rng):
    """(matrix, its eigenvalues): conjugates P D P^-1 of diagonal D with
    distinct and with repeated entries, diagonal matrices (each e_i is an
    eigenvector, and the start vector 1, 2, ..., m has a zero entry when
    m >= p, so it is not cyclic), 1 x 1s, A (x) I_d for d = 2, 3, 4, as a
    model cut's commutant element acts on d copies of one irreducible,
    and conjugates of Jordan matrices, which are not diagonalizable."""
    out = []
    for m in (2, 3, 5, 8):
        distinct = rng.sample(range(p), min(m, p))
        repeated = [rng.choice(distinct[:2]) for _ in range(m)]
        for diag in (distinct, repeated, distinct[:1] + repeated[1:]):
            d = np.diag(diag).astype(np.int64)
            out.append((d, diag))
            out.append((_conjugate(d, p, rng), diag))
    for c in (0, 1, p - 1, rng.randrange(p)):
        out.append((np.array([[c]], dtype=np.int64), [c]))
    lam, mu, nu = rng.sample(range(p), 3)
    for d, diag in ((2, [lam, mu, nu]), (3, [lam, mu, mu]), (4, [lam, mu])):
        a = _conjugate(np.diag(diag).astype(np.int64), p, rng)
        out.append((np.kron(a, linalg.eye(d)), diag))
    for blocks in ([(lam, 4)], [(lam, 2), (lam, 1), (mu, 2)],
                   [(lam, 3), (mu, 1), (nu, 1)]):
        jordan = _jordan(blocks)
        out.append((_conjugate(jordan, p, rng), [lam for lam, _ in blocks]))
    return out


@pytest.mark.parametrize("p", (5, 13, 433, 1621, 999983))
def test_minimal_polynomial_is_certified(p, monkeypatch):
    # the minimal polynomial is the rank reference's on random, scalar,
    # zero, 1 x 1, 0 x 0, derogatory and Jordan matrices; a conjugate of
    # a block-diagonal matrix whose start vector lies in the first
    # block's invariant span, or is an eigenvector, fails the first
    # certificate and takes the lcm step
    rng = random.Random(p + 5)
    nrng = np.random.default_rng(p + 5)
    cases = [nrng.integers(0, p, (m, m)) for m in (0, 1, 2, 3, 5, 8)]
    cases += [c * linalg.eye(4) for c in (0, 1, rng.randrange(p))]
    cases += [a for a, _ in _eigen_cases(p, rng)]
    start = np.arange(1, 7) % p   # _minimal_polynomial's for m = 6
    blocks = np.zeros((6, 6), dtype=np.int64)
    blocks[:3, :3] = nrng.integers(0, p, (3, 3))
    blocks[3:, 3:] = nrng.integers(0, p, (3, 3))
    lcm_cases = [_conjugate(blocks, p, rng, start),
                 _conjugate(np.diag(rng.sample(range(p), 5) + [0]), p, rng,
                            start)]
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda *a: calls.append(1) or rref(*a))
    for a in cases + lcm_cases:
        calls.clear()
        m = a.shape[0]
        g, krylov = linalg._minimal_polynomial(a, p)
        assert g == ref.minimal_polynomial(a, p)
        if krylov is not None:
            # the Krylov rows of a cyclic vector, the start or an e_j a
            # failed certificate chose: g is det(xI - a)
            assert len(g) == m + 1 and krylov.shape == (m + 1, m)
            assert np.array_equal(a @ krylov[:m].T % p, krylov[1:].T)
            assert len(rref(krylov, p)[1]) == m
        if any(a is b for b in lcm_cases):
            assert len(calls) > 1


@pytest.mark.parametrize("p", (5, 13, 433, 1621, 999983))
def test_eigenspaces_are_the_nullspaces_of_a_minus_lambda(p, monkeypatch):
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda *a: calls.append(1) or nullspace(*a))

    def char_poly(*a):
        raise AssertionError("eigenspaces takes no characteristic polynomial")
    monkeypatch.setattr(linalg, "char_poly", char_poly)
    yields = 0
    for a, lams in _eigen_cases(p, random.Random(p)):
        m = a.shape[0]
        got = list(linalg.eigenspaces(a, p))
        want = [nullspace((a - lam * np.eye(m, dtype=np.int64)) % p, p)
                for lam in sorted(set(lams))]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        yields += len(got)
    # simple roots mostly take the Krylov step, not an elimination
    assert 0 < len(calls) < yields


def _sylvester_cases(p, rng):
    """(dims1, dims2, edges): loop edges on one vertex with a != b and
    zero dims, no edges at all, and random s != t and loop edges."""
    def edge(d1, d2, s, t):
        return (s, t, rng.integers(0, p, (d1[t], d1[s])),
                rng.integers(0, p, (d2[t], d2[s])))

    out = []
    for a, b in ((1, 1), (2, 3), (3, 2), (4, 4), (0, 2), (2, 0), (0, 0)):
        out.append(([a], [b], [edge([a], [b], 0, 0) for _ in range(3)]))
    out.append(([2, 1], [3, 0], []))
    out.append(([], [], []))
    for d1, d2 in (([2, 0, 3, 1], [1, 2, 2, 0]), ([1, 2, 3], [3, 2, 1]),
                   ([2, 2], [2, 2])):
        n = len(d1)
        pairs = [(int(s), int(t)) for s, t in rng.integers(0, n, (8, 2))]
        pairs += [(0, n - 1), (n - 1, n - 1)]
        out.append((d1, d2, [edge(d1, d2, s, t) for s, t in pairs]))
    return out


@pytest.mark.parametrize("p", (13, 433))
def test_sylvester_system_matches_kronecker_assembly(p):
    # the Hom-dimension system with each T_v spanned by its matrix units
    # has the nullity of the Kronecker assembly
    rng = np.random.default_rng(p + 4)
    for d1, d2, edges in _sylvester_cases(p, rng):
        units = [linalg.eye(a * b).reshape(a * b, b, a)
                 for a, b in zip(d1, d2)]
        want = ref.sylvester_system(d1, d2, edges, p)
        nullity = want.shape[1] - len(ref.rref(want.tolist(), p)[1])
        assert _edge_system_dim(units, edges, p) == nullity


def _groups():
    return [named_group(name) for name in NAMED] + [
        enumerate_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]]),
        enumerate_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
        enumerate_group(12, [list(range(1, 12)) + [0],
                             [(-i) % 12 for i in range(12)]])]


@pytest.mark.parametrize("g", _groups(), ids=lambda g: f"order{len(g)}")
def test_tables_match_composition(g):
    for i in range(len(g)):
        assert g.inv(i) == ref.inv(g, i)
        assert g.row(i).tolist() == [ref.mul(g, i, j) for j in range(len(g))]


@pytest.mark.parametrize("g", _groups(), ids=lambda g: f"order{len(g)}")
def test_classes_match_brute_force_conjugation(g):
    classes = conjugacy_classes(g)
    assert [c.members for c in classes] == ref.conjugacy_classes(g)
    for c in classes:
        assert c.rep == min(c.members, key=lambda j: g.elements[j])


def test_classes_of_groups_generated_by_all_their_elements():
    # S5 x C3 on 8 points has order 360, and its quotient by C3 is S5 in
    # a regular model of degree 120.  Their as_group() groups keep a
    # short generating set; a document may still list every element as
    # a generator, and conjugating by all of them finds the same classes
    g = enumerate_group(8, [[1, 0, 2, 3, 4, 5, 6, 7],
                            [1, 2, 3, 4, 0, 5, 6, 7],
                            [0, 1, 2, 3, 4, 6, 7, 5]])
    c3 = SubgroupHandle(g, tuple(i for i, e in enumerate(g.elements)
                                 if e[:5] == (0, 1, 2, 3, 4)))
    for h in (as_group(whole_group(g)),
              quotient(whole_group(g), c3).as_group()):
        assert 2 ** len(h.generators) <= len(h)
        listed = enumerate_group(h.degree, h.elements)
        assert len(listed.generators) == len(listed) == len(h)
        for k in (h, listed):
            assert [c.members for c in conjugacy_classes(k)] == \
                ref.conjugacy_classes(k)


def _s7_category():
    # S7 acts by its sign on t->s (left) and on s->u (right); the
    # composite lands in t->u as the sum of the two signs
    s7 = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
    sign = [[1, 0], [0, 1]]
    return {"objects": [{"id": "t", "degree": 1},
                        {"id": "s", "degree": 7, "generators": s7},
                        {"id": "u", "degree": 1}],
            "homs": [{"from": "t", "to": "s", "size": 2,
                      "left_action": sign},
                     {"from": "s", "to": "u", "size": 2,
                      "right_action": sign},
                     {"from": "t", "to": "u", "size": 2}],
            "compositions": [{"outer": ["s", "u"], "inner": ["t", "s"],
                              "table": [[0, 1], [1, 0]]}]}


def test_s7_classes_build_no_cayley_table():
    # a full table for order 5040 would take 5040^2 int32 = 97 MiB
    tracemalloc.start()
    try:
        g = enumerate_group(7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]])
        classes = conjugacy_classes(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(g), len(classes)) == (5040, 15)
    assert peak < 20 * 2**20


def test_s7_class_rows_keep_only_their_word_paths():
    # the character table reads the row of each class representative's
    # inverse; each request keeps at most word length + 1 rows, far from
    # the 5040 of a full table
    g = enumerate_group(7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]])
    reps = [g.inv(c.rep) for c in conjugacy_classes(g)]
    tracemalloc.start()
    try:
        for k in reps:
            g.row(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(r is not None for r in g._rows)
    assert kept <= sum(len(g.words[k]) + 1 for k in reps)
    assert peak < 20 * 2**20


def test_loading_an_s7_category_builds_no_cayley_table():
    # checking the hom actions multiplies every element by each generator
    tracemalloc.start()
    try:
        cat = load_category(_s7_category())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cat.morphism_count() == 5040 + 2 + 6
    assert peak < 20 * 2**20


def test_c100_class_matrices_are_reduced_in_place():
    # the (i, j, k) counts of an abelian group take 8·|G|³ bytes, 7.6 MiB
    # here; a reduced copy of each matrix would double that
    g = enumerate_group(100, [list(range(1, 100)) + [0]])
    prime = choose_splitting_prime([g])
    _MODEL_CACHE.pop((prime.p, g.key), None)
    tracemalloc.start()
    try:
        table = character_table(g, prime)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 100
    assert peak < 10 * 2**20


def test_c100_class_matrices_are_built_one_at_a_time():
    # the r^3 counts of all class matrices at once would take 7.6 MiB;
    # one matrix's r^2 counts take 78 KiB, and a cyclic group is split
    # by the first after the identity's
    g = enumerate_group(100, [list(range(1, 100)) + [0]])
    prime = choose_splitting_prime([g])
    _MODEL_CACHE.pop((prime.p, g.key), None)
    tracemalloc.start()
    try:
        table = character_table(g, prime)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 100
    assert peak < 2 * 2**20


# C4 acting regularly on both sides: G1/G0 is C4, whose characters are
# not real, so reading mu at k instead of k^-1 shows
C4_REGULAR = {"mode": "ei-quiver",
              "objects": [{"id": "x", "degree": 4,
                           "generators": [[1, 2, 3, 0]]},
                          {"id": "y", "degree": 4,
                           "generators": [[1, 2, 3, 0]]}],
              "homs": [{"from": "x", "to": "y", "size": 4,
                        "left_action": [[1, 2, 3, 0]],
                        "right_action": [[1, 2, 3, 0]]}]}


def test_character_arrays_match_the_element_loops(categories):
    # inflation and restriction multiplicities on both sides of every
    # orbit, against one inner product per pair over class rows
    rng = random.Random(13)
    cats = list(categories.values()) + [load_category(C4_REGULAR)] + [
        make(rng, max_mor=150)
        for make in (random_free_category, random_nonfree_category)
        for _ in range(6)]
    for cat in cats:
        prime = choose_splitting_prime(cat.groups.values())
        for rep, _ in orbit_representatives(cat):
            sd = stabilizer_data(cat, rep)
            qtable = character_table(sd.quotG.as_group(), prime)
            for x, k1, quot in ((rep.source, sd.G1, sd.quotG),
                                (rep.target, sd.H1, sd.quotH)):
                want = [ref.inflate(ref.character(qtable, u), quot)
                        for u in range(len(qtable))]
                infl = inflate(qtable, quot)
                assert infl.tolist() == want
                table = character_table(cat.groups[x], prime)
                assert restriction_multiplicity(
                    table, k1, infl, prime.p).tolist() == \
                    ref.restriction_multiplicity(table, k1, want, prime.p)
