"""The whole-array F_p kernel and the table-driven group arithmetic,
checked against the plain loop versions in kernel_reference."""

import random
import tracemalloc

import numpy as np
import pytest

import kernel_reference as ref
from eiquiver import linalg
from eiquiver.chartab import (character_table, choose_splitting_prime,
                              inflate, restriction_multiplicity)
from eiquiver.eicat import load_category, orbit_representatives, \
    stabilizer_data
from eiquiver.permgrp import (SubgroupHandle, conjugacy_classes,
                              enumerate_group, quotient)
from groups import named_group, whole_group
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
        # one consistent right-hand side and one that may not be
        for b in (a @ rng.integers(0, p, (n, 2)) % p,
                  rng.integers(0, p, (m, 2))):
            x = linalg.solve(a, b, p)
            want = ref.solve(a.tolist(), b.tolist(), p, n, 2)
            assert (None if x is None else x.tolist()) == want
            if x is not None:
                assert np.array_equal(a @ x % p, b)
        if m:
            x = linalg.solve(a, a[:, 0] if n else np.zeros(m, int), p)
            assert x is not None and x.shape == (n, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_and_singular(p):
    rng = np.random.default_rng(p + 1)
    for n in (0, 1, 3, 6):
        a = rng.integers(0, p, (n, n))
        if ref.det(a.tolist(), p):
            assert np.array_equal(a @ linalg.inv(a, p) % p, np.eye(n))
    singular = np.array([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        linalg.inv(singular, p)


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


def _eigen_cases(p, rng):
    """(matrix, its eigenvalues): conjugates P D P^-1 of diagonal D with
    distinct and with repeated entries, diagonal matrices (e_0 is an
    eigenvector, so q(a) e_0 = 0 for every other root) and 1 x 1s."""
    out = []
    for m in (2, 3, 5, 8):
        distinct = rng.sample(range(p), min(m, p))
        repeated = [rng.choice(distinct[:2]) for _ in range(m)]
        for diag in (distinct, repeated, distinct[:1] + repeated[1:]):
            d = np.diag(diag).astype(np.int64)
            out.append((d, diag))
            while True:
                pm = np.array([[rng.randrange(p) for _ in diag]
                               for _ in diag], dtype=np.int64)
                if ref.det(pm.tolist(), p):
                    break
            out.append((pm @ d % p @ linalg.inv(pm, p) % p, diag))
    for c in (0, 1, p - 1, rng.randrange(p)):
        out.append((np.array([[c]], dtype=np.int64), [c]))
    return out


@pytest.mark.parametrize("p", (5, 13, 433, 1621, 999983))
def test_eigenspaces_are_the_nullspaces_of_a_minus_lambda(p, monkeypatch):
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda *a: calls.append(1) or nullspace(*a))
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
    rng = np.random.default_rng(p + 4)
    for d1, d2, edges in _sylvester_cases(p, rng):
        got = linalg.sylvester_system(d1, d2, edges, p)
        want = ref.sylvester_system(d1, d2, edges, p)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


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
        assert g.mul(i, len(g) - 1) == ref.mul(g, i, len(g) - 1)


@pytest.mark.parametrize("g", _groups(), ids=lambda g: f"order{len(g)}")
def test_classes_match_brute_force_conjugation(g):
    classes = conjugacy_classes(g)
    assert [c.members for c in classes] == ref.conjugacy_classes(g)
    for c in classes:
        assert c.rep == min(c.members, key=lambda j: g.elements[j])


def test_classes_of_groups_generated_by_all_their_elements():
    # as_group() groups list every element as a generator; S5 x C3 on
    # 8 points has order 360, and its quotient by C3 is S5 in a regular
    # model of degree 120
    g = enumerate_group(8, [[1, 0, 2, 3, 4, 5, 6, 7],
                            [1, 2, 3, 4, 0, 5, 6, 7],
                            [0, 1, 2, 3, 4, 6, 7, 5]])
    c3 = SubgroupHandle(g, tuple(i for i, e in enumerate(g.elements)
                                 if e[:5] == (0, 1, 2, 3, 4)))
    for h in (whole_group(g).as_group(),
              quotient(whole_group(g), c3).as_group()):
        assert len(h.generators) == len(h)
        assert [c.members for c in conjugacy_classes(h)] == \
            ref.conjugacy_classes(h)


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
