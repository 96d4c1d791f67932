"""The whole-array F_p kernel and the table-driven group arithmetic,
checked against the plain loop versions in kernel_reference."""

import tracemalloc

import numpy as np
import pytest

import kernel_reference as ref
from eiquiver import linalg
from eiquiver.eicat import load_category
from eiquiver.permgrp import (SubgroupHandle, conjugacy_classes,
                              enumerate_group, named_group, quotient,
                              whole_group)

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
