"""Splitting primes, character tables and character operations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import kernel_reference as ref
from eiquiver import chartab, eicat, linalg
from eiquiver.chartab import (_MODEL_CACHE, SplittingPrime, certified_prime,
                              character_table, choose_splitting_prime,
                              inflate, restriction_multiplicity,
                              splitting_prime_for)
from eiquiver.errors import InvariantError, ValidationError
from eiquiver.permgrp import (SubgroupHandle, derived_cosets, enumerate_group,
                              quotient)
from groups import (as_group, identity_pos, mul, named_group, trivial_subgroup,
                    whole_group)
from randcats import closure_positions

S3 = named_group("S3")
CATALOG = ("1", "C2", "C3", "C4", "V4", "S3", "C6", "D4", "C2xC2xC2")
P13 = choose_splitting_prime([S3])


def induced_character(mu, handle, parent, p: int) -> list[int]:
    """Induced character by the standard formula, as an independent
    oracle for Frobenius reciprocity: mu is a class function on the
    subgroup `handle`, listed in the order of handle.member_positions."""
    sub_pos = {pos: k for k, pos in enumerate(handle.member_positions)}
    scale = linalg.inv_scalar(len(handle), p)
    vals = []
    for g in range(len(parent)):
        acc = 0
        for t in range(len(parent)):
            conj = mul(parent, mul(parent, parent.inv(t), g), t)
            if conj in sub_pos:
                acc = (acc + int(mu[sub_pos[conj]])) % p
        vals.append(acc * scale % p)
    return vals


def test_splitting_prime_selection():
    assert P13.p == 13
    assert choose_splitting_prime([named_group("1")]).p == 3
    assert choose_splitting_prime(
        [named_group("C2"), S3, named_group("C3")]).p == 13
    assert splitting_prime_for(4, 4).p == 13   # 1 mod 4, > 8
    with pytest.raises(ValidationError, match="^bad-prime: "):
        choose_splitting_prime([])


def test_certified_prime():
    assert certified_prime(13, [S3]).p == 13
    assert certified_prime(5, [named_group("C2")]).p == 5
    with pytest.raises(ValidationError, match="^bad-prime: "):
        certified_prime(7, [S3])        # 7 is not 1 mod 6
    with pytest.raises(ValidationError, match="^bad-prime: "):
        certified_prime(13, [named_group("C6"), named_group("D4")])  # 13 not > 2*8
    with pytest.raises(ValidationError, match="^bad-prime: "):
        certified_prime(12, [S3])       # not prime
    with pytest.raises(ValidationError, match="^bad-prime: "):
        certified_prime(3, [named_group("C2")])   # not > 2|G|


def test_certify_rejects_uncovered_group():
    with pytest.raises(ValidationError, match="^bad-prime: "):
        P13.certify(named_group("C4"))


def test_c2_table():
    g = named_group("C2")
    t = character_table(g, P13)
    assert t.dims == (1, 1)
    involution_class = t.class_of[1 - identity_pos(g)]
    assert t.rows[1][involution_class] == t.p - 1


def test_s3_table_dims():
    t = character_table(S3, P13)
    assert t.dims == (1, 1, 2)
    # values reads each class row at every element
    assert t.values.shape == (3, 6)
    assert t.values.tolist() == [ref.character(t, i) for i in range(3)]


def test_all_catalog_tables():
    for name in CATALOG:
        g = named_group(name)
        prime = choose_splitting_prime([g])
        t = character_table(g, prime)
        assert sum(d * d for d in t.dims) == len(g)
        assert all(v == 1 for v in t.rows[0])
        assert list(t.dims) == sorted(t.dims)
        # <chi_i, chi_j> = [i = j]: restriction to the whole group
        gram = restriction_multiplicity(t, whole_group(g), t.values)
        assert gram.tolist() == np.eye(len(t), dtype=int).tolist()


def _cycle(n):
    return list(range(1, n)) + [0]


# degree and generators: D48 has order 96
LADDER = {"C24": (24, [_cycle(24)]), "C48": (48, [_cycle(48)]),
          "C72": (72, [_cycle(72)]),
          "D48": (48, [_cycle(48), [(-i) % 48 for i in range(48)]]),
          **{f"S{n}": (n, [[1, 0] + list(range(2, n)), _cycle(n)])
             for n in (4, 5, 6)}}
# S3xC4 splits a complement of 4 columns, A4 and Q8 one of 1; A4 has a
# cyclic G/G', Q8 and S3xC4 do not, and C2xC4xC3 is abelian on three
# generators
MORE = ("A4", "Q8", "S3xC4", "C2xC4xC3")


def _group(name):
    return enumerate_group(*LADDER[name]) if name in LADDER else named_group(name)


def _same_table(a, b) -> bool:
    """Every field equal, the rows compared as lists of ints: a table's
    rows are an array, or a reference's tuples."""
    return np.asarray(a.rows).tolist() == np.asarray(b.rows).tolist() and all(
        getattr(a, f.name) == getattr(b, f.name)
        for f in dataclasses.fields(a) if f.name != "rows")


@pytest.mark.parametrize("name", CATALOG + tuple(LADDER) + MORE)
def test_tables_match_the_nullspace_split(name):
    # the same table as one nullspace per eigenvalue of every class
    # matrix, the identity class's included, from the whole class space
    g = _group(name)
    p = choose_splitting_prime([g]).p
    got, want = chartab._compute_table(g, p), ref.character_table(g, p)
    assert got.rows.dtype == np.int64 and got.rows.shape == (len(want),) * 2
    assert got.rows.tolist() == [list(row) for row in want.rows]
    assert _same_table(got, want)


def test_a_matrix_that_moves_the_start_is_an_invariant_error():
    # the start spans e_0 and e_1, and the matrix sends e_0 to e_2
    start = np.array([[1, 0], [1, 1], [0, 0]])
    moves = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(InvariantError,
                       match="^class-sum matrix does not stabilize subspace$"):
        chartab._split_common_eigenvectors(iter([linalg.eye(3), moves]),
                                           start, 13)


def test_a_large_abelian_table_holds_one_array(fresh_groups):
    # C500's rows are one 500 x 500 int64 array (1.9 MiB), not 250,000
    # Python ints in tuples (9.9 MiB in all); the group is fresh, so its
    # own cached arrays count too
    g = enumerate_group(500, [_cycle(500)])
    p = choose_splitting_prime([g]).p
    tracemalloc.start()
    try:
        table = chartab._compute_table(g, p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(table.rows, np.ndarray) and table.rows.shape == (500, 500)
    assert held < 5 * 2**20


def test_cyclic_tables_do_no_elimination(monkeypatch):
    # the linear characters are written down from G/G', so an abelian
    # group, or one with a single non-linear character (S3, A4), builds
    # no class matrix and finds no eigenvalue
    built, calls = [], []
    mats, eigenspaces = chartab._class_mult_matrices, linalg.eigenspaces

    def counted(*a):
        for m in mats(*a):
            built.append(m)
            yield m

    monkeypatch.setattr(chartab, "_class_mult_matrices", counted)
    monkeypatch.setattr(linalg, "eigenspaces",
                        lambda *a: calls.append(a) or eigenspaces(*a))
    for name in ("C24", "C48", "C72", "V4", "C2xC2xC2", "S3", "A4"):
        g = _group(name)
        chartab._compute_table(g, choose_splitting_prime([g]).p)
    assert built == [] and calls == []


@pytest.mark.parametrize("name", CATALOG + MORE + ("C72", "D48", "S4", "S5"))
def test_linear_rows_count_the_cosets_of_the_derived_subgroup(name):
    # G' against the closure of every commutator a^-1 b^-1 a b
    g = _group(name)
    label, acts = derived_cosets(g)
    commutators = {mul(g, mul(g, g.inv(a), g.inv(b)), mul(g, a, b))
                   for a in range(len(g)) for b in range(len(g))}
    derived = closure_positions(g, commutators)
    assert np.flatnonzero(label == 0).tolist() == derived
    index = label.max() + 1
    assert np.bincount(label).tolist() == [len(derived)] * index
    # each generator permutes the cosets, as left multiplication does
    for s, act in zip(g.generators, acts):
        s = g.index_of[s]
        assert [label[mul(g, s, i)] for i in range(len(g))] == act[label].tolist()
    table = character_table(g, choose_splitting_prime([g]))
    assert table.dims.count(1) == index


def test_a_table_past_the_entry_bound_is_refused(monkeypatch):
    # r·|G| values: C24 has 576, S4 120; the refusal comes before the
    # linear characters and any class matrix
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 575)
    s4, c24 = _group("S4"), _group("C24")
    assert len(chartab._compute_table(s4, choose_splitting_prime([s4]).p)) == 5

    def unreached(*a):
        raise AssertionError("built past the bound")

    monkeypatch.setattr(chartab, "_linear_characters", unreached)
    monkeypatch.setattr(chartab, "_class_mult_matrices", unreached)
    with pytest.raises(ValidationError, match="^too-large: a character "
                       "table of 24 classes on a group of order 24 needs "
                       "576 entries, more than 575$"):
        chartab._compute_table(c24, choose_splitting_prime([c24]).p)


def _s3_mod_c3():
    """A fresh quotient S3/C3: each call builds a new quotient, whose
    as_group() is the one live group of its generators and elements."""
    kernel = SubgroupHandle(
        S3, tuple(closure_positions(S3, [S3.index_of[(1, 2, 0)]])))
    return quotient(whole_group(S3), kernel).as_group()


def test_cached_table_equals_a_fresh_one():
    first, second = _s3_mod_c3(), _s3_mod_c3()
    assert first is second
    pairs = [(named_group(n), named_group(n)) for n in CATALOG]
    for g, again in pairs + [(first, second)]:
        prime = choose_splitting_prime([g])
        cached = character_table(g, prime)
        hit = character_table(again, prime)
        # a hit is the cached table, whose group equals the caller's
        assert hit is cached and hit.group == again
        _MODEL_CACHE.clear()
        fresh = character_table(again, prime)
        assert fresh is not hit and fresh.group is again
        assert _same_table(fresh, hit)


def test_certify_runs_on_a_cache_hit():
    c4 = named_group("C4")
    prime = choose_splitting_prime([c4])
    character_table(c4, prime)
    # same p, but certified only for exponent 2
    narrow = SplittingPrime(prime.p, 2, prime.certified_max_order)
    with pytest.raises(ValidationError, match="^bad-prime: "):
        character_table(c4, narrow)


def test_equal_group_does_no_elimination(monkeypatch):
    calls = []
    split = chartab._split_common_eigenvectors
    monkeypatch.setattr(chartab, "_split_common_eigenvectors",
                        lambda *a: calls.append(a) or split(*a))
    _MODEL_CACHE.clear()
    gens = ((1, 2, 3, 0), (1, 0, 3, 2))
    d4, again = enumerate_group(4, gens), enumerate_group(4, gens)
    assert d4 is again
    prime = choose_splitting_prime([d4])
    table = character_table(d4, prime)
    assert len(calls) == 1
    assert character_table(again, prime) is table
    assert len(calls) == 1


def test_restriction_multiplicities_s3_to_c2():
    t = character_table(S3, P13)
    c2 = SubgroupHandle(
        S3, tuple(closure_positions(S3, [S3.index_of[(1, 0, 2)]])))
    t_sub = character_table(as_group(c2), P13)
    # rows: trivial, eps, the 2-dimensional V; columns: trivial, sign
    m = restriction_multiplicity(t, c2, t_sub.values)
    v2, eps, triv, sign = 2, 1, 0, 1
    assert m[v2, triv] == 1
    assert m[v2, sign] == 1
    assert m[eps, sign] == 1
    assert m[eps, triv] == 0


def test_restriction_to_whole_and_trivial():
    t = character_table(S3, P13)
    whole = whole_group(S3)
    triv = trivial_subgroup(S3)
    t_triv = character_table(as_group(triv), P13)
    on_whole = restriction_multiplicity(t, whole, t.values)
    on_triv = restriction_multiplicity(t, triv, t_triv.values)
    for i in range(3):
        assert on_whole[i, i] == 1
        assert on_triv[i, 0] == t.dims[i]


def test_frobenius_reciprocity():
    for name, seed in (("S3", (1, 0, 2)), ("D4", (1, 0, 3, 2))):
        g = named_group(name)
        prime = choose_splitting_prime([g])
        t = character_table(g, prime)
        sub = SubgroupHandle(
            g, tuple(closure_positions(g, [g.index_of[seed]])))
        t_sub = character_table(as_group(sub), prime)
        down = restriction_multiplicity(t, sub, t_sub.values)
        induced = np.array([induced_character(mu, sub, g, prime.p)
                            for mu in t_sub.values])
        up = restriction_multiplicity(t, whole_group(g), induced)
        for i in range(len(t)):
            for j in range(len(t_sub)):
                assert down[i, j] == up[i, j]


def test_inflate():
    three_cycle = S3.index_of[(1, 2, 0)]
    kernel = SubgroupHandle(S3, tuple(closure_positions(S3, [three_cycle])))
    q = quotient(whole_group(S3), kernel)
    model = q.as_group()
    t_q = character_table(model, P13)
    t = character_table(S3, P13)
    triv, sgn = inflate(t_q, q).tolist()
    # trivial inflates to trivial
    assert set(triv) == {1}
    # the sign of the order-2 quotient inflates to the character with
    # kernel C3, i.e. the restriction of epsilon
    eps = t.values[1]
    assert sgn == [eps[i] for i in whole_group(S3).member_positions]
    assert sgn[0] == 1   # degree preserved
