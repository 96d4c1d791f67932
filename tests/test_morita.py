"""Canonical irreducible models, the functor to quiver representations
and its inverse, and hom-space dimensions."""

import dataclasses
import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest

import kernel_reference as ref
from conftest import (fixture_doc, large_cover_document, trivial_line,
                      wide_functor_pair)
from eiquiver import chartab, eicat, linalg, morita
from eiquiver.chartab import (certified_prime, character_table,
                              choose_splitting_prime)
from eiquiver.eicat import (CLOSURE_CHUNK, EICategory, load_category,
                            orbit_representatives)
from eiquiver.errors import (EIQuiverError, InvariantError, SchemaError,
                             ValidationError)
from eiquiver.freecover import is_free
from eiquiver.morita import (MoritaContext, QuiverRep, apply_functor,
                             build_catrep, catrep_document, check_group_rep,
                             expanded_arrows, hom_dim_cat, hom_dim_quiver,
                             inverse_functor, irreducible_model, load_catrep,
                             quiverrep_document)
from eiquiver.oracle import build_algebra, ext_quiver_oracle, radical_report
from eiquiver.permgrp import SubgroupHandle, enumerate_group, quotient
from eiquiver.quiveralg import build_quiver
from groups import as_group, named_group, whole_group
from randcats import random_free_category, random_nonfree_category
from test_chartab import CATALOG, MORE, _group
from test_freecover import s3_chain_document
from test_kernel import C4_REGULAR
from test_quiveralg import TWISTED_C3


@pytest.fixture(scope="module")
def s3_table():
    g = named_group("S3")
    return g, character_table(g, certified_prime(13, [g]))


@pytest.fixture(scope="module")
def rep_setup(categories):
    cat = categories["two_object_c2_s3"]
    ctx = MoritaContext(build_quiver(cat))
    rep = load_catrep(cat, fixture_doc("two_object_c2_s3_rep"), ctx.p)
    return cat, rep, ctx


def test_irreducible_models_s3(s3_table):
    g, table = s3_table
    for i in range(len(table)):
        gens, elems = irreducible_model(g, table, i)
        d = table.dims[i]
        assert len(gens) == len(g.generators)
        assert len(elems) == len(g)
        assert all(m.shape == (d, d) for m in elems)
        for e in range(len(g)):
            assert int(np.trace(elems[e])) % 13 == table.rows[i][
                table.class_of[e]]


def _symmetric(n):
    g = enumerate_group(n, [[1, 0] + list(range(2, n)),
                            list(range(1, n)) + [0]])
    return g, character_table(g, choose_splitting_prime([g]))


# sha256 over the shape and bytes of every generator and element matrix
# of S5's irreducible models of degree 5 and 6, in table order, as the
# Sylvester-system commutant built them (p = 241)
S5_LARGE_MODELS_DIGEST = ("eb635d398c0b554172ebf96edf8913a5"
                          "b1c9e7c947a1eb4f8d127a9a1d17e96d")


def test_s5_models_of_degree_5_and_6_pinned(monkeypatch):
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    g, table = _symmetric(5)
    h = hashlib.sha256()
    for i in range(len(table)):
        if table.dims[i] >= 5:
            gens, elems = irreducible_model(g, table, i)
            for m in gens + tuple(elems):
                h.update(repr(m.shape).encode())
                h.update(m.tobytes())
    assert h.hexdigest() == S5_LARGE_MODELS_DIGEST


# sha256 over the shape and bytes of the rows of each table of
# perfbench's group-ladder, and of every generator and element matrix of
# each model it builds, in table order: C24, C48 and C72 to degree 1, 1
# and 0, D48 to 2 (its 23 models of degree 2), S4 to 3 and S5 to 4, as
# the eigenspaces of a characteristic polynomial's roots built them
LADDER_DIGEST = ("6ae2d2bf51490e0047dc17368f4e3797"
                 "86fe628e69053a60922e50ab9113332a")
LADDER_DEGREES = {"C24": 1, "C48": 1, "C72": 0, "D48": 2, "S4": 3, "S5": 4}


def test_ladder_tables_and_models_pinned(monkeypatch):
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    h = hashlib.sha256()
    for name, max_degree in LADDER_DEGREES.items():
        g = _group(name)
        table = character_table(g, choose_splitting_prime([g]))
        mats = [table.rows]
        for i in range(len(table)):
            if table.dims[i] <= max_degree:
                gens, elems = irreducible_model(g, table, i)
                mats += gens + (elems,)
        for m in mats:
            h.update(repr(m.shape).encode())
            h.update(m.tobytes())
    assert h.hexdigest() == LADDER_DIGEST


def test_a_model_forms_no_group_by_group_projection(monkeypatch):
    # D48's first degree-2 model reduces the projection's first 8
    # columns; gathered from 8 Cayley rows, its build peaks below the
    # 96 x 96 int64 projection that forming it whole would take
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    g = _group("D48")
    table = character_table(g, choose_splitting_prime([g]))
    i = table.dims.index(2)
    # the Cayley table, inverses and character values, built first
    assert g.cayley.shape == (96, 96) and len(g.inverse) == 96
    assert table.values.shape[1] == 96
    tracemalloc.start()
    try:
        gens, elems = irreducible_model(g, table, i)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elems.shape == (96, 2, 2)
    assert peak < len(g) ** 2 * 8


def test_a_model_doubles_its_columns_until_they_span_the_component(
        monkeypatch):
    # S3 x C8 on points 0-2 and 3-10, C8's rotations listed first, so
    # that the BFS order puts all of C8 first.  Each of its eight
    # irreducibles of degree 2 shows 1 pivot in the projection's first 8
    # columns, so the build doubles to 16, which show all 4.  The
    # reduced echelon basis does not depend on the spanning set, so each
    # model equals the one built from every column, chi[cayley[:, inverse]]
    c8 = [[0, 1, 2] + [3 + (j + k) % 8 for j in range(8)]
          for k in range(1, 8)]
    g = enumerate_group(11, c8 + [[1, 0, 2] + list(range(3, 11)),
                                  [1, 2, 0] + list(range(3, 11))])
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    table = character_table(g, certified_prime(97, [g]))
    assert len(g) == 48 and table.dims.count(2) == 8
    column_echelon = linalg.column_echelon
    calls, whole = [], []

    def counted(a, p):
        if whole and not calls:   # the first reduction, of every column
            a = whole[0]
        w, piv = column_echelon(a, p)
        calls.append((a.shape[1], len(piv)))
        return w, piv

    monkeypatch.setattr(linalg, "column_echelon", counted)
    for i in (i for i, d in enumerate(table.dims) if d == 2):
        calls.clear()
        model = irreducible_model(g, table, i)
        assert calls[:2] == [(8, 1), (16, 4)], i
        chartab._MODEL_CACHE.clear()
        whole.append(table.values[i][g.cayley[:, g.inverse]].T)
        calls.clear()
        gens, elems = irreducible_model(g, table, i)
        assert calls[0] == (48, 4), i
        assert all(np.array_equal(a, b) for a, b in zip(gens, model[0]))
        assert np.array_equal(elems, model[1]), i
        whole.clear()


@pytest.mark.parametrize("n", (4, 5))
def test_commutant_is_the_sylvester_basis_at_every_cut(monkeypatch, n):
    # the commutant from right translations and retractions is, byte for
    # byte, the nullspace basis of the Sylvester system for the action
    # on the current copies, at every split of every irreducible
    g, table = _symmetric(n)
    moves = [g.row(g.inv(g.index_of[s])) for s in g.generators]
    seen = Counter()
    commutant = morita.commutant

    def checked(w, piv, cayley, inverse, p, base=None):
        got = commutant(w, piv, cayley, inverse, p, base)
        m = w.shape[1]
        acts = [np.array(ref.solve(w.tolist(), w[mv].tolist(), p, m, m),
                         dtype=np.int64) for mv in moves]
        want = ref.intertwiner_basis(acts, acts, p, m, m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()
        seen[base is None] += 1
        return got

    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    monkeypatch.setattr(morita, "commutant", checked)
    for i in range(len(table)):
        irreducible_model(g, table, i)
    # every irreducible of degree > 1 is split from its whole component,
    # and some need further cuts
    assert seen[True] == sum(d > 1 for d in table.dims)
    assert seen[False] > 0


def test_irreducible_model_builds_no_sylvester_system(monkeypatch):
    # models come from the regular module, with no Hom system of any
    # kind: neither the Hom-dimension system nor a Hom basis by averages
    # or projections
    calls = []
    for name in ("_edge_system_dim", "fixed_point_basis",
                 "projection_bases"):
        monkeypatch.setattr(morita, name, lambda *a, f=getattr(morita, name):
                            calls.append(a) or f(*a))
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    for n in (4, 5):
        g, table = _symmetric(n)
        for i in range(len(table)):
            irreducible_model(g, table, i)
    assert calls == []


def _ladder_models():
    """(group, table, i) of every model perfbench's group-ladder builds
    (C24, C48, D48, S4, and S5 up to degree 4), then of every irreducible
    of two as_group() quotient groups: S4/V4 and A4."""
    def rung(g, max_degree):
        table = character_table(g, choose_splitting_prime([g]))
        return [(g, table, i) for i in range(len(table))
                if table.dims[i] <= max_degree]

    out = []
    for n in (24, 48):
        out += rung(enumerate_group(n, [list(range(1, n)) + [0]]), 1)
    out += rung(enumerate_group(48, [list(range(1, 48)) + [0],
                                     [-i % 48 for i in range(48)]]), 2)
    s4, s5 = _symmetric(4)[0], _symmetric(5)[0]
    out += rung(s4, 3) + rung(s5, 4)
    for g in _s4_as_groups(s4):
        out += rung(g, len(g))
    return out


def _s4_as_groups(s4):
    """S4/V4 and A4 as as_group() groups, of a quotient and a subgroup of
    S4; in A4's, some word-parents come after their children."""
    v4 = SubgroupHandle(s4, tuple(sorted(
        s4.index_of[e] for e in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                                 (3, 2, 1, 0)))))
    a4 = SubgroupHandle(s4, tuple(
        k for k, e in enumerate(s4.elements)
        if sum(e[a] > e[b] for a in range(4) for b in range(a + 1, 4)) % 2
        == 0))
    return quotient(whole_group(s4), v4).as_group(), as_group(a4)


def test_gathered_element_matrices_are_the_word_products(monkeypatch):
    # each model's matrices read off the regular module are, byte for
    # byte, the products of its generator matrices along each word
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    seen = Counter()
    for g, table, i in _ladder_models():
        gens, elems = irreducible_model(g, table, i)
        d = table.dims[i]
        want = np.array(ref.element_matrices(g, gens, d, table.p))
        assert elems.shape == (len(g), d, d) and elems.dtype == want.dtype
        assert elems.tobytes() == want.tobytes()
        seen[len(g), d] += 1
    assert seen[(6, 1)] == 2 and seen[(6, 2)] == 1       # S4/V4 = S3
    assert seen[(12, 1)] == 3 and seen[(12, 3)] == 1     # A4
    assert seen[(120, 4)] == 2 and seen[(96, 2)] == 23   # S5, D48


@pytest.mark.parametrize("e", range(6))
def test_one_wrong_character_value_fails_the_trace_certificate(
        monkeypatch, s3_table, e):
    # S3's irreducible of degree 2 with its value at element e off by
    # one; values is a cached property, so the copy's is set directly
    import dataclasses
    g, table = s3_table
    assert table.dims[2] == 2
    bad = table.values.copy()
    bad[2, e] = (bad[2, e] + 1) % table.p
    wrong = dataclasses.replace(table)
    wrong.__dict__["values"] = bad
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    with pytest.raises(InvariantError, match="traces disagree"):
        irreducible_model(g, wrong, 2)


def test_linear_models_are_the_regular_module_reference(monkeypatch):
    # every linear character's model, written down from the character,
    # is byte for byte the one the regular module's isotypic projection
    # and its echelon basis give
    groups = [_group(n) for n in CATALOG + MORE +
              ("C24", "C48", "C72", "D48", "S4", "S5")]
    groups += _s4_as_groups(_group("S4"))
    assert any((parents > kids).any()
               for _, kids, parents in groups[-1].word_levels)
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    count = 0
    for g in groups:
        table = character_table(g, choose_splitting_prime([g]))
        for i in np.flatnonzero(np.array(table.dims) == 1).tolist():
            got, want = irreducible_model(g, table, i), ref.linear_model(
                g, table, i)
            assert len(got[0]) == len(want[0]) == len(g.generators)
            for a, b in zip(got[0] + (got[1],), want[0] + (want[1],)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            count += 1
    assert count == 230


@pytest.mark.parametrize("e", [*range(6), None])
def test_a_non_multiplicative_linear_row_is_an_invariant_error(
        monkeypatch, s3_table, e):
    # S3's sign character with its value at element e off by one, or
    # zero everywhere (None); values is a cached property, so the copy's
    # is set directly
    g, table = s3_table
    i = table.dims.index(1, 1)
    bad = table.values.copy()
    if e is None:
        bad[i] = 0
    else:
        bad[i, e] = (bad[i, e] + 1) % table.p
    wrong = dataclasses.replace(table)
    wrong.__dict__["values"] = bad
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    with pytest.raises(InvariantError, match="not multiplicative"):
        irreducible_model(g, wrong, i)


def test_linear_models_do_no_elimination(monkeypatch, fresh_groups):
    # a linear character is its own model: no elimination and no Cayley
    # table
    groups = [enumerate_group(g.degree, g.generators) for g in map(
        _group, ("C24", "C48", "C72", "V4", "A4", "S3"))]
    tables = [character_table(g, choose_splitting_prime([g]))
              for g in groups]
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda *a: calls.append(a) or rref(*a))
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    built = 0
    for g, table in zip(groups, tables):
        for i in range(len(table)):
            if table.dims[i] == 1:
                irreducible_model(g, table, i)
                built += 1
    assert built == 24 + 48 + 72 + 4 + 3 + 2
    assert calls == []
    assert all("cayley" not in g.__dict__ for g in groups)


def test_linear_models_build_no_cayley_row(monkeypatch, fresh_groups):
    # their relations are checked on generator_maps, as check_group_rep
    # checks a representation's: no row of the Cayley table is kept
    g = enumerate_group(6, [[1, 2, 3, 4, 5, 0]])
    table = character_table(g, choose_splitting_prime([g]))
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    assert table.dims == (1,) * 6
    for i in range(6):
        irreducible_model(g, table, i)
    assert all(r is None for r in g._rows)


# the retraction's sums: one element per chunk at 1 and 7 entries; at
# 2^11, S5's degree-4 cuts sum 120 elements in chunks of 10 and of 16
# (the last one short), and at the default its degree-6 cut in 75 and 45
RETRACTION_CHUNKS = (1, 7, 1 << 11, CLOSURE_CHUNK)


def test_retraction_sums_in_chunks(monkeypatch):
    # S4's and S5's models from a cold cache are the same, byte for byte,
    # whatever the chunk size, and each size runs the retraction
    tables = [_symmetric(n) for n in (4, 5)]
    retractions = Counter()
    commutant = morita.commutant

    def counted(w, piv, cayley, inverse, p, base=None):
        retractions[eicat.CLOSURE_CHUNK] += base is not None
        return commutant(w, piv, cayley, inverse, p, base)

    monkeypatch.setattr(morita, "commutant", counted)
    digests = set()
    for chunk in RETRACTION_CHUNKS:
        monkeypatch.setattr(eicat, "CLOSURE_CHUNK", chunk)
        monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
        h = hashlib.sha256()
        for g, table in tables:
            for i in range(len(table)):
                gens, elems = irreducible_model(g, table, i)
                for m in gens + (elems,):
                    h.update(repr((m.dtype, m.shape)).encode())
                    h.update(m.tobytes())
        digests.add(h.hexdigest())
    assert len(digests) == 1
    assert all(retractions[c] > 0 for c in RETRACTION_CHUNKS)


def test_irreducible_model_multiplies_no_words(monkeypatch):
    # on a cold cache every element's matrix is gathered from the
    # regular module: no word products, by matrices or otherwise
    import eiquiver.permgrp

    def refuse(*a):
        raise AssertionError("word products in irreducible_model")
    tables = [_symmetric(n) for n in (4, 5)]
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    monkeypatch.setattr(eiquiver.permgrp, "word_products", refuse)
    monkeypatch.setattr(morita, "element_matrices", refuse)
    for g, table in tables:
        for i in range(len(table)):
            irreducible_model(g, table, i)


@pytest.mark.parametrize("lost", ("dropped", "zeroed"))
def test_embeddings_that_miss_a_column_are_an_invariant_error(monkeypatch,
                                                              lost):
    # the last column of every kappa basis element that feeds an L_V
    # dropped, so [kappa | kernel] is not square, or the last element's
    # zeroed, so the square one is singular; from a cold cache, as the
    # check runs once per L_V key
    cat = load_category(fixture_doc("two_object_c2_s3"))
    built = build_quiver(cat)
    # one copy of every vertex, so that every source irreducible is read
    qrep = QuiverRep(built, built.prime.p, (1,) * len(built.vertices),
                     tuple(linalg.eye(1) for _ in expanded_arrows(built)))
    inverse_functor(MoritaContext(built), qrep)
    exact = MoritaContext.stabilizer_hom

    def missing(self, r, u, x, v):
        basis = exact(self, r, u, x, v)
        if x != self.built.orbits[r].rep.source:
            return basis
        if lost == "dropped":
            return basis[:, :, :-1]
        basis = basis.copy()
        basis[-1, :, -1] = 0
        return basis

    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    monkeypatch.setattr(MoritaContext, "stabilizer_hom", missing)
    with pytest.raises(InvariantError,
                       match="^isotypic embeddings do not fill the module$"):
        inverse_functor(MoritaContext(built), qrep)


def test_inverse_functor_builds_element_matrices_only_to_check(monkeypatch):
    # the module's element matrices are copied from the cached models
    # block by block and check_group_rep only checks them, so
    # inverse_functor builds no element matrices at all
    cat = load_category(fixture_doc("four_object_mixed"))
    ctx = MoritaContext(build_quiver(cat))
    qrep = _random_quiverrep(ctx, random.Random(3), 2)
    want = inverse_functor(ctx, qrep)
    calls = []
    build = morita.element_matrices
    monkeypatch.setattr(morita, "element_matrices",
                        lambda *a: calls.append(a[0]) or build(*a))
    got = inverse_functor(ctx, qrep)
    assert calls == []
    assert all(np.array_equal(a, b)
               for a, b in zip(got.alpha_mats, want.alpha_mats))


def test_inverse_functor_copies_the_word_products(categories):
    # F^-1's element matrices, copied from the models, are byte for byte
    # element_matrices of its generator matrices, and those are the
    # models' generator matrices in block-diagonal position: on the
    # images of every _rep fixture and on random representations of
    # every fixture, many with vertices of dimension 0
    rng = random.Random(0xE1E)
    seen = Counter()
    cases = []
    for name in ("four_object_mixed", "two_object_c2_s3"):
        ctx = MoritaContext(build_quiver(categories[name]))
        rep = load_catrep(ctx.cat, fixture_doc(f"{name}_rep"), ctx.p)
        cases.append((ctx, apply_functor(ctx, rep)))
    for cat in categories.values():
        ctx = MoritaContext(build_quiver(cat))
        cases += [(ctx, _random_quiverrep(ctx, rng, d)) for d in (1, 3)
                  for _ in range(4)]
    for ctx, q in cases:
        try:
            r = inverse_functor(ctx, q)
        except ValidationError:
            # only a nonfree category may refuse the representatives
            assert not is_free(ctx.cat)
            continue
        for x in ctx.cat.objects:
            group, dim = ctx.cat.groups[x], r.dims[x]
            want = morita.element_matrices(group, r.gen_mats[x], dim, ctx.p)
            got = r.elem_mats[x]
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            blocks = [linalg.zeros(dim, dim) for _ in group.generators]
            pos = 0
            for v, d in enumerate(ctx.built.tables[x].dims):
                for _ in range(q.dims[ctx.built.vertex_index[(x, v)]]):
                    for m, g in zip(blocks, ctx.model(x, v)[0]):
                        m[pos:pos + d, pos:pos + d] = g
                    pos += d
            assert [(m.dtype, m.tobytes()) for m in r.gen_mats[x]] == \
                [(m.dtype, m.tobytes()) for m in blocks]
            seen["zero dim" if dim == 0 else "object"] += 1
        seen["zero vertex"] += 0 in q.dims
    assert seen["zero dim"] > 20 and seen["zero vertex"] > 20, seen
    assert seen["object"] > 80, seen


def test_inverse_functor_refuses_a_large_module_before_allocating(
        categories, monkeypatch):
    # one vertex of dimension 200 at S3's standard irreducible, every
    # other 0: 6 * 400^2 entries exceed the lowered bound, and the
    # finding comes before any generator, element or alpha matrix of that
    # size (one 400 x 400 int64 matrix is 1.2 MiB) is allocated
    cat = categories["two_object_c2_s3"]
    ctx = MoritaContext(build_quiver(cat))
    x = next(x for x in cat.objects if len(cat.groups[x]) == 6)
    v = ctx.built.tables[x].dims.index(2)
    dims = [0] * len(ctx.built.vertices)
    dims[ctx.built.vertex_index[(x, v)]] = 200
    q = QuiverRep(ctx.built, ctx.p, tuple(dims), tuple(
        linalg.zeros(dims[ea.target], dims[ea.source]) for ea in ctx.arrows))
    inverse_functor(ctx, _random_quiverrep(ctx, random.Random(1)))
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 6 * 400 ** 2 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="needs 960000 entries, "
                           "more than 959999") as err:
            inverse_functor(ctx, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.finding == "too-large"
    assert peak < 400 ** 2 * 8 // 4
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 6 * 400 ** 2)
    assert inverse_functor(ctx, q).dims[x] == 400


def test_check_group_rep_refuses_given_mats_off_the_identity():
    # zero matrices meet every relation e * s = e s, so only the
    # identity's slot tells them from a representation
    g, p = named_group("S3"), 13
    gens = tuple(linalg.zeros(2, 2) for _ in g.generators)
    zero = np.zeros((len(g), 2, 2), np.int64)
    with pytest.raises(ValidationError, match="identity's matrix is not I"):
        check_group_rep(g, gens, 2, p, zero)
    table = character_table(g, certified_prime(p, [g]))
    gm, elems = irreducible_model(g, table, table.dims.index(2))
    assert check_group_rep(g, gm, 2, p, elems) is elems


def _group_rep(check, g, gens, d, p):
    """The element matrices' shape, dtype and bytes, or the finding."""
    try:
        mats = np.array(check(g, gens, d, p))
    except ValidationError as e:
        return e.finding
    return mats.shape, mats.dtype.str, mats.tobytes()


def test_batched_group_rep_check_matches_the_reference():
    # the level-by-level element matrices and the one batched relation
    # check per generator against the per-element reference: the same
    # bytes, and the same accept or reject, on every ladder model and on
    # random generator matrices of each model's size
    rng = random.Random(0xC6EC)
    seen = Counter()
    for g, table, i in _ladder_models():
        d, p = table.dims[i], table.p
        for gens in (irreducible_model(g, table, i)[0],
                     tuple(_random_matrix(d, d, p, rng)
                           for _ in g.generators)):
            got = _group_rep(check_group_rep, g, gens, d, p)
            assert got == _group_rep(ref.check_group_rep, g, gens, d, p)
            seen[isinstance(got, str)] += 1
    assert seen[False] >= 40 and seen[True] >= 40, seen
    # C72 on the scalar 3 mod 433, of order 27: each element's matrix is
    # its word's product, and only the last BFS element, c^71, fails its
    # relation (c^71 c = 1, but 3^72 != 1); 2 has order 72 and passes
    c72 = enumerate_group(72, [list(range(1, 72)) + [0]])
    assert c72.words[-1] == (0,) * 71 and pow(3, 72, 433) != 1
    for a, finding in ((3, "not-a-representation"), (2, None)):
        gens = (np.array([[a]]),)
        got = _group_rep(check_group_rep, c72, gens, 1, 433)
        assert got == _group_rep(ref.check_group_rep, c72, gens, 1, 433)
        assert got == finding or finding is None and got[0] == (72, 1, 1)
    mats = morita.element_matrices(c72, (np.array([[3]]),), 1, 433)
    assert mats.ravel().tolist() == [pow(3, k, 433) for k in range(72)]


def test_check_group_rep_rejects_wrong_order():
    c2 = named_group("C2")
    with pytest.raises(ValidationError):
        check_group_rep(c2, [np.array([[2]])], 1, 13)


def test_intertwiner_schur(s3_table):
    g, table = s3_table
    models = [irreducible_model(g, table, i)[1] for i in range(len(table))]
    for i in range(len(table)):
        coefs = np.array([models[i][e][0] for e in g.inverse])
        for j in range(len(table)):
            basis = ref.intertwiner_basis(list(models[i]), list(models[j]),
                                          13, table.dims[i], table.dims[j])
            assert len(basis) == (1 if i == j else 0)
            [got] = morita.projection_bases([coefs], np.array(models[j]), 13)
            assert _same_basis(got, basis)


def test_load_catrep_fixture(rep_setup):
    cat, rep, _ = rep_setup
    assert rep.dims == {"x": 3, "y": 6}
    assert rep.p == 13
    # each morphism matrix really is a matrix of the right shape
    for (x, y), mats in rep.mor_mats.items():
        assert all(m.shape == (rep.dims[y], rep.dims[x]) for m in mats)


def test_catrep_document_round_trip(rep_setup):
    cat, rep, _ = rep_setup
    doc = catrep_document(rep)
    again = load_catrep(cat, doc, rep.p)
    assert catrep_document(again) == doc


def test_catrep_document_round_trip_with_zero_dimensions(rep_setup):
    # R(y) = 0: the representative's matrix has no rows, which JSON
    # writes as [] whatever its width
    cat, rep, ctx = rep_setup
    for dims in ((2, 1, 0, 0, 0), (0, 0, 1, 0, 2), (0,) * 5):
        zero = QuiverRep(ctx.built, ctx.p, dims, tuple(
            linalg.zeros(dims[ea.target], dims[ea.source])
            for ea in ctx.arrows))
        doc = catrep_document(inverse_functor(ctx, zero))
        again = load_catrep(cat, json.loads(json.dumps(doc)), ctx.p)
        assert again.dims == {x: sum(
            n * ctx.built.tables[x].dims[v.irr]
            for n, v in zip(dims, ctx.built.vertices) if v.object == x)
            for x in cat.objects}
        assert catrep_document(again) == doc


def test_load_catrep_rejects_bad_document(rep_setup):
    cat, rep, _ = rep_setup
    doc = catrep_document(rep)
    broken = {**doc, "objects": doc["objects"][:1]}
    with pytest.raises(SchemaError):
        load_catrep(cat, broken, rep.p)


def test_apply_functor_golden(rep_setup):
    cat, rep, ctx = rep_setup
    q = apply_functor(ctx, rep)
    labels = [v.label for v in ctx.built.vertices]
    assert labels == ["x:X0", "x:X1", "y:X0", "y:X1", "y:X2"]
    assert q.dims == (2, 1, 1, 1, 2)
    assert [m.shape for m in q.arrow_mats] == [(1, 2), (2, 2), (1, 1), (2, 1)]


def test_apply_functor_solves_once_per_block(categories, monkeypatch):
    # every target and source unit of an (orbit, quotient irreducible)
    # block is one column of the block's one elimination, which checks
    # the units' rank and solves for the images at once, and a block
    # whose irreducibles have no copy on either side needs none
    rref = linalg.rref
    calls = []
    for name in ("two_object_c2_s3", "four_object_mixed"):
        cat = categories[name]
        ctx = MoritaContext(build_quiver(cat))
        rng = random.Random(7)
        for _ in range(3):
            rep = inverse_functor(ctx, _random_quiverrep(ctx, rng, 2))
            want = apply_functor(ctx, rep)
            calls.clear()
            monkeypatch.setattr(linalg, "rref", lambda *a: calls.append(
                sys._getframe(1).f_code.co_name) or rref(*a))
            got = apply_functor(ctx, rep)
            monkeypatch.setattr(linalg, "rref", rref)
            assert calls.count("apply_functor") == len({
                (ea.rep_index, ea.u) for ea in ctx.arrows
                if got.dims[ea.source] or got.dims[ea.target]})
            assert all(np.array_equal(m1, m2)
                       for m1, m2 in zip(got.arrow_mats, want.arrow_mats))


@pytest.mark.parametrize("units, message", [
    ([0, 0], "target embeddings are dependent"),
    ([0], "leaves the span of the target embeddings")])
def test_apply_functor_checks_rank_and_span_in_one_elimination(
        rep_setup, monkeypatch, units, message):
    # one block with target units among the unit vectors e_i of k^6 and
    # one source unit e_0 of k^3, which alpha sends to e_1: two equal
    # target units are dependent, and e_1 is outside the span of e_0
    cat, rep, ctx = rep_setup
    eye6, eye3 = linalg.eye(6), linalg.eye(3)
    alpha = linalg.zeros(6, 3)
    alpha[1, 0] = 1
    tgt = np.array([eye6[:, [i]] for i in units])
    monkeypatch.setattr(ctx, "blocks", lambda r, copies: iter(
        [(eye3[None, :, [0]], tgt, [])]))
    with pytest.raises(InvariantError, match=message):
        apply_functor(ctx, dataclasses.replace(rep, alpha_mats=(alpha,)))


def test_round_trip_through_inverse(rep_setup):
    cat, rep, ctx = rep_setup
    q = apply_functor(ctx, rep)
    back = inverse_functor(ctx, q)
    assert back.dims == rep.dims
    again = apply_functor(ctx, back)
    assert again.dims == q.dims
    for m1, m2 in zip(again.arrow_mats, q.arrow_mats):
        assert np.array_equal(m1, m2)


def test_zero_representative_gives_zero_arrows(rep_setup):
    cat, rep, ctx = rep_setup
    zero = build_catrep(cat, rep.p,
                        {x: rep.gen_mats[x] for x in cat.objects},
                        [linalg.zeros(rep.dims["y"], rep.dims["x"])],
                        rep.dims)
    q = apply_functor(ctx, zero)
    assert q.dims == (2, 1, 1, 1, 2)
    assert all(not np.any(m) for m in q.arrow_mats)


def _parity_sign(perm, p):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign % p


def test_build_catrep_rejects_nonequivariant_representative(rep_setup):
    # trivial at the source, sign at the target: the only equivariant map
    # is zero, so a nonzero representative cannot extend to a functor
    cat, rep, _ = rep_setup
    p = rep.p
    gen_mats = {
        "x": tuple(np.array([[1]]) for _ in cat.groups["x"].generators),
        "y": tuple(np.array([[_parity_sign(g, p)]])
                   for g in cat.groups["y"].generators),
    }
    with pytest.raises(ValidationError) as exc:
        build_catrep(cat, p, gen_mats, [np.array([[1]])], {})
    assert exc.value.finding == "not-functorial"


def test_build_catrep_refuses_generator_matrices_it_cannot_read(
        rep_setup, categories):
    cat, rep, _ = rep_setup
    alphas = [linalg.zeros(rep.dims["y"], rep.dims["x"])]
    for mats, message in (((), "object x: need one matrix per generator"),
                          ((linalg.zeros(3, 2),),
                           "object x: matrices must be square")):
        with pytest.raises(SchemaError, match=message):
            build_catrep(cat, rep.p, {**rep.gen_mats, "x": mats}, alphas,
                         rep.dims)
    # every group of fork_merge_free is trivial: no matrix gives a dimension
    free = categories["fork_merge_free"]
    with pytest.raises(SchemaError, match="dimension cannot be inferred"):
        build_catrep(free, 13, {}, [], {})


def test_build_catrep_rejects_a_composition_it_cannot_respect(categories):
    # every group is trivial, so no action can disagree: beta_0 . alpha
    # and beta_1 . alpha name the same morphism x->z but get 1 and 2
    cat = categories["fork_merge_nonfree"]
    value = {("x", "y", 0): 1, ("y", "z", 0): 1, ("y", "z", 1): 2}
    alphas = [np.array([[value[(rep.source, rep.target, rep.index)]]])
              for rep, _ in orbit_representatives(cat)]
    dims = {x: 1 for x in cat.objects}
    with pytest.raises(ValidationError) as exc:
        build_catrep(cat, 13, {}, alphas, dims)
    assert exc.value.finding == "not-functorial"
    assert "('x', 'z')[0]" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        ref.build_catrep(cat, 13, {}, alphas, dims)
    assert exc.value.finding == "not-functorial"


def _random_matrix(rows, cols, p, rng):
    return np.array([[rng.randrange(p) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64).reshape(rows, cols)


def _random_module(group, p, rng):
    """(dim, generator matrices): a trivial module, the permutation module
    in the standard or a random basis, or random matrices, which are
    seldom a representation."""
    kind = rng.randrange(6)
    if kind < 2:
        d = rng.randrange(3)
        return d, tuple(linalg.eye(d) for _ in group.generators)
    d = group.degree
    if kind == 5:
        return d, tuple(_random_matrix(d, d, p, rng) for _ in group.generators)
    mats = []
    for s in group.generators:
        m = linalg.zeros(d, d)
        m[list(s), list(range(d))] = 1
        mats.append(m)
    if kind == 4:
        b = _random_invertible(d, p, rng)
        back = ref.inverse(b, p)
        mats = [linalg.matmul(linalg.matmul(b, m, p), back, p) for m in mats]
    return d, tuple(mats)


def _assembly(build, cat, p, gens, alphas, dims):
    """The morphism matrices as bytes, or the error class and finding."""
    try:
        mats = build(cat, p, gens, alphas, dims)
    except EIQuiverError as e:
        return type(e).__name__, getattr(e, "finding", None)
    mats = getattr(mats, "mor_mats", mats)
    return {key: [(m.shape, m.dtype.str, m.tobytes()) for m in ms]
            for key, ms in mats.items()}


def _assembly_cases(categories, rng):
    """(category, p, generator matrices, representative matrices, dims):
    random modules with random or zero representatives, then canonical
    representations from inverse_functor, half of them with one
    representative entry changed."""
    p = 13
    cats = list(categories.values())
    cats += [random_free_category(rng, max_mor=80) for _ in range(6)]
    cats += [random_nonfree_category(rng, max_mor=80) for _ in range(6)]
    for cat in cats:
        reps = orbit_representatives(cat)
        for _ in range(8):
            dims, gens = {}, {}
            for x in cat.objects:
                dims[x], gens[x] = _random_module(cat.groups[x], p, rng)
            yield cat, p, gens, [
                _random_matrix(dims[rep.target], dims[rep.source], p, rng)
                * rng.randrange(2) for rep, _ in reps], dims
    for name in ("four_object_mixed", "two_object_c2_s3", "fork_merge_free"):
        ctx = MoritaContext(build_quiver(categories[name]))
        for _ in range(6):
            r = inverse_functor(ctx, _random_quiverrep(ctx, rng, 2))
            alphas = [a.copy() for a in r.alpha_mats]
            k = rng.randrange(len(alphas))
            if rng.randrange(2) and alphas[k].size:
                alphas[k][0, 0] += 1
            yield r.cat, r.p, r.gen_mats, alphas, r.dims


def test_build_catrep_matches_two_phase_reference(categories):
    # the one-pass assembly and the two-phase reference (fill by sweeps,
    # then check every element and pair) reach the same finding, or the
    # same morphism matrices byte for byte
    seen = Counter()
    for case in _assembly_cases(categories, random.Random(0xB17D)):
        got = _assembly(build_catrep, *case)
        assert got == _assembly(ref.build_catrep, *case)
        seen[got[1] if isinstance(got, tuple) else "functor"] += 1
    # representations whose morphism matrices are built, and ones that
    # fail at an action or a composition, both occur
    assert seen["functor"] >= 20 and seen["not-functorial"] >= 20, seen


def test_build_catrep_reads_the_composition_tables_once():
    # every hom-set's tables come from one pass over cat.comp
    # (eicat.incoming_tables), not one scan of every table per hom-set:
    # a 30-object line has 435 hom-sets and 4,060 tables.  That index is
    # built once per category, so the unfactorizables, the freeness test
    # and the radical layers read the same pass
    class CountedComp(dict):
        reads = 0

        def _read(self, method):
            self.reads += 1
            return method()

        def __iter__(self):
            return self._read(super().__iter__)

        def items(self):
            return self._read(super().items)

        def keys(self):
            return self._read(super().keys)

        def values(self):
            return self._read(super().values)

    loaded = load_category(trivial_line([f"o{i}" for i in range(30)]))
    comp = CountedComp(loaded.comp)
    cat = EICategory(loaded.objects, loaded.groups, loaded.homs,
                     lambda: comp, loaded.topological_order)
    comp.reads = 0
    reps = orbit_representatives(cat)
    rep = build_catrep(cat, 5, {}, [np.ones((1, 1), dtype=np.int64)] *
                       len(reps), {x: 1 for x in cat.objects})
    assert is_free(cat)
    radical_report(build_algebra(cat))
    assert comp.reads == 1
    assert len(rep.mor_mats) == len(cat.homs) == 435
    assert all((m == 1).all() for m in rep.mor_mats.values())


def _zero_functor_on_a_wide_table(dim=8):
    """(category, p, representatives, dims): trivial x -> y -> z with
    |hom(x, y)| = |hom(y, z)| = 400 and every composite equal, and a
    zero representative matrix at each of the 800 unfactorizables, in
    dimension dim at every object (a functor, all of whose matrices are
    zero)."""
    cat = load_category(large_cover_document())
    alphas = [linalg.zeros(dim, dim) for _ in orbit_representatives(cat)]
    return cat, 13, alphas, {x: dim for x in cat.objects}


def test_build_catrep_multiplies_on_generators_and_pairs(monkeypatch):
    # the products are batched, so their number follows generators,
    # tables, chunks and spread levels, not morphisms: per hom-set one
    # product per generator of either endpoint group at each level of the
    # spread from the representatives (at most the longest orbit's size)
    # and one more for the check, and one per chunk of rows of each
    # composition table; the group relations are counted apart
    calls = []
    matmul, check = linalg.matmul, morita.check_group_rep

    def uncounted(*args):
        monkeypatch.setattr(linalg, "matmul", matmul)
        try:
            return check(*args)
        finally:
            monkeypatch.setattr(linalg, "matmul", counted)

    def counted(a, b, p):
        calls.append(a.ndim == 4)   # a table's chunk
        return matmul(a, b, p)

    def build(cat, p, gens, alphas, dims):
        calls.clear()
        monkeypatch.setattr(morita, "check_group_rep", uncounted)
        monkeypatch.setattr(linalg, "matmul", counted)
        try:
            return build_catrep(cat, p, gens, alphas, dims)
        finally:
            monkeypatch.undo()

    def chunks(cat, dims):
        # ceil(|hom(z, y)| / rows) per table x -> z -> y
        return sum(-(-cat.homs[(z, y)].size // max(1, CLOSURE_CHUNK // (
            cat.homs[(x, z)].size * dims[x] * dims[y])))
            for x, z, y in cat.comp)

    cat = load_category(fixture_doc("four_object_mixed"))
    ctx = MoritaContext(build_quiver(cat))
    rep = load_catrep(cat, fixture_doc("four_object_mixed_rep"), ctx.p)
    ngens = {x: len(cat.groups[x].generators) for x in cat.objects}
    longest = Counter()
    for r, orbit in orbit_representatives(cat):
        key = (r.source, r.target)
        longest[key] = max(longest[key], len(orbit))
    bound = sum((ngens[x] + ngens[y]) * (longest[(x, y)] + 1)
                for x, y in cat.homs)
    again = build(cat, rep.p, rep.gen_mats, rep.alpha_mats, rep.dims)
    assert 0 < calls.count(False) <= bound
    assert calls.count(True) == chunks(cat, rep.dims) > 0
    assert {k: m.tobytes() for k, m in again.mor_mats.items()} == \
        {k: m.tobytes() for k, m in rep.mor_mats.items()}
    # 804 morphisms and 160,000 composable pairs over trivial groups: no
    # product but the table's, in 200 chunks of two rows
    cat, p, alphas, dims = _zero_functor_on_a_wide_table()
    zero = build(cat, p, {}, alphas, dims)
    assert calls == [True] * chunks(cat, dims) and len(calls) == 200
    assert not any(m.any() for m in zero.mor_mats.values())


def test_lowering_the_chunk_alone_splits_the_oracle_and_composites(
        monkeypatch, categories):
    # eicat.chunks reads eicat.CLOSURE_CHUNK at each call, so lowering
    # that one binding splits the oracle's fixed-point gathers down to
    # one h each, and the wide table's composites (64 entries a matrix,
    # 400 matrices a row) down to one row per product, with the same
    # results
    cat = categories["four_object_mixed"]
    q = build_quiver(cat)
    orders = [len(cat.groups[y]) for (x, y), u in cat.unfactorizables.items()
              if u]
    wide, p, alphas, dims = _zero_functor_on_a_wide_table()
    concatenate, matmul = np.concatenate, linalg.matmul

    def gathers(chunk):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(eicat, "CLOSURE_CHUNK", chunk)
            m.setattr(np, "concatenate", lambda arrays: (
                seen.append(len(arrays)) or concatenate(arrays)))
            return seen, ext_quiver_oracle(cat, q.prime, q.tables)

    def products(chunk):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(eicat, "CLOSURE_CHUNK", chunk)
            m.setattr(linalg, "matmul", lambda a, b, mod: (
                seen.append(len(a)) or matmul(a, b, mod)))
            rep = build_catrep(wide, p, {}, alphas, dims)
        return seen, {k: m.tobytes() for k, m in rep.mor_mats.items()}

    (whole, mults), (split, low_mults) = gathers(1 << 16), gathers(1)
    assert whole == [1] * len(orders) and max(orders) > 1
    assert (split, low_mults) == (orders, mults)
    (whole, mats), (split, low_mats) = products(1 << 16), products(64 * 400)
    assert (whole, split) == ([2] * 200, [1] * 400)
    assert low_mats == mats


def test_a_wide_composition_table_is_checked_in_chunks():
    # the 400 x 400 table's products of 8 x 8 matrices would take 82 MB
    # as one array; each chunk's arrays hold at most CLOSURE_CHUNK int64
    # entries (512 KiB), beside the table itself (625 KiB as int32)
    cat, p, alphas, dims = _zero_functor_on_a_wide_table()
    tracemalloc.start()
    try:
        rep = build_catrep(cat, p, {}, alphas, dims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [m.shape for m in rep.mor_mats.values()] == \
        [(400, 8, 8), (400, 8, 8), (1, 8, 8)]
    assert peak < 5 * 2**20


def test_the_morphism_matrix_budget_is_checked_at_its_edge(monkeypatch):
    # 60 morphisms x -> z of 10 x 10 matrices, the other hom-sets' empty:
    # the check's total is the entries build_catrep allocates
    doc, rep = wide_functor_pair(10)
    cat = load_category(doc)
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 6000)
    built = load_catrep(cat, rep, 3)
    assert sum(m.size for m in built.mor_mats.values()) == 6000
    monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 5999)
    with pytest.raises(ValidationError, match="^too-large: a matrix for "
                       "each morphism of 3 hom-sets needs 6000 entries, "
                       "more than 5999$"):
        load_catrep(cat, rep, 3)


def test_a_generatorless_dim_is_held_to_the_entry_budget(categories):
    # x's group is trivial, so only "dim" sizes its identity matrix:
    # 2048^2 entries is the whole budget, 2049^2 is past it
    cat = categories["two_object_trivial_s3"]

    def rep(dim):
        return {"p": 13, "alpha_matrices": [{"rep_index": 0, "matrix": []}],
                "objects": [{"id": "x", "dim": dim, "generator_matrices": []},
                            {"id": "y", "dim": 0,
                             "generator_matrices": [[], []]}]}
    assert load_catrep(cat, rep(2048), 13).elem_mats["x"].shape == \
        (1, 2048, 2048)
    with pytest.raises(ValidationError, match="^too-large: object x: a "
                       "group of order 1 in dimension 2049 needs 4198401 "):
        load_catrep(cat, rep(2049), 13)


def _wide_row(n=100, dim=100):
    """(category, representatives, dims): trivial x -> z -> y, n
    morphisms x -> z and one z -> y whose every composite is the one
    x -> y, in dims dim, 1 and dim; every x -> z takes a row v, z -> y a
    column u, so x -> y gets u v.  One row of the composition table
    holds n products of dim x dim, past CLOSURE_CHUNK entries."""
    homs = [("x", "z", n), ("z", "y", 1), ("x", "y", 1)]
    cat = load_category({
        "mode": "explicit",
        "objects": [{"id": o, "degree": 1, "generators": []} for o in "xyz"],
        "homs": [{"from": x, "to": y, "size": k, "left_action": [],
                  "right_action": []} for x, y, k in homs],
        "compositions": [{"inner": ["x", "z"], "outer": ["z", "y"],
                          "table": [[0] * n]}]})
    v, u = np.arange(dim)[None] % 13, (np.arange(dim)[:, None] * 5 + 1) % 13
    alphas = [v if rep.target == "z" else u
              for rep, _ in orbit_representatives(cat)]
    return cat, alphas, {"x": dim, "y": dim, "z": 1}


def test_a_composition_row_past_the_chunk_is_split():
    # one row is 100 products of 100 x 100 matrices, 1,000,000 entries
    # (8 MB); it is taken six products at a time, and every block is
    # compared, the last one too
    cat, alphas, dims = _wide_row()
    tracemalloc.start()
    try:
        rep = build_catrep(cat, 13, {}, alphas, dims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**21
    assert rep.mor_mats[("x", "y")][0].tobytes() == \
        linalg.matmul(alphas[-1], alphas[0], 13).tobytes()
    assert ref.build_catrep(cat, 13, {}, alphas, dims)[("x", "y")][0].tobytes() \
        == rep.mor_mats[("x", "y")][0].tobytes()
    last = [a.copy() for a in alphas]
    k = next(k for k, (rep, _) in enumerate(orbit_representatives(cat))
             if rep.target == "z" and rep.index == 99)
    last[k][0, 0] += 1
    with pytest.raises(ValidationError, match=r"^not-functorial: morphism "
                       r"\('x', 'y'\)\[0\] receives two different"):
        build_catrep(cat, 13, {}, last, dims)


def test_hom_dims_agree(rep_setup):
    cat, rep, ctx = rep_setup
    q = apply_functor(ctx, rep)
    assert hom_dim_cat(rep, rep) == hom_dim_quiver(q, q) == 2


def test_quiverrep_document(rep_setup):
    cat, rep, ctx = rep_setup
    q = apply_functor(ctx, rep)
    doc = quiverrep_document(q)
    assert doc["p"] == q.p
    assert [v["dim"] for v in doc["vertices"]] == list(q.dims)
    assert [(v["object"], v["irreducible"]) for v in doc["vertices"]] == \
        [(v.object, v.irr) for v in ctx.built.vertices]
    assert len(doc["arrows"]) == len(ctx.arrows)
    for a, ea, m in zip(doc["arrows"], ctx.arrows, q.arrow_mats):
        assert (a["from"], a["to"], a["rep_index"], a["u"], a["s"], a["l"]) \
            == (ea.source, ea.target, ea.rep_index, ea.u, ea.s, ea.l)
        assert a["matrix"] == m.tolist()


def _random_quiverrep(ctx, rng, max_dim=2):
    dims = tuple(rng.randrange(max_dim + 1) for _ in ctx.built.vertices)
    mats = []
    for ea in expanded_arrows(ctx.built):
        m = linalg.zeros(dims[ea.target], dims[ea.source])
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                m[i, j] = rng.randrange(ctx.p)
        mats.append(m)
    return QuiverRep(ctx.built, ctx.p, dims, tuple(mats))


def test_random_quiver_reps_round_trip(rep_setup):
    # the S3 chain's orbits have quotient G1/G0 = S3, with a degree-2
    # irreducible, and C4_REGULAR's has C4: randcats makes no G1 != G0
    cat, rep, ctx = rep_setup
    ctxs = [ctx] + [MoritaContext(build_quiver(load_category(doc)))
                    for doc in (s3_chain_document(3), C4_REGULAR)]
    assert [sorted({len(od.quotient_table.group) for od in c.built.orbits})
            for c in ctxs[1:]] == [[6], [4]]
    assert 2 in ctxs[1].built.orbits[0].quotient_table.dims
    rng = random.Random(424)
    for ctx in ctxs:
        for _ in range(10):
            q = _random_quiverrep(ctx, rng)
            r = inverse_functor(ctx, q)
            again = apply_functor(ctx, r)
            assert again.dims == q.dims
            for m1, m2 in zip(again.arrow_mats, q.arrow_mats):
                assert np.array_equal(m1, m2)
            assert hom_dim_cat(r, r) == hom_dim_quiver(q, q)



def _hom_cases(categories, rng):
    """CatReps grouped by category and prime, and the ids of the
    categories with a nontrivial quotient G1/G0: every fixture's functor
    representations (its bundled document and inverse_functor images),
    the S3 chain's and C4_REGULAR's, and the random modules of
    _assembly_cases that are representations."""
    groups = {}
    quotients = [load_category(d) for d in (s3_chain_document(3),
                                            C4_REGULAR)]
    for cat in list(categories.values()) + quotients:
        ctx = MoritaContext(build_quiver(cat))
        reps = groups.setdefault((id(cat), ctx.p), [])
        for _ in range(4):
            try:
                reps.append(inverse_functor(ctx, _random_quiverrep(ctx, rng)))
            except ValidationError:
                pass   # a nonfree category may refuse the representatives
    for name in ("two_object_c2_s3", "four_object_mixed"):
        cat = categories[name]
        p = build_quiver(cat).prime.p
        groups[(id(cat), p)].append(
            load_catrep(cat, fixture_doc(f"{name}_rep"), p))
    for cat, p, gens, alphas, dims in _assembly_cases(categories, rng):
        try:
            r = build_catrep(cat, p, gens, alphas, dims)
        except EIQuiverError:
            continue
        groups.setdefault((id(cat), p), []).append(r)
    return groups.values(), {id(cat) for cat in quotients}


def test_hom_dim_cat_matches_the_loop_edge_reference(categories):
    # the fixed-point bases and the representative edges count the same
    # natural transformations as one system with a loop edge per group
    # generator, in both argument orders
    seen = Counter()
    groups, quotients = _hom_cases(categories, random.Random(0x40D))
    for reps in groups:
        for r1, r2 in chain(zip(reps, reps), zip(reps, reps[1:])):
            for a, b in ((r1, r2), (r2, r1)):
                got = hom_dim_cat(a, b)
                assert got == ref.hom_dim_cat(a, b)
                seen["pairs"] += 1
                seen["distinct"] += a is not b
                seen["nonzero"] += got > 0
                seen["unequal dims"] += a.dims != b.dims
                seen["zero dim"] += 0 in a.dims.values()
                seen["quotient"] += id(a.cat) in quotients
    assert seen["pairs"] > 300 and seen["distinct"] > 100, seen
    assert min(seen[k] for k in ("nonzero", "unequal dims", "zero dim",
                                 "quotient")) > 20, seen


def test_hom_dim_cat_refuses_a_prime_dividing_a_group_order(categories):
    # the all-ones representation of two_object_c2_s3 at p = 3, which
    # divides |S3|: the loop-edge reference counts 1, an unguarded
    # average over S3 would count 0
    cat = categories["two_object_c2_s3"]

    def ones(p):
        gens = {x: tuple(np.ones((1, 1), np.int64)
                         for _ in cat.groups[x].generators)
                for x in cat.objects}
        alphas = [np.ones((1, 1), np.int64)
                  for _ in orbit_representatives(cat)]
        return build_catrep(cat, p, gens, alphas, {})

    r3 = ones(3)
    assert ref.hom_dim_cat(r3, r3) == 1
    with pytest.raises(ValidationError, match="bad-prime"):
        hom_dim_cat(r3, r3)
    assert hom_dim_cat(ones(13), ones(13)) == 1
    with pytest.raises(ValidationError, match="prime-mismatch"):
        hom_dim_cat(ones(13), ones(7))


def test_hom_dim_cat_system_has_representative_rows_only(categories,
                                                        monkeypatch):
    # one system with a block of rows per orbit representative and none
    # per group generator, one column per element of the fixed-point
    # bases sum_x Hom_{G_x}(R1 x, R2 x), fewer than the sum_x a_x b_x of
    # a Kronecker system; it is the last matrix hom_dim_cat reduces
    systems, ranked = [], []
    build, rref = morita._edge_system_dim, linalg.rref
    monkeypatch.setattr(morita, "_edge_system_dim",
                        lambda *a: systems.append(a) or build(*a))
    monkeypatch.setattr(linalg, "rref",
                        lambda a, p: ranked.append(a.shape) or rref(a, p))
    rng = random.Random(99)
    for name in ("four_object_mixed", "two_object_c2_s3", "fork_merge_free"):
        cat = categories[name]
        ctx = MoritaContext(build_quiver(cat))
        r1, r2 = (inverse_functor(ctx, _random_quiverrep(ctx, rng, 3))
                  for _ in range(2))
        systems.clear()
        ranked.clear()
        hom_dim_cat(r1, r2)
        assert len(systems) == 1
        shape = ranked[-1]
        rows = sum(r2.dims[rep.target] * r1.dims[rep.source]
                   for rep, _ in orbit_representatives(cat))
        width = sum(len(ref.intertwiner_basis(
            r1.gen_mats[x], r2.gen_mats[x], ctx.p, r1.dims[x], r2.dims[x]))
            for x in cat.objects)
        assert shape == (rows, width)
        assert width < sum(r1.dims[x] * r2.dims[x] for x in cat.objects)


def test_hom_dim_checks_agree_with_the_reference(categories):
    # dim Hom_C(R1, R2) = dim Hom_Q(F R1, F R2) = the loop-edge
    # reference, on every fixture (a nonfree one where the inverse
    # functor gives a representation) and on 200 pairs over random free
    # categories
    seen, covered = Counter(), set()
    fixtures = {id(cat) for cat in categories.values()}
    rng = random.Random(0xED6E)
    cases = [(cat, 5) for cat in categories.values()]
    cases += [(random_free_category(rng, max_mor=150), 4) for _ in range(50)]
    for cat, pairs in cases:
        ctx = MoritaContext(build_quiver(cat))
        for _ in range(pairs):
            try:
                r1, r2 = (inverse_functor(ctx, _random_quiverrep(ctx, rng))
                          for _ in range(2))
            except ValidationError:
                continue   # a nonfree category may refuse the representatives
            q1, q2 = apply_functor(ctx, r1), apply_functor(ctx, r2)
            for (a, b), (c, d) in (((r1, r2), (q1, q2)),
                                   ((r2, r1), (q2, q1))):
                got = hom_dim_cat(a, b)
                assert got == hom_dim_quiver(c, d) == ref.hom_dim_cat(a, b)
                covered.add(id(cat))
                seen["random pairs"] += id(cat) not in fixtures
                seen["nonzero"] += got > 0
                seen["zero dim"] += 0 in c.dims
                seen["one object"] += len(cat.objects) == 1
    assert fixtures <= covered
    assert seen["random pairs"] == 2 * 200, seen
    assert min(seen[k] for k in ("nonzero", "zero dim", "one object")) > 0, \
        seen


def test_hom_dim_quiver_scatter_is_the_identity_stack_system(categories):
    # the rows written by scatter have the rank of _edge_system_dim's
    # products with each vertex's matrix units, on random pairs over
    # every fixture and 30 random free categories, many with vertices of
    # dimension 0
    rng = random.Random(0x5CA7)
    seen = Counter()
    cats = list(categories.values())
    cats += [random_free_category(rng, max_mor=120) for _ in range(30)]
    for cat in cats:
        ctx = MoritaContext(build_quiver(cat))
        for _ in range(4):
            q1, q2 = (_random_quiverrep(ctx, rng, 3) for _ in range(2))
            units = [linalg.eye(a * b).reshape(a * b, b, a)
                     for a, b in zip(q1.dims, q2.dims)]
            edges = [(ea.source, ea.target, m1, m2) for ea, m1, m2 in
                     zip(ctx.arrows, q1.arrow_mats, q2.arrow_mats)]
            got = hom_dim_quiver(q1, q2)
            assert got == morita._edge_system_dim(units, edges, ctx.p)
            seen["nonzero"] += got > 0
            seen["zero dim"] += 0 in q1.dims + q2.dims
            seen["arrows"] += len(ctx.arrows) > 0
    assert min(seen.values()) > 20 and len(seen) == 3, seen


def test_fixed_point_basis_is_the_row_space_of_the_whole_average(
        categories):
    # dropping the average's zero rows leaves its echelon basis byte for
    # byte, on every object of the Hom-dimension cases
    groups, _ = _hom_cases(categories, random.Random(0xF1B))
    seen = Counter()
    for reps in groups:
        for r1, r2 in zip(reps, reps[1:] + reps[:1]):
            for x in r1.cat.objects:
                g, p = r1.cat.groups[x], r1.p
                v_inv, w = r1.elem_mats[x][g.inverse], r2.elem_mats[x]
                a, b = v_inv.shape[1], w.shape[1]
                avg = np.einsum("glj,gik->lkji", v_inv, w).reshape(a * b,
                                                                   a * b)
                want = linalg.row_space(avg, p)
                want = want.reshape(len(want), a, b).transpose(0, 2, 1)
                got = morita.fixed_point_basis(v_inv, w, p)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert np.array_equal(got, want)
                seen["zero rows"] += bool((avg % p == 0).all(axis=1).any())
                seen["nonempty"] += len(got) > 0
    assert seen["zero rows"] > 50 and seen["nonempty"] > 100, seen


def test_hom_dim_quiver_refuses_another_prime_or_quiver(categories,
                                                        monkeypatch):
    # every refusal comes before any system is built
    monkeypatch.setattr(morita, "_edge_system_dim", None)
    rng = random.Random(15)
    ctxs = [MoritaContext(build_quiver(categories[name]))
            for name in ("four_object_mixed", "two_object_c2_s3")]
    q1, q2 = (_random_quiverrep(ctxs[0], rng) for _ in range(2))
    with pytest.raises(ValidationError, match="prime-mismatch"):
        hom_dim_quiver(q1, dataclasses.replace(q2, p=15))
    other = _random_quiverrep(ctxs[1], rng)
    assert other.p == q1.p
    for a, b in ((q1, other), (other, q1)):
        with pytest.raises(SchemaError, match="different quivers"):
            hom_dim_quiver(a, b)
    # a matrix of the wrong shape, or one matrix short, on either side
    ea = ctxs[0].arrows[0]
    wrong = dataclasses.replace(
        q2, arrow_mats=(linalg.zeros(5, 7),) + q2.arrow_mats[1:])
    short = dataclasses.replace(q2, arrow_mats=q2.arrow_mats[:-1])
    for bad, message in ((wrong, f"arrow {ea}: matrix must be "
                          f"{q2.dims[ea.target]}x{q2.dims[ea.source]}"),
                         (short, "need one matrix per expanded arrow")):
        for a, b in ((q1, bad), (bad, q1)):
            with pytest.raises(SchemaError, match=re.escape(message)):
                hom_dim_quiver(a, b)


def test_hom_dim_cat_refuses_another_category(categories):
    rng = random.Random(16)
    reps = [inverse_functor(ctx, _random_quiverrep(ctx, rng))
            for ctx in (MoritaContext(build_quiver(categories[name]))
                        for name in ("four_object_mixed", "two_object_c2_s3"))]
    assert reps[0].p == reps[1].p
    for a, b in (reps, reps[::-1]):
        with pytest.raises(SchemaError, match="different categories"):
            hom_dim_cat(a, b)


def test_inverse_functor_checks_the_prime_and_shapes_first(categories,
                                                          monkeypatch):
    ctx = MoritaContext(build_quiver(categories["four_object_mixed"]))
    q = _random_quiverrep(ctx, random.Random(17))
    monkeypatch.setattr(morita, "irreducible_model", None)
    with pytest.raises(ValidationError, match="prime-mismatch"):
        inverse_functor(ctx, dataclasses.replace(q, p=15))
    k = len(ctx.arrows) - 1
    ea = ctx.arrows[k]
    mats = list(q.arrow_mats)
    mats[k] = linalg.zeros(5, 7)
    with pytest.raises(SchemaError) as err:
        inverse_functor(ctx, dataclasses.replace(q, arrow_mats=tuple(mats)))
    assert str(err.value) == f"arrow {ea}: matrix must be " \
        f"{q.dims[ea.target]}x{q.dims[ea.source]}"
    # one arrow matrix or one dimension short: zip would stop early
    with pytest.raises(SchemaError, match="one matrix per expanded arrow"):
        inverse_functor(ctx, dataclasses.replace(
            q, arrow_mats=q.arrow_mats[:-1]))
    with pytest.raises(SchemaError, match="one dimension per vertex"):
        inverse_functor(ctx, dataclasses.replace(q, dims=q.dims[:-1]))
    # a representation of another category's quiver, at the same prime
    other = MoritaContext(build_quiver(categories["two_object_c2_s3"]))
    assert other.p == ctx.p
    with pytest.raises(SchemaError, match="of a different quiver"):
        inverse_functor(ctx, _random_quiverrep(other, random.Random(17)))


# sha256 of the matrices below, recorded with the Kronecker-product
# assembly that kernel_reference.sylvester_system keeps: a change in any
# canonical basis (models, theta, kappa, mu) or in the assembly shows here
FUNCTOR_DIGEST = "73c6aa54d74f774eee2c24c320f7a0d8e948d3937a3fd3563f2fd8c8805be603"


def _random_invertible(n, p, rng):
    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64).reshape(n, n)
        if len(linalg.rref(m, p)[1]) == n:
            return m


def _functor_digest(categories):
    h = hashlib.sha256()

    def put(m):
        m = np.asarray(m, dtype=np.int64)
        h.update(repr(m.shape).encode())
        h.update(m.tobytes())

    for seed, name in enumerate(("four_object_mixed", "two_object_c2_s3",
                                 "fork_merge_free")):
        cat = categories[name]
        ctx = MoritaContext(build_quiver(cat))
        p = ctx.p
        rng = random.Random(seed)
        for _ in range(5):
            r = inverse_functor(ctx, _random_quiverrep(ctx, rng, 3))
            for x in cat.objects:
                for m in r.gen_mats[x]:
                    put(m)
            for m in r.alpha_mats:
                put(m)
            # the same representation in a random basis, so that F has
            # to find the isotypic copies itself
            bases = {x: _random_invertible(r.dims[x], p, rng)
                     for x in cat.objects}
            back = {x: ref.inverse(b, p) for x, b in bases.items()}
            gens = {x: tuple(linalg.matmul(linalg.matmul(bases[x], m, p),
                                           back[x], p)
                             for m in r.gen_mats[x]) for x in cat.objects}
            alphas = [linalg.matmul(linalg.matmul(bases[rep.target], a, p),
                                    back[rep.source], p)
                      for (rep, _), a in zip(orbit_representatives(cat),
                                             r.alpha_mats)]
            moved = build_catrep(cat, p, gens, alphas, r.dims)
            for m in apply_functor(ctx, moved).arrow_mats:
                put(m)
    return h.hexdigest()


def test_functor_matrices_pinned(categories):
    assert _functor_digest(categories) == FUNCTOR_DIGEST


def _model_module(ctx, x, rng):
    """(dim, generator matrices) of a sum of irreducible models at x, each
    with multiplicity 0 to 2, in a random basis."""
    table = ctx.built.tables[x]
    blocks = [v for v in range(len(table)) for _ in range(rng.randrange(3))]
    dim = sum(table.dims[v] for v in blocks)
    gens = []
    for k in range(len(ctx.cat.groups[x].generators)):
        m, pos = linalg.zeros(dim, dim), 0
        for v in blocks:
            d = table.dims[v]
            m[pos:pos + d, pos:pos + d] = ctx.model(x, v)[0][k]
            pos += d
        gens.append(m)
    base = _random_invertible(dim, ctx.p, rng)
    back = ref.inverse(base, ctx.p)
    return dim, tuple(linalg.matmul(linalg.matmul(base, m, ctx.p), back,
                                    ctx.p) for m in gens)


def _same_basis(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(got, want))


def test_projection_bases_match_the_sylvester_reference(categories):
    # the copies (theta), kappa and mu from Serre's projections are,
    # matrix for matrix, the nullspace basis of the Sylvester system over
    # all of the group (theta) or of K1 (kappa, mu)
    rng = random.Random(0x5E77E)
    cats = list(categories.values())
    cats += [random_free_category(rng, max_mor=80) for _ in range(6)]
    cats += [random_nonfree_category(rng, max_mor=80) for _ in range(6)]
    seen = Counter()
    for cat in cats:
        ctx = MoritaContext(build_quiver(cat))
        p = ctx.p
        for _ in range(2):
            dims, gens = {}, {}
            for x in cat.objects:
                dims[x], gens[x] = _model_module(ctx, x, rng)
            rep = build_catrep(cat, p, gens, [
                linalg.zeros(dims[r.target], dims[r.source])
                for r, _ in orbit_representatives(cat)], dims)
            for v in ctx.built.vertices:
                x = v.object
                want = ref.intertwiner_basis(
                    list(ctx.model(x, v.irr)[0]), list(rep.gen_mats[x]), p,
                    ctx.built.tables[x].dims[v.irr], rep.dims[x])
                assert _same_basis(ctx.copies(rep, x)[v.irr], want)
                seen["theta copies"] += len(want)
        for r, od in enumerate(ctx.built.orbits):
            st, qtable = od.stab, od.quotient_table
            sides = ((od.rep.source, st.G1, st.quotG.projection, od.e),
                     (od.rep.target, st.H1, st.quotH.projection, od.f))
            seen["nontrivial quotient"] += len(qtable.group) > 1
            for u in range(len(qtable)):
                _, uelems = irreducible_model(qtable.group, qtable, u)
                seen["quotient degree 2"] += uelems[0].shape[0] == 2
                for x, k1, projection, counts in sides:
                    for v in range(len(ctx.built.tables[x])):
                        _, velems = ctx.model(x, v)
                        pos = k1.member_positions
                        want = ref.intertwiner_basis(
                            [uelems[projection[g]] for g in pos],
                            [velems[g] for g in pos], p,
                            uelems[0].shape[0], velems[0].shape[0])
                        assert _same_basis(
                            ctx.stabilizer_hom(r, u, x, v), want)
                        assert len(want) == counts[u][v]
                        seen["stabilizer homs"] += bool(want)
    assert seen["nontrivial quotient"] and seen["quotient degree 2"], seen
    assert seen["theta copies"] > 100 and seen["stabilizer homs"] > 100, seen


def test_no_zero_slice_reaches_canonical_span(categories, monkeypatch):
    # an irreducible that is no constituent of R(x) has an all-zero slice
    # of projections: its copies are an empty int64 stack of the shape
    # canonical_span gives, with no elimination
    span = morita.canonical_span

    def nonzero_span(mats, p):
        assert mats.any(), "a zero stack reached canonical_span"
        return span(mats, p)
    monkeypatch.setattr(morita, "canonical_span", nonzero_span)
    rng = random.Random(41)
    lengths = []
    for name in ("two_object_c2_s3", "four_object_mixed"):
        ctx = MoritaContext(build_quiver(categories[name]))
        for _ in range(3):
            rep = inverse_functor(ctx, _random_quiverrep(ctx, rng, 2))
            for x in ctx.cat.objects:
                for v, copies in enumerate(ctx.copies(rep, x)):
                    dv = ctx.built.tables[x].dims[v]
                    assert copies.shape[1:] == (rep.dims[x], dv)
                    assert copies.dtype == np.int64
                    lengths.append(len(copies))
    assert 0 in lengths and max(lengths) > 0


def test_blocks_build_only_the_counted_bases(categories, monkeypatch):
    # one kappa or mu basis per nonzero e[u][v] or f[u][w] of the quiver,
    # each in the model cache under its group signature
    for name in ("four_object_mixed", "two_object_c2_s3", "fork_merge_free"):
        monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
        ctx = MoritaContext(build_quiver(categories[name]))
        r = inverse_functor(ctx, _random_quiverrep(ctx, random.Random(2)))
        apply_functor(ctx, r)
        counted = set()
        for k, od in enumerate(ctx.built.orbits):
            for x, counts in ((od.rep.source, od.e), (od.rep.target, od.f)):
                counted |= {("hom", *ctx._signature(k, x), v, u)
                            for u, row in enumerate(counts)
                            for v, n in enumerate(row) if n}
        assert {key for key in chartab._MODEL_CACHE if key[0] == "hom"} == \
            counted, name


def test_a_truncated_kappa_basis_is_an_invariant_error(categories,
                                                       monkeypatch):
    # every projected basis one element short, from a cold cache, since
    # the count is checked where stabilizer_hom builds its entry
    cat = categories["two_object_c2_s3"]
    ctx = MoritaContext(build_quiver(cat))
    rep = load_catrep(cat, fixture_doc("two_object_c2_s3_rep"), ctx.p)
    exact = morita.projection_bases
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    monkeypatch.setattr(morita, "projection_bases",
                        lambda *a: [b[:-1] for b in exact(*a)])
    with pytest.raises(InvariantError, match="the quiver counts"):
        apply_functor(ctx, rep)


def test_functor_solves_no_system_and_each_check_one(categories,
                                                     monkeypatch):
    # on a warm context the functor and its inverse find every Hom basis
    # by projections; hom_dim_cat builds one system by _edge_system_dim
    # and hom_dim_quiver writes its own, so it calls none
    calls = Counter()
    for mod, name in ((morita, "_edge_system_dim"), (linalg, "nullspace")):
        monkeypatch.setattr(mod, name, lambda *a, f=getattr(mod, name),
                            name=name: calls.update([name]) or f(*a))
    for name in ("four_object_mixed", "two_object_c2_s3", "fork_merge_free"):
        ctx = MoritaContext(build_quiver(categories[name]))
        rng = random.Random(5)
        apply_functor(ctx, inverse_functor(ctx, _random_quiverrep(ctx, rng)))
        calls.clear()
        q = _random_quiverrep(ctx, rng)
        r = inverse_functor(ctx, q)
        again = apply_functor(ctx, r)
        assert calls == {}
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.arrow_mats, q.arrow_mats))
        hom_dim_cat(r, r)
        assert calls == {"_edge_system_dim": 1}
        hom_dim_quiver(q, q)
        assert calls == {"_edge_system_dim": 1}


def _catrep_bytes(build, ctx, q):
    """The dims and the dtype, shape and bytes of every generator,
    representative and morphism matrix of build(ctx, q), or the class,
    finding and message of what it raised."""
    try:
        r = build(ctx, q)
    except EIQuiverError as e:
        return type(e).__name__, getattr(e, "finding", None), str(e)

    def put(m):
        return m.dtype.str, m.shape, np.ascontiguousarray(m).tobytes()
    return (r.dims, {x: [put(m) for m in ms] for x, ms in r.gen_mats.items()},
            [put(a) for a in r.alpha_mats],
            {key: put(m) for key, m in r.mor_mats.items()})


def _reference_contexts(categories):
    """(name, context) of every fixture, the S3 chains of 3 to 5 objects,
    the twisted C3 category and 50 randcats categories."""
    rng = random.Random(0x1F0)
    cats = list(categories.items())
    cats += [(f"S3 chain {k}", load_category(s3_chain_document(k)))
             for k in (3, 4, 5)]
    cats += [("twisted C3", load_category(TWISTED_C3))]
    cats += [(f"randcats {i}", random_free_category(rng, max_mor=80))
             for i in range(50)]
    return [(name, MoritaContext(build_quiver(cat))) for name, cat in cats]


def test_inverse_functor_matches_the_per_orbit_solve(categories):
    # the placed blocks are, byte for byte, the unique solution of each
    # orbit's system alpha [S | comp] = [T C | 0]; on a non-free
    # category both end in the same finding.  Four random
    # representations each, and one with every dimension 1
    rng = random.Random(0x1F1)
    seen, found, nonfree = Counter(), set(), []
    for name, ctx in _reference_contexts(categories):
        free = is_free(ctx.cat)
        qs = [_random_quiverrep(ctx, rng) for _ in range(4)]
        ones = (1,) * len(ctx.built.vertices)
        qs.append(QuiverRep(ctx.built, ctx.p, ones, tuple(
            np.array([[rng.randrange(1, ctx.p)]]) for _ in ctx.arrows)))
        for q in qs:
            got = _catrep_bytes(inverse_functor, ctx, q)
            assert got == _catrep_bytes(ref.inverse_functor, ctx, q), name
            seen[free, got[1] if isinstance(got[0], str) else None] += 1
            if not free and isinstance(got[0], str):
                found.add(name)
        nonfree += [] if free else [name]
        seen["quotient degree 2"] += any(
            2 in od.quotient_table.dims for od in ctx.built.orbits)
    # every non-free fixture ends in not-functorial at least once, and
    # no free category ends in a finding
    assert sorted(found) == sorted(nonfree) == [
        "fork_merge_nonfree", "line_subcategory_nonfree"]
    assert set(seen) == {(True, None), (False, None),
                         (False, "not-functorial"), "quotient degree 2"}
    assert seen["quotient degree 2"] >= 3 and seen[True, None] >= 250, seen


def _functor_entries(ctx):
    """Every kappa, mu and L_V that the functor and its inverse read on
    ctx, by (kind, orbit, U, object, irreducible)."""
    out = {}
    for r, od in enumerate(ctx.built.orbits):
        for x, counts in ((od.rep.source, od.e), (od.rep.target, od.f)):
            for u, row in enumerate(counts):
                for v, n in enumerate(row):
                    if n:
                        out[("hom", r, u, x, v)] = ctx.stabilizer_hom(
                            r, u, x, v)
        for v in range(len(ctx.built.tables[od.rep.source])):
            if any(row[v] for row in od.e):
                out[("L", r, None, od.rep.source, v)] = ctx.source_inverse(
                    r, v)
    return out


def test_functor_cache_entries_are_fresh_computations(categories,
                                                      monkeypatch):
    # kappa, mu and L_V read through one cache shared by many categories
    # equal, byte for byte, what each category computes from a cold cache
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    ctxs = _reference_contexts(categories)[:20]
    shared = [_functor_entries(ctx) for _, ctx in ctxs]
    keys = {key for key in chartab._MODEL_CACHE
            if key[0] in ("hom", "inverse")}
    assert len(keys) < sum(map(len, shared)), "no entry is shared"
    for (name, ctx), want in zip(ctxs, shared):
        chartab._MODEL_CACHE.clear()
        got = _functor_entries(MoritaContext(ctx.built))
        assert got.keys() == want.keys()
        for key, m in got.items():
            assert (m.dtype, m.shape) == (want[key].dtype, want[key].shape)
            assert m.tobytes() == want[key].tobytes(), (name, key)
    # the twisted C3 orbits share their source side and keep their
    # target sides apart: h∘alpha = alpha∘g numbers H1 differently
    ctx = dict(ctxs)["twisted C3"]
    assert ctx._signature(0, "x") == ctx._signature(1, "x")
    assert ctx._signature(0, "y") != ctx._signature(1, "y")


def test_a_second_category_over_the_same_groups_projects_nothing(
        monkeypatch):
    # the same document loaded twice: the second category's groups are
    # the first's, interned, so its kappa, mu and L_V are cache hits.
    # F's copies are projected per representation, so the builds of
    # kappa, mu and L_V are what is counted
    calls = []
    for name in ("_stabilizer_hom", "_source_inverse"):
        monkeypatch.setattr(MoritaContext, name, lambda *a, f=getattr(
            MoritaContext, name): calls.append(a) or f(*a))
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    doc = s3_chain_document(3)
    outcomes = []
    for _ in range(2):
        calls.clear()
        ctx = MoritaContext(build_quiver(load_category(doc)))
        q = _random_quiverrep(ctx, random.Random(5))
        r = inverse_functor(ctx, q)
        again = apply_functor(ctx, r)
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.arrow_mats, q.arrow_mats))
        outcomes.append((len(calls), [a.tobytes() for a in r.alpha_mats]))
    assert outcomes[0][0] > 0 and outcomes[1][0] == 0
    assert outcomes[0][1] == outcomes[1][1]


@pytest.mark.parametrize("lost", ("element", "column"))
def test_a_failed_source_inverse_check_stores_nothing(monkeypatch, lost):
    # a kappa basis one element short fails its count, and one with a
    # column dropped fails to fill V: no L_V with kappa rows is kept.
    # The count is checked where stabilizer_hom builds its entry, so the
    # projections are cut short there
    built = build_quiver(load_category(fixture_doc("four_object_mixed")))
    project, exact = morita.projection_bases, MoritaContext.stabilizer_hom

    def short(self, r, u, x, v):
        basis = exact(self, r, u, x, v)
        if x != self.built.orbits[r].rep.source:
            return basis
        return basis[:, :, :-1]

    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    if lost == "element":
        monkeypatch.setattr(morita, "projection_bases",
                            lambda *a: [b[:-1] for b in project(*a)])
    else:
        monkeypatch.setattr(MoritaContext, "stabilizer_hom", short)
    ctx = MoritaContext(built)
    message = ("the quiver counts" if lost == "element"
               else "do not fill the module")
    for r, od in enumerate(built.orbits):
        for v in range(len(built.tables[od.rep.source])):
            if any(row[v] for row in od.e):
                with pytest.raises(InvariantError, match=message):
                    ctx.source_inverse(r, v)
            else:
                assert ctx.source_inverse(r, v).shape[0] == 0
    stored = [m for key, m in chartab._MODEL_CACHE.items() if key[0] == "inverse"]
    assert stored and all(m.shape[0] == 0 for m in stored)


@pytest.mark.parametrize("kind", ("table", "model", "hom", "inverse"))
def test_a_failed_build_stores_nothing(monkeypatch, kind):
    # every kind of model-cache entry is checked inside its build: a
    # build that raises leaves no entry of its kind, and the next call
    # builds, and raises, again
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    if kind == "table":
        # C24's table holds 576 values
        monkeypatch.setattr(eicat, "MAX_ELEMENT_ENTRIES", 575)
        g = _group("C24")
        prime = choose_splitting_prime([g])
        call, message = (lambda: character_table(g, prime),
                         "needs 576 entries, more than 575")
    elif kind == "model":
        # S3's irreducible of degree 2 with one value off by one
        g = named_group("S3")
        table = character_table(g, certified_prime(13, [g]))
        bad = table.values.copy()
        bad[2, 1] = (bad[2, 1] + 1) % table.p
        wrong = dataclasses.replace(table)
        wrong.__dict__["values"] = bad
        call, message = (lambda: irreducible_model(g, wrong, 2),
                         "traces disagree")
    else:
        built = build_quiver(load_category(fixture_doc("four_object_mixed")))
        ctx = MoritaContext(built)
        r, u, v = next((r, u, v) for r, od in enumerate(built.orbits)
                       for u, row in enumerate(od.e)
                       for v, n in enumerate(row) if n)
        source = built.orbits[r].rep.source
        if kind == "hom":
            # a kappa basis one element short of the quiver's count
            project = morita.projection_bases
            monkeypatch.setattr(morita, "projection_bases",
                                lambda *a: [b[:-1] for b in project(*a)])
            call, message = ((lambda: ctx.stabilizer_hom(r, u, source, v)),
                             "the quiver counts")
        else:
            # kappa with a column dropped, so [kappa | K] is not square
            exact = MoritaContext.stabilizer_hom
            monkeypatch.setattr(MoritaContext, "stabilizer_hom",
                                lambda *a: exact(*a)[:, :, :-1])
            call, message = ((lambda: ctx.source_inverse(r, v)),
                             "do not fill the module")
    for _ in range(2):
        with pytest.raises(EIQuiverError, match=message):
            call()
        assert [key for key in chartab._MODEL_CACHE if key[0] == kind] == []


def test_inverse_functor_builds_only_the_l_v_an_arrow_reads(categories,
                                                           monkeypatch):
    # an irreducible with no kappa has no arrow, so no L_V without rows
    # is built, even with every vertex present
    monkeypatch.setattr(chartab, "_MODEL_CACHE", {})
    for name in ("four_object_mixed", "two_object_c2_s3"):
        ctx = MoritaContext(build_quiver(categories[name]))
        ones = (1,) * len(ctx.built.vertices)
        inverse_functor(ctx, QuiverRep(ctx.built, ctx.p, ones, tuple(
            linalg.eye(1) for _ in ctx.arrows)))
    stored = [m for key, m in chartab._MODEL_CACHE.items() if key[0] == "inverse"]
    assert stored and all(len(m) for m in stored)


def test_a_second_inverse_functor_solves_nothing(categories, monkeypatch):
    # every L_V and placement is read off the cache and the context on a
    # second call: no elimination and no projection, only build_catrep
    rref, project = linalg.rref, morita.projection_bases
    calls = Counter()
    for name in ("four_object_mixed", "two_object_c2_s3"):
        ctx = MoritaContext(build_quiver(categories[name]))
        rng = random.Random(11)
        inverse_functor(ctx, _random_quiverrep(ctx, rng))
        monkeypatch.setattr(linalg, "rref", lambda *a: calls.update(
            ["rref"]) or rref(*a))
        monkeypatch.setattr(morita, "projection_bases", lambda *a: (
            calls.update(["projection_bases"]) or project(*a)))
        q = _random_quiverrep(ctx, rng)
        again = inverse_functor(ctx, q)
        monkeypatch.setattr(linalg, "rref", rref)
        monkeypatch.setattr(morita, "projection_bases", project)
        assert calls == {}, name
        assert _catrep_bytes(lambda c, q: again, ctx, q) == \
            _catrep_bytes(ref.inverse_functor, ctx, q)


def test_expanded_arrows_are_built_once_per_prime(monkeypatch):
    # the context, both functors, the shape check, hom_dim_quiver and the
    # document read one tuple per (category, prime), on every quiver
    # built for them; another prime builds its own
    calls = []
    build = morita._expanded_arrows
    monkeypatch.setattr(morita, "_expanded_arrows",
                        lambda arrows: calls.append(arrows) or build(arrows))
    cat = load_category(fixture_doc("four_object_mixed"))
    ctx = MoritaContext(build_quiver(cat))
    q = _random_quiverrep(ctx, random.Random(13))
    apply_functor(ctx, inverse_functor(ctx, q))
    hom_dim_quiver(q, q)
    quiverrep_document(q)
    again = MoritaContext(build_quiver(cat, ctx.built.prime))
    assert again.arrows is ctx.arrows and len(calls) == 1
    # the next prime that certifies the groups
    exponent = math.lcm(*(g.exponent for g in cat.groups.values()))
    p = next(p for p in range(ctx.p + exponent, 10**4, exponent)
             if all(p % d for d in range(2, p)))
    other = MoritaContext(build_quiver(cat, certified_prime(
        p, cat.groups.values())))
    assert len(calls) == 2 and other.arrows == ctx.arrows


def test_copies_are_each_irreducibles_projection_basis(categories):
    # the projections of all irreducibles from one einsum give, byte for
    # byte, the basis of each irreducible's own projections
    rng = random.Random(0xC0C)
    seen = Counter()
    for name in ("four_object_mixed", "two_object_c2_s3"):
        ctx = MoritaContext(build_quiver(categories[name]))
        for _ in range(3):
            r = inverse_functor(ctx, _random_quiverrep(ctx, rng, 3))
            for x in ctx.cat.objects:
                group = ctx.cat.groups[x]
                got = ctx.copies(r, x)
                assert len(got) == len(ctx.built.tables[x])
                for v, basis in enumerate(got):
                    [want] = morita.projection_bases(
                        [ctx.model(x, v)[1][group.inverse, 0]],
                        r.elem_mats[x], ctx.p)
                    assert (basis.dtype, basis.shape) == (want.dtype,
                                                          want.shape)
                    assert np.array_equal(basis, want)
                    seen[len(basis) > 0] += 1
    assert seen[True] > 20 and seen[False] > 0, seen
