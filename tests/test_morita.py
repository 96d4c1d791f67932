"""Canonical irreducible models, the functor to quiver representations
and its inverse, and hom-space dimensions."""

import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

import kernel_reference as ref
from conftest import fixture_doc
from eiquiver import linalg, morita
from eiquiver.chartab import (certified_prime, character_table,
                              choose_splitting_prime)
from eiquiver.eicat import load_category, orbit_representatives
from eiquiver.errors import EIQuiverError, SchemaError, ValidationError
from eiquiver.morita import (MoritaContext, QuiverRep, apply_functor,
                             build_catrep, catrep_document, check_group_rep,
                             expanded_arrows, hom_dim_cat, hom_dim_quiver,
                             intertwiner_basis, inverse_functor,
                             irreducible_model, load_catrep,
                             quiverrep_document)
from eiquiver.permgrp import enumerate_group
from eiquiver.quiveralg import build_quiver
from groups import named_group
from randcats import random_free_category, random_nonfree_category


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
    monkeypatch.setattr(morita, "_MODEL_CACHE", {})
    g, table = _symmetric(5)
    h = hashlib.sha256()
    for i in range(len(table)):
        if table.dims[i] >= 5:
            gens, elems = irreducible_model(g, table, i)
            for m in gens + elems:
                h.update(repr(m.shape).encode())
                h.update(m.tobytes())
    assert h.hexdigest() == S5_LARGE_MODELS_DIGEST


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
        acts = [linalg.solve(w, w[mv], p) for mv in moves]
        want = intertwiner_basis(acts, acts, p, m, m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()
        seen[base is None] += 1
        return got

    monkeypatch.setattr(morita, "_MODEL_CACHE", {})
    monkeypatch.setattr(morita, "commutant", checked)
    for i in range(len(table)):
        irreducible_model(g, table, i)
    # every irreducible of degree > 1 is split from its whole component,
    # and some need further cuts
    assert seen[True] == sum(d > 1 for d in table.dims)
    assert seen[False] > 0


def test_irreducible_model_builds_no_sylvester_system(monkeypatch):
    calls = []
    system = linalg.sylvester_system
    monkeypatch.setattr(linalg, "sylvester_system",
                        lambda *a: calls.append(a) or system(*a))
    monkeypatch.setattr(morita, "_MODEL_CACHE", {})
    for n in (4, 5):
        g, table = _symmetric(n)
        for i in range(len(table)):
            irreducible_model(g, table, i)
    assert calls == []


def test_inverse_functor_builds_element_matrices_only_to_check(monkeypatch):
    # the G0 averages come from the cached models block by block, so the
    # only element matrices built are check_group_rep's, one per object
    cat = load_category(fixture_doc("four_object_mixed"))
    ctx = MoritaContext(build_quiver(cat))
    qrep = _random_quiverrep(ctx, random.Random(3), 2)
    want = inverse_functor(ctx, qrep)
    calls = []
    build = morita.element_matrices
    monkeypatch.setattr(morita, "element_matrices",
                        lambda *a: calls.append(a[0]) or build(*a))
    got = inverse_functor(ctx, qrep)
    assert len(calls) == len(cat.objects)
    assert all(np.array_equal(a, b)
               for a, b in zip(got.alpha_mats, want.alpha_mats))


def test_check_group_rep_rejects_wrong_order():
    c2 = named_group("C2")
    with pytest.raises(ValidationError):
        check_group_rep(c2, [np.array([[2]])], 1, 13)


def test_intertwiner_schur(s3_table):
    g, table = s3_table
    models = [irreducible_model(g, table, i)[1] for i in range(len(table))]
    for i in range(len(table)):
        for j in range(len(table)):
            basis = intertwiner_basis(list(models[i]), list(models[j]), 13,
                                      table.dims[i], table.dims[j])
            assert len(basis) == (1 if i == j else 0)


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


def test_apply_functor_solves_once_per_arrow(categories, monkeypatch):
    # every copy of the source irreducible is one column of one system,
    # and an arrow from an irreducible with no copy needs none
    solve = linalg.solve
    calls = []
    for name in ("two_object_c2_s3", "four_object_mixed"):
        cat = categories[name]
        ctx = MoritaContext(build_quiver(cat))
        rng = random.Random(7)
        for _ in range(3):
            rep = inverse_functor(ctx, _random_quiverrep(ctx, rng, 2))
            want = apply_functor(ctx, rep)
            calls.clear()
            monkeypatch.setattr(linalg, "solve",
                                lambda *a: calls.append(a) or solve(*a))
            got = apply_functor(ctx, rep)
            monkeypatch.setattr(linalg, "solve", solve)
            assert len(calls) == sum(1 for ea in ctx.arrows
                                     if got.dims[ea.source])
            assert all(np.array_equal(m1, m2)
                       for m1, m2 in zip(got.arrow_mats, want.arrow_mats))


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
        build_catrep(cat, p, gen_mats, [np.array([[1]])])
    assert exc.value.finding == "not-functorial"


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
        back = linalg.inv(b, p)
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


def test_build_catrep_multiplies_on_generators_and_pairs(monkeypatch):
    # per morphism one product per generator of either endpoint group,
    # and at most two per composable pair (one for each order in which
    # its two factors are taken); the group relations are checked apart
    cat = load_category(fixture_doc("four_object_mixed"))
    ctx = MoritaContext(build_quiver(cat))
    rep = load_catrep(cat, fixture_doc("four_object_mixed_rep"), ctx.p)
    ngens = {x: len(cat.groups[x].generators) for x in cat.objects}
    bound = sum(hs.size * (ngens[x] + ngens[y])
                for (x, y), hs in cat.homs.items())
    bound += 2 * sum(cat.homs[(x, z)].size * cat.homs[(z, y)].size
                     for x, z, y in cat.comp)
    calls = []
    matmul, check = linalg.matmul, morita.check_group_rep

    def uncounted(*args):
        monkeypatch.setattr(linalg, "matmul", matmul)
        check(*args)
        monkeypatch.setattr(linalg, "matmul", counted)

    def counted(a, b, p):
        calls.append(1)
        return matmul(a, b, p)

    monkeypatch.setattr(morita, "check_group_rep", uncounted)
    monkeypatch.setattr(linalg, "matmul", counted)
    again = build_catrep(cat, rep.p, rep.gen_mats, rep.alpha_mats, rep.dims)
    assert 0 < len(calls) <= bound
    assert again.mor_mats.keys() == rep.mor_mats.keys()


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
    cat, rep, ctx = rep_setup
    rng = random.Random(424)
    for _ in range(10):
        q = _random_quiverrep(ctx, rng)
        r = inverse_functor(ctx, q)
        again = apply_functor(ctx, r)
        assert again.dims == q.dims
        for m1, m2 in zip(again.arrow_mats, q.arrow_mats):
            assert np.array_equal(m1, m2)
        assert hom_dim_cat(r, r) == hom_dim_quiver(q, q)


# sha256 of the matrices below, recorded with the Kronecker-product
# assembly that kernel_reference.sylvester_system keeps: a change in any
# canonical basis (models, theta, kappa, mu) or in the assembly shows here
FUNCTOR_DIGEST = "73c6aa54d74f774eee2c24c320f7a0d8e948d3937a3fd3563f2fd8c8805be603"


def _random_invertible(n, p, rng):
    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64).reshape(n, n)
        if linalg.rank(m, p) == n:
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
            back = {x: linalg.inv(b, p) for x, b in bases.items()}
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


def test_stabilizer_homs_from_generators_match_all_members(categories):
    # a generating set of K1 cuts out the same system row space as all
    # of K1, so kappa and mu keep the all-members echelon basis
    for cat in categories.values():
        ctx = MoritaContext(build_quiver(cat))
        for r, od in enumerate(ctx.built.orbits):
            st = od.stab
            sides = ((ctx.kappa, st.alpha.source, st.G1,
                      st.quotG.projection.__getitem__),
                     (ctx.mu, st.alpha.target, st.H1,
                      st.quotH.projection.__getitem__))
            for u in range(len(od.quotient_table)):
                _, uelems = ctx.quotient_model(r, u)
                for basis, x, k1, to_quotient in sides:
                    for v in range(len(ctx.built.tables[x])):
                        _, velems = ctx.model(x, v)
                        pos = k1.member_positions
                        full = intertwiner_basis(
                            [uelems[to_quotient(g)] for g in pos],
                            [velems[g] for g in pos], ctx.p,
                            uelems[0].shape[0], velems[0].shape[0])
                        got = basis(r, u, v)
                        assert len(got) == len(full)
                        assert all(np.array_equal(a, b)
                                   for a, b in zip(got, full))
