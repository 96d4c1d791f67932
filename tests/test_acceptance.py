"""Acceptance suite: the golden results and property checks the package
must satisfy, one test per criterion.

The criteria cover the bundled fixtures exactly (quiver goldens,
freeness, representation type, the functor round trip) and large seeded
random sweeps for the oracle, cover and functor properties.  A summary
line per criterion is printed at the end of the run.
"""

import random
import time

import numpy as np

from eiquiver.chartab import certified_prime, choose_splitting_prime
from eiquiver.eicat import load_category, orbit_representatives, \
    stabilizer_data, unfactorizables
from eiquiver.freecover import category_has_ufp, free_cover, is_free
from eiquiver.morita import (MoritaContext, QuiverRep, apply_functor,
                             expanded_arrows, hom_dim_cat, hom_dim_quiver,
                             inverse_functor, load_catrep)
from eiquiver.oracle import build_algebra, check_against_quiver, \
    radical_report
from eiquiver.quiveralg import assert_acyclic, build_quiver
from eiquiver.reptype import rep_type
from eiquiver import linalg

from conftest import fixture_doc
from groups import quivers_equal
from kernel_reference import is_free_by_cover
from randcats import random_free_category, random_nonfree_category
from ufp_reference import reference_has_ufp

FIXTURE_NAMES = ("line_quiver_free", "line_subcategory_nonfree",
                 "fork_merge_free", "fork_merge_nonfree", "one_object_c2",
                 "four_object_mixed", "two_object_c2_s3",
                 "two_object_trivial_s3")

# every quiver produced while checking criteria 1-6 is collected here and
# re-checked for acyclicity and the embedded subquiver in criterion 7
_QUIVERS: list = []


def _built(cat, prime=None):
    q = build_quiver(cat, prime)
    _QUIVERS.append(q)
    return q


def _labels(q):
    return [(q.vertices[a.source].label, q.vertices[a.target].label, a.mult)
            for a in q.arrows]


def test_criterion_01_mixed_chain_quiver_golden():
    start = time.perf_counter()
    cat = load_category(fixture_doc("four_object_mixed"))
    q = _built(cat)
    elapsed = time.perf_counter() - start
    assert len(q.vertices) == 11
    assert _labels(q) == [
        ("G:X0", "H:X0", 1), ("G:X1", "H:X1", 1),
        ("H:X0", "K:X0", 1), ("H:X0", "L:X0", 1),
        ("H:X1", "K:X1", 1), ("H:X2", "K:X2", 1)]
    touched = {a.source for a in q.arrows} | {a.target for a in q.arrows}
    isolated = {q.vertices[i].label for i in range(len(q.vertices))
                if i not in touched}
    assert isolated == {"L:X1", "L:X2"}
    assert elapsed < 1.0


def test_criterion_02_two_object_quiver_golden():
    start = time.perf_counter()
    cat = load_category(fixture_doc("two_object_c2_s3"))
    q = _built(cat)
    elapsed = time.perf_counter() - start
    assert len(q.vertices) == 5
    assert _labels(q) == [
        ("x:X0", "y:X0", 1), ("x:X0", "y:X2", 1),
        ("x:X1", "y:X1", 1), ("x:X1", "y:X2", 1)]
    assert elapsed < 1.0


def test_criterion_03_regular_biset_quiver_golden():
    start = time.perf_counter()
    cat = load_category(fixture_doc("two_object_trivial_s3"))
    q = _built(cat)
    mults = {(q.vertices[a.source].label, q.vertices[a.target].label): a.mult
             for a in q.arrows}
    verdict = rep_type(cat, choose_splitting_prime(cat.groups.values()))
    elapsed = time.perf_counter() - start
    assert len(q.vertices) == 4
    assert mults == {("x:X0", "y:X0"): 1, ("x:X0", "y:X1"): 1,
                     ("x:X0", "y:X2"): 2}
    # the double arrow forces infinite (here wild) representation type
    assert verdict.verdict == "Wild"
    assert elapsed < 1.0


def test_criterion_04_freeness_goldens(categories):
    expected = {"fork_merge_free": True, "fork_merge_nonfree": False,
                "line_quiver_free": True, "line_subcategory_nonfree": False}
    for name, want in expected.items():
        cat = categories[name]
        assert is_free(cat) is want, name
        assert category_has_ufp(cat) is want, name
        assert is_free_by_cover(cat) is want, name
        assert reference_has_ufp(cat) is want, name


def test_criterion_05_oracle_equivalence(categories):
    start = time.perf_counter()

    def check(cat):
        q = _built(cat)
        oracle = check_against_quiver(q)
        assert oracle == {k: v % q.prime.p
                          for k, v in q.mult_map().items() if v % q.prime.p}
        ell = radical_report(build_algebra(cat))
        unfact = sum(len(v) for v in unfactorizables(cat).values())
        assert sum(int((layer == 1).sum()) for layer in ell.values()) == \
            unfact

    for cat in categories.values():
        check(cat)
    rng = random.Random(20260825)
    for _ in range(150):
        check(random_free_category(rng, max_mor=300))
    for _ in range(60):
        check(random_nonfree_category(rng, max_mor=300))
    assert time.perf_counter() - start < 300


def test_criterion_06_cover_quiver_equality(categories):
    def check(cat):
        q = _built(cat)
        qc = _built(free_cover(cat), q.prime)
        assert quivers_equal(q, qc)

    check(categories["fork_merge_nonfree"])
    check(categories["line_subcategory_nonfree"])
    rng = random.Random(4707)
    for _ in range(50):
        check(random_nonfree_category(rng, max_mor=200))


def test_criterion_07_acyclic_and_embedded():
    assert len(_QUIVERS) > 200
    for q in _QUIVERS:
        assert_acyclic(q)
        # each orbit puts exactly one unit, e = f = 1, on x:X0 -> y:X0
        # through the trivial U (the build checks e and f; this checks
        # how the units were assembled into arrows)
        trivial = sorted(
            (un.rep_index, q.vertices[a.source].object,
             q.vertices[a.target].object, un.e, un.f)
            for a in q.arrows for un in a.units if un.u == 0 and
            q.vertices[a.source].irr == q.vertices[a.target].irr == 0)
        assert trivial == [(r, od.rep.source, od.rep.target, 1, 1)
                           for r, od in enumerate(q.orbits)]


def test_criterion_08_representation_type_goldens(categories):
    for name in ("four_object_mixed", "two_object_c2_s3"):
        cat = categories[name]
        prime = certified_prime(13, list(cat.groups.values()))
        assert rep_type(cat, prime).verdict == "Finite"
    # orbit-stabilizer index invariant on every stabilizer computation
    rng = random.Random(91)
    cats = list(categories.values()) + \
        [random_free_category(rng, max_mor=200) for _ in range(20)]
    for cat in cats:
        for rep, _ in orbit_representatives(cat):
            sd = stabilizer_data(cat, rep)
            assert len(sd.G1) * len(sd.H0) == len(sd.H1) * len(sd.G0)


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


def test_criterion_09_functor_round_trip(categories):
    start = time.perf_counter()
    cat = categories["two_object_c2_s3"]
    ctx = MoritaContext(build_quiver(cat))
    rep = load_catrep(cat, fixture_doc("two_object_c2_s3_rep"), ctx.p)
    q = apply_functor(ctx, rep)
    assert [v.label for v in ctx.built.vertices] == \
        ["x:X0", "x:X1", "y:X0", "y:X1", "y:X2"]
    assert q.dims == (2, 1, 1, 1, 2)
    assert sorted(m.shape for m in q.arrow_mats) == \
        [(1, 1), (1, 2), (2, 1), (2, 2)]
    back = inverse_functor(ctx, q)
    again = apply_functor(ctx, back)
    assert again.dims == q.dims
    for m1, m2 in zip(again.arrow_mats, q.arrow_mats):
        assert np.array_equal(m1, m2)

    rng = random.Random(7373)
    pairs_per_cat = 50
    for name in ("four_object_mixed", "two_object_c2_s3"):
        c = categories[name]
        cx = MoritaContext(build_quiver(c))
        for _ in range(pairs_per_cat):
            q1 = _random_quiverrep(cx, rng)
            q2 = _random_quiverrep(cx, rng)
            r1 = inverse_functor(cx, q1)
            r2 = inverse_functor(cx, q2)
            # dense: the inverse really lands on the given representation
            for orig, rt in ((q1, apply_functor(cx, r1)),
                             (q2, apply_functor(cx, r2))):
                assert rt.dims == orig.dims
                for m1, m2 in zip(rt.arrow_mats, orig.arrow_mats):
                    assert np.array_equal(m1, m2)
            # full + faithful: hom dimensions agree on both sides
            assert hom_dim_cat(r1, r2) == hom_dim_quiver(q1, q2)
            assert hom_dim_cat(r2, r1) == hom_dim_quiver(q2, q1)
    assert time.perf_counter() - start < 300


def test_criterion_10_no_large_scale_experiments():
    # no quantitative claims beyond the goldens and property sweeps above
    # exist, so there is nothing further to reproduce; this criterion is
    # discharged by the exact golden and property suites in 1-9
    assert True
