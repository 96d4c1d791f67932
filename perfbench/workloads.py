"""The three workloads: their inputs, their operations and the checks on
every output.

Each workload has a `prepare_*(seed)` that imports the package and builds
the inputs (both count towards set-up time), and a `run_*_pass` that
performs the fixed list of operations, timing every call into the package
through `PassResult.timed` with a speed probe before it, and returns the
`PassResult`.  Every output is reduced to a summary that depends
neither on the basis chosen inside the program nor on provenance indices;
the summaries are compared with the ones recorded in expected.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"

now = time.perf_counter


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work (dict updates and a sort)
    takes now.  It is run between the timed calls, so that run.py can scale
    each call to a fixed host speed: on a shared host the speed of a vCPU
    steps by up to 2x for seconds at a time."""
    t = now()
    d: dict = {}
    for i in range(15000):
        d[i % 997] = d.get(i % 997, 0) + i * 3
    sorted(d.values())
    return now() - t


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class PassResult:
    """One pass: the time and step of every timed call, the speed probes
    around them, failures and the summary of every output."""
    calls: list = field(default_factory=list)     # seconds per timed call
    steps: list = field(default_factory=list)     # its step, e.g. tables_s
    # speed_probe() before each call, and one after the last
    probes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # unexpected outcomes
    known: list = field(default_factory=list)     # known defects
    notes: list = field(default_factory=list)     # outputs left unchecked
    summary: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def check(self, what: str, got, want) -> bool:
        """Compare an output with its expected value (None: unknown)."""
        if want is None or got == want:
            return True
        self.failures.append(f"{what}: got {got!r}, expected {want!r}")
        return False

    @contextmanager
    def op(self, tag: str):
        """One operation, made of calls timed by timed(); a failed check
        or any exception fails it."""
        before = len(self.failures)
        try:
            yield
        except Exception as e:  # noqa: BLE001  (every escape is a failure)
            self.failures.append(f"{tag}: {type(e).__name__}: {e}")
        self.attempted += 1
        self.failed += len(self.failures) > before

    def timed(self, step, fn, *args):
        """Call fn and record its time under the named step (or None); a
        call that raises is timed too."""
        self.probes.append(speed_probe())
        t = now()
        try:
            return fn(*args)
        finally:
            self.calls.append(now() - t)
            self.steps.append(step)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def child_env() -> dict:
    """Environment of every child interpreter: the package from src/, and
    bytecode caches written and used, as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ---------------------------------------------------------------------------
# output summaries (basis- and provenance-free)

def quiver_summary(q) -> dict:
    return {"vertices": [[v.label, v.dim] for v in q.vertices],
            "arrows": [[q.vertices[a.source].label,
                        q.vertices[a.target].label, a.mult]
                       for a in q.arrows]}


def hom_sizes(cat) -> dict:
    return {f"{x}->{y}": hs.size for (x, y), hs in sorted(cat.homs.items())}


def oracle_summary(oracle: dict) -> list:
    return [[list(a), list(b), m] for (a, b), m in sorted(oracle.items())]


# ---------------------------------------------------------------------------
# group-ladder: tables and models of single groups

def _cyclic(n):
    return n, [list(range(1, n)) + [0]]


def _dihedral(n):
    return n, [list(range(1, n)) + [0], [(-i) % n for i in range(n)]]


def _symmetric(n):
    return n, [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]]


# rung: (degree, generators, largest degree of an irreducible whose model
# is built).  Every table is computed, but C72's 72 one-dimensional models
# (3 s, the same work as C48's) and S5's models of degree 5 and 6 (5-9 s
# each) are left out, so that a pass is short enough to repeat in a run.
LADDER = {"C24": (*_cyclic(24), 1), "C48": (*_cyclic(48), 1),
          "C72": (*_cyclic(72), 0), "D48": (*_dihedral(48), 2),
          "S4": (*_symmetric(4), 3), "S5": (*_symmetric(5), 4)}


def prepare_ladder(seed: int):
    from eiquiver import chartab, morita, permgrp  # noqa: F401
    return LADDER, digest(LADDER)


def run_ladder_pass(rungs, expected: dict):
    from eiquiver.chartab import character_table, choose_splitting_prime
    from eiquiver.morita import irreducible_model
    from eiquiver.permgrp import conjugacy_classes, enumerate_group
    res = PassResult()
    for name, (degree, gens, max_model_degree) in rungs.items():
        with res.op(name):
            g = res.timed("tables_s", enumerate_group, degree, gens)
            classes = res.timed("tables_s", conjugacy_classes, g)
            prime = res.timed("tables_s", choose_splitting_prime, [g])
            table = res.timed("tables_s", character_table, g, prime)
            degrees = []
            for i in range(len(table)):
                if table.dims[i] > max_model_degree:
                    continue
                mats, _ = res.timed("models_s", irreducible_model,
                                    g, table, i)
                degrees.append(mats[0].shape[0] if mats else table.dims[i])
            res.summary[name] = {"order": len(g), "classes": len(classes),
                                 "dims": list(table.dims),
                                 "model_degrees": degrees}
            res.check(name, res.summary[name], expected.get(name))
    return res


# ---------------------------------------------------------------------------
# random-categories: the acceptance-suite traffic

def prepare_random(seed: int, count: int):
    import eiquiver.freecover  # noqa: F401
    import eiquiver.morita  # noqa: F401
    import eiquiver.oracle  # noqa: F401
    import eiquiver.reptype  # noqa: F401
    cases = gen.random_cases(random.Random(seed), count)
    return cases, digest(cases)


def explicit_document(cat, surgery=None) -> dict:
    """Explicit serialization of a loaded category, optionally after one of
    the surgeries planned by gen.surgery_plan."""
    keep = [o for o in cat.objects
            if not (surgery and surgery["kind"] == "drop"
                    and o == surgery["object"])]
    gens = {o: [list(g) for g in cat.groups[o].generators] for o in keep}
    cut = {}
    if surgery and surgery["kind"] == "shrink":
        cut = {surgery["object"]: surgery["keep"]}
        gens[surgery["object"]] = [gens[surgery["object"]][k]
                                   for k in surgery["keep"]]

    def acts(obj, rows):
        rows = [list(r) for r in rows]
        return [rows[k] for k in cut[obj]] if obj in cut else rows

    kept = set(keep)
    return {
        "mode": "explicit",
        "objects": [{"id": o, "degree": cat.groups[o].degree,
                     "generators": gens[o]} for o in keep],
        "homs": [{"from": x, "to": y, "size": hs.size,
                  "left_action": acts(y, hs.left_gen),
                  "right_action": acts(x, hs.right_gen)}
                 for (x, y), hs in cat.homs.items()
                 if x in kept and y in kept],
        "compositions": [{"inner": [x, y], "outer": [y, z],
                          "table": [list(r) for r in table]}
                         for (x, y, z), table in cat.comp.items()
                         if {x, y, z} <= kept],
    }


def random_quiverrep(ctx, rng, max_dim: int = 2):
    import numpy as np
    from eiquiver.morita import QuiverRep, expanded_arrows
    dims = tuple(rng.randrange(max_dim + 1) for _ in ctx.built.vertices)
    mats = tuple(
        np.array([[rng.randrange(ctx.p) for _ in range(dims[ea.source])]
                  for _ in range(dims[ea.target])],
                 dtype=np.int64).reshape(dims[ea.target], dims[ea.source])
        for ea in expanded_arrows(ctx.built))
    return QuiverRep(ctx.built, ctx.p, dims, mats)


def same_rep(a, b) -> bool:
    import numpy as np
    return a.dims == b.dims and all(
        np.array_equal(m1, m2) for m1, m2 in zip(a.arrow_mats, b.arrow_mats))


def category_pipeline(cat, res: PassResult, tag: str, free: bool | None):
    """build_quiver, oracle, freeness, rep type, screens, free cover; returns
    the quiver and the category's summary.  `free` is the freeness known by
    construction, or None."""
    from eiquiver.freecover import category_has_ufp, free_cover, is_free
    from eiquiver.oracle import check_against_quiver
    from eiquiver.quiveralg import build_quiver
    from eiquiver.reptype import rep_type, screen_two_object
    q = build_quiver(cat)
    p = q.prime.p
    oracle = check_against_quiver(q)
    res.check(f"{tag} oracle", oracle,
              {k: v % p for k, v in q.mult_map().items() if v % p})
    freeness = is_free(cat)
    res.check(f"{tag} is_free == category_has_ufp", freeness,
              category_has_ufp(cat))
    if free is not None:
        res.check(f"{tag} free by construction", freeness, free)
    verdict = rep_type(cat, q.prime)
    screen = screen_two_object(cat, q.prime)
    cover = free_cover(cat)
    if freeness:
        res.check(f"{tag} cover of a free category", hom_sizes(cover),
                  hom_sizes(cat))
    return q, {"morphisms": cat.morphism_count(), "homs": hom_sizes(cat),
               "quiver": quiver_summary(q), "oracle": oracle_summary(oracle),
               "free": freeness, "verdict": verdict.verdict,
               "rules": [r for r, _ in verdict.certificates],
               "screen": [[list(pr), rule] for pr, rule, _ in screen],
               "cover": hom_sizes(cover)}


def functor_round_trip(q, res: PassResult, tag: str, rep_seed: int) -> dict:
    from eiquiver.morita import (MoritaContext, apply_functor, hom_dim_cat,
                                 hom_dim_quiver, inverse_functor)
    ctx = MoritaContext(q)
    rng = random.Random(rep_seed)
    q1, q2 = random_quiverrep(ctx, rng), random_quiverrep(ctx, rng)
    r1, r2 = inverse_functor(ctx, q1), inverse_functor(ctx, q2)
    res.check(f"{tag} functor round trip",
              same_rep(apply_functor(ctx, r1), q1)
              and same_rep(apply_functor(ctx, r2), q2), True)
    h12, h21 = hom_dim_cat(r1, r2), hom_dim_cat(r2, r1)
    res.check(f"{tag} hom_dim_cat == hom_dim_quiver", (h12, h21),
              (hom_dim_quiver(q1, q2), hom_dim_quiver(q2, q1)))
    return {"dims": [list(q1.dims), list(q2.dims)], "hom_dims": [h12, h21]}


def run_category(case: dict, variant: str, res: PassResult,
                 tag: str) -> dict:
    """One random category, free or after its surgery, through every
    step; returns its summary."""
    from eiquiver.eicat import load_category
    cat = load_category(case["doc"])
    if variant == "free":
        again = load_category(explicit_document(cat))
        res.check(f"{tag} explicit reload", hom_sizes(again), hom_sizes(cat))
    else:
        cat = load_category(explicit_document(cat, case["surgery"]))
    q, summary = category_pipeline(
        cat, res, tag, True if variant == "free" else None)
    if variant == "free":
        summary["functor"] = functor_round_trip(q, res, tag,
                                                case["rep_seed"])
    return summary


def run_random_pass(cases, expected: dict, seed: int):
    res = PassResult()
    summaries = {}
    for n, case in enumerate(cases):
        for variant in ("free", case["surgery"]["kind"]):
            tag = f"category {n} ({variant})"
            with res.op(tag):
                summaries[tag] = res.timed(None, run_category, case,
                                           variant, res, tag)
    # the outputs of all categories are recorded as one digest per seed
    res.summary = {"digest": digest(summaries)}
    want = expected.get(str(seed))
    if want is None:
        res.notes.append(f"no recorded output digest for seed {seed}: "
                         "outputs checked by the cross-checks only")
    res.failed += not res.check(f"output digest for seed {seed}",
                                res.summary["digest"], want)
    return res


# ---------------------------------------------------------------------------
# biset-chains: S3 chains where free-cover path enumeration dominates

# k = 7 is left out: its load, is_free and free_cover take about 2 s each,
# too long to repeat in a run; k = 5 and 6 enumerate paths the same way.
CHAIN_LENGTHS = (3, 4, 5, 6, 8)
UFP_MAX_K = 6


def prepare_chains(seed: int):
    import eiquiver.freecover  # noqa: F401
    import eiquiver.oracle  # noqa: F401
    import eiquiver.reptype  # noqa: F401
    rng = random.Random(seed)
    docs = {k: gen.s3_chain_document(rng, k) for k in CHAIN_LENGTHS}
    return docs, digest(docs)


def run_chains_pass(docs, expected: dict):
    from eiquiver.eicat import load_category
    from eiquiver.errors import ValidationError
    from eiquiver.freecover import category_has_ufp, free_cover, is_free
    from eiquiver.oracle import check_against_quiver
    from eiquiver.quiveralg import build_quiver
    from eiquiver.reptype import rep_type
    res = PassResult()
    for k, doc in docs.items():
        want = expected.get(str(k), {})
        with res.op(f"k={k}"):
            try:
                cat = res.timed(None, load_category, doc)
            except ValidationError as e:
                if e.finding != want.get("known_rejection"):
                    raise
                # a valid category that the free-cover path bound rejects
                res.known.append(
                    f"k={k}: {e} (the category has "
                    f"{want['summary']['morphisms']} morphisms)")
                continue
            free = res.timed(None, is_free, cat)
            cover = res.timed(None, free_cover, cat)
            q = res.timed(None, build_quiver, cat)
            oracle = res.timed(None, check_against_quiver, q)
            verdict = res.timed(None, rep_type, cat, q.prime)
            if k <= UFP_MAX_K:
                res.check(f"k={k} is_free == category_has_ufp", free,
                          res.timed(None, category_has_ufp, cat))
            res.summary[str(k)] = {
                "morphisms": cat.morphism_count(), "free": free,
                "cover": hom_sizes(cover), "quiver": quiver_summary(q),
                "oracle": oracle_summary(oracle), "verdict": verdict.verdict}
            res.check(f"k={k}", res.summary[str(k)], want.get("summary"))
    return res


# ---------------------------------------------------------------------------

RANDOM_CATEGORIES = 80

WORKLOADS = ("group-ladder", "random-categories", "biset-chains")


def prepare(workload: str, seed: int):
    if workload == "group-ladder":
        return prepare_ladder(seed)
    if workload == "random-categories":
        return prepare_random(seed, RANDOM_CATEGORIES)
    return prepare_chains(seed)


def run_pass(workload: str, inputs, seed: int) -> PassResult:
    expected = load_expected().get(workload, {})
    if workload == "group-ladder":
        res = run_ladder_pass(inputs, expected)
    elif workload == "random-categories":
        res = run_random_pass(inputs, expected, seed)
    else:
        res = run_chains_pass(inputs, expected)
    res.probes.append(speed_probe())
    res.peak_rss_mb = peak_rss_mb()
    return res

