"""Spans around the package's public functions, recorded from outside.

`install()` wraps every function named in TRACED and rebinds the wrapper
under every name that refers to the original in any loaded eiquiver module
(so `from .chartab import character_table` in quiveralg is traced too).
Each call records (name, start, end, parent) in memory; `report()` turns the
spans into per-function call counts and self times (span minus children)
and adds the counters below and the tracing overhead: the time spent
installing the wrappers and inside them outside the wrapped calls.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

TRACED = {
    "permgrp": ("enumerate_group", "conjugacy_classes", "quotient"),
    "chartab": ("character_table", "choose_splitting_prime",
                "certified_prime", "restriction_multiplicity", "inflate"),
    "linalg": ("rref", "nullspace", "char_poly", "poly_roots"),
    "eicat": ("load_category", "validate_category", "orbit_representatives",
              "stabilizer_data", "unfactorizables"),
    "freecover": ("generate_free_category", "free_cover", "is_free",
                  "category_has_ufp"),
    "quiveralg": ("build_quiver",),
    "oracle": ("check_against_quiver", "build_algebra", "radical_report",
               "ext_quiver_oracle"),
    "reptype": ("rep_type", "screen_two_object", "classify_graph"),
    "morita": ("irreducible_model", "MoritaContext", "apply_functor",
               "inverse_functor", "hom_dim_cat", "hom_dim_quiver"),
}


def _rref_ops(c, out, a, *rest, **kw):
    m, n = np.shape(a)
    c["linalg.rref.ops"] += m * n * min(m, n)


def _model(c, out, group, table, i, **kw):
    c["morita.irreducible_model.degree_sum"] += table.dims[i]
    c.setdefault("_model_keys", set()).add(
        (table.p, group.elements, group.generators, i))


def _quiver(c, out, *a, **kw):
    c["quiveralg.build_quiver.vertices"] += len(out.vertices)
    c["quiveralg.build_quiver.arrows"] += len(out.arrows)
    c["quiveralg.build_quiver.orbits"] += len(out.orbits)


def _table(c, out, *a, **kw):
    c["chartab.character_table.classes_sum"] += len(out)
    c["chartab.character_table.classes_max"] = max(
        c["chartab.character_table.classes_max"], len(out))


def _add(key, size):
    def count(c, out, *a, **kw):
        c[key] += size(out)
    return count


COUNTERS = {
    "permgrp.enumerate_group":
        _add("permgrp.enumerate_group.order_sum", len),
    "permgrp.conjugacy_classes":
        _add("permgrp.conjugacy_classes.classes_sum", len),
    "chartab.character_table": _table,
    "linalg.rref": _rref_ops,
    "freecover.generate_free_category":
        _add("freecover.generate_free_category.morphisms",
             lambda cat: cat.morphism_count()),
    "quiveralg.build_quiver": _quiver,
    "oracle.build_algebra": _add("oracle.build_algebra.dim",
                                 lambda alg: alg.dim),
    "morita.irreducible_model": _model,
}

COUNTER_NAMES = (
    "permgrp.enumerate_group.order_sum",
    "permgrp.conjugacy_classes.classes_sum",
    "chartab.character_table.classes_sum",
    "chartab.character_table.classes_max",
    "linalg.rref.ops",
    "freecover.generate_free_category.morphisms",
    "quiveralg.build_quiver.vertices",
    "quiveralg.build_quiver.arrows",
    "quiveralg.build_quiver.orbits",
    "oracle.build_algebra.dim",
    "morita.irreducible_model.degree_sum",
)


def span_names() -> list:
    return [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.overhead = 0.0

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kw):
            entry = perf_counter()
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                count(self.counts, out, *args, **kw)
            self.overhead += perf_counter() - entry - (end - start)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"eiquiver.{m}") for m in TRACED}
        entry = perf_counter()
        for m, names in TRACED.items():
            for fname in names:
                orig = getattr(mods[m], fname)
                if isinstance(orig, type):      # a class: trace __init__
                    orig.__init__ = self.wrap(f"{m}.{fname}", orig.__init__)
                    continue
                wrapper = self.wrap(f"{m}.{fname}", orig)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith(
                            "eiquiver"):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
        self.overhead += perf_counter() - entry

    def report(self) -> dict:
        """{'<module>.<fn>': [calls, self_s]} plus the counters."""
        out = {name: [0, 0.0] for name in span_names()}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), c in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - c
        counts = dict(self.counts)
        keys = counts.pop("_model_keys", set())
        counts["morita.irreducible_model.distinct_keys"] = len(keys)
        counts["trace.overhead_s"] = self.overhead
        return {"spans": out, "counts": counts}

