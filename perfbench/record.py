"""Record the expected outputs (expected.json) from the current sources.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  The
fixed workloads are recorded whole.  For biset-chains the k=8 chain is
rejected by the free-cover builder today (path-bound), so its expected
outputs are taken from the same category written out explicitly, and its
verdict from the shorter chains, which all agree.  For random-categories
one digest of all outputs is recorded per seed, for seeds
0..RECORDED_SEEDS-1; other seeds are checked by the cross-checks alone,
and the run says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import workloads as w  # noqa: E402

RECORDED_SEEDS = 100


def chain_expectations() -> dict:
    from eiquiver.eicat import load_category
    from eiquiver.oracle import check_against_quiver
    from eiquiver.quiveralg import build_quiver
    docs, _ = w.prepare_chains(0)
    res = w.run_chains_pass(docs, {})
    out = {k: {"summary": s} for k, s in res.summary.items()}
    verdicts = {s["verdict"] for s in res.summary.values()}
    if len(verdicts) != 1:
        raise SystemExit(f"chain verdicts disagree: {verdicts}")
    for k in w.CHAIN_LENGTHS:
        if str(k) in out:
            continue
        cat = load_category(gen.explicit_s3_chain_document(k))
        q = build_quiver(cat)
        out[str(k)] = {
            "known_rejection": "path-bound",
            "summary": {"morphisms": cat.morphism_count(), "free": True,
                        "cover": w.hom_sizes(cat),
                        "quiver": w.quiver_summary(q),
                        "oracle": w.oracle_summary(check_against_quiver(q)),
                        "verdict": verdicts.pop()}}
    return out


def main() -> None:
    expected = {}
    rungs, _ = w.prepare_ladder(0)
    expected["group-ladder"] = w.run_ladder_pass(rungs, {}).summary
    expected["biset-chains"] = chain_expectations()
    digests = {}
    for seed in range(RECORDED_SEEDS):
        cases, _ = w.prepare_random(seed, w.RANDOM_CATEGORIES)
        res = w.run_random_pass(cases, {}, seed)
        if res.failures:
            raise SystemExit(f"random-categories seed {seed}: "
                             f"{res.failures}")
        digests[str(seed)] = res.summary["digest"]
        print(f"random-categories seed {seed}: {digests[str(seed)]}",
              file=sys.stderr)
    expected["random-categories"] = digests
    w.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                          + "\n")


if __name__ == "__main__":
    main()
