"""One cold pass of a workload in a fresh interpreter (run by run.py).

    worker.py --workload W --seed N --t0 T [--setup-only] [--trace]

T is the parent's time.monotonic() just before it started this process, so
set-up time covers interpreter start, imports and input generation.  The
last line of stdout is one JSON object with the pass's results.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import workloads
    inputs, input_digest = workloads.prepare(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    # the host's speed just after set-up, for run.py to scale it by
    probes = sorted(workloads.speed_probe() for _ in range(3))
    out = {"setup_s": setup_s, "setup_probe": probes[1],
           "input_digest": input_digest}
    if args.setup_only:
        print(json.dumps(out))
        return
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    res = workloads.run_pass(args.workload, inputs, args.seed)
    out.update(calls=res.calls, steps=res.steps, probes=res.probes,
               attempted=res.attempted, failed=res.failed,
               failures=res.failures, known=res.known, notes=res.notes,
               summary=res.summary, peak_rss_mb=res.peak_rss_mb)
    if args.trace:
        out["trace"] = tracer.report()
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
