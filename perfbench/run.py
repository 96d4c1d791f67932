"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass is one cold, single-threaded
closed loop in a fresh interpreter (worker.py), so module caches start
empty as they do for a CLI user.  A run makes S // PASS_SECONDS[W] passes,
at least one: the count depends on S alone, not on how fast the code under
test is, so that two commits are measured the same way.

--trace 0 reports the end-to-end metrics; --trace 1 runs traced passes and
reports per-function calls and self times, the counters, the import
profile and the tracing overhead.  The human-readable report goes first;
the last line of stdout is the JSON result.  `--workload all` runs every
workload in turn and prints all their metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_PROFILES = 3
# Seconds of a run's S given to one cold pass of each workload; they fix
# each workload's pass count.  On the 2-vCPU virtual machine used to define
# the benchmark a pass, set-up included, took about 11, 10 and 6 s, so a
# run takes somewhat longer than S.
PASS_SECONDS = {"group-ladder": 9.0, "random-categories": 9.0,
                "biset-chains": 6.75}
# Seconds workloads.speed_probe() takes in a worker on that machine, in the
# state its vCPUs were in most of the time; timings are scaled to it.
PROBE_REF_S = 0.0045
MODULES = ("errors", "permgrp", "linalg", "chartab", "eicat", "freecover",
           "quiveralg", "oracle", "reptype", "morita", "cli")


def worker(workload: str, seed: int, *flags: str) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--t0", repr(t0), *flags],
        capture_output=True, text=True, env=child_env(), cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_profile() -> dict:
    """Cumulative import time of each eiquiver module and of sympy, from
    `python -X importtime`, median of a few fresh interpreters."""
    samples: dict = {}
    stmt = "import " + ", ".join(f"eiquiver.{m}" for m in MODULES)
    for _ in range(IMPORT_PROFILES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", stmt],
                             capture_output=True, text=True, env=child_env(),
                             cwd=str(ROOT), check=True).stderr
        cumulative, top = {}, []
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                cumulative[name] = int(parts[1]) / 1e6
                top.append((len(parts[2]) - len(parts[2].lstrip()), name))
        # cumulative time includes the modules imported first from inside;
        # the package total sums the outermost entries
        outer = min(level for level, _ in top)
        row = {f"{m}.import_s": cumulative.get(f"eiquiver.{m}", 0.0)
               for m in MODULES}
        row["sympy.import_s"] = cumulative.get("sympy", 0.0)
        row["eiquiver.import_s"] = sum(
            cumulative[name] for level, name in top
            if level == outer and name.startswith("eiquiver"))
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_rev() -> str:
    """git rev when the checkout is a repository, else a digest of src/."""
    try:
        top, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unavailable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "platform": platform.platform(), "rev": source_rev(),
            "seed": seed, "loadavg_start": loadavg()}


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """The run's cold passes, traced or not, and its set-up samples: one
    from each pass, plus (untraced) set-up-only interpreters up to
    SETUP_SAMPLES.  A first set-up-only interpreter, not counted, writes
    the bytecode caches."""
    worker(workload, seed, "--setup-only")
    flags = ("--trace",) if trace else ()
    passes = [worker(workload, seed, *flags)
              for _ in range(max(1, int(seconds // PASS_SECONDS[workload])))]
    setups = list(passes)
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, "--setup-only"))
    return passes, setups


def percentile(values, q: float) -> float:
    """q-quantile by linear interpolation (as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith(("ratio", "rate")) else "count"


def scaled_calls(p: dict) -> list:
    """A pass's call times scaled to the host speed at which the probe
    takes PROBE_REF_S, each by the mean of the probes just before and just
    after it."""
    pr = p["probes"]
    return [t * 2 * PROBE_REF_S / (pr[i] + pr[i + 1])
            for i, t in enumerate(p["calls"])]


def end_to_end(workload: str, passes: list, setups: list) -> dict:
    """Metrics of one run.  On a shared host a vCPU's speed steps by up to
    2x for seconds at a time, so every timed call is scaled to a fixed
    speed by the probes around it (scaled_calls), and then counts with its
    median scaled time over the run's fixed number of cold passes.  Set-up
    is scaled by the probes just after it and is the median of its
    samples."""
    med = statistics.median
    calls = [med(times) for times in zip(*map(scaled_calls, passes))]
    metrics = {
        "setup_s": med(s["setup_s"] * PROBE_REF_S / s["setup_probe"]
                       for s in setups),
        "wall_s": sum(calls),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    if workload == "random-categories":   # there a call is one category
        metrics["op_p50_s"] = percentile(calls, 0.5)
        metrics["op_p90_s"] = percentile(calls, 0.9)
    for step in ("tables_s", "models_s"):
        if step in passes[0]["steps"]:
            metrics[step] = sum(t for t, name in zip(calls,
                                                     passes[0]["steps"])
                                if name == step)
    # unscaled, for comparison: the median pass and probe as measured
    metrics["unscaled_wall_s"] = med(sum(p["calls"]) for p in passes)
    metrics["probe_s"] = med(x for p in passes for x in p["probes"])
    # known defects count here: a valid category rejected is a failure
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] + len(p["known"]) for p in passes)
    metrics["error_rate"] = failed / attempted
    return metrics


def per_layer(traced: list, imports: dict) -> dict:
    """Medians over the run's traced passes."""
    med = statistics.median
    metrics = {}
    for name in tracing.span_names():
        metrics[f"{name}.calls"] = med(
            p["trace"]["spans"][name][0] for p in traced)
        metrics[f"{name}.self_s"] = med(
            p["trace"]["spans"][name][1] for p in traced)
    counts = traced[0]["trace"]["counts"]
    for name in tracing.COUNTER_NAMES:
        metrics[name] = counts[name]
    calls = metrics["morita.irreducible_model.calls"]
    metrics["morita.irreducible_model.useful_ratio"] = (
        counts["morita.irreducible_model.distinct_keys"] / calls
        if calls else 1.0)
    metrics.update(imports)
    metrics["trace.overhead_s"] = med(
        p["trace"]["counts"]["trace.overhead_s"] for p in traced)
    return metrics


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload, print its report and return its JSON result."""
    env = environment(seed)
    passes, setups = run_passes(workload, seed, seconds, trace)
    if trace:
        metrics = per_layer(passes, import_profile())
    else:
        metrics = end_to_end(workload, passes, setups)
    env["loadavg_end"] = loadavg()

    digests = {p["input_digest"] for p in passes}
    failures = sorted({f for p in passes for f in p["failures"]})
    known = sorted({f for p in passes for f in p["known"]})
    notes = sorted({f for p in passes for f in p["notes"]})
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {workload}: {len(passes)} {'traced ' if trace else ''}"
          f"pass(es), {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit_of(name)}")
    for f in known:
        print(f"  known defect: {f}")
    for f in notes:
        print(f"  note: {f}")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print(json.dumps({"environment": env, "input_digest": sorted(digests),
                      "known_defects": known, "notes": notes,
                      "failures": failures}))
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]
    return {"correct": failed == 0 and len(digests) == 1,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in gated}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "eiquiver" / "cli.py").is_file():
        print(f"no eiquiver sources under {ROOT / 'src'}: run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
