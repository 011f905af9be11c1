"""flatiso benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload enum-k4 --seed 1 --seconds 30 --trace 0

Workloads: enum-k4, enum-k4-w2, enum-k3, certify (see workloads.py).  Run
from any directory; the package is imported from the checkout's src/.

The workload's lazy tables are filled first and not timed.  Then the
workload's job runs again and again, at least once, until --seconds have
passed.  Every job's output is checked after its timed part.

--trace 0 prints the end-to-end metrics:
  wall_s           median time of one job
  setup_s          median, over fresh interpreters, of import plus the
                   minimal call that fills the lazy tables
  peak_rss_mib     peak RSS of this process plus the largest peak among its
                   worker processes
  completed_share  operations (enum-*: dimensions, certify: requests) that
                   completed in time with correct output, over those attempted
  req_p50_ms       median latency of completed requests (enum-*: one request
                   is the whole job, as `flatiso tables` returns it)

--trace 1 spends half of --seconds untraced and half traced, wrapping the
package's public functions (tracing.py), prints the per-layer metrics and
writes the spans to perfbench/out/.  Among them is req_p90_ms, the 90th
percentile (nearest rank) of the untraced half's request latencies: on
certify it moves with the machine's speed too much to carry a bound.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `failed` counts operations that raised or gave a wrong output; a
certify request abandoned at the deadline is not a wrong output, and shows
in completed_share and in the per-rank failure counts instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checkout

checkout.import_flatiso()

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MODULE_SPANS = [name for _, _, name in tracing.TARGETS]
CERTIFY_LAYER = (
    ("diagrep.are_equivalent", ("calls",)),
    ("diagrep.canonical_form", ("calls", "self_s")),
    ("cohomology.betti", ("calls", "self_s")),
    ("cohomology.prim", ("calls", "self_s")),
    ("bieberbach.find_translations", ("calls", "self_s")),
    ("bieberbach.sunada_table", ("self_s",)),
    ("bieberbach.is_torsion_free", ("self_s",)),
    ("flip.apply_flip", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s"}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def repeat(workload, seconds: float, tracer=None) -> list:
    """Jobs, at least one, while the next one is expected to end in time."""
    jobs = []
    start = last = time.perf_counter()
    while True:
        jobs.append(workload.job(tracer))
        now = time.perf_counter()
        if now + (now - last) > start + seconds:
            return jobs
        last = now


def probe_setup(name: str) -> float:
    """Median set-up time over fresh interpreters."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, name], cwd=checkout.ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def end_to_end(name: str, workload, seconds: float) -> tuple[list, dict]:
    """Untraced jobs, then the set-up probes: the end-to-end metrics."""
    workloads.setup(name)
    jobs = repeat(workload, seconds)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ops = [op for job in jobs for op in job.ops]
    # with no request completed, the job's wall time stands in for the latency
    done = ([t for job in jobs for t in job.latencies]
            or [statistics.median(j.wall for j in jobs)])
    metrics = {
        "wall_s": (statistics.median(j.wall for j in jobs), "s"),
        "setup_s": (probe_setup(name), "s"),
        "peak_rss_mib": (usage / 1024, "MiB"),
        "completed_share": (sum(op.ok for op in ops) / len(ops), "ratio"),
        "req_p50_ms": (percentile(done, 50) * 1e3, "ms"),
    }
    return jobs, metrics


def per_layer(name: str, seed: int, workload, seconds: float) -> tuple[list, dict]:
    """Traced set-up, untraced jobs, traced jobs: the per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workloads.setup(name)
    finally:
        tracer.uninstall()
    plain = repeat(workload, seconds / 2)
    tracer.install()
    try:
        traced = repeat(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[tracing.NAME] == "bench.job"]
    setup_roots = [i for i, s in enumerate(spans) if s[tracing.NAME] == "bench.setup"]
    table = tracing.aggregate(spans, roots)
    cold = tracing.aggregate(spans, setup_roots)[None]
    jobs = len(traced)

    def stat(span_name, field, tag=None):
        row = table[tag].get(span_name)
        return row[field] / jobs if row else 0.0

    traced_wall = statistics.median(j.wall for j in traced)
    enumerate_s = stat("search.enumerate", "total_s")
    metrics = {
        "chargroup.aut_table.cold_s": (cold["chargroup.aut_table"]["total_s"]
                                       if "chargroup.aut_table" in cold else 0.0, "s"),
        "search.enumerate.self_s": (stat("search.enumerate", "self_s"), "s"),
        "search.compositions": (workload.compositions, "count"),
        "search.compositions_per_s": (workload.compositions / enumerate_s
                                      if enumerate_s else 0.0, "1/s"),
        "search.families": (traced[0].families, "count"),
        "search.members": (traced[0].members, "count"),
        "diagrep.display_rep.calls": (stat("diagrep.display_rep", "calls"), "count"),
        "diagrep.display_rep.self_s": (stat("diagrep.display_rep", "self_s"), "s"),
    }
    for tag in (None, *(f"k{k}" for k in workloads.QUOTA)):
        suffix = f".{tag}" if tag else ""
        for span_name, fields in CERTIFY_LAYER:
            for field in fields:
                metrics[f"{span_name}.{field}{suffix}"] = (stat(span_name, field, tag),
                                                          UNITS[field])
    for k in workloads.QUOTA:
        ops = [op for job in plain for op in job.ops if op.tag == f"k{k}"]
        done = [op.latency for op in ops if op.ok]
        metrics[f"certify.k{k}.p50_ms"] = (percentile(done, 50) * 1e3 if done else 0.0, "ms")
        metrics[f"certify.k{k}.failed"] = (sum(not op.ok for op in ops) / len(plain), "count")
    done = [t for job in plain for t in job.latencies]
    metrics["req_p90_ms"] = (percentile(done, 90) * 1e3 if done else 0.0, "ms")
    module_self = sum(table[None][n]["self_s"] for n in MODULE_SPANS if n in table[None])
    metrics["trace.overhead_share"] = (traced_wall / statistics.median(j.wall for j in plain),
                                       "ratio")
    metrics["trace.module_share"] = (module_self / sum(j.wall for j in traced), "ratio")

    out_dir = os.path.join(checkout.ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"), "w",
              encoding="ascii") as fh:
        json.dump({"workload": name, "seed": seed, "spans": tracer.records()}, fh)
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workload = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    if args.trace:
        jobs, metrics = per_layer(args.workload, args.seed, workload, args.seconds)
    else:
        jobs, metrics = end_to_end(args.workload, workload, args.seconds)
    ops = [op for job in jobs for op in job.ops]
    errors = [op for op in ops if op.error]
    for op in errors[:10]:
        print(f"FAILED {op.tag}: {op.error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} jobs={len(jobs)} operations={len(ops)} "
          f"abandoned={sum(op.abandoned for op in ops)} failed={len(errors)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
