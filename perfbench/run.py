"""Benchmark of the brick-islands exact verifier.

Usage, from the repository root:

    python3 perfbench/run.py --workload front-ladder --seed 1 --seconds 9 --trace 0

One process runs one workload (see ``workloads.py``), single-threaded.  It
sets up several times and reports the median set-up time, then runs timed
passes over the workload's pinned job list until ``--seconds`` of pass time
have been measured (at least one pass).  Outputs are checked after each
pass, outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one extra traced pass, whose
spans are written under ``perfbench/out/``.  The line before it records the
workload, seed, job order, pass times and sample count.  Any failed check
makes the run exit with code 1; a missing ``src/islands`` exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def run_pass(workload, api):
    """Run every job once, in a fresh seeded order.

    Returns the pass interval, each job's label and interval, and the
    outputs, all in the order the jobs ran (``workload.jobs``).
    """
    workload.rng.shuffle(workload.jobs)
    state = workload.begin_pass()
    intervals = []
    outputs = []
    started = perf_counter()
    for job in workload.jobs:
        job_started = perf_counter()
        try:
            out = job.run(api, state)
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = exc
        intervals.append((job.label, job_started, perf_counter()))
        outputs.append(out)
    return (started, perf_counter()), intervals, outputs


def check_pass(workload, outputs) -> list[str]:
    failures = []
    for job, out in zip(workload.jobs, outputs):
        failure = job.check(out)
        if failure:
            failures.append(f"{job.label}: {failure}")
    return failures


def nearest_rank(sorted_values, share):
    """The smallest sample with at least ``share`` of all samples at or below it.

    No interpolation: on a mixed job list an interpolated percentile lands
    between two job sizes and jumps with noise; a rank stays on one job size.
    """
    return sorted_values[max(math.ceil(share * len(sorted_values)) - 1, 0)]


def end_to_end(setups, walls, latencies):
    """End-to-end metrics; ``latencies`` maps each job to its times, one per pass.

    The job percentiles are taken over each job's median across passes, so a
    single slow sample does not move a job's rank.  Every pass runs the jobs
    in another order, so a job's samples also come from different positions
    (on ``verify-cold`` a later job scans a longer cache file).
    """
    per_job = sorted(statistics.median(times) * 1000 for times in latencies.values())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (nearest_rank(per_job, 0.5), "ms"),
        "job_p90_ms": (nearest_rank(per_job, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass."""
    span = tracer.span_stat
    agg = tracer.aggregate
    counters = tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    calls, busy, self_s = span("search.front")
    put("search.front.calls", calls, "count")
    put("search.front.busy_s", busy, "s")
    put("search.front.self_s", self_s, "s")
    put("search.front.nodes", counters.get("search.front.nodes", 0), "count")
    put("search.front.memo_hits", counters.get("search.front.memo_hits", 0), "count")

    predicates = agg("geometry.predicates")
    put("geometry.predicates.from_search", tracer.predicates_by_caller.get("search", 0), "count")
    put("geometry.predicates.from_system", tracer.predicates_by_caller.get("system", 0), "count")
    put("geometry.predicates.busy_s", predicates.ns / 1e9, "s")
    bricks = agg("geometry.enumerate_bricks")
    put("geometry.enumerate_bricks.calls", bricks.calls, "count")
    put("geometry.enumerate_bricks.bricks", bricks.items, "count")
    put("geometry.enumerate_bricks.busy_s", bricks.ns / 1e9, "s")

    calls, busy, _ = span("search.flat")
    systems = agg("search.flat")
    put("search.flat.calls", calls + systems.calls, "count")
    put("search.flat.busy_s", busy + systems.ns / 1e9, "s")
    put("search.flat.nodes", counters.get("search.flat.nodes", 0), "count")
    put("search.flat.systems", systems.items, "count")

    calls, busy, _ = span("system.is_maximal")
    put("system.is_maximal.calls", calls, "count")
    put("system.is_maximal.busy_s", busy, "s")
    put("system.is_maximal.candidates", counters.get("is_maximal.candidates", 0), "count")
    for name in ("restrict", "gap_profiles", "max_elements"):
        put(f"system.{name}.busy_s", span(f"system.{name}")[1], "s")
    island_system = agg("system.island_system")
    put("system.island_system.calls", island_system.calls, "count")
    put("system.island_system.busy_s", island_system.ns / 1e9, "s")

    family = agg("constructors.minimal_maximal_systems")
    put("constructors.minimal_maximal_systems.busy_s", family.ns / 1e9, "s")
    put("constructors.minimal_maximal_systems.systems", family.items, "count")
    put("constructors.build.busy_s", span("constructors.build")[1], "s")

    calls, busy, _ = span("serialize.cache_lookup")
    hits = counters.get("cache_lookup.hits", 0)
    put("serialize.cache_lookup.calls", calls, "count")
    put("serialize.cache_lookup.busy_s", busy, "s")
    put("serialize.cache_lookup.hits", hits, "count")
    put("serialize.cache_lookup.rows_scanned", counters.get("cache_lookup.rows_scanned", 0), "count")
    put("serialize.cache_hit_ratio", hits / calls if calls else 0.0, "ratio")
    put("serialize.report_from_dict.busy_s", span("serialize.report_from_dict")[1], "s")
    calls, busy, _ = span("serialize.cache_append")
    put("serialize.cache_append.calls", calls, "count")
    put("serialize.cache_append.busy_s", busy, "s")
    cache_bytes = sum(os.path.getsize(p) for p in tracer.cache_paths if os.path.exists(p))
    put("serialize.cache_bytes", cache_bytes, "bytes")

    calls, _, self_s = span("verify.searcher")
    put("verify.searcher.calls", calls, "count")
    put("verify.searcher.self_s", self_s, "s")
    put("verify.classification_rows.busy_s", span("verify.classification_rows")[1], "s")
    put("verify.corollary_rows.busy_s", span("verify.corollary_rows")[1], "s")
    put("cli.main.self_s", span("cli.main")[2], "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    return out


def run(workload, args) -> int:
    speed = HostSpeed()
    speed.start()
    try:
        setups = []
        for _ in range(1 if args.trace else workload.setup_repeats):
            gc.collect()
            started = perf_counter()
            workload.setup()
            setups.append((started, perf_counter()))
        attempted, failures = workload.check_setup()

        passes = []
        jobs = []
        measured = 0.0
        while not passes or measured < args.seconds:
            gc.collect()
            interval, job_intervals, outputs = run_pass(workload, workload.api())
            passes.append(interval)
            jobs.extend(job_intervals)
            measured += speed.scaled(*interval)
            failures.extend(check_pass(workload, outputs))
            attempted += len(outputs)

        tracer = None
        if args.trace:
            tracer = Tracer(workload.islands)
            gc.collect()
            tracer.install()
            try:
                traced, _, outputs = run_pass(workload, workload.api(tracer))
            finally:
                tracer.uninstall()
            failures.extend(check_pass(workload, outputs))
            attempted += len(outputs)
    finally:
        speed.stop()

    walls = [speed.scaled(*interval) for interval in passes]
    if tracer is not None:
        metrics = per_layer(tracer, speed.scaled(*traced), statistics.median(walls))
        tracer.write_spans(os.path.join(OUT, f"{workload.name}-seed{args.seed}-spans.csv"))
    else:
        latencies = {}
        for label, start, end in jobs:
            latencies.setdefault(label, []).append(speed.scaled(start, end))
        metrics = end_to_end(
            [speed.scaled(*interval) for interval in setups],
            walls,
            latencies,
        )

    order = hashlib.sha256("\n".join(label for label, _, _ in jobs).encode()).hexdigest()
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "job_order_sha256": order[:16],
        "jobs_per_pass": len(workload.jobs),
        "latency_samples": len(jobs),
        "raw_setup_s": [speed.raw(*interval) for interval in setups],
        "raw_pass_s": [speed.raw(*interval) for interval in passes],
        "scaled_pass_s": walls,
        "probe_samples": len(speed.durations),
        "probe_median_s": statistics.median(speed.durations),
        "failures": failures[:20],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "islands", "__init__.py")):
        print(f"error: no islands package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    try:
        return run(workload, args)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
