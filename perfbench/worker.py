"""One measuring process of a benchmark run.

``run.py`` starts this script several times in a row, each time as a fresh
single process::

    python3 perfbench/worker.py --workload W --seed N --process I \\
        --input DIR --seconds S [--trace-file PATH]

It loads the cached input once (set-up), runs whole rounds of the
workload's operations until ``S`` seconds have passed (at least the
workload's minimum number of rounds), checks every output against the
reference and prints one JSON line of raw samples.  With ``--trace-file``
it first loads the input once under ``tracemalloc``, and runs round 0 with
every layer of the program wrapped in spans before the untraced rounds;
it adds the per-layer metrics to its line and writes them with every span
to that file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
from inputs import Truth  # noqa: E402
from orbitsampler import estimators, experiment, load_edge_list, samplers  # noqa: E402
from orbitsampler.graph import Graph  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUTES = ("R31", "R32", "R41", "R42")


def load(path: Path, directed: bool):
    gc.collect()
    t0 = time.perf_counter()
    g = load_edge_list(path, directed=directed)
    return g, time.perf_counter() - t0


def run_rounds(wl, seconds: float, first: int = 0, min_rounds: int | None = None):
    """Whole rounds from round ``first`` on, until ``seconds`` have passed
    and at least ``min_rounds`` (by default the workload's) have run."""
    if min_rounds is None:
        min_rounds = wl.min_rounds
    times, ops = [], []
    start = time.perf_counter()
    r = first
    while r - first < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ops += wl.run_round(r)
        times.append(time.perf_counter() - t0)
        r += 1
    return times, ops


def install_wraps(tracer: Tracer) -> None:
    """Span every call into the program's layers, at the attribute its
    callers look up."""

    def draws(args, cols):
        method, k = args[2], args[3]
        out = {f"samplers.draws.{method}": k}
        if method == "R41":
            out["samplers.degenerate.R41"] = int((cols[1] == cols[2]).sum())
        return out

    def queries(args, _):
        return {"graph.lookup_queries": len(args[1])}

    def cises(args, counts):
        c = counts.undirected
        return {
            "oracle.cises_3": sum(c[i] for i in (1, 2, 3)),
            "oracle.cises_4": sum(c[i] for i in range(4, 15)),
        }

    t = tracer
    t.wrap(estimators, "tally_orbits", "samplers.tally")
    t.wrap(estimators, "covariance", "estimators.covariance")
    t.wrap(samplers, "draw_batch", lambda a: f"samplers.draw.{a[2]}", draws)
    t.wrap(samplers, "classify_wedge_batch", "orbits.classify.R31")
    t.wrap(samplers, "classify_chain_batch", "orbits.classify.R32")
    t.wrap(samplers, "classify_quad_batch", lambda a: f"orbits.classify.{a[1]}")
    t.wrap(Graph, "stats", "graph.stats")
    t.wrap(Graph, "two_paths_all", "graph.two_paths_all")
    for attr in ("acc_degree", "acc_wedge", "acc_walk"):
        t.wrap(Graph, attr, "graph.acc")
    for attr in ("has_edges", "pos_of_many", "direction_codes"):
        t.wrap(Graph, attr, "graph.lookup", queries)
    t.wrap(experiment, "run_pipeline_matrix", "experiment.pipeline")
    t.wrap(experiment, "exact_orbit_degrees", "oracle.exact", cises)
    t.wrap(experiment, "estimate_orbit_degrees", "estimators.estimate")


def layer_metrics(tracer, g, load_s, load_alloc_mb, est_alloc_mb,
                  traced, untraced_s, collapsed) -> dict[str, float]:
    """Per-layer metrics of the traced round; ``untraced_s`` is the median
    untraced round time of the same process and graph."""
    self_s, incl_s, calls = tracer.totals()
    counts = tracer.counts
    good = [op for op in traced[1] if op.error is None]
    estimates = sum(op.attempted for op in good)
    traced_s = traced[0][0]
    queries = counts["graph.lookup_queries"]
    lookup_s = self_s.get("graph.lookup", 0.0)
    roots = sum(d for d, p in zip(tracer.durations(), tracer.parents) if p < 0)
    m = {
        "graph.load_s": load_s,
        "graph.lines_per_s": g.summary.lines_read / load_s,
        "graph.alloc_peak_mb": load_alloc_mb,
        "graph.lines_read": g.summary.lines_read,
        "graph.edges_kept": g.summary.edges_kept,
        "graph.duplicates_merged": g.summary.duplicates_merged,
        "graph.self_loops_dropped": g.summary.self_loops_dropped,
        "graph.stats_ms": 1e3 * self_s.get("graph.stats", 0.0) / estimates,
        "graph.acc_ms": 1e3 * self_s.get("graph.acc", 0.0) / estimates,
        "graph.two_paths_all_ms": 1e3 * self_s.get("graph.two_paths_all", 0.0),
        "graph.lookup_queries": queries,
        "graph.lookup_s": lookup_s,
        "graph.lookup_ns_per_query": 1e9 * lookup_s / queries if queries else 0.0,
        "samplers.tally_self_s": self_s.get("samplers.tally", 0.0),
    }
    for r in ROUTES:
        m[f"samplers.draw_s.{r}"] = self_s.get(f"samplers.draw.{r}", 0.0)
        m[f"samplers.draws.{r}"] = counts[f"samplers.draws.{r}"]
        m[f"orbits.classify_s.{r}"] = self_s.get(f"orbits.classify.{r}", 0.0)
    m["samplers.draw_s"] = sum(m[f"samplers.draw_s.{r}"] for r in ROUTES)
    m["samplers.draws"] = sum(m[f"samplers.draws.{r}"] for r in ROUTES)
    m["orbits.classify_s"] = sum(m[f"orbits.classify_s.{r}"] for r in ROUTES)
    m["samplers.degenerate.R41"] = counts["samplers.degenerate.R41"]
    if counts["samplers.draws.R41"]:
        m["samplers.useful_ratio.R41"] = 1.0 - (
            counts["samplers.degenerate.R41"] / counts["samplers.draws.R41"]
        )
    m.update({
        "estimators.estimate_self_s": self_s.get("estimators.estimate", 0.0),
        "estimators.covariance_calls": calls.get("estimators.covariance", 0),
        "estimators.covariance_s": self_s.get("estimators.covariance", 0.0),
        "estimators.alloc_peak_mb": est_alloc_mb,
        "estimators.collapsed_orbit3": collapsed,
        "report.serialize_ms": 1e3 * self_s.get("report.serialize", 0.0) / len(good),
        "report.bytes": sum(len(op.text.encode()) for op in good) / len(good),
        "oracle.exact_s": self_s.get("oracle.exact", 0.0),
        "oracle.cises_3": counts["oracle.cises_3"],
        "oracle.cises_4": counts["oracle.cises_4"],
        "experiment.pipeline_s": incl_s.get("experiment.pipeline", 0.0),
        "experiment.aggregate_s": self_s.get("experiment.run_experiment", 0.0),
        "trace.job_s": traced_s,
        "trace.untraced_job_s": untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        "trace.unaccounted_pct": 100.0 * (traced_s - roots) / traced_s,
    })
    return m


def alloc_peak_mb(fn):
    """Peak of Python allocations while ``fn()`` runs, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_round(wl) -> tuple[Tracer, tuple]:
    """Round 0 with every layer of the program wrapped in spans."""
    tracer = Tracer()
    wl.tracer = tracer
    install_wraps(tracer)
    try:
        return tracer, run_rounds(wl, 0.0, min_rounds=1)
    finally:
        tracer.unwrap()
        wl.tracer = NullTracer()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one measuring process")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--process", type=int, required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-file", type=Path, default=None)
    args = p.parse_args(argv)

    truth = Truth.load(args.input / "truth.npz")
    edges = args.input / "edges.txt"
    trace = args.trace_file is not None
    if trace:
        load_alloc = alloc_peak_mb(lambda: load_edge_list(edges, truth.directed))
    g, load_s = load(edges, truth.directed)
    wl = WORKLOADS[args.workload](g, truth, args.seed, NullTracer(), args.process)
    if trace:
        # Traced round 0 first, on the same graph as the untraced rounds:
        # graph instances differ in speed by up to ~25% on lookup-bound
        # work, so only rounds on one instance compare.
        tracer, traced = traced_round(wl)
    round_times, ops = run_rounds(wl, args.seconds, first=1 if trace else 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        est_alloc = alloc_peak_mb(wl.one_estimate)
        ops = traced[1] + ops

    good = [op for op in ops if op.error is None]
    for op in ops:
        if op.error is not None:
            print(op.error, file=sys.stderr)
    problems, collapsed = wl.check(ops, reference.build(truth))
    out = {
        "load_s": load_s,
        "round_s": round_times,
        "op_ms": wl.op_times_ms(ops),
        "draws": sum(wl.draws(op) for op in good),
        "estimate_s": wl.estimate_seconds(good),
        "estimates": sum(op.attempted for op in good),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.attempted for op in ops if op.error is not None),
        "problems": problems,
    }
    if trace:
        layers = layer_metrics(
            tracer, g, load_s, load_alloc, est_alloc, traced,
            statistics.median(round_times), collapsed,
        )
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        args.trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine(),
            "metrics": layers, **tracer.to_json(),
        }))
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
