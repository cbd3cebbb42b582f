"""Benchmark of orbitsampler: one workload at one seed, one JSON result line.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload pa-hub --seed 1 --seconds 12 --trace 0

The program is imported from ``src/`` of that checkout.  Inputs are
generated from ``--seed`` and cached under ``perfbench/.cache``.  The run
then starts ``PROCESSES`` fresh measuring processes one after another
(``worker.py``), each of which loads the input once and measures for an
equal share of ``--seconds``; the metrics pool their samples.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``.  ``--trace 1`` runs one traced measuring process instead,
prints the per-layer metrics and writes every span and per-layer metric to
``perfbench/.traces/<workload>-seed<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
TRACES = HERE / ".traces"
# Measuring processes per run.  Timings of the same code on the same input
# differ by up to ~10% between fresh processes, so one run pools several of
# them; each one's set-up is one load of the input.
PROCESSES = 3
KEEP_INPUTS = 3       # cached inputs kept per workload
WORKER_TIMEOUT_S = 170


def ensure_input(workload: str, seed: int) -> Path:
    """Directory holding the workload's edge list and truth for ``seed``."""
    out = CACHE / f"{workload}-{seed}"
    if not (out / "edges.txt").is_file():
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            check=True, timeout=WORKER_TIMEOUT_S,
        )
    os.utime(out)
    cached = sorted(CACHE.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for stale in cached[:-KEEP_INPUTS]:
        shutil.rmtree(stale, ignore_errors=True)
    return out


def measure(workload: str, seed: int, process: int, data: Path, seconds: float,
            trace_file: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--process", str(process), "--input", str(data),
        "--seconds", repr(seconds),
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=WORKER_TIMEOUT_S
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct))


def tail(samples: list[dict], pct: float) -> float:
    """The ``pct`` percentile of operation times: the median over the
    measuring processes of each one's percentile when each has at least ten
    samples beyond it, else the percentile of the pooled samples."""
    if all(len(s["op_ms"]) * (1.0 - pct / 100.0) >= 10.0 - 1e-9 for s in samples):
        return statistics.median(percentile(s["op_ms"], pct) for s in samples)
    return percentile([t for s in samples for t in s["op_ms"]], pct)


def end_to_end(tail_pct: float, samples: list[dict]) -> dict[str, float]:
    """Pool the measuring processes' samples into the end-to-end metrics."""
    rounds = [t for s in samples for t in s["round_s"]]
    op_ms = [t for s in samples for t in s["op_ms"]]
    return {
        "setup_s": statistics.median(s["load_s"] for s in samples),
        "job_s": statistics.median(rounds),
        "anchor_ms_p50": percentile(op_ms, 50.0),
        "anchor_ms_tail": tail(samples, tail_pct),
        "draws_per_s": sum(s["draws"] for s in samples)
        / sum(s["estimate_s"] for s in samples),
        "anchors_per_s": sum(s["estimates"] for s in samples) / sum(rounds),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="orbitsampler benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "orbitsampler" / "__init__.py").is_file():
        print(f"error: no orbitsampler sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as CLASSES

    seed = args.seed % 2**32
    data = ensure_input(args.workload, seed)
    share = args.seconds / PROCESSES

    if args.trace:
        trace_file = TRACES / f"{args.workload}-seed{seed}.json"
        samples = [measure(args.workload, seed, 0, data, share, trace_file)]
        metrics = samples[0]["layers"]
        wanted = spec["per_layer"]
    else:
        samples = [
            measure(args.workload, seed, i, data, share) for i in range(PROCESSES)
        ]
        metrics = end_to_end(CLASSES[args.workload].tail_pct, samples)
        wanted = spec["end_to_end"]

    problems = [msg for s in samples for msg in s["problems"]]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
