"""Repeated-run evaluation of the estimation pipelines against the oracle.

``run_experiment`` executes R independent pipeline runs (seeds ``seed + 0
.. seed + R-1``), compares them with exact enumeration when feasible, and
aggregates accuracy metrics.  Runs can be distributed over a process pool;
results are merged in run order, so the report is identical for every pool
size.  Wall-clock timings are collected only on request since they would
break byte-for-byte reproducibility of the report.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from .estimators import (
    DIRECTED_ROUTES,
    UNDIRECTED_ROUTES,
    BudgetConfig,
    estimate_orbit_degrees,
)
from .graph import Graph
from .metrics import l1_l2, nrmse, topk_detection
from .oracle import DEFAULT_GUARD, GuardExceededError, exact_orbit_degrees
from .samplers import draw_batch

TOPK_LEVELS = (5, 10, 15)


@dataclass
class EvalReport:
    """Aggregated accuracy report over repeated pipeline runs."""

    node: int
    mode: str
    runs: int
    budgets: dict[str, int]
    seed: int
    mean_estimates: dict[int, float]
    exact: dict[int, int] | None = None
    nrmse: dict[int, float | None] | None = None
    l1: dict[str, float] | None = None
    l2: dict[str, float] | None = None
    topk: dict[int, dict[str, float]] | None = None
    wall_clock_per_run: list[float] | None = None

    def to_dict(self) -> dict:
        out = {
            "node": self.node,
            "mode": self.mode,
            "runs": self.runs,
            "budgets": dict(self.budgets),
            "seed": self.seed,
            "mean_estimates": {str(k): v for k, v in self.mean_estimates.items()},
            "exact": None
            if self.exact is None
            else {str(k): v for k, v in self.exact.items()},
            "nrmse": None
            if self.nrmse is None
            else {str(k): v for k, v in self.nrmse.items()},
            "l1": self.l1,
            "l2": self.l2,
            "topk": None
            if self.topk is None
            else {str(k): v for k, v in self.topk.items()},
        }
        if self.wall_clock_per_run is not None:
            out["wall_clock_per_run"] = self.wall_clock_per_run
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        def int_keys(mapping, cast):
            if mapping is None:
                return None
            return {int(k): cast(v) for k, v in mapping.items()}

        return cls(
            node=int(data["node"]),
            mode=str(data["mode"]),
            runs=int(data["runs"]),
            budgets={str(k): int(v) for k, v in data["budgets"].items()},
            seed=int(data["seed"]),
            mean_estimates=int_keys(data["mean_estimates"], float),
            exact=int_keys(data["exact"], int),
            nrmse=int_keys(data["nrmse"], lambda x: None if x is None else float(x)),
            l1=data.get("l1"),
            l2=data.get("l2"),
            topk=int_keys(data.get("topk"), dict),
            wall_clock_per_run=data.get("wall_clock_per_run"),
        )


def _orbit_ids(mode: str) -> list[int]:
    return list(range(15)) if mode == "undirected" else list(range(1, 31))


# Worker globals set once per process by the pool initializer; forked
# processes inherit the graph without pickling it per task.
_CTX: dict = {}


def _init_worker(g: Graph, v: int, mode: str, budget: BudgetConfig) -> None:
    _CTX["args"] = (g, v, mode, budget)


def _one_run(run_seed: int) -> tuple[list[float], float]:
    g, v, mode, budget = _CTX["args"]
    start = time.perf_counter()
    report = estimate_orbit_degrees(g, v, mode, budget, seed=run_seed)
    elapsed = time.perf_counter() - start
    ids = _orbit_ids(mode)
    return [report.estimates[i].value for i in ids], elapsed


def run_pipeline_matrix(
    g: Graph,
    v: int,
    mode: str,
    budget: BudgetConfig,
    runs: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, list[float]]:
    """Per-run estimate vectors, shape (runs, orbits), plus per-run seconds."""
    run_seeds = [seed + i for i in range(runs)]
    if workers <= 1:
        _init_worker(g, v, mode, budget)
        results = [_one_run(s) for s in run_seeds]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=(g, v, mode, budget)
        ) as pool:
            results = pool.map(_one_run, run_seeds)
    matrix = np.array([vec for vec, _ in results], dtype=float)
    times = [t for _, t in results]
    return matrix, times


def run_experiment(
    g: Graph,
    v: int,
    mode: str,
    budget: BudgetConfig,
    runs: int,
    seed: int,
    workers: int = 1,
    oracle_guard: int | None = DEFAULT_GUARD,
    with_timings: bool = False,
) -> EvalReport:
    """R pipeline runs with oracle-based accuracy metrics.

    When the enumeration guard refuses the anchor, the report degrades to
    estimation-only (``exact`` and all metrics are None).
    """
    if runs < 2:
        raise ValueError("experiments need at least two runs")
    ids = _orbit_ids(mode)
    matrix, times = run_pipeline_matrix(g, v, mode, budget, runs, seed, workers)
    means = matrix.mean(axis=0)
    report = EvalReport(
        node=v,
        mode=mode,
        runs=runs,
        budgets=budget.resolve(
            UNDIRECTED_ROUTES if mode == "undirected" else DIRECTED_ROUTES
        ),
        seed=seed,
        mean_estimates={i: float(m) for i, m in zip(ids, means)},
        wall_clock_per_run=times if with_timings else None,
    )

    try:
        # Directed orbits only need the 3-node subgraphs; the guard still
        # bounds both sizes.
        sizes = (3,) if mode == "directed3" else (3, 4)
        counts = exact_orbit_degrees(g, v, guard=oracle_guard, sizes=sizes)
    except GuardExceededError:
        return report

    exact_map = (
        counts.undirected if mode == "undirected" else counts.directed3
    )
    report.exact = {i: int(exact_map[i]) for i in ids}
    report.nrmse = {
        i: nrmse(matrix[:, x], exact_map[i]) for x, i in enumerate(ids)
    }
    if mode == "directed3":
        exact_vec = np.array([exact_map[i] for i in ids], dtype=float)
        if exact_vec.sum() > 0 and (matrix.sum(axis=1) > 0).all():
            dists = np.array([l1_l2(row, exact_vec) for row in matrix])
            report.l1 = {
                "mean": float(dists[:, 0].mean()),
                "variance": float(dists[:, 0].var(ddof=1)),
            }
            report.l2 = {
                "mean": float(dists[:, 1].mean()),
                "variance": float(dists[:, 1].var(ddof=1)),
            }
        report.topk = {}
        for k in TOPK_LEVELS:
            hits = np.array(
                [topk_detection(row, exact_vec, k, orbit_ids=ids) for row in matrix]
            )
            report.topk[k] = {
                "mean_hits": float(hits.mean()),
                "full_recovery_fraction": float((hits == k).mean()),
            }
    return report


def measure_sample_time(
    g: Graph, v: int, method: str, draws: int = 10_000, seed: int = 0
) -> float:
    """Seconds per draw of one route, from a warmed batch measurement."""
    rng = np.random.default_rng(seed)
    draw_batch(g, v, method, min(draws, 1000), rng)  # warm caches
    start = time.perf_counter()
    draw_batch(g, v, method, draws, rng)
    return (time.perf_counter() - start) / draws
