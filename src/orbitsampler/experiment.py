"""Repeated-run evaluation of the estimation pipelines against the oracle.

``run_experiment`` executes R independent pipeline runs (seeds ``seed + 0
.. seed + R-1``), compares them with the oracle's exact counts when
feasible, and aggregates accuracy metrics over the (runs x orbits) matrix.
Runs can be distributed over a process pool; results are merged in run
order, so the report is identical for every pool size.  Wall-clock
timings are collected only on request since they would break byte-for-byte
reproducibility of the report.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, fields

import numpy as np

from .estimators import BudgetConfig, estimate_orbit_degrees
from .graph import Graph
from .metrics import l1_l2, nrmse, topk_detection
from .oracle import DEFAULT_GUARD, GuardExceededError, exact_orbit_degrees
from .samplers import MODES, ROUTES, check_mode

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
        """JSON payload: orbit-keyed mappings get string keys, ``None``
        stays ``None``, and per-run times appear only when collected."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("mean_estimates", "exact", "nrmse", "topk"):
            if out[name] is not None:
                out[name] = {str(k): v for k, v in out[name].items()}
        if self.wall_clock_per_run is None:
            del out["wall_clock_per_run"]
        return out


def _one_run(
    g: Graph, v: int, mode: str, budget: BudgetConfig, run_seed: int
) -> tuple[list[float], float]:
    start = time.perf_counter()
    report = estimate_orbit_degrees(g, v, mode, budget, seed=run_seed)
    elapsed = time.perf_counter() - start
    return [report.estimates[i].value for i in MODES[mode].orbits], elapsed


# Worker globals set once per pool process by its initializer; forked
# processes inherit the graph without pickling it per task.
_CTX: dict = {}


def _init_worker(g: Graph, v: int, mode: str, budget: BudgetConfig) -> None:
    _CTX["args"] = (g, v, mode, budget)


def _pool_run(run_seed: int) -> tuple[list[float], float]:
    return _one_run(*_CTX["args"], run_seed)


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
    workers = min(workers, runs)  # no idle processes
    if workers <= 1:
        results = [_one_run(g, v, mode, budget, s) for s in run_seeds]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=(g, v, mode, budget)
        ) as pool:
            results = pool.map(_pool_run, run_seeds)
    matrix = np.array([vec for vec, _ in results], dtype=float)
    times = [t for _, t in results]
    return matrix, times


def exact_mode_counts(
    g: Graph, v: int, mode: str, guard: int | None
) -> dict[int, int]:
    """Exact degrees of the mode's orbits at v, counting only the subgraph
    sizes the mode reports; raises GuardExceededError when the guard
    refuses the anchor."""
    check_mode(g, mode)
    sizes = tuple({ROUTES[m].size + 1 for m in MODES[mode].routes})
    counts = exact_orbit_degrees(g, v, guard=guard, sizes=sizes)
    return counts.undirected if mode == "undirected" else counts.directed3


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

    When the oracle guard refuses the anchor, the report degrades to
    estimation-only (``exact`` and all metrics are None).
    """
    if runs < 2:
        raise ValueError("experiments need at least two runs")
    check_mode(g, mode)
    matrix, times = run_pipeline_matrix(g, v, mode, budget, runs, seed, workers)
    spec = MODES[mode]
    ids = spec.orbits
    means = matrix.mean(axis=0)
    report = EvalReport(
        node=int(v),
        mode=mode,
        runs=runs,
        budgets=budget.resolve(spec.routes),
        seed=int(seed),
        mean_estimates={i: float(m) for i, m in zip(ids, means)},
        wall_clock_per_run=times if with_timings else None,
    )

    try:
        exact_map = exact_mode_counts(g, v, mode, oracle_guard)
    except GuardExceededError:
        return report

    report.exact = {i: int(exact_map[i]) for i in ids}
    report.nrmse = {
        i: nrmse(matrix[:, x], exact_map[i]) for x, i in enumerate(ids)
    }
    if mode == "directed3":
        exact_vec = np.array([exact_map[i] for i in ids], dtype=float)
        if exact_vec.sum() > 0 and (matrix.sum(axis=1) > 0).all():
            report.l1, report.l2 = (
                {"mean": float(d.mean()), "variance": float(d.var(ddof=1))}
                for d in l1_l2(matrix, exact_vec)
            )
        report.topk = {}
        for k in TOPK_LEVELS:
            hits = topk_detection(matrix, exact_vec, k, orbit_ids=ids)
            report.topk[k] = {
                "mean_hits": float(hits.mean()),
                "full_recovery_fraction": float((hits == k).mean()),
            }
    return report

