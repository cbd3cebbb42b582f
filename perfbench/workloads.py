"""The benchmark's workloads: their operations and the checks on outputs.

A run repeats whole rounds of one workload's operations.  An operation is
one estimate plus its serialization (``pa-hub``, ``sparse-sweep``) or one
``run_experiment`` call, which counts as one operation per pipeline run
(``directed-evaluate``).  Every check compares the program's output with
the reference built in ``reference.py`` from the generator's edge arrays.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

import reference
from orbitsampler import (
    BudgetConfig,
    estimate_orbit_degrees,
    orbit_table,
    run_experiment,
)
from orbitsampler.report import dumps, report_to_dict

# Width of the statistical checks, in standard errors.
Z = 6.0
# three_walks = sum of c_i * orbit_i over the 4-node orbits reached by
# extending a two-edge walk (orbit 3 counted through its walks).
WALK_IDENTITY = {3: 2, 4: 1, 8: 2, 9: 2, 10: 1, 12: 4, 13: 2, 14: 6}
# Relative tolerance of identities evaluated in floating point.
REL_TOL = 1e-9


@dataclass
class Op:
    """One timed operation and what it returned."""

    anchor: int
    round: int
    seed: int
    attempted: int             # operations this record stands for
    result: object = None      # OrbitReport or EvalReport; None on failure
    text: str = ""             # serialized output
    estimate_s: float = 0.0    # time in the estimation call
    op_s: float = 0.0          # estimation plus serialization
    error: str | None = None


def _seed_base(seed: int, process: int) -> int:
    """First estimate seed of a measuring process: runs at different seeds,
    and the processes of one run, never share an estimate seed."""
    return 1_000_000 * seed + 100_000 * process


def check_graph(g, ref: reference.Reference) -> list[str]:
    """The loaded graph must equal the reference arrays and counts."""
    problems = []
    for name in ("indptr", "indices"):
        if not np.array_equal(getattr(g, name), getattr(ref, name)):
            problems.append(f"graph {name} differs from the reference")
    if not np.array_equal(g.original_ids, ref.ids):
        problems.append("graph original ids differ from the reference")
    if ref.directed and not np.array_equal(g.labels, ref.labels):
        problems.append("graph direction labels differ from the reference")
    summary = {k: getattr(g.summary, k) for k in ref.summary}
    if summary != ref.summary:
        problems.append(f"LoadSummary {summary} != reference {ref.summary}")
    return problems


def check_stats(g, ref: reference.Reference, v: int) -> list[str]:
    got = {k: getattr(g.stats(v), k) for k in reference.STAT_FIELDS}
    want = reference.node_stats(ref, v)
    return [] if got == want else [f"NodeStats of {v}: {got} != reference {want}"]


class Workload:
    """One workload on one loaded graph, in one measuring process."""

    name = ""
    budget = 0
    min_rounds = 1
    tail_pct = 50.0  # percentile reported as anchor_ms_tail

    def __init__(self, g, truth, seed: int, tracer, process: int = 0):
        self.g = g
        self.truth = truth
        self.seed = seed
        self.process = process
        self.tracer = tracer
        self.config = BudgetConfig(total=self.budget)


class AnchorWorkload(Workload):
    """Estimates at anchors of an undirected graph, each one serialized."""

    ops_per_round = 0

    def anchors(self, r: int) -> np.ndarray:
        raise NotImplementedError

    def op_seed(self, r: int, i: int) -> int:
        return _seed_base(self.seed, self.process) + r * self.ops_per_round + i

    def run_round(self, r: int) -> list[Op]:
        g, tr, ops = self.g, self.tracer, []
        for i, v in enumerate(self.anchors(r).tolist()):
            op = Op(v, r, self.op_seed(r, i), 1)
            try:
                with tr.operation("op"):
                    t0 = time.perf_counter()
                    with tr.span("estimators.estimate"):
                        report = estimate_orbit_degrees(
                            g, v, "undirected", self.config, op.seed
                        )
                    t1 = time.perf_counter()
                    with tr.span("report.serialize"):
                        text = dumps(report_to_dict(report, node_label=g.to_original(v)))
                    t2 = time.perf_counter()
                op.result, op.text = report, text
                op.estimate_s, op.op_s = t1 - t0, t2 - t0
            except Exception:  # counted as a failed operation, run goes on
                op.error = traceback.format_exc()
            ops.append(op)
        return ops

    def one_estimate(self):
        v = int(self.anchors(0)[0])
        return estimate_orbit_degrees(self.g, v, "undirected", self.config, 0)

    def draws(self, op: Op) -> int:
        return sum(op.result.budgets.values())

    def estimate_seconds(self, ops: list[Op]) -> float:
        return sum(op.estimate_s for op in ops)

    def op_times_ms(self, ops: list[Op]) -> list[float]:
        return [1e3 * op.op_s for op in ops if op.error is None]

    # -- checks ---------------------------------------------------------------

    def check(self, ops: list[Op], ref: reference.Reference) -> tuple[list[str], int]:
        """Problems found in the outputs, and the number of estimates of the
        first ``min_rounds`` rounds (the same estimates in every run at a
        seed) whose combined orbit 3 is 0 although its exact count is not."""
        g = self.g
        problems = check_graph(g, ref)
        marker = np.zeros(ref.node_count, dtype=bool)
        exact: dict[int, tuple[int, int, int, int]] = {}
        stats: dict[int, dict] = {}
        sum_est = sum_var = 0.0
        sum_exact = 0
        collapsed = 0
        for op in ops:
            if op.error is not None:
                continue
            v = op.anchor
            if v not in exact:
                exact[v] = reference.small_orbits(ref, v, marker)
                stats[v] = reference.node_stats(ref, v)
                problems += check_stats(g, ref, v)
            est = op.result.estimates
            problems += _identity_problems(v, est, stats[v])
            problems += _payload_problems(op, g.to_original(v))
            sum_est += est[1].value
            sum_var += est[1].variance
            sum_exact += exact[v][1]
            if op.round < self.min_rounds and est[3].value == 0.0 and exact[v][3] > 0:
                collapsed += 1
        if abs(sum_est - sum_exact) > Z * math.sqrt(sum_var) + REL_TOL * sum_exact:
            problems.append(
                f"orbit 1 summed over {len(ops)} estimates: {sum_est} against "
                f"exact {sum_exact}, beyond {Z} sd ({math.sqrt(sum_var)})"
            )
        return problems, collapsed


def _identity_problems(v: int, est: dict, st: dict) -> list[str]:
    problems = []
    if est[0].value != st["degree"]:
        problems.append(f"node {v}: orbit 0 is {est[0].value}, degree {st['degree']}")

    def holds(total: int, terms: list[float]) -> bool:
        scale = abs(total) + sum(abs(t) for t in terms) + 1.0
        return abs(total - sum(terms)) <= REL_TOL * scale

    if not holds(st["wedges"], [est[2].value, est[3].value]):
        problems.append(f"node {v}: orbits 2 + 3 != wedges {st['wedges']}")
    walk = [c * est[i].value for i, c in WALK_IDENTITY.items()]
    if not holds(st["three_walks"], walk):
        problems.append(f"node {v}: walk identity fails ({sum(walk)} != {st['three_walks']})")
    triple = [est[i].value for i in (7, 11, 13, 14)]
    if not holds(st["triples"], triple):
        problems.append(f"node {v}: triple identity fails ({sum(triple)} != {st['triples']})")
    return problems


def _payload_problems(op: Op, label: int) -> list[str]:
    """The serialized report must carry the anchor and the estimates."""
    payload = json.loads(op.text)
    got = {row["id"]: row["estimate"] for row in payload["orbits"]}
    want = {i: e.value for i, e in op.result.estimates.items()}
    if payload["node"] != label or got != want:
        return [f"serialized report of node {op.anchor} does not match the estimate"]
    return []


class PaHub(AnchorWorkload):
    """The max-degree hub of a PA graph, estimated again with new seeds."""

    name = "pa-hub"
    budget = 300_000
    ops_per_round = 10
    min_rounds = 2
    tail_pct = 80.0

    def __init__(self, g, truth, seed, tracer, process=0):
        super().__init__(g, truth, seed, tracer, process)
        self.hub = g.to_dense(truth.anchor)

    def anchors(self, r: int) -> np.ndarray:
        return np.full(self.ops_per_round, self.hub, dtype=np.int64)


class SparseSweep(AnchorWorkload):
    """Fresh uniform anchors of a sparse random graph, one estimate each."""

    name = "sparse-sweep"
    budget = 3_000
    ops_per_round = 1_000
    min_rounds = 1
    tail_pct = 95.0

    def anchors(self, r: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.process, r])
        return rng.choice(self.g.node_count, self.ops_per_round, replace=False)


class DirectedEvaluate(Workload):
    """``run_experiment`` in directed3 mode at the highest-degree anchor the
    oracle guard admits; each pipeline run counts as one operation."""

    name = "directed-evaluate"
    budget = 20_000
    runs = 200
    min_rounds = 1
    tail_pct = 90.0

    def __init__(self, g, truth, seed: int, tracer, process: int = 0):
        super().__init__(g, truth, seed, tracer, process)
        self.anchor = g.to_dense(truth.anchor)

    def run_round(self, r: int) -> list[Op]:
        g, tr = self.g, self.tracer
        op = Op(self.anchor, r, _seed_base(self.seed, self.process) + r * self.runs, self.runs)
        try:
            with tr.operation("op"):
                t0 = time.perf_counter()
                with tr.span("experiment.run_experiment"):
                    rep = run_experiment(
                        g, self.anchor, "directed3", self.config, runs=self.runs,
                        seed=op.seed, workers=1, with_timings=True,
                    )
                t1 = time.perf_counter()
                with tr.span("report.serialize"):
                    # The default `evaluate` output: per-run times stay out.
                    payload = rep.to_dict()
                    del payload["wall_clock_per_run"]
                    payload["node"] = g.to_original(self.anchor)
                    text = dumps(payload)
                t2 = time.perf_counter()
            op.result, op.text = rep, text
            op.estimate_s, op.op_s = t1 - t0, t2 - t0
        except Exception:  # counted as failed operations, run goes on
            op.error = traceback.format_exc()
        return [op]

    def one_estimate(self):
        return estimate_orbit_degrees(self.g, self.anchor, "directed3", self.config, 0)

    def draws(self, op: Op) -> int:
        return self.runs * sum(op.result.budgets.values())

    def estimate_seconds(self, ops: list[Op]) -> float:
        return sum(sum(op.result.wall_clock_per_run) for op in ops)

    def op_times_ms(self, ops: list[Op]) -> list[float]:
        return [1e3 * t for op in ops if op.error is None for t in op.result.wall_clock_per_run]

    def check(self, ops: list[Op], ref: reference.Reference) -> tuple[list[str], int]:
        g, v = self.g, self.anchor
        problems = check_graph(g, ref) + check_stats(g, ref, v)
        bounds = reference.candidate_bounds(ref)
        if bounds[v] > reference.ORACLE_GUARD:
            problems.append(f"anchor {v} is beyond the oracle guard")
        if (bounds[ref.degrees > ref.degrees[v]] <= reference.ORACLE_GUARD).any():
            problems.append(f"a higher-degree node than {v} passes the oracle guard")
        small = reference.small_orbits(ref, v, np.zeros(ref.node_count, dtype=bool))
        by_codes = reference.directed3_by_codes(ref, v)
        totals = reference.class_totals(by_codes)
        if totals != {1: small[1], 2: small[2], 3: small[3]}:
            problems.append(f"directed class totals {totals} != orbits 1-3 {small[1:]}")
        ids = {(row["class"], tuple(row["codes"])): row["orbit"] for row in orbit_table()}
        want = {i: 0 for i in range(1, 31)}
        for key, n in by_codes.items():
            want[ids[key]] += n
        center_end = [row["orbit"] for row in orbit_table() if row["class"] != "triangle"]
        for op in ops:
            if op.error is not None:
                continue
            rep = op.result
            if rep.exact is None:
                problems.append("evaluate report degraded to estimation-only")
                continue
            if rep.exact != want:
                problems.append(f"oracle counts {rep.exact} != reference {want}")
            sums = {1: 0, 2: 0, 3: 0}
            for i, n in rep.exact.items():
                sums[reference.CLASS_ORBIT[_CLASS[i]]] += n
            if sums != {1: small[1], 2: small[2], 3: small[3]}:
                problems.append(f"oracle class totals {sums} != orbits 1-3 {small[1:]}")
            for i in center_end:
                mean, exact = rep.mean_estimates[i], want[i]
                if exact == 0:
                    if mean != 0.0:
                        problems.append(f"orbit {i}: mean {mean} but exact 0")
                elif abs(mean - exact) > Z * exact * rep.nrmse[i] / math.sqrt(rep.runs):
                    problems.append(
                        f"orbit {i}: mean {mean} vs exact {exact} "
                        f"(nrmse {rep.nrmse[i]}, {rep.runs} runs)"
                    )
            payload = json.loads(op.text)
            if payload["node"] != g.to_original(v) or payload["exact"] != {
                str(i): n for i, n in want.items()
            }:
                problems.append("serialized evaluate report does not match")
        return problems, 0


_CLASS = {row["orbit"]: row["class"] for row in orbit_table()}

WORKLOADS = {w.name: w for w in (PaHub, SparseSweep, DirectedEvaluate)}
