"""Tests of the benchmark's own generator, reference and tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The workloads' generators run here at small sizes; the reference is checked
against the program's brute-force oracle and identities on those graphs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from orbitsampler import (  # noqa: E402
    BudgetConfig,
    estimate_orbit_degrees,
    exact_orbit_degrees,
    load_edge_list,
    orbit_table,
    verify_identities,
)
from orbitsampler.cli import main as cli_main  # noqa: E402
from orbitsampler.oracle import candidate_bound  # noqa: E402
from orbitsampler.report import dumps, report_to_dict  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SMALL = {
    "PA_NODES": 300, "PA_LINKS": 3,
    "SPARSE_NODES": 400, "SPARSE_EDGES": 1200, "SPARSE_REPEATS": 12,
    "SPARSE_SELF_LOOPS": 5, "SPARSE_COMMENTS": 4,
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(inputs, name, value)
    monkeypatch.setattr(workloads.PaHub, "budget", 3000)
    monkeypatch.setattr(workloads.SparseSweep, "ops_per_round", 40)
    monkeypatch.setattr(workloads.DirectedEvaluate, "runs", 20)


def _generated(workload: str, seed: int, tmp_path: Path):
    lines, truth = inputs.make_input(workload, seed)
    path = tmp_path / f"{workload}-{seed}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return load_edge_list(path, directed=truth.directed), truth, path


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generation_is_deterministic_per_seed(small, workload):
    a_lines, a = inputs.make_input(workload, 3)
    b_lines, b = inputs.make_input(workload, 3)
    c_lines, _ = inputs.make_input(workload, 4)
    assert a_lines == b_lines
    for field in ("lo", "hi", "flags"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.lines, a.self_loops, a.duplicates, a.anchor) == (
        b.lines, b.self_loops, b.duplicates, b.anchor
    )
    assert a_lines != c_lines


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_loader_matches_reference(small, workload, tmp_path):
    g, truth, _ = _generated(workload, 5, tmp_path)
    ref = reference.build(truth)
    assert workloads.check_graph(g, ref) == []
    if workload == "sparse-sweep":
        assert truth.self_loops > 0 and truth.duplicates > 0
        assert truth.lines > len(truth.lo) + truth.self_loops + truth.duplicates
    if workload == "directed-evaluate":
        assert set(np.unique(ref.labels)) == {1, 2, 3}
        assert truth.duplicates > 0


def _sample_nodes(ref: reference.Reference, count: int = 12) -> list[int]:
    rng = np.random.default_rng(0)
    top = np.argsort(-ref.degrees, kind="stable")[:4]
    rest = rng.choice(ref.node_count, count - len(top), replace=False)
    return sorted({int(v) for v in np.concatenate([top, rest])})


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_reference_matches_oracle(small, workload, tmp_path):
    g, truth, _ = _generated(workload, 6, tmp_path)
    ref = reference.build(truth)
    marker = np.zeros(ref.node_count, dtype=bool)
    for v in _sample_nodes(ref):
        st = reference.node_stats(ref, v)
        assert st == {k: getattr(g.stats(v), k) for k in reference.STAT_FIELDS}
        assert reference.candidate_bounds(ref)[v] == candidate_bound(g.stats(v))
        exact = exact_orbit_degrees(g, v, guard=None)
        assert reference.small_orbits(ref, v, marker) == tuple(
            exact.undirected[i] for i in range(4)
        )
        assert not marker.any()
        assert verify_identities(exact, g.stats(v)).ok
        if truth.directed:
            by_codes = reference.directed3_by_codes(ref, v)
            ids = {(r["class"], tuple(r["codes"])): r["orbit"] for r in orbit_table()}
            want = {i: 0 for i in range(1, 31)}
            for key, n in by_codes.items():
                want[ids[key]] += n
            assert want == exact.directed3
            assert reference.class_totals(by_codes) == {
                i: exact.undirected[i] for i in (1, 2, 3)
            }


def test_anchor_choice(small, tmp_path):
    g, truth, _ = _generated("directed-evaluate", 2, tmp_path)
    ref = reference.build(truth)
    bounds = [candidate_bound(g.stats(v)) for v in range(g.node_count)]
    guard = sorted(bounds)[len(bounds) // 2]
    v = ref.dense(reference.guarded_anchor(ref, guard))
    assert bounds[v] <= guard
    assert all(b > guard for b, d in zip(bounds, g.degrees) if d > g.degrees[v])
    assert ref.dense(reference.max_degree_node(ref)) == int(np.argmax(g.degrees))


def test_cli_estimate_writes_library_bytes(small, tmp_path):
    g, truth, path = _generated("pa-hub", 1, tmp_path)
    out = tmp_path / "report.json"
    argv = ["estimate", "--graph", str(path), "--max-degree-node",
            "--budget", "3000", "--seed", "11", "--output", str(out)]
    assert cli_main(argv) == 0
    v = g.to_dense(truth.anchor)
    report = estimate_orbit_degrees(g, v, "undirected", BudgetConfig(total=3000), 11)
    text = dumps(report_to_dict(report, node_label=g.to_original(v)))
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_round_matches_untraced(small, workload, tmp_path):
    from orbitsampler import estimators, experiment, samplers
    from orbitsampler.graph import Graph

    g, truth, _ = _generated(workload, 7, tmp_path)
    cls = workloads.WORKLOADS[workload]
    plain = cls(g, truth, 7, NullTracer()).run_round(0)
    owners = (estimators, experiment, samplers, Graph)
    before = {(owner, k): v for owner in owners for k, v in vars(owner).items()}
    g2 = load_edge_list(tmp_path / f"{workload}-7.txt", directed=truth.directed)
    tracer = Tracer()
    worker.install_wraps(tracer)
    try:
        traced = cls(g2, truth, 7, tracer).run_round(0)
    finally:
        tracer.unwrap()
    after = {(owner, k): v for owner in owners for k, v in vars(owner).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())
    assert [op.text for op in traced] == [op.text for op in plain]
    assert all(op.error is None for op in traced)
    problems, _ = cls(g2, truth, 7, tracer).check(traced, reference.build(truth))
    assert problems == []
    # Self times partition the root spans: nothing is counted twice.
    roots = sum(d for d, p in zip(tracer.durations(), tracer.parents) if p < 0)
    assert tracer.self_times().sum() == pytest.approx(roots, rel=1e-9)
    assert len(set(tracer.ops)) == len(traced)
    assert "graph.lookup" in tracer.names and "samplers.tally" in tracer.names
