"""CLI, experiment harness, and report serialization tests."""

import csv
import io
import json

import numpy as np
import pytest

from orbitsampler import BudgetConfig, run_experiment
from orbitsampler.cli import main
from orbitsampler.generators import gnp
from orbitsampler.report import dumps, loads, report_from_dict, report_to_dict
from orbitsampler.estimators import estimate_undirected

from conftest import complete_graph


@pytest.fixture
def graph_file(tmp_path):
    g = gnp(40, 0.15, seed=5)
    path = tmp_path / "graph.txt"
    with open(path, "w") as f:
        f.write("# generated test graph\n")
        for v in range(g.node_count):
            for u in g.neighbors(v):
                if v < u:
                    f.write(f"{v} {u}\n")
    return path


@pytest.fixture
def digraph_file(tmp_path):
    from orbitsampler.generators import gnp_directed
    from orbitsampler.graph import MUTUAL, OUT

    g = gnp_directed(30, 0.2, seed=9)
    path = tmp_path / "digraph.txt"
    with open(path, "w") as f:
        for v in range(g.node_count):
            for u in g.neighbors(v):
                u = int(u)
                code = g.direction_code(v, u)
                if code in (OUT, MUTUAL) and (code == OUT or v < u):
                    f.write(f"{v} {u}\n")
                if code == MUTUAL and v < u:
                    f.write(f"{u} {v}\n")
    return path


def test_estimate_json(graph_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "estimate", "--graph", str(graph_file), "--max-degree-node",
            "--budget", "600", "--seed", "3", "--output", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "undirected"
    assert len(payload["orbits"]) == 15
    assert payload["budgets"] == {"R32": 200, "R41": 200, "R42": 200}
    ids = [row["id"] for row in payload["orbits"]]
    assert ids == sorted(ids)


def test_estimate_csv(graph_file, capsys):
    rc = main(
        [
            "estimate", "--graph", str(graph_file), "--node", "0",
            "--budget", "300", "--format", "csv",
        ]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:3] == ["node", "mode", "orbit"]
    assert len(rows) == 16


def test_exact_schema(graph_file, capsys):
    rc = main(["exact", "--graph", str(graph_file), "--node", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["variance"] == 0.0 for row in payload["orbits"])
    assert all(row["source"] == "exact" for row in payload["orbits"])


def test_exact_guard_exit_code(graph_file, capsys):
    rc = main(
        [
            "exact", "--graph", str(graph_file), "--max-degree-node",
            "--oracle-guard", "5",
        ]
    )
    assert rc == 3


def test_directed_mode_requires_directed(graph_file, capsys):
    rc = main(
        [
            "estimate", "--graph", str(graph_file), "--node", "0",
            "--mode", "directed3", "--budget", "100",
        ]
    )
    assert rc == 2


def test_missing_graph_is_data_error(tmp_path, capsys):
    rc = main(
        [
            "estimate", "--graph", str(tmp_path / "nope.txt"), "--node", "0",
            "--budget", "100",
        ]
    )
    assert rc == 2


def test_usage_errors(graph_file, capsys):
    assert main(["estimate", "--graph", str(graph_file)]) == 1  # no node
    assert (
        main(["estimate", "--graph", str(graph_file), "--node", "0"]) == 1
    )  # no budget
    assert (
        main(
            [
                "estimate", "--graph", str(graph_file), "--node", "0",
                "--budget-split", "1,x",
            ]
        )
        == 1
    )


def test_evaluate_deterministic_across_workers(graph_file, tmp_path):
    args = [
        "evaluate", "--graph", str(graph_file), "--max-degree-node",
        "--budget", "1500", "--runs", "6", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--workers", "1", "--output", str(out1)]) == 0
    assert main(args + ["--workers", "3", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["runs"] == 6
    assert "wall_clock_per_run" not in payload
    assert payload["nrmse"] is not None


def test_evaluate_with_timings(graph_file, capsys):
    rc = main(
        [
            "evaluate", "--graph", str(graph_file), "--max-degree-node",
            "--budget", "900", "--runs", "3", "--seed", "1", "--with-timings",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["wall_clock_per_run"]) == 3


def test_evaluate_guard_degrades_to_estimation_only(graph_file, capsys):
    rc = main(
        [
            "evaluate", "--graph", str(graph_file), "--max-degree-node",
            "--budget", "900", "--runs", "3", "--seed", "1",
            "--oracle-guard", "5",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exact"] is None and payload["nrmse"] is None
    assert "guard" in captured.err


def test_evaluate_directed_metrics(digraph_file, capsys):
    rc = main(
        [
            "evaluate", "--graph", str(digraph_file), "--directed",
            "--mode", "directed3", "--max-degree-node", "--budget", "2000",
            "--runs", "5", "--seed", "2",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["l1"] is not None and payload["topk"] is not None
    assert set(payload["topk"]) == {"5", "10", "15"}
    for stats in payload["topk"].values():
        assert 0 <= stats["mean_hits"] <= 15


def test_orbit_table_output(capsys):
    assert main(["orbit-table"]) == 0
    text = capsys.readouterr().out
    assert len(text.strip().splitlines()) == 31
    assert main(["orbit-table", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 31 and rows[0] == ["orbit", "class", "codes", "unorbit"]


def test_bench_on_small_graph(graph_file, capsys):
    rc = main(
        [
            "bench", "--graph", str(graph_file), "--draws", "2000",
            "--seed", "1",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["method"] for r in payload["rates"]} == {
        "R31", "R32", "R41", "R42", "R43", "R44"
    }


def test_id_map_flag(graph_file, tmp_path):
    target = tmp_path / "ids.txt"
    rc = main(
        [
            "estimate", "--graph", str(graph_file), "--node", "0",
            "--budget", "300", "--id-map", str(target), "--output",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == 0
    assert target.exists() and target.read_text().startswith("0 0")


def test_report_roundtrip():
    g = gnp(30, 0.2, seed=4)
    v = int(np.argmax(g.degrees))
    rep = estimate_undirected(g, v, BudgetConfig(total=600), seed=9)
    data = loads(dumps(report_to_dict(rep)))
    back = report_from_dict(data)
    assert back == rep
    assert dumps(report_to_dict(back)) == dumps(report_to_dict(rep))


def test_eval_report_roundtrip():
    from orbitsampler import EvalReport

    g = gnp(30, 0.2, seed=4)
    v = int(np.argmax(g.degrees))
    rep = run_experiment(g, v, "undirected", BudgetConfig(total=600), runs=4, seed=2)
    back = EvalReport.from_dict(loads(dumps(rep.to_dict())))
    assert back == rep
    assert dumps(back.to_dict()) == dumps(rep.to_dict())


def test_run_experiment_forced_graph():
    k4 = complete_graph(4)
    rep = run_experiment(
        k4, 0, "undirected", BudgetConfig(total=300), runs=20, seed=0
    )
    assert rep.nrmse[14] == 0.0
    assert rep.nrmse[3] == pytest.approx(0.0, abs=1e-12)
    assert rep.nrmse[4] is None  # zero exact count has no relative error
    assert rep.exact[14] == 1


def test_run_experiment_oracle_sizes_by_mode(monkeypatch):
    # directed orbits are all 3-node ones, so directed3 mode must not ask
    # the oracle for 4-node subgraphs; undirected mode needs both sizes
    from orbitsampler import experiment
    from orbitsampler.generators import gnp_directed

    requested = []
    exact = experiment.exact_orbit_degrees

    def spy(*args, **kwargs):
        requested.append(kwargs.get("sizes"))
        return exact(*args, **kwargs)

    monkeypatch.setattr(experiment, "exact_orbit_degrees", spy)
    g = gnp_directed(20, 0.25, seed=6)
    v = int(np.argmax(g.degrees))
    rep = run_experiment(g, v, "directed3", BudgetConfig(total=400), runs=3, seed=0)
    assert requested == [(3,)]
    assert rep.exact == {i: c for i, c in exact(g, v).directed3.items()}
    run_experiment(g, v, "undirected", BudgetConfig(total=300), runs=2, seed=0)
    assert requested == [(3,), (3, 4)]


def test_nrmse_tracks_variance_model():
    # for an unbiased estimator the relative error over many runs should
    # approach sqrt(Var)/d; check the well-sampled single-route orbits
    g = gnp(60, 0.12, seed=103)
    v = int(np.argmax(g.degrees))
    st = g.stats(v)
    rep = run_experiment(
        g, v, "undirected", BudgetConfig(split=(2000, 2000, 2000)),
        runs=1000, seed=17,
    )
    K = 2000
    inv_p = {1: st.two_paths, 5: st.forked_paths, 8: st.forked_paths / 2,
             11: st.forked_paths / 2, 6: st.tail_wedges, 9: st.tail_wedges}
    checked = 0
    for i, ip in inv_p.items():
        d = rep.exact[i]
        if d == 0 or d / ip < 0.01:
            continue
        predicted = ((d / K) * (ip - d)) ** 0.5 / d
        assert abs(rep.nrmse[i] - predicted) <= 0.2 * predicted, (i, rep.nrmse[i], predicted)
        checked += 1
    assert checked >= 3


def test_nrmse_shrinks_with_budget():
    # doubling the per-route budget should shrink NRMSE by about 1/sqrt(2)
    g = gnp(60, 0.12, seed=103)
    v = int(np.argmax(g.degrees))
    r1 = run_experiment(g, v, "undirected", BudgetConfig(total=1500), runs=400, seed=1)
    r2 = run_experiment(g, v, "undirected", BudgetConfig(total=3000), runs=400, seed=1)
    checked = 0
    for i in (1, 5, 6, 7, 11):
        if not r1.exact[i]:
            continue
        ratio = r2.nrmse[i] / r1.nrmse[i]
        assert 0.707 * 0.8 < ratio < 0.707 * 1.2, (i, ratio)
        checked += 1
    assert checked >= 3
