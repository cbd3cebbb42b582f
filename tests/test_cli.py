"""CLI, experiment harness, and report serialization tests."""

import csv
import gc
import io
import json
import types
import weakref

import numpy as np
import pytest

from orbitsampler import BudgetConfig, run_experiment
from orbitsampler.cli import main
from orbitsampler.generators import gnp
from orbitsampler.metrics import nrmse

from conftest import complete_graph, pooled_value


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
    from orbitsampler.graph import MUTUAL, OUT
    from support import gnp_directed

    g = gnp_directed(30, 0.2, seed=9)
    path = tmp_path / "digraph.txt"
    with open(path, "w") as f:
        for v in range(g.node_count):
            for u in g.neighbors(v):
                u = int(u)
                code = g.direction_codes([v], [u])[0]
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


def test_exact_guard_names_the_file_id(tmp_path, capsys):
    # ids are sparse, so node 300 of the file is dense node 2
    path = tmp_path / "sparse.txt"
    path.write_text("100 200\n200 300\n300 100\n300 400\n")
    args = ["exact", "--graph", str(path), "--node", "300", "--oracle-guard", "0"]
    assert main(args) == 3
    assert "guard exceeded: node 300 implies" in capsys.readouterr().err


def test_directed_mode_requires_directed(graph_file, capsys):
    # every command that takes a mode refuses directed3 on an unlabeled graph
    args = ["--graph", str(graph_file), "--node", "0", "--mode", "directed3"]
    for cmd in (
        ["estimate", *args, "--budget", "100"],
        ["exact", *args],
        ["evaluate", *args, "--budget", "100", "--runs", "2", "--workers", "2"],
    ):
        assert main(cmd) == 2
        assert "--directed" in capsys.readouterr().err


def test_exact_mode_counts_refuses_directed3_without_labels():
    from orbitsampler.experiment import exact_mode_counts
    from orbitsampler.graph import Graph, GraphError

    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(GraphError, match="--directed"):
        exact_mode_counts(g, 0, "directed3", None)
    with pytest.raises(ValueError, match="unknown mode"):
        exact_mode_counts(g, 0, "bogus", None)


def test_run_experiment_refuses_the_mode_before_its_pool(monkeypatch):
    # a mode the graph cannot run is refused before any process is forked
    from orbitsampler import experiment
    from orbitsampler.graph import Graph, GraphError

    def no_pool(method):
        raise AssertionError(f"a {method} context was made")

    monkeypatch.setattr(experiment.multiprocessing, "get_context", no_pool)
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    budget = BudgetConfig(total=30)
    with pytest.raises(GraphError, match="--directed"):
        run_experiment(g, 2, "directed3", budget, runs=2, seed=0, workers=2)
    with pytest.raises(ValueError, match="unknown mode"):
        run_experiment(g, 2, "bogus", budget, runs=2, seed=0, workers=2)


def test_help_lists_every_command_once(capsys):
    from orbitsampler import cli

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "Subcommands::" not in out
    listed = out.split("positional arguments:")[1].split("options:")[0]
    for name in cli._COMMANDS:
        assert f"\n    {name} " in listed


def test_missing_graph_is_data_error(tmp_path, capsys):
    rc = main(
        [
            "estimate", "--graph", str(tmp_path / "nope.txt"), "--node", "0",
            "--budget", "100",
        ]
    )
    assert rc == 2


def test_allocation_failure_is_data_error(graph_file, monkeypatch, capsys):
    from orbitsampler import cli

    def fail(*args):
        raise MemoryError("Unable to allocate 2.18 TiB")

    monkeypatch.setattr(cli, "estimate_orbit_degrees", fail)
    argv = ["estimate", "--graph", str(graph_file), "--node", "0"]
    assert main(argv + ["--budget", "300000000000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory (Unable to allocate 2.18 TiB)\n"


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
    # values the mode's routes cannot take are usage errors, not data errors
    est = ["estimate", "--graph", str(graph_file), "--node", "0"]
    assert main(est + ["--budget", "2"]) == 1  # below one draw per route
    assert main(est + ["--budget-split", "5,0,5"]) == 1
    assert main(est + ["--budget-split", "5,5"]) == 1  # three routes
    # the two budget options exclude each other
    assert main(est + ["--budget", "300", "--budget-split", "100,100,100"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert main(est + ["--mode", "directed3", "--budget-split", "5,5,5"]) == 1
    assert main(["evaluate", *est[1:], "--budget", "300", "--runs", "1"]) == 1
    with pytest.raises(ValueError, match="two runs"):  # and so does the library
        run_experiment(complete_graph(4), 0, "undirected", BudgetConfig(total=30), 1, 0)
    ev = ["evaluate", *est[1:], "--budget", "300", "--runs", "2"]
    assert main(ev + ["--workers", "0"]) == 1
    assert main(ev + ["--workers", "-2"]) == 1
    assert main(ev + ["--oracle-guard", "-1"]) == 1
    assert main(["exact", *est[1:], "--oracle-guard", "-1"]) == 1
    # a negative seed is refused before the graph is read or generated
    assert main(est + ["--budget", "300", "--seed", "-1"]) == 1
    assert main(ev + ["--seed", "-1"]) == 1
    assert "--seed must be at least 0, got -1" in capsys.readouterr().err
    # no draw-only bench command: perfbench times draws plus lookups
    assert main(["bench", "--draws", "10"]) == 1
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    # no id-map option: every command reports the file's ids
    assert main(est + ["--budget", "300", "--id-map", "x"]) == 1
    assert "unrecognized arguments: --id-map" in capsys.readouterr().err


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
    assert main(["orbit-table", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["orbit"] for row in rows] == list(range(1, 31))


def test_pool_starts_no_more_processes_than_runs(monkeypatch):
    # a fake context records the pool size and maps in this process
    from orbitsampler import experiment

    sizes = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    context = types.SimpleNamespace(Pool=Pool)
    monkeypatch.setattr(experiment.multiprocessing, "get_context", lambda _: context)
    monkeypatch.setattr(experiment, "_CTX", {})  # what a worker would set
    g = gnp(30, 0.2, seed=4)
    v = int(np.argmax(g.degrees))
    args = (g, v, "undirected", BudgetConfig(total=300))
    serial, _ = experiment.run_pipeline_matrix(*args, runs=2, seed=0)
    for workers, runs in ((4, 2), (2, 3)):
        matrix, _ = experiment.run_pipeline_matrix(*args, runs=runs, seed=0, workers=workers)
        assert (matrix[:2] == serial).all()
    assert sizes == [2, 2]


def test_serial_run_experiment_releases_graph():
    g = gnp(30, 0.2, seed=4)
    v = int(np.argmax(g.degrees))
    run_experiment(g, v, "undirected", BudgetConfig(total=300), runs=2, seed=0)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_run_experiment_forced_graph(route_tallies):
    k4 = complete_graph(4)
    rep = run_experiment(
        k4, 0, "undirected", BudgetConfig(total=300), runs=20, seed=0
    )
    # each run draws R32, R41 and R42 in turn; orbits 3 and 14 pool their hits
    runs = [route_tallies[x : x + 3] for x in range(0, len(route_tallies), 3)]
    assert len(runs) == 20
    for i in (3, 14):
        pooled = [pooled_value(k4, 0, tallies, i) for tallies in runs]
        assert rep.mean_estimates[i] == pytest.approx(np.mean(pooled))
        assert rep.nrmse[i] == pytest.approx(nrmse(np.array(pooled), rep.exact[i]))
        assert rep.nrmse[i] > 0.0
    assert rep.nrmse[4] is None  # zero exact count has no relative error
    assert (rep.exact[3], rep.exact[14]) == (3, 1)


def test_run_experiment_oracle_sizes_by_mode(monkeypatch, digraph_file, capsys):
    # directed orbits are all 3-node ones, so directed3 mode must not ask
    # the oracle for 4-node subgraphs; undirected mode needs both sizes.
    # run_experiment and the exact command share one helper.
    from orbitsampler import experiment
    from support import gnp_directed

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

    requested.clear()
    args = ["exact", "--graph", str(digraph_file), "--directed", "--max-degree-node"]
    for mode in ("directed3", "undirected"):
        assert main([*args, "--mode", mode]) == 0
    assert requested == [(3,), (3, 4)]


def test_exact_guard_bounds_only_enumerated_sizes(digraph_file, capsys):
    # a guard between the 3-node bound and the 3- plus 4-node bound admits
    # the 3-node directed oracle and refuses the undirected one
    from orbitsampler.graph import load_edge_list
    from orbitsampler.oracle import candidate_bound, exact_orbit_degrees

    g = load_edge_list(digraph_file, directed=True)
    v = int(np.argmax(g.degrees))
    st = g.stats(v)
    guard = candidate_bound(st, (3,))
    assert guard < candidate_bound(st)
    args = ["exact", "--graph", str(digraph_file), "--directed", "--max-degree-node"]
    args += ["--oracle-guard", str(guard)]
    assert main([*args, "--mode", "directed3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    counts = exact_orbit_degrees(g, v, guard=None).directed3
    assert {row["id"]: row["estimate"] for row in payload["orbits"]} == counts
    assert main([*args, "--mode", "undirected"]) == 3


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
