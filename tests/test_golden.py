"""Byte-for-byte regression of every deterministic CLI output.

The expected files under ``tests/golden/`` pin the exact bytes the CLI
writes for fixed seeds on small generated graphs: ``estimate``, ``exact``,
``evaluate`` and ``orbit-table`` in each of their formats.  A change that
is meant to keep outputs identical must pass this test unchanged.  A change that alters
outputs on purpose (a new estimator rule, a different random stream)
re-baselines by regenerating the files and saying so in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from orbitsampler.cli import main
from orbitsampler.generators import preferential_attachment
from orbitsampler.graph import MUTUAL, OUT, Graph
from support import gnp_directed

GOLDEN = Path(__file__).resolve().parent / "golden"


def _write_undirected(g: Graph, path: Path) -> None:
    with open(path, "w") as f:
        for v in range(g.node_count):
            for u in g.neighbors(v):
                if v < u:
                    f.write(f"{v} {u}\n")


def _write_directed(g: Graph, path: Path) -> None:
    with open(path, "w") as f:
        for v in range(g.node_count):
            for u in g.neighbors(v):
                u = int(u)
                code = g.direction_codes([v], [u])[0]
                if code == OUT or (code == MUTUAL and v < u):
                    f.write(f"{v} {u}\n")
                if code == MUTUAL and v < u:
                    f.write(f"{u} {v}\n")


GRAPHS = {
    "pa": (lambda: preferential_attachment(200, 4, seed=4), _write_undirected),
    "digraph": (lambda: gnp_directed(40, 0.15, seed=9), _write_directed),
}

# file name -> (graph or None, CLI arguments after --graph)
_HUB = ["--max-degree-node", "--seed", "3"]
_DIRECTED = ["--directed", "--mode", "directed3"]
CASES = {
    "estimate_undirected.json": ("pa", ["estimate", *_HUB, "--budget", "6000"]),
    "estimate_undirected.csv": (
        "pa", ["estimate", *_HUB, "--budget", "6000", "--format", "csv"]
    ),
    "estimate_undirected_low_degree.json": (
        "pa", ["estimate", "--node", "199", "--seed", "5", "--budget", "300"]
    ),
    "estimate_directed3.json": (
        "digraph", ["estimate", *_DIRECTED, *_HUB, "--budget", "4000"]
    ),
    "estimate_directed3.csv": (
        "digraph",
        ["estimate", *_DIRECTED, *_HUB, "--budget", "4000", "--format", "csv"],
    ),
    "exact_undirected.json": ("pa", ["exact", "--max-degree-node"]),
    "exact_directed3.csv": (
        "digraph", ["exact", *_DIRECTED, "--max-degree-node", "--format", "csv"]
    ),
    "evaluate_undirected.json": (
        "pa",
        ["evaluate", *_HUB, "--budget", "3000", "--runs", "4", "--workers", "1"],
    ),
    "evaluate_undirected_guarded.json": (
        "pa",
        [
            "evaluate", *_HUB, "--budget", "3000", "--runs", "4", "--workers", "1",
            "--oracle-guard", "5",
        ],
    ),
    "evaluate_undirected.csv": (
        "pa",
        [
            "evaluate", *_HUB, "--budget", "3000", "--runs", "4", "--workers", "1",
            "--format", "csv",
        ],
    ),
    "evaluate_directed3.json": (
        "digraph",
        [
            "evaluate", *_DIRECTED, *_HUB, "--budget", "3000", "--runs", "4",
            "--workers", "1",
        ],
    ),
    "evaluate_directed3.csv": (
        "digraph",
        [
            "evaluate", *_DIRECTED, *_HUB, "--budget", "3000", "--runs", "4",
            "--workers", "1", "--format", "csv",
        ],
    ),
    "orbit_table.txt": (None, ["orbit-table"]),
    "orbit_table.csv": (None, ["orbit-table", "--format", "csv"]),
    "orbit_table.json": (None, ["orbit-table", "--format", "json"]),
}


def _graph_files(directory: Path) -> dict[str, Path]:
    paths = {}
    for name, (make, write) in GRAPHS.items():
        paths[name] = directory / f"{name}.txt"
        write(make(), paths[name])
    return paths


def _run(case: str, graphs: dict[str, Path], out: Path) -> bytes:
    graph, args = CASES[case]
    source = [] if graph is None else ["--graph", str(graphs[graph])]
    argv = [args[0], *source, *args[1:], "--output", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    return _graph_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, graph_files, tmp_path):
    assert _run(case, graph_files, tmp_path / case) == (GOLDEN / case).read_bytes()


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        graphs = _graph_files(Path(tmp))
        for case in sorted(CASES):
            _run(case, graphs, GOLDEN / case)
            print(f"wrote {GOLDEN / case}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
