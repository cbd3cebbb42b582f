"""The split between the package and the tests' reference code.

The fixture generators of ``support`` build the same graphs, array for
array, as they did inside the package; its fast brute-force tally agrees
with its scalar classifiers; and the package imports and runs its commands
without ``support`` or any test-only dependency.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from support import (
    brute_force_orbits3,
    classify_directed3,
    classify_undirected,
    coded_graphs,
    enumerate_cises,
    gnp_directed,
    sparse_random_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 over the indptr, indices and labels bytes of every fixture graph
# the tests build, taken when the generators still lived in the package.
# A range of seeds hashes its graphs together, in seed order.
FIXTURE_DIGESTS = [
    pytest.param(
        lambda: [gnp_directed(30, 0.2, seed=9)],
        "2059bf6b0c845ccfb92974ed9ba45df3d8c08cdbb3027a40780850c978a18cfb",
        id="gnp_directed(30,0.2,9)",
    ),
    pytest.param(
        lambda: [gnp_directed(20, 0.25, seed=6)],
        "58269673b9695e25d581d02cdd3868a6864795299f6b08a86cfc00ebfe8f22d8",
        id="gnp_directed(20,0.25,6)",
    ),
    pytest.param(
        lambda: [gnp_directed(16, 0.3, s) for s in range(3)],
        "60a2e90e61f165d7c33a4b3e9aeb3dfb338dddf025ab49c0b1210e2f80d63c58",
        id="gnp_directed(16,0.3,0..2)",
    ),
    pytest.param(
        lambda: [gnp_directed(40, 0.2, seed=3)],
        "0f17c89d6b7eb09de576f285254c14b27f954fa3b4cd46c67c7be4f1ce8b1173",
        id="gnp_directed(40,0.2,3)",
    ),
    pytest.param(
        lambda: [gnp_directed(18, 0.25, s) for s in range(4)],
        "6f414bf193cf14f677dd8bbc378fbf9d8f133bccea89e5b60890574fecccc269",
        id="gnp_directed(18,0.25,0..3)",
    ),
    pytest.param(
        lambda: [gnp_directed(30, 0.15, 2)],
        "a5e3b986db44031a2130deb18e54badce60ba5144f054bc05ea1e05009c906ed",
        id="gnp_directed(30,0.15,2)",
    ),
    pytest.param(
        lambda: [gnp_directed(25, 0.2, seed=3)],
        "d888db62354dc336f63d5425d69bd78271a830526ce6d9230ed6f14ef92b9a39",
        id="gnp_directed(25,0.2,3)",
    ),
    pytest.param(
        lambda: [gnp_directed(30, 0.2, seed=2)],
        "c42d5e7abbb4a21b9f737428020a5a3525602f0c1bb48d2f139c8f8478f275c2",
        id="gnp_directed(30,0.2,2)",
    ),
    pytest.param(
        lambda: [gnp_directed(60, 0.25, seed=45, mutual_fraction=0.0)],
        "9ac5c1c59fd8353e9f06e8f9be8801c4dace2a437b848f3a33599ac92793a873",
        id="gnp_directed(60,0.25,45,mutual=0)",
    ),
    pytest.param(
        lambda: [gnp_directed(40 + 4 * s, 0.1, seed=s) for s in range(20)],
        "26bfa9b88144f4e546fa6bf894d1c8799e5135817e39376eb792975e53c524e4",
        id="gnp_directed(40+4s,0.1,s<20)",
    ),
    pytest.param(
        lambda: [gnp_directed(40, 0.15, seed=9)],
        "db77bf82e20e3f447845d5b5285c074b819cce0ac8e9ceeff210248dffd7ab6a",
        id="gnp_directed(40,0.15,9)",
    ),
    pytest.param(
        lambda: [sparse_random_graph(4, 3.0, seed=0)],
        "5263702467205fdd23c884143e0226e01fb90f729787fb80d0df9b73d29ec57d",
        id="sparse_random_graph(4,3.0,0)",
    ),
    pytest.param(
        lambda: [sparse_random_graph(3000, 6.0, seed=4)],
        "8dfc16c9b97d91b72ae881884ae6664e90eda4d6caddcfc194ad23fe82fb82b1",
        id="sparse_random_graph(3000,6.0,4)",
    ),
    pytest.param(
        lambda: [sparse_random_graph(100_000, 10.0, seed=7)],
        "18df5ea5fc3677811cc16f9d31bbc7541442b86f59cd123dc1197e36888d3efd",
        id="sparse_random_graph(100000,10.0,7)",
    ),
]


@pytest.mark.parametrize("make, digest", FIXTURE_DIGESTS)
def test_fixture_generators_build_pinned_graphs(make, digest):
    h = hashlib.sha256()
    for g in make():
        for a in (g.indptr, g.indices, g.labels):
            if a is not None:
                h.update(a.tobytes())
    assert h.hexdigest() == digest


@given(coded_graphs())
def test_three_node_tally_matches_the_scalar_classifiers(g):
    for v in range(g.node_count):
        und = dict.fromkeys((1, 2, 3), 0)
        dir3 = dict.fromkeys(range(1, 31), 0) if g.directed else None
        for mem in enumerate_cises(g, v, 3):
            und[classify_undirected(g, v, mem)] += 1
            if dir3 is not None:
                dir3[classify_directed3(g, v, mem)] += 1
        assert brute_force_orbits3(g, v) == (und, dir3), v


def test_package_runs_without_test_code(tmp_path):
    # only src on the path, and a working directory outside the repository:
    # every module imports and two commands run, and none of it pulls in the
    # tests' helpers or a test-only dependency
    script = """
import importlib, pkgutil, sys
import orbitsampler
from orbitsampler import cli
for m in pkgutil.iter_modules(orbitsampler.__path__):
    importlib.import_module("orbitsampler." + m.name)
assert cli.main(["orbit-table"]) == 0
argv = ["estimate", "--graph", sys.argv[1], "--max-degree-node", "--budget", "30"]
assert cli.main(argv) == 0
left = {"support", "conftest", "pytest", "scipy", "hypothesis"} & set(sys.modules)
assert not left, sorted(left)
"""
    edges = tmp_path / "paw.txt"
    edges.write_text("0 1\n0 2\n1 2\n2 3\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", script, str(edges)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert '"orbits"' in run.stdout
