"""Shared fixtures: small named graphs and independent reference helpers."""

from __future__ import annotations

from itertools import combinations, product

import pytest

from orbitsampler import Graph, bias_vector

# Triangle 0-1-2 with pendant 3 hanging off node 2.
PAW_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3)]

# Eight-node graph containing at least one instance of every undirected
# orbit 1..14 (verified by test_oracle.test_eight_covers_every_orbit):
# a 4-clique {0,1,2,3}, a 4-cycle 0-4-7-6, and a diamond through {0,1,2,5}.
EIGHT_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 4), (0, 6), (6, 7), (4, 7), (1, 5), (2, 5),
]


def complete_graph(n: int) -> Graph:
    return Graph.from_edges([(a, b) for a in range(n) for b in range(a + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges([(0, i) for i in range(1, leaves + 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def arc_graph(arcs, n: int = 3) -> Graph:
    return Graph.from_edges(arcs, directed=True, node_count=n)


def all_directed_3node() -> list[tuple[frozenset, Graph]]:
    """Every connected directed 3-node graph as (arc set, Graph).  Three
    nodes are connected exactly when two or three of their pairs are edges."""
    out = []
    pairs = ((0, 1), (0, 2), (1, 2))
    for mask in (0b011, 0b101, 0b110, 0b111):
        chosen = [pairs[i] for i in range(3) if mask >> i & 1]
        for codes in product((1, 2, 3), repeat=len(chosen)):
            arcs = []
            for (a, b), c in zip(chosen, codes):
                if c != 2:
                    arcs.append((a, b))
                if c != 1:
                    arcs.append((b, a))
            out.append((frozenset(arcs), arc_graph(arcs)))
    return out


@pytest.fixture
def k3() -> Graph:
    return complete_graph(3)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def paw() -> Graph:
    return Graph.from_edges(PAW_EDGES)


@pytest.fixture
def path4() -> Graph:
    return path_graph(4)


@pytest.fixture
def star4() -> Graph:
    return star_graph(3)


@pytest.fixture
def eight() -> Graph:
    return Graph.from_edges(EIGHT_EDGES)


@pytest.fixture
def route_tallies(monkeypatch) -> list:
    """Every tally the estimation pipelines draw, in order, as
    ``(route, draws, tally)``."""
    from orbitsampler import estimators

    seen = []
    tally = estimators.tally_orbits

    def spy(g, ctx, method, k, *args):
        out = tally(g, ctx, method, k, *args)
        seen.append((method, k, out))
        return out

    monkeypatch.setattr(estimators, "tally_orbits", spy)
    return seen


def pooled_value(g: Graph, v: int, tallies, orbit: int) -> float:
    """An undirected orbit's pooled estimate recomputed from one estimate's
    route tallies: all hits over the expected hits per unit count."""
    st = g.stats(v)
    hits = sum(int(t[orbit]) for _, _, t in tallies)
    denom = sum(k * bias_vector(m, st).get(orbit, 0.0) for m, k, _ in tallies)
    return hits / denom


def naive_cises(g: Graph, v: int, k: int) -> set[tuple[int, ...]]:
    """Reference enumeration: combinations over the anchor's 3-hop ball
    filtered by induced connectivity.  Independent of the package oracle."""
    ball = {v}
    frontier = {v}
    for _ in range(k - 1):
        frontier = {
            int(u) for x in frontier for u in g.neighbors(x)
        } - ball
        ball |= frontier
    out = set()
    for rest in combinations(sorted(ball - {v}), k - 1):
        nodes = (v,) + rest
        if _connected_naive(g, nodes):
            out.add(tuple(sorted(nodes)))
    return out


def _connected_naive(g: Graph, nodes) -> bool:
    nodes = set(nodes)
    adj = {a: set(g.neighbors(a).tolist()) for a in nodes}
    seen = {next(iter(nodes))}
    grew = True
    while grew:
        grew = False
        for a in list(seen):
            for b in nodes - seen:
                if b in adj[a]:
                    seen.add(b)
                    grew = True
    return seen == nodes


def naive_node_stats(g: Graph, v: int) -> dict[str, int]:
    """Per-node normalizers recomputed with plain double loops."""
    d = len(g.neighbors(v))
    nbrs = [int(u) for u in g.neighbors(v)]
    deg = {u: len(g.neighbors(u)) for u in range(g.node_count)}

    def two_paths_of(x: int) -> int:
        return sum(deg[int(u)] - 1 for u in g.neighbors(x))

    return {
        "degree": d,
        "wedges": sum(1 for i in range(d) for j in range(i + 1, d)),
        "two_paths": sum(deg[u] - 1 for u in nbrs),
        "forked_paths": (d - 1) * sum(deg[u] - 1 for u in nbrs),
        "tail_wedges": sum((deg[u] - 1) * (deg[u] - 2) // 2 for u in nbrs),
        "three_walks": sum(two_paths_of(u) - d + 1 for u in nbrs),
        "triples": d * (d - 1) * (d - 2) // 6,
    }
