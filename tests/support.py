"""Reference code that only the tests use.

The scalar classifiers label one member set at a time through the graph's
batch lookups and the orbit tables; the tests hold the batch classifiers of
:mod:`orbitsampler.samplers` and the oracle against them.
:func:`enumerate_cises` lists every connected induced 3- or 4-node subgraph
at an anchor, and the brute-force tallies over it are the reference of the
oracle's counters: :func:`brute_force_orbits3` tallies the 3-node sets by
the direction codes of their pairs, :func:`brute_force_orbits4` the 4-node
sets by edge pattern, both read from neighbour dicts built once per call.
The generators build the seeded fixture graphs: a directed G(n, p), a large
sparse uniform graph, and small graphs with every pair's code drawn by
hypothesis.

Its name must differ from every module of ``perfbench/``.  The tests import
it by its bare name, and so do perfbench's tests their own modules; one
pytest session caches both in ``sys.modules``, so a shared name would hand
this module to perfbench's tests.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np
from hypothesis import strategies as st

from orbitsampler.graph import MUTUAL, Graph
from orbitsampler.orbits import DIR3, ORBIT3, ORBIT4, PAIRS

# The anchor's orbit per edge pattern, by member count; two members are a
# connected set exactly when their one pair is an edge.
_ORBITS = {2: np.array([-1, 0]), 3: ORBIT3, 4: ORBIT4}


class NotACisError(ValueError):
    """Raised when a member set is not connected and induced around the anchor."""


def _anchor_first(anchor: int, members: Iterable[int]) -> list[int]:
    nodes = sorted(set(int(x) for x in members))
    if anchor not in nodes:
        raise NotACisError(f"anchor {anchor} not among members {nodes}")
    nodes.remove(anchor)
    return [anchor, *nodes]


def classify_undirected(g: Graph, anchor: int, members: Iterable[int]) -> int:
    """Orbit of ``anchor`` inside the induced subgraph on ``members``.

    ``members`` must contain the anchor and induce a connected subgraph of
    2 to 4 nodes; otherwise :class:`NotACisError` is raised.
    """
    nodes = _anchor_first(anchor, members)
    k = len(nodes)
    if k < 2 or k > 4:
        raise NotACisError(f"member sets must have 2-4 nodes, got {k}")
    a, b = np.array(nodes)[np.transpose(PAIRS[: k * (k - 1) // 2])]
    pattern = sum(1 << i for i, edge in enumerate(g.has_edges(a, b).tolist()) if edge)
    orbit = int(_ORBITS[k][pattern])
    if orbit < 0:
        raise NotACisError(f"members {nodes} are not connected")
    return orbit


def classify_directed3(g: Graph, anchor: int, members: Iterable[int]) -> int:
    """Directed orbit (1..30) of ``anchor`` in a 3-node member set."""
    nodes = _anchor_first(anchor, members)
    if len(nodes) != 3:
        raise NotACisError(f"directed classification needs 3 nodes, got {nodes}")
    a, b = np.array(nodes)[np.transpose(PAIRS[:3])]
    edge = g.has_edges(a, b)
    codes = np.zeros(3, dtype=np.int8)
    codes[edge] = g.direction_codes(a[edge], b[edge])
    orbit = int(DIR3[tuple(codes)])
    if orbit < 0:
        raise NotACisError(f"members {nodes} are not connected")
    return orbit


class _Neighbours(dict):
    """Per node u, its neighbours x, each with the direction code of (u, x)
    (``MUTUAL`` on an undirected graph), built on first lookup."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, u: int) -> dict[int, int]:
        g = self.g
        nb = g.neighbors(u).tolist()
        if g.directed:
            s = dict(zip(nb, g.labels[g.indptr[u] : g.indptr[u + 1]].tolist()))
        else:
            s = dict.fromkeys(nb, MUTUAL)
        self[u] = s
        return s


def enumerate_cises(g: Graph, v: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each connected induced ``k``-node subgraph containing ``v`` once.

    Members are emitted as sorted tuples.  Expansion never leaves the
    (k-1)-hop neighbourhood of the anchor by construction.
    """
    if k not in (3, 4):
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    return (tuple(sorted(m)) for m in _cises(_Neighbours(g), v, k))


def _cises(nbrs: _Neighbours, v: int, k: int) -> Iterator[tuple[int, ...]]:
    """Member tuples in growth order, the anchor first.

    Enumeration grows the member set one node at a time, extending only
    through "exclusive" neighbours (nodes not adjacent to the current set
    when they were first exposed).  That discipline yields each subgraph
    exactly once without hashing previously seen sets.
    """
    sub = [v]

    def extend(ext: list[int], forbidden: set[int]) -> Iterator[tuple[int, ...]]:
        if len(sub) == k:
            yield tuple(sub)
            return
        while ext:
            w = ext.pop()
            fresh = [x for x in nbrs[w] if x not in forbidden]
            sub.append(w)
            yield from extend(ext + fresh, forbidden | set(fresh))
            sub.pop()

    yield from extend(sorted(nbrs[v]), {v, *nbrs[v]})


def brute_force_orbits3(
    g: Graph, v: int
) -> tuple[dict[int, int], dict[int, int] | None]:
    """Undirected orbits 1-3 and, on a directed graph, directed orbits 1-30
    of ``v``, tallied over its enumerated 3-node subgraphs by the direction
    codes (a, b, c) of the member pairs (v, x), (v, y) and (x, y), 0 for no
    edge, read from neighbour-code dicts."""
    nbrs = _Neighbours(g)
    nv = nbrs[v]
    codes = Counter(
        (nv.get(x, 0), nv.get(y, 0), nbrs[x].get(y, 0))
        for _, x, y in _cises(nbrs, v, 3)
    )
    und = dict.fromkeys((1, 2, 3), 0)
    dir3 = dict.fromkeys(range(1, 31), 0) if g.directed else None
    for (a, b, c), n in codes.items():
        und[int(ORBIT3[(a > 0) | (b > 0) << 1 | (c > 0) << 2])] += n
        if dir3 is not None:
            dir3[int(DIR3[a, b, c])] += n
    return und, dir3


def brute_force_orbits4(g: Graph, v: int) -> dict[int, int]:
    """Undirected orbits 4-14 of ``v``, tallied over its enumerated 4-node
    subgraphs by edge pattern (bit ``i`` for the member pair ``PAIRS[i]``,
    anchor first), tested on neighbour sets."""
    nbrs = _Neighbours(g)
    nv = nbrs[v]
    patterns = Counter(
        (x in nv) | (y in nv) << 1 | (y in nbrs[x]) << 2
        | (z in nv) << 3 | (z in nbrs[x]) << 4 | (z in nbrs[y]) << 5
        for _, x, y, z in _cises(nbrs, v, 4)
    )
    out = dict.fromkeys(range(4, 15), 0)
    for p, n in patterns.items():
        out[int(ORBIT4[p])] += n
    return out


def coded_graph(n: int, codes, directed: bool) -> Graph:
    """One code per node pair (i < j) in ``combinations`` order: 0 no edge,
    1 the arc i -> j, 2 the arc j -> i, 3 both arcs (mutual)."""
    arcs = []
    for (i, j), c in zip(combinations(range(n), 2), codes):
        if c & 1:
            arcs.append((i, j))
        if c & 2:
            arcs.append((j, i))
    return Graph.from_edges(arcs or [(0, 1)], directed=directed, node_count=n)


@st.composite
def coded_graphs(draw):
    """Graphs of up to 8 nodes, directed or not, with every pair absent, one
    arc either way, or mutual, so isolated nodes, leaves, mutual edges and
    complete digraphs all occur."""
    n = draw(st.integers(2, 8))
    pairs = n * (n - 1) // 2
    codes = draw(st.lists(st.integers(0, 3), min_size=pairs, max_size=pairs))
    return coded_graph(n, codes, draw(st.booleans()))


def gnp_directed(
    n: int, p: float, seed: int, mutual_fraction: float = 1.0 / 3.0
) -> Graph:
    """G(n, p) skeleton with a random direction per edge.

    Each kept edge becomes mutual with probability ``mutual_fraction`` and
    otherwise a single arc of uniform orientation; the default makes the
    three direction codes equally likely.
    """
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    a, b = iu[mask], iv[mask]
    mut = rng.random(len(a)) < mutual_fraction
    fwd = rng.random(len(a)) < 0.5
    ahead, back = mut | fwd, mut | ~fwd  # arcs a->b and b->a
    src = np.concatenate((a[ahead], b[back]))
    dst = np.concatenate((b[ahead], a[back]))
    return Graph.from_arrays(src, dst, directed=True, node_count=n)


def sparse_random_graph(n: int, avg_degree: float, seed: int) -> Graph:
    """Uniform random graph with about ``n * avg_degree / 2`` distinct edges.

    Pair sampling with rejection; intended for large sparse benchmark
    graphs where per-pair Bernoulli draws would not fit in memory.  Raises
    ``ValueError`` when ``n < 2`` or the edge count exceeds the number of
    node pairs, where rejection would never finish.
    """
    m = int(round(n * avg_degree / 2))
    if n < 2 or m > n * (n - 1) // 2:
        raise ValueError(
            f"need 2 or more nodes and at most n(n-1)/2 edges, got {n} nodes "
            f"and {m} edges"
        )
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        k = 2 * (m - len(keys)) + 16
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        ok = a != b
        lo = np.minimum(a, b)[ok].astype(np.int64)
        hi = np.maximum(a, b)[ok].astype(np.int64)
        keys = np.unique(np.concatenate([keys, lo * n + hi]))
    keys = rng.permutation(keys)[:m]  # unique() sorts; reshuffle before trimming
    return Graph.from_arrays(keys // n, keys % n, node_count=n)
