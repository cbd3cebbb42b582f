"""Seeded random graph generators for tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .graph import Graph


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with every unordered pair drawn independently."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return Graph.from_arrays(iu[mask], iv[mask], node_count=n)


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


def preferential_attachment(n: int, m: int, seed: int) -> Graph:
    """Growing graph where each new node links to ``m`` degree-biased targets."""
    if n <= m:
        raise ValueError("need more nodes than links per step")
    rng = np.random.default_rng(seed)
    endpoints: list[int] = []  # both ends of every edge, edge by edge
    for v in range(1, m + 1):  # small seed star
        endpoints += [0, v]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        for t in targets:
            endpoints += [v, t]
    ends = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    return Graph.from_arrays(ends[:, 0], ends[:, 1], node_count=n)
