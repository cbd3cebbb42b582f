"""Seeded random graph generators: G(n, p) and preferential attachment."""

from __future__ import annotations

import numpy as np

from .graph import Graph


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with every unordered pair drawn independently."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return Graph.from_arrays(iu[mask], iv[mask], node_count=n)


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
