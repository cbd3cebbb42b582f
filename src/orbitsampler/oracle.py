"""Exact orbit degrees by brute-force enumeration.

Enumerates every connected induced 3- and 4-node subgraph containing a given
anchor exactly once, classifies each through the orbit tables of
:mod:`orbitsampler.orbits`, and checks the closed-form identities
that tie orbit counts to the per-node normalizers.  This module is the ground
truth for all statistical tests; it is deliberately simple and makes no
attempt to compete with the sampling pipelines on speed.

Enumeration grows the member set one node at a time, extending only through
"exclusive" neighbours (nodes not adjacent to the current set when they were
first exposed).  That discipline yields each subgraph exactly once without
hashing previously seen sets.  Anchors whose neighbourhood implies too many
candidate subgraphs are refused by a configurable guard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .graph import MUTUAL, Graph, NodeStats
from .orbits import DIR3, IDENTITIES, ORBIT3, ORBIT4

DEFAULT_GUARD = 10**6


class GuardExceededError(RuntimeError):
    """Anchor's neighbourhood implies more candidate subgraphs than allowed."""


@dataclass(frozen=True)
class OrbitCounts:
    """Exact orbit degrees of one node."""

    node: int
    undirected: dict[int, int]            # orbit 0..14 -> count
    directed3: dict[int, int] | None = None  # orbit 1..30 -> count


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the orbit-count identities at one node."""

    residuals: dict[str, int]  # per normalizer: sum(c * d_i) - normalizer
    ok: bool  # every residual is zero


def candidate_bound(stats: NodeStats, sizes: tuple[int, ...] = (3, 4)) -> int:
    """Upper bound on the number of subgraphs of the given sizes at a node.

    Every subgraph containing the node is reachable by at least one sampling
    route of its size, so the sum of those routes' selection counts bounds
    the total.
    """
    bound = stats.wedges + stats.two_paths if 3 in sizes else 0
    if 4 in sizes:
        bound += stats.forked_paths + 2 * stats.tail_wedges
        bound += stats.three_walks + 6 * stats.triples
    return bound


def check_guard(
    g: Graph, v: int, limit: int | None = DEFAULT_GUARD, sizes: tuple[int, ...] = (3, 4)
) -> None:
    """Raise :class:`GuardExceededError` when ``sizes`` look infeasible to enumerate."""
    if limit is None:
        return
    bound = candidate_bound(g.stats(v), sizes)
    if bound > limit:
        raise GuardExceededError(
            f"node {g.to_original(v)} implies up to {bound} candidate subgraphs"
            f" (limit {limit})"
        )


class _NeighbourCodes(dict):
    """Per node, its neighbours mapped to the direction code of the pair seen
    from the node (``MUTUAL`` when undirected), built on first lookup."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, u: int) -> dict[int, int]:
        g = self.g
        lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
        codes = g.labels[lo:hi].tolist() if g.directed else [MUTUAL] * (hi - lo)
        s = self[u] = dict(zip(g.indices[lo:hi].tolist(), codes))
        return s


def enumerate_cises(g: Graph, v: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each connected induced ``k``-node subgraph containing ``v`` once.

    Members are emitted as sorted tuples.  Expansion never leaves the
    (k-1)-hop neighbourhood of the anchor by construction.
    """
    if k not in (3, 4):
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    return (tuple(sorted(m)) for m in _cises(_NeighbourCodes(g), v, k))


def _cises(nbrs: _NeighbourCodes, v: int, k: int) -> Iterator[tuple[int, ...]]:
    """Member tuples in growth order, the anchor first."""
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


def exact_orbit_degrees(
    g: Graph,
    v: int,
    guard: int | None = DEFAULT_GUARD,
    sizes: tuple[int, ...] = (3, 4),
) -> OrbitCounts:
    """Exact orbit-degree vector of ``v`` (orbit 0 is the plain degree).

    For directed graphs the 30-orbit directed vector is computed alongside.
    ``sizes`` restricts which subgraph sizes are enumerated, and the guard
    bounds only those (directed orbits only need size 3, see
    :data:`orbitsampler.estimators.MODES`).

    Subgraphs are tallied by edge pattern (bit ``i`` for the member pair
    ``orbits.PAIRS[i]``, anchor first) or, for 3 nodes, by the direction
    codes of the three pairs; the orbit tables then map each tally.
    """
    check_guard(g, v, guard, sizes)
    nbrs = _NeighbourCodes(g)
    nv = nbrs[v]
    und = {i: 0 for i in range(15)}
    und[0] = g.degree(v)
    dir3 = {i: 0 for i in range(1, 31)} if g.directed else None

    if 3 in sizes:
        codes3 = Counter(
            (nv.get(x, 0), nv.get(y, 0), nbrs[x].get(y, 0))
            for _, x, y in _cises(nbrs, v, 3)
        )
        for (a, b, c), n in codes3.items():
            und[int(ORBIT3[(a > 0) | (b > 0) << 1 | (c > 0) << 2])] += n
            if dir3 is not None:
                dir3[int(DIR3[a, b, c])] += n

    if 4 in sizes:
        patterns = Counter(
            (x in nv) | (y in nv) << 1 | (y in nbrs[x]) << 2
            | (z in nv) << 3 | (z in nbrs[x]) << 4 | (z in nbrs[y]) << 5
            for _, x, y, z in _cises(nbrs, v, 4)
        )
        for p, n in patterns.items():
            und[int(ORBIT4[p])] += n

    return OrbitCounts(node=v, undirected=und, directed3=dir3)


def verify_identities(counts: OrbitCounts, stats: NodeStats) -> IdentityReport:
    """Residuals of every row of :data:`orbitsampler.orbits.IDENTITIES`;
    all must be zero."""
    c = counts.undirected
    residuals = {
        name: sum(w * c[i] for i, w in row.items()) - getattr(stats, name)
        for name, row in IDENTITIES.items()
    }
    return IdentityReport(residuals, ok=not any(residuals.values()))

