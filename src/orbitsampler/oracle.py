"""Exact orbit degrees: 3-node subgraphs counted, 4-node ones enumerated.

3-node subgraphs containing an anchor are counted, not listed: one gather
of the anchor's neighbour lists (``two_paths + d`` entries, as ORCA counts
them; Hočevar & Demšar, Bioinformatics 2014) tallies path ends and
triangles by the direction codes of their pairs, and path centres follow
from the number of neighbour pairs with each pair of codes.  Connected
induced 4-node subgraphs are enumerated one at a time, each exactly once,
and classified through the orbit tables of :mod:`orbitsampler.orbits`.
The module also checks the closed-form identities that tie orbit counts to
the per-node normalizers.  It is the ground truth for all statistical
tests; its 4-node enumeration is deliberately simple and slow.

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

import numpy as np

from .graph import MUTUAL, AnchorContext, Graph, NodeStats
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


class _Neighbours(dict):
    """Per node, the set of its neighbours, built on first lookup."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, u: int) -> set[int]:
        s = self[u] = set(self.g.neighbors(u).tolist())
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


def _codes3(g: Graph, v: int) -> list[int]:
    """The 3-node subgraphs containing ``v``, tallied by the direction codes
    (a, b, c) of the pairs (v, x), (v, y) and (x, y) at index 16a + 4b + c
    (0 for no edge; every edge is ``MUTUAL`` on an undirected graph).

    Every subgraph holds a neighbour x of v and a node y in x's list: a path
    end when y lies outside N[v], a triangle when y is a neighbour too (read
    from the smaller of x and y).  A path centre is a pair of neighbours
    that closes no triangle.
    """
    ctx = AnchorContext(g, v)
    # One gather of the neighbours' lists: an entry (x, y) per y in the list
    # of each neighbour x, with the code c of (x, y).
    at, _ = g.list_entries(ctx.nb)
    x = np.repeat(ctx.nb, g.degrees[ctx.nb])
    y = g.indices[at]
    c = g.labels[at] if g.directed else MUTUAL
    b = ctx.code[y]
    keep = (y != v) & ((b == 0) | (x < y))
    tally = np.bincount((16 * ctx.code[x] + 4 * b + c)[keep], minlength=64).tolist()
    n = np.bincount(ctx.code[ctx.nb], minlength=4).tolist()  # neighbours per code
    for p in (1, 2, 3):
        for q in range(p, 4):
            closed = sum(tally[16 * p + 4 * q + 1 : 16 * p + 4 * q + 4])
            if p == q:
                tally[16 * p + 4 * q] = n[p] * (n[p] - 1) // 2 - closed
            else:
                closed += sum(tally[16 * q + 4 * p + 1 : 16 * q + 4 * p + 4])
                tally[16 * p + 4 * q] = n[p] * n[q] - closed
    return tally


def exact_orbit_degrees(
    g: Graph,
    v: int,
    guard: int | None = DEFAULT_GUARD,
    sizes: tuple[int, ...] = (3, 4),
) -> OrbitCounts:
    """Exact orbit-degree vector of ``v`` (orbit 0 is the plain degree).

    For directed graphs the 30-orbit directed vector is computed alongside.
    ``sizes`` restricts which subgraph sizes are counted, and the guard
    bounds only those (directed orbits only need size 3, see
    :data:`orbitsampler.estimators.MODES`).

    3-node subgraphs are tallied by the direction codes of their three
    pairs (:func:`_codes3`), 4-node ones by edge pattern (bit ``i`` for the
    member pair ``orbits.PAIRS[i]``, anchor first); the orbit tables then
    map each tally.  The counts are Python ints.
    """
    check_guard(g, v, guard, sizes)
    und = {i: 0 for i in range(15)}
    und[0] = g.degree(v)
    dir3 = {i: 0 for i in range(1, 31)} if g.directed else None

    if 3 in sizes:
        for key, n in enumerate(_codes3(g, v)):
            if n:
                a, b, c = key >> 4, key >> 2 & 3, key & 3
                und[int(ORBIT3[(a > 0) | (b > 0) << 1 | (c > 0) << 2])] += n
                if dir3 is not None:
                    dir3[int(DIR3[a, b, c])] += n

    if 4 in sizes:
        nbrs = _Neighbours(g)
        nv = nbrs[v]
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

