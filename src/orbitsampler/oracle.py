"""Exact orbit degrees by brute-force enumeration.

Enumerates every connected induced 3- and 4-node subgraph containing a given
anchor exactly once, classifies each, and checks the closed-form identities
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

from dataclasses import dataclass
from typing import Iterator

from .graph import IN as IN_CODE
from .graph import Graph, NodeStats
from .orbits import (
    CENTER_RANK,
    END_RANK,
    TRIANGLE_RANK,
    TRIPLE_IDENTITY,
    UNORBIT,
    WALK_IDENTITY,
    WEDGE_IDENTITY,
    _triangle_canonical,
)

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
    """Residuals of the three orbit-count identities at one node."""

    wedge_residual: int        # (c2 + c3) - wedges
    walk_residual: int         # weighted 4-node sum - three_walks
    triple_residual: int       # (c7 + c11 + c13 + c14) - triples
    ok: bool


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
            f"node {v} implies up to {bound} candidate subgraphs (limit {limit})"
        )


class _NeighbourSets(dict):
    """Neighbour sets of a graph's nodes, built on first lookup."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, u: int) -> set[int]:
        s = self[u] = {int(x) for x in self.g.neighbors(u)}
        return s


def enumerate_cises(g: Graph, v: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each connected induced ``k``-node subgraph containing ``v`` once.

    Members are emitted as sorted tuples.  Expansion never leaves the
    (k-1)-hop neighbourhood of the anchor by construction.
    """
    if k not in (3, 4):
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    return _cises(_NeighbourSets(g), v, k)


def _cises(nbrs: _NeighbourSets, v: int, k: int) -> Iterator[tuple[int, ...]]:
    sub = [v]

    def extend(ext: list[int], forbidden: set[int]) -> Iterator[tuple[int, ...]]:
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        ext = list(ext)
        while ext:
            w = ext.pop()
            fresh = [x for x in nbrs[w] if x not in forbidden]
            sub.append(w)
            yield from extend(ext + fresh, forbidden | set(fresh))
            sub.pop()

    yield from extend(sorted(nbrs[v]), {v} | nbrs[v])


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

    Classification here works on plain adjacency sets rather than going
    through :func:`classify_undirected`, purely for speed; the two paths are
    cross-checked in the test suite.
    """
    check_guard(g, v, guard, sizes)
    nbrs = _NeighbourSets(g)
    succ: dict[int, set[int]] = {}

    def outs(u: int) -> set[int]:
        s = succ.get(u)
        if s is None:
            lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
            labs = g.labels[lo:hi]
            s = {int(x) for x, c in zip(g.indices[lo:hi], labs) if c != IN_CODE}
            succ[u] = s
        return s

    def code(a: int, b: int) -> int:
        fwd = b in outs(a)
        rev = a in outs(b)
        return 3 if fwd and rev else (1 if fwd else 2)

    und = {i: 0 for i in range(15)}
    und[0] = g.degree(v)
    dir3 = {i: 0 for i in range(1, 31)} if g.directed else None

    if 3 in sizes:
        for members in _cises(nbrs, v, 3):
            x, y = (m for m in members if m != v)
            vx = x in nbrs[v]
            vy = y in nbrs[v]
            xy = y in nbrs[x]
            edges = vx + vy + xy
            if edges == 3:
                und[3] += 1
                if dir3 is not None:
                    key = _triangle_canonical(code(v, x), code(v, y), code(x, y))
                    dir3[TRIANGLE_RANK[key]] += 1
            elif vx and vy:
                und[2] += 1
                if dir3 is not None:
                    a, b = code(v, x), code(v, y)
                    dir3[CENTER_RANK[(a, b) if a <= b else (b, a)]] += 1
            else:
                und[1] += 1
                if dir3 is not None:
                    mid, far = (x, y) if vx else (y, x)
                    dir3[END_RANK[(code(v, mid), code(mid, far))]] += 1

    if 4 in sizes:
        for members in _cises(nbrs, v, 4):
            a, b, c = (m for m in members if m != v)
            nb_v, nb_a, nb_b = nbrs[v], nbrs[a], nbrs[b]
            va = a in nb_v
            vb = b in nb_v
            vc = c in nb_v
            ab = b in nb_a
            ac = c in nb_a
            bc = c in nb_b
            m = va + vb + vc + ab + ac + bc
            dv = va + vb + vc
            if m == 3:
                dmax = max(dv, va + ab + ac, vb + ab + bc, vc + ac + bc)
                und[(7 if dv == 3 else 6) if dmax == 3 else (5 if dv == 2 else 4)] += 1
            elif m == 4:
                dmax = max(dv, va + ab + ac, vb + ab + bc, vc + ac + bc)
                und[8 if dmax == 2 else {1: 9, 2: 10, 3: 11}[dv]] += 1
            elif m == 5:
                und[12 if dv == 2 else 13] += 1
            else:
                und[14] += 1

    return OrbitCounts(node=v, undirected=und, directed3=dir3)


def verify_identities(counts: OrbitCounts, stats: NodeStats) -> IdentityReport:
    """Residuals of the three exact identities; all must be zero."""
    c = counts.undirected
    wedge = sum(w * c[i] for i, w in WEDGE_IDENTITY.items()) - stats.wedges
    walk = sum(w * c[i] for i, w in WALK_IDENTITY.items()) - stats.three_walks
    triple = sum(w * c[i] for i, w in TRIPLE_IDENTITY.items()) - stats.triples
    return IdentityReport(
        wedge_residual=wedge,
        walk_residual=walk,
        triple_residual=triple,
        ok=(wedge == 0 and walk == 0 and triple == 0),
    )


def directed_partition_consistent(counts: OrbitCounts) -> bool:
    """Directed orbit counts must sum per class to the undirected counts."""
    if counts.directed3 is None:
        raise ValueError("no directed counts present")
    sums = {1: 0, 2: 0, 3: 0}
    for i, n in counts.directed3.items():
        sums[UNORBIT[i]] += n
    return all(sums[j] == counts.undirected[j] for j in (1, 2, 3))
