"""Exact orbit degrees: 3- and 4-node subgraphs counted, none listed.

3-node subgraphs containing an anchor are counted from one gather of the
anchor's neighbour lists (``two_paths + d`` entries, as ORCA counts them;
Hočevar & Demšar, Bioinformatics 2014): path ends and triangles are tallied
by the direction codes of their pairs, and path centres follow from the
number of neighbour pairs with each pair of codes.  4-node subgraphs are
counted by classifying every selection of the routes R41 and R42 once with
their own classifier.  The module, the ground truth for all statistical
tests, also checks the identities that tie orbit counts to the per-node
normalizers.  A guard refuses anchors with too many candidate subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MUTUAL, AnchorContext, Graph, NodeStats
from .orbits import DIR3, IDENTITIES, ORBIT3
from .samplers import ROUTES, classify_quad_batch, quad_selections

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
    """Raise :class:`GuardExceededError` when ``sizes`` look too costly to count."""
    if limit is None:
        return
    bound = candidate_bound(g.stats(v), sizes)
    if bound > limit:
        raise GuardExceededError(
            f"node {g.to_original(v)} implies up to {bound} candidate subgraphs"
            f" (limit {limit})"
        )


def _codes3(g: Graph, ctx: AnchorContext) -> list[int]:
    """The 3-node subgraphs containing ``v``, tallied by the direction codes
    (a, b, c) of the pairs (v, x), (v, y) and (x, y) at index 16a + 4b + c
    (0 for no edge; every edge is ``MUTUAL`` on an undirected graph).

    Every subgraph holds a neighbour x of v and a node y in x's list: a path
    end when y lies outside N[v], a triangle when y is a neighbour too (read
    from the smaller of x and y).  A path centre is a pair of neighbours
    that closes no triangle.
    """
    # One gather of the neighbours' lists: an entry (x, y) per y in the list
    # of each neighbour x, with the code c of (x, y).
    at, _ = g.list_entries(ctx.nb)
    x = np.repeat(ctx.nb, g.degrees[ctx.nb])
    y = g.indices[at]
    c = g.labels[at] if g.directed else MUTUAL
    b = ctx.code[y]
    keep = (y != ctx.v) & ((b == 0) | (x < y))
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


def _counts4(g: Graph, ctx: AnchorContext) -> dict[int, int]:
    """Undirected orbits 4-14 of ``v`` from one tally of every selection of
    R41 and R42 by :func:`~orbitsampler.samplers.classify_quad_batch`.

    A route hits each subgraph at orbit i in exactly c_i of its selections,
    c_i the orbit's coefficient in the route's identity row, so orbit i
    counts hits / c_i (R41 gives 3 too, from its coincident draws).  Orbits
    4 and 7 are solved from the ``three_walks`` and ``triples`` rows.
    """
    hits = {m: np.zeros(15, dtype=np.int64) for m in ("R41", "R42")}
    for method, cols in quad_selections(g, ctx):
        orbits = classify_quad_batch(g, method, ctx, *cols)
        hits[method] += np.bincount(orbits, minlength=15)
    count: dict[int, int] = {}
    for method, h in hits.items():
        for i, c in IDENTITIES[ROUTES[method].normalizer].items():
            count.setdefault(i, int(h[i]) // c)
    for name, i in (("three_walks", 4), ("triples", 7)):
        row = IDENTITIES[name]
        rest = sum(c * count[j] for j, c in row.items() if j != i)
        count[i] = (getattr(ctx.stats, name) - rest) // row[i]
    return {i: count[i] for i in range(4, 15)}


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
    pairs (:func:`_codes3`), 4-node ones by the selections of R41 and R42
    (:func:`_counts4`).  The counts are Python ints.  ``sizes`` must hold
    3, 4 or both, else ``ValueError``.
    """
    if not sizes or set(sizes) - {3, 4}:
        raise ValueError(f"sizes must hold 3, 4 or both, got {sizes!r}")
    check_guard(g, v, guard, sizes)
    ctx = AnchorContext(g, v)
    und = dict.fromkeys(range(15), 0) | {0: g.degree(v)}
    dir3 = {i: 0 for i in range(1, 31)} if g.directed else None

    if 3 in sizes:
        for key, n in enumerate(_codes3(g, ctx)):
            if n:
                a, b, c = key >> 4, key >> 2 & 3, key & 3
                und[int(ORBIT3[(a > 0) | (b > 0) << 1 | (c > 0) << 2])] += n
                if dir3 is not None:
                    dir3[int(DIR3[a, b, c])] += n

    if 4 in sizes:
        und.update(_counts4(g, ctx))

    return OrbitCounts(node=int(v), undirected=und, directed3=dir3)


def verify_identities(counts: OrbitCounts, stats: NodeStats) -> IdentityReport:
    """Residuals of every row of :data:`orbitsampler.orbits.IDENTITIES`;
    all must be zero."""
    c = counts.undirected
    residuals = {
        name: sum(w * c[i] for i, w in row.items()) - getattr(stats, name)
        for name, row in IDENTITIES.items()
    }
    return IdentityReport(residuals, ok=not any(residuals.values()))

