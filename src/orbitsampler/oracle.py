"""Exact orbit degrees: 3- and 4-node subgraphs counted, none listed.

A route hits each subgraph at orbit i in exactly c_i of its selections, c_i
the orbit's coefficient in its normalizer's identity row, so the oracle
classifies every selection of R32, R41 and R42 once with the route's own
classifier and divides the hits by c_i.  Orbits none of them reaches follow
from identities: undirected 2, 4 and 7 from the rows of ``orbits.SOLVED``,
and each directed path centre from the neighbour pairs with its two codes
less the triangles with those codes at the anchor.  The module, the ground
truth for all statistical tests, also checks the count identities.  A guard
refuses anchors with too many candidate subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AnchorContext, Graph, NodeStats
from .orbits import CENTER_IDS, IDENTITIES, SOLVED, TRIANGLE_IDS, UNORBIT, orbit_table
from .samplers import MODES, ROUTES, classify_batch, route_defined, selections

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

    The 3-node term sums the selection counts of R31 and R32, which reach
    every 3-node subgraph at the node.  The 4-node term is at least
    ``forked_paths + tail_wedges``, the selections of R41 and R42, which
    reach every 4-node subgraph at the node, so it bounds their number too.
    The benchmark's independent reference picks its anchors by this same
    formula, so the two change together.
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
    if limit is not None:
        _guard(g, g.stats(v), limit, sizes)


def _guard(g: Graph, stats: NodeStats, limit: int | None, sizes: tuple[int, ...]) -> None:
    """:func:`check_guard` on statistics already computed."""
    if limit is None:
        return
    bound = candidate_bound(stats, sizes)
    if bound > limit:
        raise GuardExceededError(
            f"node {g.to_original(stats.node)} implies up to {bound} candidate"
            f" subgraphs (limit {limit})"
        )


# Per directed path centre: orbit, anchor codes (p, q), triangles with those codes.
_AT_ANCHOR = {row["orbit"]: tuple(sorted(row["codes"][:2])) for row in orbit_table()}
_CENTRES = [
    (c, *_AT_ANCHOR[c], [t for t in TRIANGLE_IDS if _AT_ANCHOR[t] == _AT_ANCHOR[c]])
    for c in CENTER_IDS
]


def _count(g: Graph, ctx: AnchorContext, routes) -> dict[str, dict[int, int]]:
    """Per mode, the counts at the tally indices that ``routes`` (of R32,
    R41 and R42) reach: the first reaching route's hits over every
    selection, divided by the coefficient of the index's shape orbit in the
    route's identity row.  On a directed graph a route that directed3
    draws is classified by direction codes."""
    coded = MODES["directed3"].routes if g.directed else ()
    modes = {m: "directed3" if m in coded else "undirected" for m in routes}
    hits = {m: np.zeros(len(MODES[modes[m]].shape), dtype=np.int64) for m in routes}
    for m, cols in selections(g, ctx, routes):
        orbits = classify_batch(g, ctx, m, cols, modes[m] == "directed3")
        hits[m] += np.bincount(orbits, minlength=len(hits[m]))
    count = {mode: {} for mode in MODES}
    for m, mode in modes.items():
        h, row = hits[m].tolist(), IDENTITIES[ROUTES[m].normalizer]
        for i, s in enumerate(MODES[mode].shape):
            if c := row.get(s, 0):
                count[mode].setdefault(i, h[i] // c)
    return count


def exact_orbit_degrees(
    g: Graph,
    v: int,
    guard: int | None = DEFAULT_GUARD,
    sizes: tuple[int, ...] = (3, 4),
) -> OrbitCounts:
    """Exact orbit-degree vector of ``v`` (orbit 0 is the plain degree).

    For directed graphs the 30-orbit directed vector is computed alongside,
    and undirected orbits 1 and 3 are its class sums.  ``sizes`` restricts
    which subgraph sizes are counted, and the guard bounds only those
    (directed orbits only need size 3, see
    :data:`orbitsampler.samplers.MODES`).  The counts are Python ints.
    ``sizes`` must hold 3, 4 or both, else ``ValueError``.
    """
    if not sizes or set(sizes) - {3, 4}:
        raise ValueError(f"sizes must hold 3, 4 or both, got {sizes!r}")
    ctx = AnchorContext(g, v)
    _guard(g, ctx.stats, guard, sizes)
    routes = [m for m in MODES["undirected"].routes if ROUTES[m].size + 1 in sizes]
    count = _count(g, ctx, [m for m in routes if route_defined(m, ctx.stats)])
    und = dict.fromkeys(range(15), 0) | count["undirected"] | {0: g.degree(v)}
    dir3 = dict.fromkeys(range(1, 31), 0) if g.directed else None
    if dir3 is not None and 3 in sizes:
        dir3 |= count["directed3"]
        n = np.bincount(ctx.code[ctx.nb], minlength=4).tolist()  # neighbours per code
        for centre, p, q, closed in _CENTRES:
            pairs = n[p] * (n[p] - 1) // 2 if p == q else n[p] * n[q]
            dir3[centre] = pairs - sum(dir3[t] for t in closed)
        und |= {j: sum(k for i, k in dir3.items() if UNORBIT[i] == j) for j in (1, 3)}
    for orbit, name, terms in SOLVED:
        und[orbit] = getattr(ctx.stats, name) - sum(a * und[i] for i, a in terms)
    # orbits of a size not counted are 0 (R41 reaches 3; 2, 4 and 7 are solved)
    und |= {i: 0 for i in range(1, 15) if (3 if i < 4 else 4) not in sizes}
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

