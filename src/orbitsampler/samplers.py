"""Randomized selection of 3- and 4-node connected induced subgraphs.

Six sampling routes draw subgraphs around an anchor node ``v``.  Each route
reaches only a subset of the anchor's orbits, but does so with a bias that is
an exact, per-subgraph constant (see :func:`bias_vector`), which is what
makes the counts invertible into unbiased orbit-degree estimates.

=======  ============================================================
R31      u, w: two distinct uniform neighbours of v
R32      u: neighbour weighted by (d_u - 1); w: uniform in N(u) - {v}
R41      u as in R32; w: uniform in N(v) - {u}; r: uniform in N(u) - {v}
R42      u: neighbour weighted by (d_u-1)(d_u-2)/2; w, r: distinct
         uniform in N(u) - {v}
R43      u: neighbour weighted by (two_paths_u - d_v + 1); w: in
         N(u) - {v} weighted by (d_w - 1); r: uniform in N(w) - {u}
R44      u, w, r: three distinct uniform neighbours of v
=======  ============================================================

R41 and R43 may produce a coincidence (w == r, resp. r == v); the draw then
degenerates to a 3-node triangle and is kept as such --- resampling would
bias the estimates.

A route can draw at a node exactly where its bias denominator is positive
(:func:`route_defined`): ``wedges > 0`` means degree >= 2 and ``triples > 0``
degree >= 3.

:func:`draw_batch` draws ``k`` subgraphs of one route at once with vectorized
arithmetic and consumes a ``numpy.random.Generator``, so identical seeds give
identical draw sequences.

Every step around the anchor reads the estimate's
:class:`~orbitsampler.graph.AnchorContext`.  The route check reads its
``stats``, from which the weighted first steps build their cumulative
arrays (R43's second step computes the statistics of each drawn u).  The
routes keep the index ``iu`` of the neighbour they drew, so the position of
v in the list of u is the gather ``back[iu]``, and the classifiers test
pairs (v, x) by gathering the context's code array.  Only pairs without the
anchor (R43's step from w back past u, and the (u, w), (u, r), (w, r)
classification tests) search the graph's edge keys.  The batch functions
take the context in place of the anchor's id; :func:`sample_members` builds
one from a node id, and :func:`tally_orbits` hands its caller's context to
both the draws and the classification.
"""

from __future__ import annotations

import numpy as np

from .graph import AnchorContext, Graph, NodeStats
from .orbits import (
    DIR3,
    ORBIT4,
    TRIPLE_IDENTITY,
    WALK_IDENTITY,
    WEDGE_IDENTITY,
    classify_chain_batch,
    classify_quad_batch,
    classify_wedge_batch,
)

METHOD_ORDER = ("R31", "R32", "R41", "R42", "R43", "R44")

# Tally length per ``directed`` flag: one bin for every orbit id the
# classification tables hold.
_TALLY_LENGTH = {False: int(ORBIT4.max()) + 1, True: int(DIR3.max()) + 1}


class CannotSampleError(ValueError):
    """The route's selection set is empty (its bias denominator is zero)."""


# -- bias probabilities ------------------------------------------------------

# R31, R43 and R44 draw uniformly from what their denominator counts, so
# their numerators are that count identity's coefficients.
_BIAS_NUMERATORS = {
    "R31": (WEDGE_IDENTITY, "wedges", 3),
    "R32": ({1: 1, 3: 2}, "two_paths", 3),
    "R41": ({3: 2, 5: 1, 8: 2, 10: 1, 11: 2, 12: 2, 13: 4, 14: 6}, "forked_paths", 14),
    "R42": ({6: 1, 9: 1, 10: 1, 12: 2, 13: 1, 14: 3}, "tail_wedges", 14),
    "R43": (WALK_IDENTITY, "three_walks", 14),
    "R44": (TRIPLE_IDENTITY, "triples", 14),
}


def route_defined(method: str, stats: NodeStats) -> bool:
    """Whether the route can draw at the node: its bias denominator is > 0."""
    return getattr(stats, _BIAS_NUMERATORS[method][1]) > 0


def _require_route(method: str, stats: NodeStats) -> None:
    if not route_defined(method, stats):
        field = _BIAS_NUMERATORS[method][1]
        raise CannotSampleError(
            f"{method} cannot draw at node {stats.node} ({field} = 0)"
        )


def bias_vector(method: str, stats: NodeStats) -> dict[int, float]:
    """Per-orbit probability of one draw hitting any fixed subgraph there.

    Orbits the route cannot reach carry an exact 0.  Raises
    :class:`CannotSampleError` when the route's denominator vanishes.
    """
    _require_route(method, stats)
    numerators, denom_field, max_orbit = _BIAS_NUMERATORS[method]
    denom = getattr(stats, denom_field)
    return {i: numerators.get(i, 0) / denom for i in range(1, max_orbit + 1)}


# -- vectorized batch draws --------------------------------------------------


def _skip_one(idx: np.ndarray, pos: np.ndarray | int) -> np.ndarray:
    return idx + (idx >= pos)


def _skip_two(idx: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    e1 = np.minimum(p1, p2)
    e2 = np.maximum(p1, p2)
    idx = idx + (idx >= e1)
    return idx + (idx >= e2)


def _weighted_pick(acc: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    total = int(acc[-1]) if len(acc) else 0
    if total <= 0:
        raise CannotSampleError("all candidate weights are zero")
    rnd = rng.integers(1, total + 1, size=k)
    return np.searchsorted(acc, rnd, side="left")


def _second_step(
    g: Graph, u: np.ndarray, pos_v: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniform element of N(u) but the entry at ``pos_v`` per draw; every d_u
    is >= 2 here."""
    j = _skip_one(rng.integers(0, g.degrees[u] - 1), pos_v)
    return g.indices[g.indptr[u] + j]


def _distinct_pair(d: int, k: int, rng: np.random.Generator):
    """Two distinct uniform positions out of ``d`` per draw."""
    iu = rng.integers(0, d, size=k)
    return iu, _skip_one(rng.integers(0, d - 1, size=k), iu)


def _batch_r31(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu, iw = _distinct_pair(len(ctx.nb), k, rng)
    return ctx.nb[iu], ctx.nb[iw]


def _batch_r32(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu = _weighted_pick(g.acc_degree(ctx.stats), k, rng)
    u = ctx.nb[iu]
    return u, _second_step(g, u, ctx.back[iu], rng)


def _batch_r41(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu = _weighted_pick(g.acc_degree(ctx.stats), k, rng)
    u = ctx.nb[iu]
    iw = _skip_one(rng.integers(0, len(ctx.nb) - 1, size=k), iu)
    r = _second_step(g, u, ctx.back[iu], rng)
    return u, ctx.nb[iw], r


def _batch_r42(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu = _weighted_pick(g.acc_wedge(ctx.stats), k, rng)
    u = ctx.nb[iu]
    pos_v = ctx.back[iu]
    du = g.degrees[u]
    jw = _skip_one(rng.integers(0, du - 1), pos_v)
    jr = _skip_two(rng.integers(0, du - 2), pos_v, jw)
    start = g.indptr[u]
    return u, g.indices[start + jw], g.indices[start + jr]


def _batch_r43(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu = _weighted_pick(g.acc_walk(ctx.stats), k, rng)
    u = ctx.nb[iu]
    w = np.empty(k, dtype=np.int64)
    # The degree-weighted step around u excludes v's block; draws are grouped
    # by distinct u (in increasing order, as nb is sorted) so each group
    # shares one cumulative array.
    for i in np.unique(iu):
        sel = np.nonzero(iu == i)[0]
        x = int(ctx.nb[i])
        acc = g.acc_degree(g.stats(x))
        pos = int(ctx.back[i])
        lo = int(acc[pos - 1]) if pos > 0 else 0
        block = int(acc[pos]) - lo
        rnd = rng.integers(1, int(acc[-1]) - block + 1, size=len(sel))
        rnd = np.where(rnd > lo, rnd + block, rnd)
        w[sel] = g.neighbors(x)[np.searchsorted(acc, rnd, side="left")]
    return u, w, _second_step(g, w, g.pos_of_many(w, u), rng)


def _batch_r44(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    d = len(ctx.nb)
    iu, iw = _distinct_pair(d, k, rng)
    ir = _skip_two(rng.integers(0, d - 2, size=k), iu, iw)
    return ctx.nb[iu], ctx.nb[iw], ctx.nb[ir]


_BATCHERS = {
    "R31": _batch_r31,
    "R32": _batch_r32,
    "R41": _batch_r41,
    "R42": _batch_r42,
    "R43": _batch_r43,
    "R44": _batch_r44,
}


def draw_batch(
    g: Graph, ctx: AnchorContext, method: str, k: int, rng: np.random.Generator
):
    """Draw ``k`` subgraphs at once around the context's anchor; returns the
    member columns after the anchor."""
    _require_route(method, ctx.stats)
    return _BATCHERS[method](g, ctx, k, rng)


def sample_members(
    g: Graph, v: int, method: str, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Member matrix of ``k`` draws: column 0 is the anchor.

    Degenerate draws repeat a member; callers that need sets should
    deduplicate per row.
    """
    cols = draw_batch(g, AnchorContext(g, v), method, k, rng)
    out = np.empty((k, 1 + len(cols)), dtype=np.int64)
    out[:, 0] = v
    for i, c in enumerate(cols):
        out[:, 1 + i] = c
    return out


def tally_orbits(
    g: Graph, ctx: AnchorContext, method: str, k: int, rng: np.random.Generator,
    directed: bool = False,
) -> np.ndarray:
    """Histogram of anchor orbits over ``k`` draws of one route.

    Undirected tallies have length 15 (index = orbit id); directed tallies
    have length 31 and are only defined for the 3-node routes.  Draws and
    classification share the anchor context ``ctx``.
    """
    cols = draw_batch(g, ctx, method, k, rng)
    if method == "R31":
        orbits = classify_wedge_batch(g, ctx, cols[0], cols[1], directed)
    elif method == "R32":
        orbits = classify_chain_batch(g, ctx, cols[0], cols[1], directed)
    else:
        if directed:
            raise ValueError(f"{method} tallies are undirected only")
        orbits = classify_quad_batch(g, method, ctx, *cols)
    return np.bincount(orbits, minlength=_TALLY_LENGTH[directed])
