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
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, NodeStats
from .orbits import (
    TRIPLE_IDENTITY,
    WALK_IDENTITY,
    WEDGE_IDENTITY,
    classify_chain_batch,
    classify_quad_batch,
    classify_wedge_batch,
)

METHOD_ORDER = ("R31", "R32", "R41", "R42", "R43", "R44")


class CannotSampleError(ValueError):
    """The route's selection set is empty at this node."""


class BiasUndefinedError(ValueError):
    """The route's bias denominator is zero at this node."""


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


def bias_vector(method: str, stats: NodeStats) -> dict[int, float]:
    """Per-orbit probability of one draw hitting any fixed subgraph there.

    Orbits the route cannot reach carry an exact 0.  Raises
    :class:`BiasUndefinedError` when the route's denominator vanishes.
    """
    numerators, denom_field, max_orbit = _BIAS_NUMERATORS[method]
    if not route_defined(method, stats):
        raise BiasUndefinedError(
            f"{method} is undefined at node {stats.node} ({denom_field} = 0)"
        )
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
    g: Graph, v: np.ndarray | int, u: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniform element of N(u) - {v} per draw; every d_u is >= 2 here."""
    du = g.degrees[u]
    pos_v = g.pos_of_many(u, v)
    j = _skip_one(rng.integers(0, du - 1), pos_v)
    return g.indices[g.indptr[u] + j]


def _distinct_pair(d: int, k: int, rng: np.random.Generator):
    """Two distinct uniform positions out of ``d`` per draw."""
    iu = rng.integers(0, d, size=k)
    return iu, _skip_one(rng.integers(0, d - 1, size=k), iu)


def _batch_r31(g: Graph, v: int, k: int, rng: np.random.Generator):
    nb = g.neighbors(v)
    iu, iw = _distinct_pair(len(nb), k, rng)
    return nb[iu], nb[iw]


def _batch_r32(g: Graph, v: int, k: int, rng: np.random.Generator):
    u = g.neighbors(v)[_weighted_pick(g.acc_degree(v), k, rng)]
    return u, _second_step(g, v, u, rng)


def _batch_r41(g: Graph, v: int, k: int, rng: np.random.Generator):
    nb = g.neighbors(v)
    iu = _weighted_pick(g.acc_degree(v), k, rng)
    u = nb[iu]
    iw = _skip_one(rng.integers(0, len(nb) - 1, size=k), iu)
    r = _second_step(g, v, u, rng)
    return u, nb[iw], r


def _batch_r42(g: Graph, v: int, k: int, rng: np.random.Generator):
    u = g.neighbors(v)[_weighted_pick(g.acc_wedge(v), k, rng)]
    du = g.degrees[u]
    pos_v = g.pos_of_many(u, v)
    jw = _skip_one(rng.integers(0, du - 1), pos_v)
    jr = _skip_two(rng.integers(0, du - 2), pos_v, jw)
    start = g.indptr[u]
    return u, g.indices[start + jw], g.indices[start + jr]


def _batch_r43(g: Graph, v: int, k: int, rng: np.random.Generator):
    u = g.neighbors(v)[_weighted_pick(g.acc_walk(v), k, rng)]
    w = np.empty(k, dtype=np.int64)
    # The degree-weighted step around u excludes v's block; draws are grouped
    # by distinct u so each group shares one cumulative array.
    for x in np.unique(u):
        sel = np.nonzero(u == x)[0]
        acc = g.acc_degree(int(x))
        pos = g.pos_of(int(x), v)
        lo = int(acc[pos - 1]) if pos > 0 else 0
        block = int(acc[pos]) - lo
        rnd = rng.integers(1, int(acc[-1]) - block + 1, size=len(sel))
        rnd = np.where(rnd > lo, rnd + block, rnd)
        w[sel] = g.neighbors(int(x))[np.searchsorted(acc, rnd, side="left")]
    return u, w, _second_step(g, u, w, rng)


def _batch_r44(g: Graph, v: int, k: int, rng: np.random.Generator):
    nb = g.neighbors(v)
    d = len(nb)
    iu, iw = _distinct_pair(d, k, rng)
    ir = _skip_two(rng.integers(0, d - 2, size=k), iu, iw)
    return nb[iu], nb[iw], nb[ir]


_BATCHERS = {
    "R31": _batch_r31,
    "R32": _batch_r32,
    "R41": _batch_r41,
    "R42": _batch_r42,
    "R43": _batch_r43,
    "R44": _batch_r44,
}


def draw_batch(g: Graph, v: int, method: str, k: int, rng: np.random.Generator):
    """Draw ``k`` subgraphs at once; returns the member columns after v."""
    if not route_defined(method, g.stats(v)):
        field = _BIAS_NUMERATORS[method][1]
        raise CannotSampleError(f"{method} cannot draw at node {v} ({field} = 0)")
    return _BATCHERS[method](g, v, k, rng)


def sample_members(
    g: Graph, v: int, method: str, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Member matrix of ``k`` draws: column 0 is the anchor.

    Degenerate draws repeat a member; callers that need sets should
    deduplicate per row.
    """
    cols = draw_batch(g, v, method, k, rng)
    out = np.empty((k, 1 + len(cols)), dtype=np.int64)
    out[:, 0] = v
    for i, c in enumerate(cols):
        out[:, 1 + i] = c
    return out


def tally_orbits(
    g: Graph, v: int, method: str, k: int, rng: np.random.Generator,
    directed: bool = False,
) -> np.ndarray:
    """Histogram of anchor orbits over ``k`` draws of one route.

    Undirected tallies have length 15 (index = orbit id); directed tallies
    have length 31 and are only defined for the 3-node routes.
    """
    cols = draw_batch(g, v, method, k, rng)
    if method == "R31":
        orbits = classify_wedge_batch(g, v, cols[0], cols[1], directed)
    elif method == "R32":
        orbits = classify_chain_batch(g, v, cols[0], cols[1], directed)
    else:
        if directed:
            raise ValueError(f"{method} tallies are undirected only")
        orbits = classify_quad_batch(g, method, v, *cols)
    return np.bincount(orbits, minlength=31 if directed else 15)
