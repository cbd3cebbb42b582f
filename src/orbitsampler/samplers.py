"""Sampling routes: draws of 3- and 4-node connected induced subgraphs
around an anchor node ``v``, and their batch classification.

Each route is one row of :data:`ROUTES`.  It draws uniformly from the
selections that its normalizer (a ``NodeStats`` field) counts, so it hits
every subgraph at orbit i with the exact probability c_i / normalizer, where
c_i is that normalizer's row of :data:`orbitsampler.orbits.IDENTITIES` (see
:func:`bias_vector`).  That makes the tallies invertible into unbiased
orbit-degree estimates.

=======  ============================================================
R31      u, w: two distinct uniform neighbours of v
R32      u: neighbour weighted by (d_u - 1); w: uniform in N(u) - {v}
R41      u as in R32; w: uniform in N(v) - {u}; r: uniform in N(u) - {v}
R42      u: neighbour weighted by (d_u-1)(d_u-2)/2; w, r: distinct
         uniform in N(u) - {v}
R43      u: neighbour weighted by (two_paths_u - d_v + 1); w: in
         N(u) - {v} weighted by (d_w - 1); r: uniform in N(w) - {u}
=======  ============================================================

R41 and R43 may produce a coincidence (w == r, resp. r == v); the draw then
degenerates to a 3-node triangle and is kept as such --- resampling would
bias the estimates.

A route can draw at a node exactly where its normalizer is positive
(:func:`route_defined`): ``wedges > 0`` means degree >= 2.

:data:`MODES`, beside the routes it names, is the one mode table: per mode,
the routes it draws (in budget-split order), the orbit ids it reports and,
per tally index, the orbit whose bias applies (their count is the tally
length); :func:`check_mode` refuses a mode that a graph cannot run.

:func:`draw_batch` draws ``k`` subgraphs of one route at once with vectorized
arithmetic and consumes a ``numpy.random.Generator``, so identical seeds give
identical draw sequences.  The ``classify_*_batch`` functions label draws
with the anchor's orbit, :func:`classify_batch` by route; :func:`tally_orbits`
draws, labels and counts, and :func:`selections` lists what R32, R41 and
R42 can draw, each once, for :mod:`orbitsampler.oracle`.

Every step around the anchor reads the estimate's
:class:`~orbitsampler.graph.AnchorContext`.  The route check reads its
``stats``, from which the weighted first steps build their cumulative
arrays.  R43 draws u and w in one pick over the entries of the anchor's
neighbour lists: entry w of the list of u weighs d_w - 1, v's entries weigh
0, and u is the list that holds the picked entry.  Each weighted pick draws
one batch of integers in ``1..total`` and answers it through a guide table
over the cumulative array: equal buckets of the value range, each with the
answers at its two ends, so a draw whose bucket holds one answer is a
gather and only the others are searched, in one ``np.searchsorted``.  The
answers are those of a search of every draw.  R32, R41 and R42 keep the
index ``iu`` of the neighbour they drew, so the position of v in the list
of u is the gather ``back[iu]``.  R43 skips by value instead: it zeroes
the weight of every entry equal to v, and its step from w moves each draw
at or past u one entry on (the lists are sorted).  The classifiers test
pairs (v, x) by gathering the context's code array (nonzero = edge, and
the direction code of (v, x) when directed).

:func:`draw_batch` returns a route's member columns after the anchor
(``Route.size`` of them), then the positions its classifier reads: R31 and
R41 the positions in N(v) of u and w (``Route.local``), R32 the adjacency
index of its second step, whose direction code is ``g.labels`` there.  A
pair of two such members is answered by the context from their positions
alone (``ctx.pair_codes(iu, iw)``: 0 for a non-edge, else the direction
code of (u, w) as seen from u; it states when it builds its d x d code
matrix and when it searches the edge keys instead).  The other pairs
without the anchor (R41's and R42's (w, r), R43's (u, r)) always search
the edge keys.  The batch functions take the context in place of the
anchor's id, and :func:`tally_orbits` hands its caller's context to both
the draws and the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import AnchorContext, Graph, GraphError, NodeStats
from .orbits import DIR3, IDENTITIES, ORBIT3, ORBIT4, PAIRS, UNORBIT


class CannotSampleError(ValueError):
    """The route's selection set is empty (its normalizer is zero)."""


# -- vectorized batch draws --------------------------------------------------


def _skip_one(idx: np.ndarray, pos: np.ndarray | int) -> np.ndarray:
    return idx + (idx >= pos)


def _skip_two(idx: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    e1 = np.minimum(p1, p2)
    e2 = np.maximum(p1, p2)
    idx = idx + (idx >= e1)
    return idx + (idx >= e2)


_GUIDE_PER_CANDIDATE = 16  # guide buckets per candidate, at most one per draw


def _weighted_pick(acc: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` positions drawn in proportion to the weights whose cumulative
    sums are ``acc``, from one ``rng.integers(1, total + 1, size=k)`` call.

    The answers are ``np.searchsorted(acc, rnd, side="left")`` of those
    draws ``rnd``, found without a binary search of every draw over ``acc``.
    A guide table (Chen & Asau 1974; Devroye 1986, III.2.4) splits
    ``1..total`` into equal buckets, at most one per draw, and finds the
    answers at every bucket's bottom and top by two sorted searches.  A
    draw whose bucket holds one answer is a gather; one ``searchsorted``
    answers the others.
    """
    total = int(acc[-1]) if len(acc) else 0
    if total <= 0:
        raise CannotSampleError("all candidate weights are zero")
    rnd = rng.integers(1, total + 1, size=k)
    width = -(-total // max(1, min(_GUIDE_PER_CANDIDATE * len(acc), k)))
    # Bucket b holds the values edge[b] + 1 ..= edge[b + 1]; every edge but
    # the last (total) is below total, so none passes int64.  The answer at
    # edge[b] + 1 is the count of acc <= edge[b].
    edge = np.append(np.arange(0, total, width), total)
    first = np.searchsorted(acc, edge[:-1], side="right")
    last = np.searchsorted(acc, edge[1:], side="left")
    b = (rnd - 1) // width
    lo = first[b]
    open_ = np.flatnonzero((first < last)[b])
    lo[open_] = np.searchsorted(acc, rnd[open_], side="left")
    return lo


def _second_step(
    g: Graph, u: np.ndarray, pos_v: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Adjacency index of a uniform element of N(u) but the entry at
    ``pos_v`` per draw; every d_u is >= 2 here."""
    return g.indptr[u] + _skip_one(rng.integers(0, g.degrees[u] - 1), pos_v)


def _batch_r31(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    d = len(ctx.nb)
    iu = rng.integers(0, d, size=k)
    iw = _skip_one(rng.integers(0, d - 1, size=k), iu)
    return ctx.nb[iu], ctx.nb[iw], iu, iw


def _batch_r32(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu = _weighted_pick(g.acc_degree(ctx.stats), k, rng)
    u = ctx.nb[iu]
    at = _second_step(g, u, ctx.back[iu], rng)
    return u, g.indices[at], at


def _batch_r41(g: Graph, ctx: AnchorContext, k: int, rng: np.random.Generator):
    iu = _weighted_pick(g.acc_degree(ctx.stats), k, rng)
    u = ctx.nb[iu]
    iw = _skip_one(rng.integers(0, len(ctx.nb) - 1, size=k), iu)
    r = g.indices[_second_step(g, u, ctx.back[iu], rng)]
    return u, ctx.nb[iw], r, iu, iw


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
    # The first two steps are one pick over the entries of the anchor's
    # neighbour lists: entry w of the list of u weighs d_w - 1, and v's
    # entries weigh 0.  A list's weights sum to u's walk weight, so (u, w)
    # comes with probability (d_w - 1) / three_walks, as in two steps.
    at, ends = g.list_entries(ctx.nb)
    cand = g.indices[at]
    weight = g.degrees[cand] - 1
    weight[cand == ctx.v] = 0
    acc = g._acc("walk", ctx.stats, weight, ctx.stats.three_walks)
    pick = _weighted_pick(acc, k, rng)
    u = ctx.nb[np.searchsorted(ends, pick, side="right")]
    w = cand[pick]
    # r: uniform in N(w) - {u}; the list is sorted, so skipping u's entry
    # is skipping every draw at or past it, found by value
    at = g.indptr[w] + rng.integers(0, g.degrees[w] - 1)
    at += g.indices[at] >= u
    return u, w, g.indices[at]


@dataclass(frozen=True)
class Route:
    """What one sampling route draws, and what its draws are."""

    normalizer: str  # the NodeStats field counting its selections
    # (g, ctx, k, rng) -> the member columns after the anchor, then the
    # positions its classifier reads
    draw: Callable
    # 4-node routes, members named "vuwr": the pairs that are edges by
    # construction, and the two members whose coincidence is a triangle
    known: tuple[str, ...] = ()
    triangle: str = ""
    # the members drawn by position in N(v), whose positions follow the
    # member columns in this order
    local: str = ""

    @property
    def size(self) -> int:
        """The number of member columns: the members after the anchor."""
        return 2 if max(IDENTITIES[self.normalizer]) == 3 else 3


ROUTES = {
    "R31": Route("wedges", _batch_r31, local="uw"),
    "R32": Route("two_paths", _batch_r32),
    "R41": Route("forked_paths", _batch_r41, ("vu", "vw", "ur"), "wr", "uw"),
    "R42": Route("tail_wedges", _batch_r42, ("vu", "uw", "ur")),
    "R43": Route("three_walks", _batch_r43, ("vu", "uw", "wr"), "vr"),
}
METHOD_ORDER = tuple(ROUTES)


@dataclass(frozen=True)
class Mode:
    """What one estimation mode draws and reports."""

    routes: tuple[str, ...]  # in pipeline (and budget split) order
    orbits: tuple[int, ...]  # the orbit ids a report carries
    shape: tuple[int, ...]  # per tally index, the orbit whose bias applies


MODES = {
    "undirected": Mode(("R32", "R41", "R42"), tuple(range(15)), tuple(range(15))),
    "directed3": Mode(
        ("R31", "R32"),
        tuple(range(1, 31)),
        (0,) + tuple(UNORBIT[i] for i in range(1, 31)),
    ),
}


def check_mode(g: Graph, mode: str) -> None:
    """Refuse a mode ``g`` cannot run: ValueError for an unknown mode,
    GraphError for directed3 on a graph without direction labels."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "directed3" and not g.directed:
        raise GraphError("mode directed3 needs a directed graph (--directed)")


def route_defined(method: str, stats: NodeStats) -> bool:
    """Whether the route can draw at the node: its normalizer is > 0."""
    return getattr(stats, ROUTES[method].normalizer) > 0


def _require_route(method: str, stats: NodeStats) -> None:
    if not route_defined(method, stats):
        field = ROUTES[method].normalizer
        raise CannotSampleError(
            f"{method} cannot draw at node {stats.node} ({field} = 0)"
        )


def bias_vector(method: str, stats: NodeStats) -> dict[int, float]:
    """Per-orbit probability of one draw hitting any fixed subgraph there.

    Keyed by orbit 1 up to the top orbit of the route's identity row; those
    the route cannot reach carry an exact 0.  Raises
    :class:`CannotSampleError` when the route's normalizer vanishes.
    """
    _require_route(method, stats)
    route = ROUTES[method]
    row = IDENTITIES[route.normalizer]
    denom = getattr(stats, route.normalizer)
    return {i: row.get(i, 0) / denom for i in range(1, max(row) + 1)}


# -- batch classification ----------------------------------------------------

# DIR3 at 16a + 4b + c: one gather, cheaper than a three-array index.
_DIR3_FLAT = DIR3.ravel()


def classify_wedge_batch(
    g: Graph, ctx: AnchorContext, u: np.ndarray, w: np.ndarray,
    iu: np.ndarray, iw: np.ndarray, directed: bool,
) -> np.ndarray:
    """Orbits for draws of the form (v; u, w) with u, w both neighbours of
    v, drawn at positions ``iu``, ``iw`` of ``ctx.nb``."""
    c = ctx.pair_codes(iu, iw)
    if not directed:
        return ORBIT3[0b011 + 0b100 * (c != 0)]
    return _DIR3_FLAT[16 * ctx.code[u] + 4 * ctx.code[w] + c]


def classify_chain_batch(
    g: Graph, ctx: AnchorContext, u: np.ndarray, w: np.ndarray, at: np.ndarray,
    directed: bool,
) -> np.ndarray:
    """Orbits for draws of the form v - u - w with w drawn around u, at
    adjacency index ``at``."""
    b = ctx.code[w]
    if not directed:
        return ORBIT3[0b101 + 0b010 * (b != 0)]
    return _DIR3_FLAT[16 * ctx.code[u] + 4 * b + g.labels[at]]


# The bit of each member pair (v, u, w, r) in a 4-node edge pattern.
_QUAD_BIT = {"vuwr"[a] + "vuwr"[b]: 1 << i for i, (a, b) in enumerate(PAIRS)}


def classify_quad_batch(
    g: Graph, method: str, ctx: AnchorContext, u: np.ndarray, w: np.ndarray,
    r: np.ndarray, *local: np.ndarray,
) -> np.ndarray:
    """Undirected orbits for 4-node draws of one sampling route; ``local``
    are the positions in ``ctx.nb`` of the route's ``local`` members.

    The route's known pairs are edges by construction; the other three are
    tested.  Degenerate draws (three distinct members) classify as the
    triangle that the route's coincidence always induces.
    """
    route = ROUTES[method]
    cols = {"v": ctx.v, "u": u, "w": w, "r": r}
    pos = dict(zip(route.local, local))
    pattern = 0
    for (a, b), bit in _QUAD_BIT.items():
        if a + b in route.known:
            edge = True
        elif a == "v":
            edge = ctx.code[cols[b]] != 0
        elif a in pos and b in pos:
            edge = ctx.pair_codes(pos[a], pos[b]) != 0
        else:
            edge = g.has_edges(cols[a], cols[b])
        pattern = pattern + bit * edge
    out = ORBIT4[pattern]
    if route.triangle:
        a, b = route.triangle
        out[cols[a] == cols[b]] = 3
    return out


def classify_batch(
    g: Graph, ctx: AnchorContext, method: str, cols, directed: bool = False
) -> np.ndarray:
    """Orbits of one route's subgraphs in :func:`draw_batch`'s layout, by the
    route's classifier (looked up on this module at each call); directed
    orbits, which only 3-node routes give, when ``directed``."""
    if method == "R31":
        return classify_wedge_batch(g, ctx, *cols, directed)
    if method == "R32":
        return classify_chain_batch(g, ctx, *cols, directed)
    if directed:
        raise ValueError(f"{method} tallies are undirected only")
    return classify_quad_batch(g, method, ctx, *cols)


# -- draws and tallies ---------------------------------------------------------


def draw_batch(
    g: Graph, ctx: AnchorContext, method: str, k: int, rng: np.random.Generator
):
    """Draw ``k`` subgraphs at once around the context's anchor; returns the
    route's member columns after the anchor (``ROUTES[method].size`` of
    them), then the positions its classifier reads."""
    _require_route(method, ctx.stats)
    return ROUTES[method].draw(g, ctx, k, rng)


def tally_orbits(
    g: Graph, ctx: AnchorContext, method: str, k: int, rng: np.random.Generator,
    directed: bool = False,
) -> np.ndarray:
    """Histogram of anchor orbits over ``k`` draws of one route.

    A tally has one bin per tally index of its mode's ``shape``: 15 when
    undirected (index = orbit id), 31 when ``directed``, which only the
    3-node routes allow.  Draws and classification share the anchor
    context ``ctx``.
    """
    cols = draw_batch(g, ctx, method, k, rng)
    orbits = classify_batch(g, ctx, method, cols, directed)
    mode = MODES["directed3" if directed else "undirected"]
    return np.bincount(orbits, minlength=len(mode.shape))


_SELECTION_CHUNK = 1 << 14  # rows per batch of R41's and R42's selections


def _expand(counts: np.ndarray):
    """Per chunk of rows, each row's entry i and its rank below ``counts[i]``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _SELECTION_CHUNK):
        row = np.arange(start, min(start + _SELECTION_CHUNK, total))
        e = np.searchsorted(ends, row, side="right")
        yield e, row - ends[e] + counts[e]


def selections(g: Graph, ctx: AnchorContext, methods):
    """Every selection of the routes ``methods`` (of R32, R41 and R42) once,
    as ``(method, columns)`` batches in :func:`draw_batch`'s column layout.
    All expand one gather's ``two_paths`` entries (u, y != v) of the
    anchor's neighbour lists, made only when a route is listed: R32 takes
    each entry (w = y), in one batch; R41 adds every w in N(v) - {u}
    (r = y), R42 every later entry r of u's list (w = y), in chunks of at
    most ``_SELECTION_CHUNK`` rows."""
    if not methods:
        return
    at = g.list_entries(ctx.nb)[0]
    y = g.indices[at]
    keep = y != ctx.v
    iu = np.repeat(np.arange(len(ctx.nb)), g.degrees[ctx.nb])[keep]
    y = y[keep]
    if "R32" in methods:
        yield "R32", (ctx.nb[iu], y, at[keep])
    if "R41" in methods:
        for e, j in _expand(np.full(len(y), len(ctx.nb) - 1)):
            iw = _skip_one(j, iu[e])
            yield "R41", (ctx.nb[iu[e]], ctx.nb[iw], y[e], iu[e], iw)
    if "R42" in methods:
        # the entries after y in its list: the list's end minus y's place
        later = np.cumsum(g.degrees[ctx.nb] - 1)[iu] - np.arange(len(y)) - 1
        for e, j in _expand(later):
            yield "R42", (ctx.nb[iu[e]], y[e], y[e + 1 + j])
