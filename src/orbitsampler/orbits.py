"""Orbit classification for 2-4 node connected induced subgraphs.

Undirected orbits use the standard 15-orbit numbering for the nine
2-4 node graphlets (0 = plain edge, 14 = 4-clique).  Directed 3-node
subgraphs map to 30 orbits split into three classes by the shape of the
underlying undirected subgraph relative to the anchor:

* path end   (undirected orbit 1): 9 orbits  {2, 4, 5, 7, 9, 10, 12, 13, 15}
* path centre(undirected orbit 2): 6 orbits  {1, 3, 6, 8, 11, 14}
* triangle   (undirected orbit 3): 15 orbits {16, ..., 30}

Within each class the orbit id is assigned by the lexicographic rank of the
canonical direction-code tuple (codes 1 = outgoing, 2 = incoming,
3 = mutual, always read from the anchor side first):

* end: ordered pair (code(anchor, mid), code(mid, far));
* centre: the sorted pair of the anchor's two codes;
* triangle: triple (code(anchor,u), code(anchor,w), code(u,w)) reduced
  under the swap of u and w, which exchanges the first two codes and
  reverses the third.

The assignment is deterministic and, summed per class, consistent with the
undirected orbit of the same subgraph.  ``orbit_table`` prints the full map.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .graph import MUTUAL, Graph, GraphError

UNDIRECTED_ORBITS = tuple(range(15))
DIRECTED_ORBITS = tuple(range(1, 31))

END_IDS = (2, 4, 5, 7, 9, 10, 12, 13, 15)
CENTER_IDS = (1, 3, 6, 8, 11, 14)
TRIANGLE_IDS = tuple(range(16, 31))

UNORBIT = {i: 1 for i in END_IDS}
UNORBIT.update({i: 2 for i in CENTER_IDS})
UNORBIT.update({i: 3 for i in TRIANGLE_IDS})

# Walk identity: three_walks = sum(c * d_i) over these (orbit, c) pairs.
# The oracle checks it on exact counts; the undirected estimator solves it
# for orbit 4.
WALK_IDENTITY = {3: 2, 4: 1, 8: 2, 9: 2, 10: 1, 12: 4, 13: 2, 14: 6}


class NotACisError(ValueError):
    """Raised when a member set is not connected and induced around the anchor."""


def unorbit(orbit_id: int) -> int:
    """Undirected orbit obtained by discarding edge directions."""
    try:
        return UNORBIT[orbit_id]
    except KeyError:
        raise ValueError(f"directed orbit id out of range: {orbit_id}") from None


def _reverse(code: int) -> int:
    return code if code == MUTUAL else 3 - code


def _triangle_canonical(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Canonical form of a triangle code triple under the non-anchor swap."""
    return min((a, b, c), (b, a, _reverse(c)))


def _build_rank_tables():
    end = {pair: END_IDS[i] for i, pair in enumerate(product((1, 2, 3), repeat=2))}
    center_keys = sorted({tuple(sorted(p)) for p in product((1, 2, 3), repeat=2)})
    center = {key: CENTER_IDS[i] for i, key in enumerate(center_keys)}
    tri_keys = sorted({_triangle_canonical(*t) for t in product((1, 2, 3), repeat=3)})
    assert len(tri_keys) == 15
    tri = {key: TRIANGLE_IDS[i] for i, key in enumerate(tri_keys)}
    return end, center, tri

END_RANK, CENTER_RANK, TRIANGLE_RANK = _build_rank_tables()

# Dense lookup arrays (codes are 1-based; index 0 unused).
_END_LUT = np.zeros((4, 4), dtype=np.int64)
for (a, b), oid in END_RANK.items():
    _END_LUT[a, b] = oid
_CENTER_LUT = np.zeros((4, 4), dtype=np.int64)
for (a, b), oid in CENTER_RANK.items():
    _CENTER_LUT[a, b] = oid
    _CENTER_LUT[b, a] = oid
_TRI_LUT = np.zeros((4, 4, 4), dtype=np.int64)
for a, b, c in product((1, 2, 3), repeat=3):
    _TRI_LUT[a, b, c] = TRIANGLE_RANK[_triangle_canonical(a, b, c)]


def classify_undirected(g: Graph, anchor: int, members: Iterable[int]) -> int:
    """Orbit of ``anchor`` inside the induced subgraph on ``members``.

    ``members`` must contain the anchor and induce a connected subgraph of
    2 to 4 nodes; otherwise :class:`NotACisError` is raised.
    """
    nodes = sorted(set(int(x) for x in members))
    if anchor not in nodes:
        raise NotACisError(f"anchor {anchor} not among members {nodes}")
    k = len(nodes)
    if k < 2 or k > 4:
        raise NotACisError(f"member sets must have 2-4 nodes, got {k}")
    adj = {
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if g.has_edge(a, b)
    }
    deg = {x: 0 for x in nodes}
    for a, b in adj:
        deg[a] += 1
        deg[b] += 1
    if not _connected(nodes, adj):
        raise NotACisError(f"members {nodes} are not connected")
    m = len(adj)
    if k == 2:
        return 0
    if k == 3:
        if m == 3:
            return 3
        return 2 if deg[anchor] == 2 else 1
    da = deg[anchor]
    dmax = max(deg.values())
    if m == 3:
        if dmax == 3:  # star
            return 7 if da == 3 else 6
        return 5 if da == 2 else 4  # path
    if m == 4:
        if dmax == 2:  # cycle
            return 8
        return {1: 9, 2: 10, 3: 11}[da]  # pendant / triangle rim / hub
    if m == 5:
        return 12 if da == 2 else 13
    return 14


def _connected(nodes: Sequence[int], adj: set[tuple[int, int]]) -> bool:
    remaining = set(nodes[1:])
    frontier = [nodes[0]]
    while frontier and remaining:
        x = frontier.pop()
        hit = [y for y in remaining if (min(x, y), max(x, y)) in adj]
        for y in hit:
            remaining.discard(y)
        frontier.extend(hit)
    return not remaining


def classify_directed3(g: Graph, anchor: int, members: Iterable[int]) -> int:
    """Directed orbit (1..30) of ``anchor`` in a 3-node member set."""
    if not g.directed:
        raise GraphError("directed classification requires direction labels")
    nodes = sorted(set(int(x) for x in members))
    if len(nodes) != 3:
        raise NotACisError(f"directed classification needs 3 nodes, got {nodes}")
    shape = classify_undirected(g, anchor, nodes)
    u, w = [x for x in nodes if x != anchor]
    if shape == 3:
        a = g.direction_code(anchor, u)
        b = g.direction_code(anchor, w)
        c = g.direction_code(u, w)
        return TRIANGLE_RANK[_triangle_canonical(a, b, c)]
    if shape == 2:
        a = g.direction_code(anchor, u)
        b = g.direction_code(anchor, w)
        return CENTER_RANK[tuple(sorted((a, b)))]
    mid, far = (u, w) if g.has_edge(anchor, u) else (w, u)
    return END_RANK[(g.direction_code(anchor, mid), g.direction_code(mid, far))]


# -- vectorized classification for sampler batches ---------------------------


def classify_wedge_batch(
    g: Graph, v: int, u: np.ndarray, w: np.ndarray, directed: bool
) -> np.ndarray:
    """Orbits for draws of the form (v; u, w) with u, w both neighbours of v."""
    tri = g.has_edges(u, w)
    if not directed:
        return np.where(tri, 3, 2)
    vv = np.full(len(u), v, dtype=np.int64)
    a = g.direction_codes(vv, u).astype(np.int64)
    b = g.direction_codes(vv, w).astype(np.int64)
    out = _CENTER_LUT[a, b]
    if tri.any():
        c = g.direction_codes(u[tri], w[tri]).astype(np.int64)
        out[tri] = _TRI_LUT[a[tri], b[tri], c]
    return out


def classify_chain_batch(
    g: Graph, v: int, u: np.ndarray, w: np.ndarray, directed: bool
) -> np.ndarray:
    """Orbits for draws of the form v - u - w with w drawn around u."""
    tri = g.has_edges(np.full(len(u), v, dtype=np.int64), w)
    if not directed:
        return np.where(tri, 3, 1)
    vv = np.full(len(u), v, dtype=np.int64)
    a = g.direction_codes(vv, u).astype(np.int64)
    out = _END_LUT[a, g.direction_codes(u, w).astype(np.int64)]
    if tri.any():
        b = g.direction_codes(vv[tri], w[tri]).astype(np.int64)
        c = g.direction_codes(u[tri], w[tri]).astype(np.int64)
        out[tri] = _TRI_LUT[a[tri], b, c]
    return out


# For each 4-node sampling route: the member pairs whose presence is already
# implied by construction, and the three pairs that must be queried.
_QUAD_KNOWN = {
    "R41": (("v", "u"), ("v", "w"), ("u", "r")),
    "R42": (("v", "u"), ("u", "w"), ("u", "r")),
    "R43": (("v", "u"), ("u", "w"), ("w", "r")),
    "R44": (("v", "u"), ("v", "w"), ("v", "r")),
}
_QUAD_UNKNOWN = {
    "R41": (("v", "r"), ("u", "w"), ("w", "r")),
    "R42": (("v", "w"), ("v", "r"), ("w", "r")),
    "R43": (("v", "w"), ("v", "r"), ("u", "r")),
    "R44": (("u", "w"), ("u", "r"), ("w", "r")),
}


@lru_cache(maxsize=None)
def _quad_lut(method: str) -> np.ndarray:
    """Orbit of v for each combination of the three unqueried pairs."""
    lut = np.zeros(8, dtype=np.int64)
    names = {"v": 0, "u": 1, "w": 2, "r": 3}
    base = [(names[a], names[b]) for a, b in _QUAD_KNOWN[method]]
    extra = [(names[a], names[b]) for a, b in _QUAD_UNKNOWN[method]]
    for bits in range(8):
        edges = list(base) + [
            e for i, e in enumerate(extra) if bits >> (2 - i) & 1
        ]
        tiny = Graph.from_edges(edges, node_count=4)
        lut[bits] = classify_undirected(tiny, 0, (0, 1, 2, 3))
    return lut


def classify_quad_batch(
    g: Graph, method: str, v: int, u: np.ndarray, w: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Undirected orbits for 4-node draws of one sampling route.

    Degenerate draws (three distinct members) classify as triangles, which
    is what the coincidence w == r (route R41) or r == v (route R43) always
    induces.
    """
    cols = {"v": np.full(len(u), v, dtype=np.int64), "u": u, "w": w, "r": r}
    bits = np.zeros(len(u), dtype=np.int64)
    for a, b in _QUAD_UNKNOWN[method]:
        bits = (bits << 1) | g.has_edges(cols[a], cols[b])
    out = _quad_lut(method)[bits]
    if method == "R41":
        out[w == r] = 3
    elif method == "R43":
        out[r == v] = 3
    return out


def orbit_table() -> list[dict]:
    """Rows describing every directed orbit: id, class, codes, undirected orbit."""
    rows = []
    by_id: dict[int, tuple[str, tuple[int, ...]]] = {}
    for pair, oid in END_RANK.items():
        by_id[oid] = ("path-end", pair)
    for pair, oid in CENTER_RANK.items():
        by_id[oid] = ("path-center", pair)
    for tri, oid in TRIANGLE_RANK.items():
        by_id[oid] = ("triangle", tri)
    for oid in DIRECTED_ORBITS:
        cls, codes = by_id[oid]
        rows.append(
            {
                "orbit": oid,
                "class": cls,
                "codes": codes,
                "unorbit": UNORBIT[oid],
            }
        )
    return rows
