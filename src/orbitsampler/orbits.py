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

Every classifier, scalar or batch, and the oracle index the same tables.
A member tuple lists the anchor first; its edge *pattern* has bit ``i`` set
when the pair ``PAIRS[i]`` is an edge.  The 3-node pairs come first, so a
3-node pattern is the low three bits of a 4-node one.

=======  ==============================================================
ORBIT3   anchor's undirected orbit per 3-node pattern (-1: disconnected)
ORBIT4   the same per 4-node pattern
DIR3     ``DIR3[a, b, c]``: directed orbit for the codes of (v, x),
         (v, y) and (x, y), with 0 for no edge (-1: disconnected)
=======  ==============================================================
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

import numpy as np

from .graph import MUTUAL, AnchorContext, Graph, GraphError

END_IDS = (2, 4, 5, 7, 9, 10, 12, 13, 15)
CENTER_IDS = (1, 3, 6, 8, 11, 14)
TRIANGLE_IDS = tuple(range(16, 31))

# Count identities: a normalizer equals sum(c * d_i) over (orbit, c) pairs.
# The oracle checks them on exact counts; the undirected estimator solves
# them for orbits 2, 4 and 7, which its routes R32, R41 and R42 never reach.
WEDGE_IDENTITY = {2: 1, 3: 1}  # wedges
WALK_IDENTITY = {3: 2, 4: 1, 8: 2, 9: 2, 10: 1, 12: 4, 13: 2, 14: 6}  # three_walks
TRIPLE_IDENTITY = {7: 1, 11: 1, 13: 1, 14: 1}  # triples

# Member pairs by position, anchor at 0, ordered by their larger position.
PAIRS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


class NotACisError(ValueError):
    """Raised when a member set is not connected and induced around the anchor."""


def unorbit(orbit_id: int) -> int:
    """Undirected orbit obtained by discarding edge directions."""
    try:
        return UNORBIT[orbit_id]
    except KeyError:
        raise ValueError(f"directed orbit id out of range: {orbit_id}") from None


def _anchor_orbit(k: int, pattern: int) -> int:
    """Orbit of member 0 in the ``k``-node edge pattern, -1 if disconnected."""
    edges = [p for i, p in enumerate(PAIRS[: k * (k - 1) // 2]) if pattern >> i & 1]
    reach = {0}
    for _ in range(k):
        reach |= {x for e in edges if reach.intersection(e) for x in e}
    if len(reach) < k:
        return -1
    deg = [sum(x in e for e in edges) for x in range(k)]
    m, da = len(edges), deg[0]
    if k == 2:
        return 0
    if k == 3:
        if m == 3:
            return 3
        return 2 if da == 2 else 1
    if m == 3:
        if max(deg) == 3:  # star
            return 7 if da == 3 else 6
        return 5 if da == 2 else 4  # path
    if m == 4:
        if max(deg) == 2:  # cycle
            return 8
        return {1: 9, 2: 10, 3: 11}[da]  # pendant / triangle rim / hub
    if m == 5:
        return 12 if da == 2 else 13
    return 14


_ORBITS = {
    k: np.array([_anchor_orbit(k, p) for p in range(1 << k * (k - 1) // 2)])
    for k in (2, 3, 4)
}
ORBIT3, ORBIT4 = _ORBITS[3], _ORBITS[4]


def _reverse(code: int) -> int:
    return code if code == MUTUAL else 3 - code


def _connected_triples() -> list[tuple[tuple[int, int, int], int, tuple[int, ...]]]:
    """Each connected code triple with its undirected orbit and canonical
    code tuple (see the module docstring)."""
    out = []
    for a, b, c in product(range(4), repeat=3):
        shape = int(ORBIT3[(a > 0) | (b > 0) << 1 | (c > 0) << 2])
        if shape == 1:
            key = (a, c) if a else (b, _reverse(c))
        elif shape == 2:
            key = (min(a, b), max(a, b))
        elif shape == 3:
            key = min((a, b, c), (b, a, _reverse(c)))
        else:
            continue
        out.append(((a, b, c), shape, key))
    return out


_TRIPLES = _connected_triples()


def orbit_table() -> list[dict]:
    """Rows describing every directed orbit: id, class, codes, undirected orbit."""
    rows = []
    classes = ("path-end", END_IDS), ("path-center", CENTER_IDS), ("triangle", TRIANGLE_IDS)
    for shape, (name, ids) in enumerate(classes, start=1):
        keys = sorted({key for _, s, key in _TRIPLES if s == shape})
        rows += [
            {"orbit": oid, "class": name, "codes": key, "unorbit": shape}
            for oid, key in zip(ids, keys, strict=True)
        ]
    return sorted(rows, key=lambda row: row["orbit"])


UNORBIT = {row["orbit"]: row["unorbit"] for row in orbit_table()}


def _dir3() -> np.ndarray:
    ids = {(row["unorbit"], row["codes"]): row["orbit"] for row in orbit_table()}
    table = np.full((4, 4, 4), -1)
    for t, shape, key in _TRIPLES:
        table[t] = ids[shape, key]
    return table


DIR3 = _dir3()


def _anchor_first(anchor: int, members: Iterable[int]) -> list[int]:
    nodes = sorted(set(int(x) for x in members))
    if anchor not in nodes:
        raise NotACisError(f"anchor {anchor} not among members {nodes}")
    nodes.remove(anchor)
    return [anchor, *nodes]


def classify_undirected(g: Graph, anchor: int, members: Iterable[int]) -> int:
    """Orbit of ``anchor`` inside the induced subgraph on ``members``.

    ``members`` must contain the anchor and induce a connected subgraph of
    2 to 4 nodes; otherwise :class:`NotACisError` is raised.
    """
    nodes = _anchor_first(anchor, members)
    k = len(nodes)
    if k < 2 or k > 4:
        raise NotACisError(f"member sets must have 2-4 nodes, got {k}")
    pattern = sum(
        1 << i for i, (a, b) in enumerate(PAIRS[: k * (k - 1) // 2])
        if g.has_edge(nodes[a], nodes[b])
    )
    orbit = int(_ORBITS[k][pattern])
    if orbit < 0:
        raise NotACisError(f"members {nodes} are not connected")
    return orbit


def classify_directed3(g: Graph, anchor: int, members: Iterable[int]) -> int:
    """Directed orbit (1..30) of ``anchor`` in a 3-node member set."""
    if not g.directed:
        raise GraphError("directed classification requires direction labels")
    nodes = _anchor_first(anchor, members)
    if len(nodes) != 3:
        raise NotACisError(f"directed classification needs 3 nodes, got {nodes}")
    codes = [
        g.direction_code(nodes[a], nodes[b]) if g.has_edge(nodes[a], nodes[b]) else 0
        for a, b in PAIRS[:3]
    ]
    orbit = int(DIR3[tuple(codes)])
    if orbit < 0:
        raise NotACisError(f"members {nodes} are not connected")
    return orbit


# -- vectorized classification for sampler batches ---------------------------
#
# Pairs (v, x) with the anchor v are gathered from the anchor context's code
# array (nonzero = edge, and the direction code of (v, x) when directed);
# only pairs without v search the graph's edge keys.


def classify_wedge_batch(
    g: Graph, ctx: AnchorContext, u: np.ndarray, w: np.ndarray, directed: bool
) -> np.ndarray:
    """Orbits for draws of the form (v; u, w) with u, w both neighbours of v."""
    tri = g.has_edges(u, w)
    if not directed:
        return ORBIT3[0b011 + 0b100 * tri]
    if not g.directed:
        raise GraphError("directed classification requires direction labels")
    c = np.zeros(len(u), dtype=np.int8)
    c[tri] = g.direction_codes(u[tri], w[tri])
    return DIR3[ctx.code[u], ctx.code[w], c]


def classify_chain_batch(
    g: Graph, ctx: AnchorContext, u: np.ndarray, w: np.ndarray, directed: bool
) -> np.ndarray:
    """Orbits for draws of the form v - u - w with w drawn around u."""
    b = ctx.code[w]
    if not directed:
        return ORBIT3[0b101 + 0b010 * (b != 0)]
    return DIR3[ctx.code[u], b, g.direction_codes(u, w)]


# For each 4-node sampling route, members (v, u, w, r): the pairs present by
# construction, and the three pairs that must be queried.
_QUAD_PAIRS = {
    "R41": (("vu", "vw", "ur"), ("vr", "uw", "wr")),
    "R42": (("vu", "uw", "ur"), ("vw", "vr", "wr")),
    "R43": (("vu", "uw", "wr"), ("vw", "vr", "ur")),
    "R44": (("vu", "vw", "vr"), ("uw", "ur", "wr")),
}
_QUAD_BIT = {"vuwr"[a] + "vuwr"[b]: 1 << i for i, (a, b) in enumerate(PAIRS)}


def classify_quad_batch(
    g: Graph, method: str, ctx: AnchorContext, u: np.ndarray, w: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """Undirected orbits for 4-node draws of one sampling route.

    Degenerate draws (three distinct members) classify as triangles, which
    is what the coincidence w == r (route R41) or r == v (route R43) always
    induces.
    """
    known, queried = _QUAD_PAIRS[method]
    cols = {"u": u, "w": w, "r": r}
    pattern = sum(_QUAD_BIT[p] for p in known)
    for a, b in queried:
        if a == "v":
            edge = ctx.code[cols[b]] != 0
        else:
            edge = g.has_edges(cols[a], cols[b])
        pattern = pattern + _QUAD_BIT[a + b] * edge
    out = ORBIT4[pattern]
    if method == "R41":
        out[w == r] = 3
    elif method == "R43":
        out[r == ctx.v] = 3
    return out
