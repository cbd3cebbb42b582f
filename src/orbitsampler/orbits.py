"""What an orbit is: the orbit tables and the count identities of 2-4 node
connected induced subgraphs.

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

The batch classifiers of :mod:`orbitsampler.samplers` and the oracle index
the same tables.  A member tuple lists the anchor first; its edge *pattern*
has bit ``i`` set when the pair ``PAIRS[i]`` is an edge.  The 3-node pairs
come first, so a 3-node pattern is the low three bits of a 4-node one.

=======  ==============================================================
ORBIT3   anchor's undirected orbit per 3-node pattern (-1: disconnected)
ORBIT4   the same per 4-node pattern
DIR3     ``DIR3[a, b, c]``: directed orbit for the codes of (v, x),
         (v, y) and (x, y), with 0 for no edge (-1: disconnected)
=======  ==============================================================

``IDENTITIES``, the package's one copy of the count identities, ties the
undirected orbit degrees to the per-node normalizers.  Each row is the bias
row of the sampling route that draws uniformly from what its normalizer
counts; the oracle checks every row, and the undirected estimator and the
oracle solve the rows of ``SOLVED`` for orbits 2, 4 and 7.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .graph import MUTUAL

END_IDS = (2, 4, 5, 7, 9, 10, 12, 13, 15)
CENTER_IDS = (1, 3, 6, 8, 11, 14)
TRIANGLE_IDS = tuple(range(16, 31))

# Per normalizer (a NodeStats field), the (orbit i, c) pairs of its count
# identity: the normalizer equals sum(c * d_i).
IDENTITIES = {
    "wedges": {2: 1, 3: 1},
    "two_paths": {1: 1, 3: 2},
    "forked_paths": {3: 2, 5: 1, 8: 2, 10: 1, 11: 2, 12: 2, 13: 4, 14: 6},
    "tail_wedges": {6: 1, 9: 1, 10: 1, 12: 2, 13: 1, 14: 3},
    "three_walks": {3: 2, 4: 1, 8: 2, 9: 2, 10: 1, 12: 4, 13: 2, 14: 6},
    "triples": {7: 1, 11: 1, 13: 1, 14: 1},
}

# Per orbit that none of R32, R41 and R42 reaches: (orbit, the normalizer
# whose row is solved for it (the orbit's c is 1), the row's other terms).
SOLVED = tuple(
    (orbit, name, tuple((i, c) for i, c in IDENTITIES[name].items() if i != orbit))
    for orbit, name in ((2, "wedges"), (4, "three_walks"), (7, "triples"))
)

# Member pairs by position, anchor at 0, ordered by their larger position.
PAIRS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


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


ORBIT3, ORBIT4 = (
    np.array([_anchor_orbit(k, p) for p in range(1 << k * (k - 1) // 2)])
    for k in (3, 4)
)


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
