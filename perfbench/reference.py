"""Independent reference for the benchmark's checks.

Everything here is computed with numpy from the generator's distinct edge
arrays (``inputs.Truth``), never from the edge-list file and never through
``orbitsampler``: the CSR arrays and direction labels the loader must
produce, its ``LoadSummary`` counts, the per-node normalizers, the 3-node
orbit degrees (orbits 0-3) from a neighbour marker, and the directed 3-node
counts keyed by direction codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Direction codes as seen from the row node (the loader's convention).
OUT, IN, MUTUAL = 1, 2, 3

# Default enumeration guard of the program's oracle: anchors whose
# candidate-subgraph bound exceeds it are refused.
ORACLE_GUARD = 10**6

# Undirected orbit of each directed 3-node class.
CLASS_ORBIT = {"path-end": 1, "path-center": 2, "triangle": 3}

STAT_FIELDS = (
    "degree", "wedges", "two_paths", "forked_paths",
    "tail_wedges", "three_walks", "triples",
)


@dataclass
class Reference:
    directed: bool
    ids: np.ndarray          # dense id -> original id, ascending
    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray | None
    summary: dict            # expected LoadSummary fields
    degrees: np.ndarray
    two_paths_all: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def dense(self, original: int) -> int:
        return int(np.searchsorted(self.ids, original))


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def build(truth) -> Reference:
    """CSR graph, labels and load counts implied by the generator's edges."""
    ids = _distinct_sorted(np.concatenate([truth.lo, truth.hi]))
    a = np.searchsorted(ids, truth.lo)
    b = np.searchsorted(ids, truth.hi)
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    order = np.lexsort((cols, rows))
    n = len(ids)
    degrees = np.bincount(rows, minlength=n).astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = cols[order].astype(np.int64)
    labels = None
    if truth.directed:
        # Flag 1 is the arc lo->hi, 2 the arc hi->lo, 3 both: from the lower
        # endpoint the flag is the code itself, from the upper one it flips.
        f = truth.flags.astype(np.int8)
        labels = np.concatenate([f, np.where(f == MUTUAL, f, OUT + IN - f)])
        labels = labels[order].astype(np.int8)
    # Every node has an edge, so no CSR row is empty.
    two_paths_all = np.add.reduceat(degrees[indices] - 1, indptr[:-1])
    summary = {
        "lines_read": truth.lines,
        "edges_kept": len(truth.lo),
        "self_loops_dropped": truth.self_loops,
        "duplicates_merged": truth.duplicates,
    }
    return Reference(
        truth.directed, ids, indptr, indices, labels, summary, degrees,
        two_paths_all,
    )


def node_stats(ref: Reference, v: int) -> dict:
    """Exact normalizers of dense node ``v`` as Python integers."""
    d = int(ref.degrees[v])
    nb = ref.neighbors(v)
    du = ref.degrees[nb].astype(object)
    two_paths = int(sum(du - 1))
    return {
        "degree": d,
        "wedges": d * (d - 1) // 2,
        "two_paths": two_paths,
        "forked_paths": (d - 1) * two_paths,
        "tail_wedges": int(sum((du - 1) * (du - 2) // 2)),
        "three_walks": int(sum(ref.two_paths_all[nb].astype(object) - d + 1)),
        "triples": d * (d - 1) * (d - 2) // 6,
    }


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` over ``i``."""
    lens = stops - starts
    offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    return offsets + np.arange(int(lens.sum()))


def small_orbits(ref: Reference, v: int, marker: np.ndarray) -> tuple[int, int, int, int]:
    """Orbits 0-3 of ``v``: degree, path ends, path centres, triangles.

    ``marker`` is an all-False boolean scratch array of length
    ``node_count``; it is restored before returning.
    """
    nb = ref.neighbors(v)
    d = len(nb)
    marker[nb] = True
    second = ref.indices[_ranges(ref.indptr[nb], ref.indptr[nb + 1])]
    closed = int(marker[second].sum())  # every triangle edge seen from both ends
    marker[nb] = False
    triangles = closed // 2
    two_paths = int((ref.degrees[nb] - 1).sum())
    return d, two_paths - 2 * triangles, d * (d - 1) // 2 - triangles, triangles


def _reverse(code: int) -> int:
    return code if code == MUTUAL else OUT + IN - code


def directed3_by_codes(ref: Reference, v: int) -> dict[tuple[str, tuple], int]:
    """Directed 3-node subgraph counts at ``v``, keyed by (class, codes).

    Codes are read from the anchor first: a path end is
    (code(v, mid), code(mid, far)); a path centre is the sorted pair of the
    anchor's codes; a triangle is (code(v, u), code(v, w), code(u, w)),
    taking the smaller of the two readings under the swap of u and w.
    """
    lo, hi = int(ref.indptr[v]), int(ref.indptr[v + 1])
    nb = ref.indices[lo:hi]
    code_v = np.zeros(ref.node_count, dtype=np.int8)
    code_v[nb] = ref.labels[lo:hi]
    pos = _ranges(ref.indptr[nb], ref.indptr[nb + 1])
    mid = np.repeat(nb, ref.degrees[nb])
    far = ref.indices[pos]
    code_mf = ref.labels[pos]
    keep = far != v
    mid, far, code_mf = mid[keep], far[keep], code_mf[keep]
    closed = code_v[far] != 0
    counts: dict[tuple[str, tuple], int] = {}

    def add(key, n=1):
        counts[key] = counts.get(key, 0) + n

    ends = np.stack([code_v[mid[~closed]], code_mf[~closed]], axis=1)
    for (a, b), n in zip(*np.unique(ends, axis=0, return_counts=True)):
        add(("path-end", (int(a), int(b))), int(n))

    tri = closed & (mid < far)
    tri_pairs: dict[tuple[int, int], int] = {}
    for u, w, c in zip(mid[tri].tolist(), far[tri].tolist(), code_mf[tri].tolist()):
        a, b = int(code_v[u]), int(code_v[w])
        add(("triangle", min((a, b, c), (b, a, _reverse(c)))))
        key = (min(a, b), max(a, b))
        tri_pairs[key] = tri_pairs.get(key, 0) + 1

    per_code = {c: int((ref.labels[lo:hi] == c).sum()) for c in (OUT, IN, MUTUAL)}
    for a in (OUT, IN, MUTUAL):
        for b in (OUT, IN, MUTUAL):
            if a > b:
                continue
            pairs = per_code[a] * (per_code[a] - 1) // 2 if a == b else per_code[a] * per_code[b]
            add(("path-center", (a, b)), pairs - tri_pairs.get((a, b), 0))
    return {k: n for k, n in counts.items() if n}


def class_totals(by_codes: dict[tuple[str, tuple], int]) -> dict[int, int]:
    """Directed counts summed per class: undirected orbits 1, 2 and 3."""
    totals = {1: 0, 2: 0, 3: 0}
    for (cls, _), n in by_codes.items():
        totals[CLASS_ORBIT[cls]] += n
    return totals


def candidate_bounds(ref: Reference) -> np.ndarray:
    """Per-node bound on 3- and 4-node subgraphs, as the oracle guard uses."""
    d = ref.degrees
    tp = ref.two_paths_all
    starts = ref.indptr[:-1]
    nd = d[ref.indices]
    tail = np.add.reduceat((nd - 1) * (nd - 2) // 2, starts)
    walks = np.add.reduceat(tp[ref.indices], starts) - d * (d - 1)
    return (
        d * (d - 1) // 2 + tp + (d - 1) * tp + 2 * tail + walks
        + d * (d - 1) * (d - 2)
    )


def max_degree_node(ref: Reference) -> int:
    """Original id of the highest-degree node (lowest id on ties)."""
    return int(ref.ids[int(np.argmax(ref.degrees))])


def guarded_anchor(ref: Reference, guard: int = ORACLE_GUARD) -> int:
    """Original id of the highest-degree node the oracle guard admits."""
    ok = np.nonzero(candidate_bounds(ref) <= guard)[0]
    return int(ref.ids[ok[np.argmax(ref.degrees[ok])]])
