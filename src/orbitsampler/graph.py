"""Immutable simple graph with per-node sampling statistics.

The graph is stored in CSR form (``indptr`` / ``indices``) with sorted
neighbour lists.  For directed graphs every adjacency entry additionally
carries a direction code relative to the row node: ``OUT`` (arc from the row
node to the neighbour), ``IN`` (arc towards the row node) or ``MUTUAL``
(both arcs present).

Per-node statistics (:class:`NodeStats`) are the exact combinatorial
normalizers used by the sampling procedures, and the ``acc_*`` methods expose
the cumulative weight arrays that drive weighted neighbour selection by
binary search.  Statistics and cumulative arrays are computed lazily per node
and cached; the graph itself is immutable after construction, so instances
are safe to share across threads.
"""

from __future__ import annotations

import io
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

# Direction of an adjacency entry as seen from the row node.
OUT, IN, MUTUAL = 1, 2, 3

_MAX_NODE_ID = 2**63 - 1


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class ParseError(GraphError):
    """Raised when an edge-list line cannot be parsed."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyGraphError(GraphError):
    """Raised when a source yields no usable edges."""


class NotANeighborError(GraphError):
    """Raised when a neighbour lookup targets a non-adjacent pair."""


@dataclass(frozen=True)
class LoadSummary:
    """Bookkeeping from parsing an edge list."""

    lines_read: int
    edges_kept: int
    self_loops_dropped: int
    duplicates_merged: int


@dataclass(frozen=True)
class NodeStats:
    """Combinatorial normalizers of one node.

    Every sampling route divides by one of these counts, so they are kept as
    exact Python integers (arbitrary precision; a mismatch against the 64-bit
    cumulative arrays raises instead of wrapping).

    ==============  =====================================================
    degree          number of neighbours ``d``
    wedges          unordered neighbour pairs, ``d*(d-1)/2``
    two_paths       two-edge walks leaving the node, ``sum_u (d_u - 1)``
    forked_paths    ``(d - 1) * two_paths``
    tail_wedges     ``sum_u (d_u - 1)*(d_u - 2)/2``
    three_walks     ``sum_u (two_paths_u - d + 1)``
    triples         unordered neighbour triples, ``d*(d-1)*(d-2)/6``
    ==============  =====================================================
    """

    node: int
    degree: int
    wedges: int
    two_paths: int
    forked_paths: int
    tail_wedges: int
    three_walks: int
    triples: int


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Graph:
    """Simple undirected graph, optionally with per-edge direction labels."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        directed: bool = False,
        original_ids: np.ndarray | None = None,
        summary: LoadSummary | None = None,
    ):
        self.indptr = _freeze(np.asarray(indptr, dtype=np.int64))
        self.indices = _freeze(np.asarray(indices, dtype=np.int64))
        self.node_count = len(self.indptr) - 1
        self.edge_count = len(self.indices) // 2
        self.directed = bool(directed)
        if directed:
            if labels is None:
                raise GraphError("directed graph requires direction labels")
            self.labels = _freeze(np.asarray(labels, dtype=np.int8))
            if len(self.labels) != len(self.indices):
                raise GraphError("labels must align with adjacency entries")
        else:
            self.labels = None
        if original_ids is None:
            original_ids = np.arange(self.node_count, dtype=np.int64)
        self.original_ids = _freeze(np.asarray(original_ids, dtype=np.int64))
        self.summary = summary
        self.degrees = _freeze(np.diff(self.indptr))
        # Sorted (row, neighbour) keys; power has_edge / pos_of lookups, both
        # scalar and vectorized.
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)
        self._edge_keys = _freeze(rows * self.node_count + self.indices)
        self._lock = threading.Lock()
        self._stats_cache: dict[int, NodeStats] = {}
        self._acc_cache: dict[tuple[str, int], np.ndarray] = {}
        self._two_paths_all: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        directed: bool = False,
        node_count: int | None = None,
    ) -> "Graph":
        """Build a graph from integer pairs with dense IDs.

        For ``directed=True`` each pair is an arc; a reciprocal pair yields a
        mutual edge.  Self loops and duplicates are dropped silently.
        """
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        return cls.from_arrays(pairs[:, 0], pairs[:, 1], directed, node_count)

    @classmethod
    def from_arrays(
        cls,
        u: np.ndarray,
        v: np.ndarray,
        directed: bool = False,
        node_count: int | None = None,
        *,
        compact: bool = False,
        lines_read: int = 0,
    ) -> "Graph":
        """Build a graph from aligned endpoint arrays, one pair per line.

        Self loops are dropped and repeated pairs merged; for ``directed=True``
        pair ``(u, v)`` is an arc and a reciprocal arc makes the edge mutual.
        Ids are dense (``0..node_count-1``, by default ``0..max``) unless
        ``compact`` maps the distinct ids to ``0..n-1`` and keeps them as
        ``original_ids``.  The counts land in the graph's :class:`LoadSummary`.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        keep = u != v
        loops = len(u) - int(keep.sum())
        u, v = u[keep], v[keep]
        if not len(u):
            raise EmptyGraphError("no usable edges")
        original_ids = None
        if compact:
            ids = np.sort(np.concatenate((u, v)))
            original_ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
            u = np.searchsorted(original_ids, u)
            v = np.searchsorted(original_ids, v)
            node_count = len(original_ids)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if node_count is None:
            node_count = 1 + int(hi.max())
        if int(lo.min()) < 0 or int(hi.max()) >= node_count:
            raise GraphError(f"node ids outside 0..{node_count - 1}")
        # flag bits: 1 = arc lo->hi seen, 2 = arc hi->lo seen
        flag = np.where(u < v, 1, 2) if directed else np.full(len(u), 3)
        order = np.lexsort((flag, hi, lo))
        lo, hi, flag = lo[order], hi[order], flag[order]
        new_edge = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
        # a line repeats an earlier one when both have the same edge and flag
        new_pair = new_edge | np.concatenate(([True], flag[1:] != flag[:-1]))
        starts = np.flatnonzero(new_edge)
        flag = np.bitwise_or.reduceat(flag, starts)
        lo, hi = lo[starts], hi[starts]
        summary = LoadSummary(
            lines_read, len(lo), loops, len(new_pair) - int(new_pair.sum())
        )
        # Symmetric CSR: each edge once from either end.  Seen from lo the
        # flag is the direction code itself; seen from hi it is reversed.
        rows = np.concatenate((lo, hi))
        cols = np.concatenate((hi, lo))
        order = np.argsort(rows * node_count + cols)
        labels = None
        if directed:
            back = np.where(flag == MUTUAL, MUTUAL, OUT + IN - flag)
            labels = np.concatenate((flag, back))[order]
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        return cls(
            indptr,
            cols[order],
            labels=labels,
            directed=directed,
            original_ids=original_ids,
            summary=summary,
        )

    # -- adjacency queries --------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def _key_index(self, u: int, v: int) -> int:
        """Index of entry (u, v) in the flat adjacency, or -1."""
        key = u * self.node_count + v
        i = int(np.searchsorted(self._edge_keys, key))
        if i < len(self._edge_keys) and self._edge_keys[i] == key:
            return i
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._key_index(u, v) >= 0

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized edge test for aligned node arrays."""
        keys = us.astype(np.int64) * self.node_count + vs
        idx = np.searchsorted(self._edge_keys, keys)
        idx_c = np.minimum(idx, len(self._edge_keys) - 1)
        return (idx < len(self._edge_keys)) & (self._edge_keys[idx_c] == keys)

    def pos_of(self, v: int, u: int) -> int:
        """Index of neighbour ``u`` inside the sorted list of ``v``."""
        i = self._key_index(v, u)
        if i < 0:
            raise NotANeighborError(f"{u} is not a neighbour of {v}")
        return i - int(self.indptr[v])

    def pos_of_many(self, vs: np.ndarray, u: int) -> np.ndarray:
        """Positions of node ``u`` in the neighbour lists of each ``v``."""
        keys = vs.astype(np.int64) * self.node_count + u
        idx = np.searchsorted(self._edge_keys, keys)
        return idx - self.indptr[vs]

    def direction_code(self, u: int, v: int) -> int:
        """Direction of edge (u, v) as seen from ``u``: OUT, IN or MUTUAL."""
        if not self.directed:
            raise GraphError("graph carries no direction labels")
        i = self._key_index(u, v)
        if i < 0:
            raise NotANeighborError(f"{u} is not a neighbour of {v}")
        return int(self.labels[i])

    def direction_codes(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`direction_code`; pairs must be edges."""
        if not self.directed:
            raise GraphError("graph carries no direction labels")
        keys = us.astype(np.int64) * self.node_count + vs
        idx = np.searchsorted(self._edge_keys, keys)
        return self.labels[idx]

    # -- statistics ---------------------------------------------------------

    def two_paths_all(self) -> np.ndarray:
        """Two-edge walk counts for every node (int64, lazily built)."""
        if self._two_paths_all is None:
            with self._lock:
                if self._two_paths_all is None:
                    csum = np.concatenate(
                        ([0], np.cumsum(self.degrees[self.indices], dtype=np.int64))
                    )
                    sums = csum[self.indptr[1:]] - csum[self.indptr[:-1]]
                    self._two_paths_all = _freeze(sums - self.degrees)
        return self._two_paths_all

    def stats(self, v: int) -> NodeStats:
        """Exact normalizers of node ``v`` (cached)."""
        cached = self._stats_cache.get(v)
        if cached is not None:
            return cached
        if not 0 <= v < self.node_count:
            raise GraphError(f"node {v} out of range")
        d = self.degree(v)
        nbr_deg = [int(x) for x in self.degrees[self.neighbors(v)]]
        tp_all = self.two_paths_all()
        nbr_tp = [int(x) for x in tp_all[self.neighbors(v)]]
        wedges = d * (d - 1) // 2
        two_paths = sum(du - 1 for du in nbr_deg)
        stats = NodeStats(
            node=v,
            degree=d,
            wedges=wedges,
            two_paths=two_paths,
            forked_paths=(d - 1) * two_paths,
            tail_wedges=sum((du - 1) * (du - 2) // 2 for du in nbr_deg),
            three_walks=sum(t - d + 1 for t in nbr_tp),
            triples=d * (d - 1) * (d - 2) // 6,
        )
        with self._lock:
            return self._stats_cache.setdefault(v, stats)

    def _acc(self, kind: str, v: int, weights: np.ndarray, expect: int) -> np.ndarray:
        key = (kind, v)
        cached = self._acc_cache.get(key)
        if cached is not None:
            return cached
        acc = np.cumsum(weights, dtype=np.int64)
        if len(acc) and int(acc[-1]) != expect:
            raise OverflowError(
                f"cumulative {kind} weights of node {v} overflowed 64 bits"
            )
        acc = _freeze(acc)
        with self._lock:
            return self._acc_cache.setdefault(key, acc)

    def acc_degree(self, v: int) -> np.ndarray:
        """Cumulative (d_u - 1) over the neighbours of ``v``."""
        st = self.stats(v)
        w = self.degrees[self.neighbors(v)] - 1
        return self._acc("degree", v, w, st.two_paths)

    def acc_wedge(self, v: int) -> np.ndarray:
        """Cumulative (d_u - 1)(d_u - 2)/2 over the neighbours of ``v``."""
        st = self.stats(v)
        du = self.degrees[self.neighbors(v)]
        return self._acc("wedge", v, (du - 1) * (du - 2) // 2, st.tail_wedges)

    def acc_walk(self, v: int) -> np.ndarray:
        """Cumulative (two_paths_u - d_v + 1) over the neighbours of ``v``."""
        st = self.stats(v)
        w = self.two_paths_all()[self.neighbors(v)] - st.degree + 1
        return self._acc("walk", v, w, st.three_walks)

    # -- id mapping -----------------------------------------------------------

    def to_original(self, v: int) -> int:
        return int(self.original_ids[v])

    def to_dense(self, original: int) -> int:
        i = int(np.searchsorted(self.original_ids, original))
        if i >= self.node_count or self.original_ids[i] != original:
            raise GraphError(f"unknown node id {original}")
        return i

    def write_id_map(self, path: str | Path) -> None:
        """Persist the dense-to-original id map as two-column text."""
        with open(path, "w", encoding="ascii") as f:
            for dense, orig in enumerate(self.original_ids):
                f.write(f"{dense} {int(orig)}\n")

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises GraphError on violation."""
        n = self.node_count
        if np.any(self.indices < 0) or np.any(self.indices >= n):
            raise GraphError("neighbour id out of range")
        for v in range(n):
            nb = self.neighbors(v)
            if len(nb) and (np.any(np.diff(nb) <= 0)):
                raise GraphError(f"neighbour list of {v} not strictly increasing")
            if np.any(nb == v):
                raise GraphError(f"self loop at {v}")
        if int(self.degrees.sum()) != 2 * self.edge_count:
            raise GraphError("degree sum does not equal twice the edge count")
        for v in range(n):
            for u in self.neighbors(v):
                if not self.has_edge(int(u), v):
                    raise GraphError(f"asymmetric edge ({v}, {u})")
                if self.directed:
                    a = self.direction_code(v, int(u))
                    b = self.direction_code(int(u), v)
                    ok = (a == MUTUAL and b == MUTUAL) or a + b == OUT + IN
                    if not ok:
                        raise GraphError(f"label mismatch on ({v}, {u})")

    def __repr__(self) -> str:  # pragma: no cover
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, n={self.node_count}, m={self.edge_count})"


def _open_lines(src) -> Iterable[str]:
    if isinstance(src, (str, Path)):
        return open(src, "r", encoding="ascii", errors="replace")
    if isinstance(src, (bytes, bytearray)):
        return io.StringIO(src.decode("ascii", errors="replace"))
    if isinstance(src, io.IOBase) or hasattr(src, "read"):
        data = src.read()
        if isinstance(data, bytes):
            data = data.decode("ascii", errors="replace")
        return io.StringIO(data)
    return iter(src)


def load_edge_list(src, directed: bool = False) -> Graph:
    """Parse a plain-text edge list into a :class:`Graph`.

    Lines hold two whitespace-separated nonnegative integer node ids;
    ``#``-prefixed lines are comments.  For ``directed=True`` a line
    ``u v`` contributes an arc from u to v, and a co-occurring ``v u``
    line turns the edge mutual.  Self loops and repeated lines are dropped
    (counted in the returned graph's :class:`LoadSummary`).  Node ids are
    compacted to ``0..n-1``; the original ids stay available through
    ``Graph.original_ids``.
    """
    ends = array("q")
    lines = 0
    handle = _open_lines(src)
    try:
        for line_no, raw in enumerate(handle, start=1):
            lines += 1
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ParseError(f"expected two fields, got {len(parts)}", line_no)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer node id in {parts!r}", line_no) from None
            if u < 0 or v < 0:
                raise ParseError("negative node id", line_no)
            if u > _MAX_NODE_ID or v > _MAX_NODE_ID:
                raise ParseError("node id exceeds 63 bits", line_no)
            ends.append(u)
            ends.append(v)
    finally:
        close = getattr(handle, "close", None)
        if close is not None:
            close()

    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    return Graph.from_arrays(
        pairs[:, 0], pairs[:, 1], directed, compact=True, lines_read=lines
    )
