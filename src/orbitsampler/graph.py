"""Immutable simple graph with per-node sampling statistics.

The graph is stored in CSR form (``indptr`` / ``indices``) with sorted
neighbour lists.  For directed graphs every adjacency entry additionally
carries a direction code relative to the row node: ``OUT`` (arc from the row
node to the neighbour), ``IN`` (arc towards the row node) or ``MUTUAL``
(both arcs present).

Per-node statistics (:class:`NodeStats`) are the exact combinatorial
normalizers used by the sampling procedures, and the ``acc_*`` methods build
the cumulative weight arrays that drive weighted neighbour selection by
binary search.  Both are recomputed on every call, never kept on the graph,
so memory stays flat however many anchors are estimated; an estimate
computes its anchor's statistics once, in its :class:`AnchorContext`.  The
graph is immutable after construction (its one lazily built array,
``two_paths_all``, is set under a lock), so instances are safe to share
across threads.

One int64 key orders the pairs: (row, col) has key ``row * n + col``, which
fits while ``n**2`` is below 2**63 (``MAX_NODES``).  Loading merges repeated
lines by one sort of that key.  Pairs that contain the anchor of an estimate
are answered by an :class:`AnchorContext`, built once per estimate and never
cached on the graph: a gather from a per-node code array and from the
anchor's back positions.  Every other pair lookup, scalar or batched, is one
search of the sorted edge keys (``Graph._find``), and a lookup that needs an
edge raises :class:`NotANeighborError` for a pair that is not one.
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

# Largest node count whose edge keys row * n + col (all below n**2) fit int64.
MAX_NODES = 3_037_000_499


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
        if not len(self.indices):
            raise EmptyGraphError("a graph needs at least one edge")
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
        # Sorted (row, neighbour) keys, one per adjacency entry, so a key's
        # index is the entry's index.  Every pair lookup searches them (_find).
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)
        self._edge_keys = _freeze(rows * self.node_count + self.indices)
        self._lock = threading.Lock()
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

        Repeats merge by one sort of the edge key ``lo * n + hi``, so more
        than ``MAX_NODES`` nodes raise :class:`GraphError`, before any build.
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
            original_ids, ends = np.unique(np.concatenate((u, v)), return_inverse=True)
            u, v = ends[: len(u)], ends[len(u) :]
            node_count = len(original_ids)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if node_count is None:
            node_count = 1 + int(hi.max())
        if int(lo.min()) < 0 or int(hi.max()) >= node_count:
            raise GraphError(f"node ids outside 0..{node_count - 1}")
        if node_count > MAX_NODES:
            raise GraphError(f"{node_count} nodes: edge keys need n**2 below 2**63")
        # Repeated lines share their edge key; one sort groups them.
        key = lo * node_count + hi
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        lo, hi = lo[order[starts]], hi[order[starts]]
        # Symmetric CSR: each edge once from either end, in edge-key order.
        rows = np.concatenate((lo, hi))
        cols = np.concatenate((hi, lo))
        csr = np.argsort(rows * node_count + cols)
        distinct, labels = len(starts), None
        if directed:
            # Each line sets one bit, OUT for the arc lo->hi and IN for
            # hi->lo, so the merged bits are the direction code seen from lo
            # and a line repeats an earlier one when it sets no new bit.
            flag = np.bitwise_or.reduceat(np.where(u < v, OUT, IN)[order], starts)
            distinct = np.count_nonzero(flag & OUT) + np.count_nonzero(flag & IN)
            back = np.where(flag == MUTUAL, MUTUAL, OUT + IN - flag)
            labels = np.concatenate((flag, back))[csr]
        summary = LoadSummary(lines_read, len(lo), loops, len(u) - int(distinct))
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        return cls(
            indptr,
            cols[csr],
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

    def _find(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency index of each pair (us, vs), and whether it is an edge.

        The one search of the edge keys.  Queries are searched in sorted
        order, so consecutive binary searches share their path through the
        keys, and the results are scattered back to query order.  An index
        is meaningful only where ``found`` (elsewhere it may be past the end).
        """
        keys = np.asarray(us, dtype=np.int64) * self.node_count + vs
        order = np.argsort(keys)
        idx = np.empty(len(keys), dtype=np.intp)
        idx[order] = np.searchsorted(self._edge_keys, keys[order])
        return idx, self._edge_keys.take(idx, mode="clip") == keys

    @staticmethod
    def _require(found: np.ndarray, a, b) -> None:
        """Raise for the first pair (a, b) that ``found`` marks as no edge."""
        if not found.all():
            i = int(np.argmin(found))
            a, b = (np.broadcast_to(x, found.shape)[i] for x in (a, b))
            raise NotANeighborError(f"{a} is not a neighbour of {b}")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges([u], [v])[0])

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized edge test for aligned node arrays."""
        return self._find(us, vs)[1]

    def pos_of(self, v: int, u: int) -> int:
        """Index of neighbour ``u`` inside the sorted list of ``v``."""
        return int(self.pos_of_many([v], u)[0])

    def pos_of_many(self, vs: np.ndarray, u: int) -> np.ndarray:
        """Positions of node ``u`` in the neighbour lists of each ``v``."""
        idx, found = self._find(vs, u)
        self._require(found, u, vs)
        return idx - self.indptr[vs]

    def direction_code(self, u: int, v: int) -> int:
        """Direction of edge (u, v) as seen from ``u``: OUT, IN or MUTUAL."""
        return int(self.direction_codes([u], [v])[0])

    def direction_codes(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`direction_code`; pairs must be edges."""
        if not self.directed:
            raise GraphError("graph carries no direction labels")
        idx, found = self._find(us, vs)
        self._require(found, us, vs)
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
        """Exact normalizers of node ``v``."""
        if not 0 <= v < self.node_count:
            raise GraphError(f"node {v} out of range")
        d = self.degree(v)
        nb = self.neighbors(v)
        nbr_deg = self.degrees[nb].tolist()
        two_paths = sum(nbr_deg) - d
        return NodeStats(
            node=v,
            degree=d,
            wedges=d * (d - 1) // 2,
            two_paths=two_paths,
            forked_paths=(d - 1) * two_paths,
            tail_wedges=sum((du - 1) * (du - 2) // 2 for du in nbr_deg),
            three_walks=sum(self.two_paths_all()[nb].tolist()) - d * (d - 1),
            triples=d * (d - 1) * (d - 2) // 6,
        )

    @staticmethod
    def _acc(kind: str, st: NodeStats, weights: np.ndarray, total: int) -> np.ndarray:
        acc = np.cumsum(weights, dtype=np.int64)
        if len(acc) and int(acc[-1]) != total:
            raise OverflowError(
                f"cumulative {kind} weights of node {st.node} overflowed 64 bits"
            )
        return acc

    def acc_degree(self, st: NodeStats) -> np.ndarray:
        """Cumulative (d_u - 1) over the neighbours of node ``st.node``."""
        w = self.degrees[self.neighbors(st.node)] - 1
        return self._acc("degree", st, w, st.two_paths)

    def acc_wedge(self, st: NodeStats) -> np.ndarray:
        """Cumulative (d_u - 1)(d_u - 2)/2 over the neighbours of ``st.node``."""
        du = self.degrees[self.neighbors(st.node)]
        return self._acc("wedge", st, (du - 1) * (du - 2) // 2, st.tail_wedges)

    def acc_walk(self, st: NodeStats) -> np.ndarray:
        """Cumulative (two_paths_u - d + 1) over the neighbours of ``st.node``."""
        w = self.two_paths_all()[self.neighbors(st.node)] - st.degree + 1
        return self._acc("walk", st, w, st.three_walks)

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
        rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees)

        def require(ok: np.ndarray, message: str) -> None:
            """Raise for the first adjacency entry (v, u) where ``ok`` fails."""
            bad = np.flatnonzero(~ok)
            if len(bad):
                v, u = rows[bad[0]], self.indices[bad[0]]
                raise GraphError(message.format(v=v, u=u))

        # With ids in range, the keys increase strictly exactly when every
        # neighbour list does.
        keys_up = np.diff(self._edge_keys, prepend=-1) > 0
        require(keys_up, "neighbour list of {v} not strictly increasing")
        require(self.indices != rows, "self loop at {v}")
        if int(self.degrees.sum()) != 2 * self.edge_count:
            raise GraphError("degree sum does not equal twice the edge count")
        require(self.has_edges(self.indices, rows), "asymmetric edge ({v}, {u})")
        if self.directed:
            a, b = self.labels, self.direction_codes(self.indices, rows)
            ok = ((a == MUTUAL) & (b == MUTUAL)) | (a + b == OUT + IN)
            require(ok, "label mismatch on ({v}, {u})")

    def __repr__(self) -> str:  # pragma: no cover
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, n={self.node_count}, m={self.edge_count})"


class AnchorContext:
    """Lookups of every pair that contains one anchor ``v``.

    Built once per estimate and passed down to the routes and classifiers;
    it is not cached on the graph (which is shared across threads, and a
    sweep over many anchors would keep one node-sized array per anchor).

    ==========  ==========================================================
    stats       the anchor's :class:`NodeStats`, computed once per estimate
    nb          the anchor's sorted neighbour list
    code        int8 per node: 0 for a non-neighbour of v, else the
                direction code of (v, x), or ``MUTUAL`` when undirected
    back        ``back[i]`` is the position of v in the list of ``nb[i]``
    ==========  ==========================================================
    """

    def __init__(self, g: Graph, v: int):
        self.v = v
        self.stats = g.stats(v)
        self.nb = g.neighbors(v)
        self.code = np.zeros(g.node_count, dtype=np.int8)
        if g.directed:
            self.code[self.nb] = g.labels[g.indptr[v] : g.indptr[v + 1]]
        else:
            self.code[self.nb] = MUTUAL
        self.back = g.pos_of_many(self.nb, v)


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

    Lines hold two whitespace-separated node ids, each a string of ASCII
    digits below 2**63; ``#``-prefixed lines are comments.  For
    ``directed=True`` a line ``u v`` contributes an arc from u to v, and a
    co-occurring ``v u`` line turns the edge mutual.  Self loops and
    repeated lines are dropped (counted in the returned graph's
    :class:`LoadSummary`).  Node ids are compacted to ``0..n-1``; the
    original ids stay available through ``Graph.original_ids``.
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
            u, v = parts
            if not (u.isdigit() and v.isdigit() and u.isascii() and v.isascii()):
                if u.startswith("-") or v.startswith("-"):
                    raise ParseError("negative node id", line_no)
                raise ParseError(f"non-integer node id in {parts!r}", line_no)
            try:
                ends.append(int(u))
                ends.append(int(v))
            except OverflowError:
                raise ParseError("node id exceeds 63 bits", line_no) from None
    finally:
        close = getattr(handle, "close", None)
        if close is not None:
            close()

    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    return Graph.from_arrays(
        pairs[:, 0], pairs[:, 1], directed, compact=True, lines_read=lines
    )
