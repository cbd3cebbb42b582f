"""Immutable simple graph with per-node sampling statistics.

The graph is stored in CSR form (``indptr`` / ``indices``) with sorted
neighbour lists.  For directed graphs every adjacency entry additionally
carries a direction code relative to the row node: ``OUT`` (arc from the row
node to the neighbour), ``IN`` (arc towards the row node) or ``MUTUAL``
(both arcs present).

Per-node statistics (:class:`NodeStats`) are the exact combinatorial
normalizers used by the sampling procedures, and the ``acc_*`` methods build
the cumulative weight arrays from which the weighted first steps pick a
neighbour (through a guide table, ``samplers._weighted_pick``).  Both are
recomputed on every call, never kept on the graph, so memory stays flat
however many anchors are estimated; an estimate computes its anchor's
statistics once, in its :class:`AnchorContext`.  A graph is complete and
immutable once constructed, ``two_paths_all`` included; construction
rejects a malformed ``indptr`` and neighbour ids outside ``0..n-1``, and
:meth:`Graph.validate` checks the other invariants (sorted lists, no self
loops, symmetry, labels).

One int64 key orders the pairs: (row, col) has key ``row * n + col``, which
fits while ``n**2`` is below 2**63 (``MAX_NODES``).  Loading merges repeated
lines by one sort of that key.  Pairs that contain the anchor of an estimate
are answered by an :class:`AnchorContext`, built once per estimate and never
cached on the graph: a gather from a per-node code array and from the
anchor's back positions.  Pairs of two neighbours of the anchor, given by
their positions in its list, are answered by the context too
(:meth:`AnchorContext.pair_codes`, which states when it builds its d x d
code matrix).  Every other pair lookup, scalar or batched, is one search
of the sorted edge keys (``Graph._find``), and a lookup that needs an edge
raises :class:`NotANeighborError` for a pair that is not one.

An edge list whose every line fits a strict grammar (``_tokenize_edges``)
is parsed by array operations over its bytes; any other input is read by
the line scanner (``_scan_edges``), which gives the same pairs on every
input the grammar takes and alone raises :class:`ParseError`.
"""

from __future__ import annotations

import io
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
    """Simple undirected graph, optionally with per-edge direction labels;
    it is directed exactly when it carries them."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        original_ids: np.ndarray | None = None,
        summary: LoadSummary | None = None,
    ):
        self.indptr = _freeze(np.asarray(indptr, dtype=np.int64))
        self.indices = _freeze(np.asarray(indices, dtype=np.int64))
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if not len(self.indices):
            raise EmptyGraphError("a graph needs at least one edge")
        self.node_count = len(self.indptr) - 1
        self.edge_count = len(self.indices) // 2
        self.directed = labels is not None
        self.labels = None
        if self.directed:
            self.labels = _freeze(np.asarray(labels, dtype=np.int8))
            if self.labels.shape != self.indices.shape:
                raise GraphError("labels must align with adjacency entries")
        if original_ids is None:
            original_ids = np.arange(self.node_count, dtype=np.int64)
        self.original_ids = _freeze(np.asarray(original_ids, dtype=np.int64))
        self.summary = summary
        self.degrees = _freeze(np.diff(self.indptr))
        ends_ok = (
            len(self.indptr) > 0
            and self.indptr[0] == 0
            and self.indptr[-1] == len(self.indices)
        )
        if not ends_ok or self.degrees.min() < 0:
            raise GraphError("indptr must rise from 0 to len(indices)")
        # read as unsigned, a negative id is above every valid one
        if self.indices.view(np.uint64).max() >= self.node_count:
            raise GraphError("neighbour id out of range")
        # Two-edge walks leaving each node, built (and csum freed) before the
        # edge keys, whose temporaries are larger, so the peaks do not add.
        csum = np.zeros(len(self.indices) + 1, dtype=np.int64)
        np.cumsum(self.degrees[self.indices], out=csum[1:])
        self._two_paths_all = _freeze(np.diff(csum[self.indptr]) - self.degrees)
        del csum
        # Sorted (row, neighbour) keys, one per adjacency entry, so a key's
        # index is the entry's index.  Every pair lookup searches them (_find).
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)
        self._edge_keys = _freeze(rows * self.node_count + self.indices)

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
        pairs = np.array(list(edges)).reshape(-1, 2)
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

        One sort of the adjacency keys ``row * n + col`` merges repeats and
        orders the CSR, so more than ``MAX_NODES`` nodes raise
        :class:`GraphError`, before any build, and so do endpoints of a
        non-integer dtype (bool too), which a cast would truncate.
        """
        u, v = np.asarray(u), np.asarray(v)
        if any(a.size and a.dtype.kind not in "iu" for a in (u, v)):
            raise GraphError(f"node ids must be integers, got {u.dtype} and {v.dtype}")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        keep = u != v
        m = int(keep.sum())
        loops = len(u) - m
        if not m:
            raise EmptyGraphError("no usable edges")
        ends = np.concatenate((u[keep], v[keep]))
        original_ids = None
        if compact:
            original_ids, ends = np.unique(ends, return_inverse=True)
            node_count = len(original_ids)
        if node_count is None:
            node_count = 1 + int(ends.max())
        if int(ends.min()) < 0 or int(ends.max()) >= node_count:
            raise GraphError(f"node ids outside 0..{node_count - 1}")
        if node_count > MAX_NODES:
            raise GraphError(f"{node_count} nodes: edge keys need n**2 below 2**63")
        # Line i gives the entries (u_i, v_i) at i and (v_i, u_i) at m + i.
        # One sort of their keys groups repeated lines and orders the CSR.
        rows, cols = ends, np.roll(ends, m)
        key = rows * node_count + cols
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        first = order[starts]
        edges = distinct = len(starts) // 2
        labels = None
        if directed:
            # Entry i < m sets OUT and entry m + i sets IN, so the merged bits
            # of a run are its direction code, and each distinct arc sets OUT
            # at exactly one entry, its tail's.
            bits = np.repeat(np.array([OUT, IN], dtype=np.int8), m)
            labels = np.bitwise_or.reduceat(bits[order], starts)
            distinct = np.count_nonzero(labels & OUT)
        summary = LoadSummary(lines_read, edges, loops, m - int(distinct))
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[first], minlength=node_count), out=indptr[1:])
        return cls(
            indptr,
            cols[first],
            labels=labels,
            original_ids=original_ids,
            summary=summary,
        )

    # -- adjacency queries --------------------------------------------------

    def _check_node(self, v) -> None:
        """Raise GraphError unless ``v`` is an integer id in ``0..n-1``; a
        numpy index would answer -1 with another node's entry."""
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise GraphError(f"node id must be an integer, got {v!r}")
        if not 0 <= v < self.node_count:
            raise GraphError(f"node {v} out of range")

    def neighbors(self, v: int) -> np.ndarray:
        self._check_node(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        self._check_node(v)
        return int(self.degrees[v])

    def _find(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency index of each pair (us, vs), and whether it is an edge.

        The one search of the edge keys.  Queries are searched in sorted
        order, so consecutive binary searches share their path through the
        keys, and the results are scattered back to query order.  An index
        is meaningful only where ``found`` (elsewhere it may be past the end).
        Ids outside ``0..n-1`` would alias another pair's key, so they raise.
        """
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        n = self.node_count
        # read as unsigned, a negative id is above every valid one
        if us.size and vs.size and max(x.view(np.uint64).max() for x in (us, vs)) >= n:
            raise GraphError(f"node ids must lie in 0..{n - 1}")
        keys = us * n + vs
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

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized edge test for aligned node arrays."""
        return self._find(us, vs)[1]

    def list_entries(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency indices of the lists of ``xs``, end to end, and the end
        of each list in that array."""
        lens = self.degrees[xs]
        ends = np.cumsum(lens)
        at = np.repeat(self.indptr[xs] - ends + lens, lens)
        at += np.arange(len(at))
        return at, ends

    def pos_of_many(self, vs: np.ndarray, u: int) -> np.ndarray:
        """Positions of node ``u`` in the neighbour lists of each ``v``."""
        idx, found = self._find(vs, u)
        self._require(found, u, vs)
        return idx - self.indptr[vs]

    def direction_codes(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Direction of each edge (u, v) as seen from ``u``: OUT, IN or
        MUTUAL; the pairs must be edges."""
        if not self.directed:
            raise GraphError("graph carries no direction labels")
        idx, found = self._find(us, vs)
        self._require(found, us, vs)
        return self.labels[idx]

    # -- statistics ---------------------------------------------------------

    def two_paths_all(self) -> np.ndarray:
        """Two-edge walk counts for every node (int64, built with the graph)."""
        return self._two_paths_all

    def stats(self, v: int) -> NodeStats:
        """Exact normalizers of node ``v``."""
        nb = self.neighbors(v)
        d = len(nb)
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
        self._check_node(v)
        return int(self.original_ids[v])

    def to_dense(self, original: int) -> int:
        i = int(np.searchsorted(self.original_ids, original))
        if i >= self.node_count or self.original_ids[i] != original:
            raise GraphError(f"unknown node id {original}")
        return i

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises GraphError on violation."""
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)

        def require(ok: np.ndarray, message: str) -> None:
            """Raise for the first adjacency entry (v, u) where ``ok`` fails."""
            bad = np.flatnonzero(~ok)
            if len(bad):
                v, u = rows[bad[0]], self.indices[bad[0]]
                raise GraphError(message.format(v=v, u=u))

        # With ids in range (construction checks them), the keys increase
        # strictly exactly when every neighbour list does.
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
    it is not cached on the graph (which every estimate shares, and a
    sweep over many anchors would keep one node-sized array per anchor).

    ==========  ==========================================================
    stats       the anchor's :class:`NodeStats`, computed once per estimate
    nb          the anchor's sorted neighbour list
    code        int8 per node: 0 for a non-neighbour of v, else the
                direction code of (v, x), or ``MUTUAL`` when undirected
    back        ``back[i]`` is the position of v in the list of ``nb[i]``
    ==========  ==========================================================

    Pairs inside N(v) whose members a route drew by position in ``nb`` are
    answered by :meth:`pair_codes`.
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
        self._pairs: np.ndarray | None = None

    def pair_codes(
        self, g: Graph, a: np.ndarray, b: np.ndarray,
        ia: np.ndarray, ib: np.ndarray, directed: bool,
    ) -> np.ndarray:
        """Per pair (a, b) of neighbours of v, at positions ``ia``, ``ib`` of
        ``nb``: 0 for a non-edge, else nonzero, and the direction code of
        (a, b) as seen from a when ``directed``.

        The answers come from a d x d int8 code matrix over the positions in
        ``nb`` (entry (i, j) is 0 for no edge, else the direction code of
        (nb[i], nb[j]), or ``MUTUAL`` when undirected).  It is built from
        one gather of the neighbours' lists (``two_paths + d`` entries),
        keeping those whose ``code`` is nonzero, by the first batch for
        which the matrix and the gather take no more bytes than three int64
        columns of the batch: d**2 + 8 * (two_paths + d) <= 24 * len(a).
        The context keeps it, and every later batch reads it, whatever its
        size.  Until then the pairs search the graph's edge keys.
        """
        d = len(self.nb)
        size = d * d + 8 * (self.stats.two_paths + d)
        if self._pairs is None and size <= 24 * len(a):
            at, ends = g.list_entries(self.nb)
            hit = np.flatnonzero(self.code[g.indices[at]])
            at = at[hit]
            self._pairs = np.zeros((d, d), dtype=np.int8)
            i = np.searchsorted(ends, hit, side="right")
            j = np.searchsorted(self.nb, g.indices[at])
            self._pairs[i, j] = g.labels[at] if g.directed else MUTUAL
        if self._pairs is not None:
            return self._pairs[ia, ib]
        edge = g.has_edges(a, b)
        if not directed:
            return edge
        c = np.zeros(len(a), dtype=np.int8)
        c[edge] = g.direction_codes(a[edge], b[edge])
        return c


# Byte classes of the edge-list fast path (_tokenize_edges): a byte of
# class 0 outside a comment sends the input to the line scanner.
_DIGIT, _BLANK = 1, 2
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b" \t\r\n")] = _BLANK
# Ids of at most 18 digits are below 10**18 < 2**63, so Horner cannot wrap.
_MAX_DIGITS = 18
_BLOCK_BYTES = 1 << 20
_LF, _CR, _HASH, _ZERO = (np.uint8(c) for c in b"\n\r#0")


def _tokenize_edges(data: bytes | bytearray) -> tuple[np.ndarray, int] | None:
    """Endpoint pairs and line count of an edge list, or None when a line
    falls outside the fast grammar and the line scanner must read it.

    Every line is blank, a comment whose first byte is ``#``, or two runs
    of 1-18 ASCII digits, separated and optionally surrounded by spaces or
    tabs; lines end in ``\\n`` or ``\\r\\n``.  The scanner reads each such
    input to the same pairs and line count.

    The input is read in blocks of whole lines, about ``_BLOCK_BYTES``
    each, into one output array sized by the line count, so the
    temporaries (a class byte per input byte, a few int64 arrays per digit
    run) stay block-sized and are reused from block to block.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    pairs = np.empty((data.count(b"\n") + 1, 2), dtype=np.int64)
    kept = lines = lo = 0
    while lo < len(b):
        hi = data.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(b)
        block = _tokenize_block(b[lo:hi], pairs[kept:])
        if block is None:
            return None
        kept, lines, lo = kept + block[0], lines + block[1], hi
    return pairs[:kept], lines


def _tokenize_block(b: np.ndarray, out: np.ndarray) -> tuple[int, int] | None:
    """Write the pairs of whole lines ``b`` into ``out``; return the pair
    and line counts, or None when a line falls outside the fast grammar."""
    n = len(b)
    cr = np.flatnonzero(b == _CR)
    if len(cr) and (cr[-1] == n - 1 or np.any(b[cr + 1] != _LF)):
        return None  # a lone \r ends a line for the scanner
    newline = np.flatnonzero(b == _LF)
    starts = np.concatenate(([0], newline + 1))
    starts = starts[starts < n]
    cls = _BYTE_CLASS[b]
    comment = b[starts] == _HASH
    if comment.any():
        cls[np.repeat(comment, np.diff(starts, append=n))] = _BLANK
    if not cls.all():
        return None
    bounds = np.flatnonzero(np.diff(cls == _DIGIT, prepend=False, append=False))
    del cls
    first, end = bounds[0::2], bounds[1::2]
    width = end - first
    top = int(width.max(initial=0))
    if top > _MAX_DIGITS:
        return None
    # Digit runs per line, from the runs that start before each newline.
    per_line = np.diff(np.searchsorted(first, newline), prepend=0, append=len(first))
    if np.any((per_line != 0) & (per_line != 2)):
        return None
    # Horner over digit positions, right-aligned: step k reads the k-th
    # byte from the end of each run, and a run shorter than k adds a
    # leading 0 (its index may wrap to the end of the block, never past
    # its start, since the longest run and one more byte fit in it).
    value = out.reshape(-1)[: len(first)]
    value[:] = 0
    width = width.astype(np.uint8)
    pos = end - top
    for k in range(top, 0, -1):
        digit = b[pos] - _ZERO
        digit *= width >= k
        value *= 10
        value += digit
        pos += 1
    return len(first) // 2, len(starts)


def _scan_edges(lines: Iterable[str]) -> tuple[np.ndarray, int]:
    """Endpoint pairs and line count of an edge list, one line at a time.

    The reference reader: it takes every input, and it alone raises
    :class:`ParseError`.
    """
    ends = array("q")
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
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
    return np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), line_no


def _read_edges(src) -> tuple[np.ndarray, int]:
    """Endpoint pairs and line count of any source of ``load_edge_list``.

    A path, ``bytes`` or file object is read once; text is tokenized as
    its ASCII encoding (other characters become ``?``).  An iterable of
    lines, and every input the tokenizer declines, goes to the scanner.
    """
    if isinstance(src, (str, Path)):
        data = Path(src).read_bytes()
    elif isinstance(src, (bytes, bytearray)):
        data = src
    elif hasattr(src, "read"):
        data = src.read()
    else:
        return _scan_edges(src)
    fast = _tokenize_edges(
        data.encode("ascii", errors="replace") if isinstance(data, str) else data
    )
    if fast is not None:
        return fast
    # Text keeps its own characters, so a ParseError quotes what was read.
    if not isinstance(data, str):
        data = data.decode("ascii", errors="replace")
    return _scan_edges(io.StringIO(data, newline=None))


def load_edge_list(src, directed: bool = False) -> Graph:
    """Parse a plain-text edge list into a :class:`Graph`.

    Lines hold two whitespace-separated node ids, each a string of ASCII
    digits below 2**63; ``#``-prefixed lines are comments.  For
    ``directed=True`` a line ``u v`` contributes an arc from u to v, and a
    co-occurring ``v u`` line turns the edge mutual.  Self loops and
    repeated lines are dropped (counted in the returned graph's
    :class:`LoadSummary`).  Node ids are compacted to ``0..n-1``; the
    original ids stay available through ``Graph.original_ids``.

    A path, ``bytes`` or file object is read once; an input in the fast
    grammar of ``_tokenize_edges`` is parsed by array operations, any
    other by the line scanner (``_scan_edges``), which reads every input
    the fast grammar takes to the same pairs.
    """
    pairs, lines = _read_edges(src)
    return Graph.from_arrays(
        pairs[:, 0], pairs[:, 1], directed, compact=True, lines_read=lines
    )
