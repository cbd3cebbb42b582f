"""Graph loading, statistics, and invariant tests."""

import dataclasses
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import (
    EmptyGraphError,
    Graph,
    GraphError,
    LoadSummary,
    NotANeighborError,
    ParseError,
    load_edge_list,
)
from orbitsampler import graph
from orbitsampler.generators import gnp, preferential_attachment
from orbitsampler.graph import IN, MAX_NODES, MUTUAL, OUT, AnchorContext

from conftest import EIGHT_EDGES, all_directed_3node, complete_graph, naive_node_stats
from support import classify_undirected, gnp_directed, sparse_random_graph


def test_load_triangle():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
    assert g.node_count == 3 and g.edge_count == 3
    assert list(g.degrees) == [2, 2, 2]


def test_load_directed_mutual_merge():
    g = load_edge_list(io.StringIO("0 1\n1 0\n"), directed=True)
    assert g.edge_count == 1
    assert g.direction_codes([0], [1])[0] == MUTUAL
    assert g.direction_codes([1], [0])[0] == MUTUAL


def test_load_comment_and_duplicate():
    g = load_edge_list(io.StringIO("# c\n0 1\n0 1\n"))
    assert g.edge_count == 1
    assert g.summary.duplicates_merged == 1


def test_load_reciprocal_duplicate_undirected():
    g = load_edge_list(io.StringIO("0 1\n1 0\n"))
    assert g.edge_count == 1
    assert g.summary.duplicates_merged == 1


def test_load_self_loop_dropped():
    g = load_edge_list(io.StringIO("0 0\n0 1\n"))
    assert g.edge_count == 1
    assert g.summary.self_loops_dropped == 1


def test_load_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO("0 1\nbogus line here\n"))
    assert exc.value.line_no == 2
    # int() would read "1_000" as 1000, "+5" as 5 and "\u0663" as 3
    for bad in ("0 x", "-1 2", "1_000 2", "+5 6", "1 \u0663"):
        with pytest.raises(ParseError) as exc:
            load_edge_list(io.StringIO(f"0 1\n# c\n{bad}\n"))
        assert exc.value.line_no == 3, bad
    with pytest.raises(ParseError, match="negative node id"):
        load_edge_list(io.StringIO("2 -1\n"))


def test_load_empty_graph_error():
    with pytest.raises(EmptyGraphError):
        load_edge_list(io.StringIO("# nothing\n0 0\n"))
    with pytest.raises(EmptyGraphError):
        Graph(np.zeros(3, dtype=np.int64), np.array([], dtype=np.int64))


def test_load_accepts_bytes_and_line_iterables():
    for src in (b"0 1\n1 2\n", io.BytesIO(b"0 1\n1 2\n"), ["0 1", "1 2"]):
        assert load_edge_list(src).edge_count == 2


def test_load_reads_every_line_ending_from_every_source(tmp_path):
    data = b"1 2\n2 3\r\n3 1\r3 4\r\n# c\r4 4\n"
    path = tmp_path / "mixed.txt"
    path.write_bytes(data)
    sources = (path, data, io.BytesIO(data), io.StringIO(data.decode()))
    graphs = [load_edge_list(src, directed=True) for src in sources]
    assert graphs[0].summary == LoadSummary(6, 4, 1, 0)
    for g in graphs[1:]:
        assert g.summary == graphs[0].summary
        for name in ("indptr", "indices", "labels", "original_ids"):
            assert (getattr(g, name) == getattr(graphs[0], name)).all(), name


def test_load_directed_repeated_and_reciprocal_arcs():
    g = load_edge_list(io.StringIO("0 1\n0 1\n1 0\n1 0\n"), directed=True)
    assert g.edge_count == 1 and g.direction_codes([0], [1])[0] == MUTUAL
    assert g.summary.duplicates_merged == 2
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 1\n"), directed=True)
    assert g.direction_codes([0], [1])[0] == MUTUAL
    assert g.summary.duplicates_merged == 1


def test_load_largest_node_id():
    top = 2**63 - 1
    g = load_edge_list(io.StringIO(f"{top} 3\n3 0\n"))
    assert g.original_ids.tolist() == [0, 3, top]
    assert g.to_dense(top) == 2 and g.to_original(2) == top
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO(f"0 1\n# c\n{2**63} 1\n"))
    assert exc.value.line_no == 3


# Every input in this suite that the scanner rejects, with its message.
PARSE_ERRORS = [
    ("0 1\nbogus line here\n", 2, "expected two fields, got 3"),
    ("0 1\n# c\n0 x\n", 3, "non-integer node id in ['0', 'x']"),
    ("0 1\n# c\n-1 2\n", 3, "negative node id"),
    ("0 1\n# c\n1_000 2\n", 3, "non-integer node id in ['1_000', '2']"),
    ("0 1\n# c\n+5 6\n", 3, "non-integer node id in ['+5', '6']"),
    ("0 1\n# c\n1 \u0663\n", 3, "non-integer node id in ['1', '\u0663']"),
    ("2 -1\n", 1, "negative node id"),
    (f"0 1\n# c\n{2**63} 1\n", 3, "node id exceeds 63 bits"),
]

# Inputs at the edge of the fast grammar, and whether the tokenizer takes them.
BOUNDARY = [
    (b"123456789012345678 1\n", True),  # 18 digits
    (b"1234567890123456789 1\n", False),  # 19 digits: the scanner reads it
    (b"12345678901234567890 1\n", False),
    (f"{2**63 - 1} 1\n".encode(), False),
    (f"{2**63} 1\n".encode(), False),
    (b"007 0008\n", True),
    (b"+5 6\n", False),
    (b"-1 2\n", False),
    (b"1_000 2\n", False),
    (b"1\t2\n\t3 \t4\t\n", True),
    (b"1\x0b2\n", False),
    (b"1\x0c2\n", False),
    (b"1\x1c2\n", False),
    (b"1 2\r\n3 4\r\n", True),
    (b"1 2\r3 4\r", False),
    (b"1 2\r\r\n", False),
    (b"1\r2\n", False),
    (b"1 2\n3 4", True),
    (b" # c\n1 2\n", False),
    (b"1 2 # c\n", False),
    (b"1\n", False),
    (b"1 2 3\n", False),
    (b"1 2 3 4\n", False),
    (b"  \n\t\n \r\n1 2\n", True),
    (b"1 2\x00\n", False),
    (b"1 \xff\n", False),
    (b"", True),
    (b"#\xff\x00\x0c 7 x\r\n1 2\n", True),
]


def scan(data: bytes):
    lines = io.StringIO(data.decode("ascii", errors="replace"), newline=None)
    return graph._scan_edges(lines)


def assert_tokenizer_agrees(data: bytes) -> bool:
    """The tokenizer declines ``data`` or reads it as the scanner does;
    returns whether it took it."""
    fast = graph._tokenize_edges(data)
    try:
        pairs, lines = scan(data)
    except ParseError:
        assert fast is None, data
        return False
    if fast is not None:
        assert fast[0].tolist() == pairs.tolist(), data
        assert fast[1] == lines, data
    return fast is not None


def test_tokenizer_declines_parse_errors_and_keeps_their_messages():
    for text, line_no, message in PARSE_ERRORS:
        assert not assert_tokenizer_agrees(text.encode("ascii", errors="replace"))
        with pytest.raises(ParseError) as exc:
            load_edge_list(io.StringIO(text))
        assert exc.value.line_no == line_no, text
        assert str(exc.value) == f"line {line_no}: {message}", text


def test_tokenizer_agrees_with_scanner_at_the_grammar_boundary():
    for data, taken in BOUNDARY:
        assert assert_tokenizer_agrees(data) == taken, data


@given(st.text(alphabet="0123456789 \t\r\n#-\x0ca", max_size=40))
def test_tokenizer_agrees_with_scanner_on_any_bytes(text):
    assert_tokenizer_agrees(text.encode())


def test_clean_file_takes_the_fast_path_from_every_source(tmp_path, monkeypatch):
    def refuse(lines):
        raise AssertionError("the line scanner read a clean file")

    monkeypatch.setattr(graph, "_scan_edges", refuse)
    data = b"# header\n1 2\r\n2 3\n\n 3\t1 \n3 4\n4 4"
    path = tmp_path / "clean.txt"
    path.write_bytes(data)
    sources = (path, str(path), data, io.BytesIO(data), io.StringIO(data.decode()))
    graphs = [load_edge_list(src) for src in sources]
    assert graphs[0].summary == LoadSummary(7, 4, 1, 0)
    for g in graphs[1:]:
        assert g.summary == graphs[0].summary
        for name in ("indptr", "indices", "original_ids"):
            assert (getattr(g, name) == getattr(graphs[0], name)).all(), name


def test_fast_load_peak_stays_within_scanner_peak_plus_file(tmp_path):
    rng = np.random.default_rng(5)
    ends = rng.integers(0, 50_000, size=(200_000, 2))
    path = tmp_path / "big.txt"
    path.write_text("# generated\n" + "".join(f"{u} {v}\n" for u, v in ends.tolist()))

    def scanner_load():
        with open(path, encoding="ascii", errors="replace") as lines:
            pairs, count = graph._scan_edges(lines)
        return Graph.from_arrays(
            pairs[:, 0], pairs[:, 1], compact=True, lines_read=count
        )

    def peak(load):
        tracemalloc.start()
        try:
            g = load()
            return g, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    slow, slow_peak = peak(scanner_load)
    fast, fast_peak = peak(lambda: load_edge_list(path))
    assert fast.summary == slow.summary
    assert (fast.indices == slow.indices).all()
    assert fast_peak <= slow_peak + path.stat().st_size


def reference_load(lines, directed):
    """Arrays and summary of an edge list, from plain sets and dicts.

    A line repeats when the same arc (directed) or the same edge
    (undirected) appeared on an earlier line.
    """
    pairs = [tuple(map(int, t.split())) for t in lines if not t.startswith("#")]
    loops = sum(u == v for u, v in pairs)
    seen, flags, dups = set(), {}, 0
    for u, v in pairs:
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        flag = 3 if not directed else (1 if u < v else 2)
        dups += (edge, flag) in seen
        seen.add((edge, flag))
        flags[edge] = flags.get(edge, 0) | flag
    ids = sorted({x for edge in flags for x in edge})
    dense = {x: i for i, x in enumerate(ids)}
    rows = {i: [] for i in range(len(ids))}
    for (a, b), flag in flags.items():
        rows[dense[a]].append((dense[b], flag))
        rows[dense[b]].append((dense[a], flag if flag == MUTUAL else OUT + IN - flag))
    indptr, indices, labels = [0], [], []
    for i in range(len(ids)):
        for j, code in sorted(rows[i]):
            indices.append(j)
            labels.append(code)
        indptr.append(len(indices))
    summary = LoadSummary(len(lines), len(flags), loops, dups)
    return indptr, indices, labels, ids, summary


@st.composite
def edge_list_lines(draw):
    # a small pool of sparse ids makes self loops common; repeated and
    # reversed copies of drawn pairs add repeats and reciprocal arcs
    ids = st.integers(0, 2**63 - 1)
    pool = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    node = st.sampled_from(pool)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=20))
    again = draw(st.lists(st.sampled_from(pairs), max_size=10))
    flipped = draw(st.lists(st.sampled_from(pairs), max_size=10))
    lines = [f"{u} {v}" for u, v in pairs + again]
    lines += [f"{v} {u}" for u, v in flipped]
    lines += ["# comment"] * draw(st.integers(0, 2))
    return draw(st.permutations(lines))


@given(edge_list_lines(), st.booleans())
def test_load_matches_set_reference(lines, directed):
    indptr, indices, labels, ids, summary = reference_load(lines, directed)
    text = io.StringIO("\n".join(lines) + "\n")
    # the dense-id build of the same lines: each kept id maps to its rank,
    # and an id seen only in self loops to 0, which keeps its loops loops
    rank = {x: i for i, x in enumerate(ids)}
    pairs = [
        tuple(rank.get(int(x), 0) for x in t.split())
        for t in lines if not t.startswith("#")
    ]
    if not indices:
        with pytest.raises(EmptyGraphError):
            load_edge_list(text, directed=directed)
        with pytest.raises(EmptyGraphError):
            Graph.from_edges(pairs, directed)
        return
    g = load_edge_list(text, directed=directed)
    dense = Graph.from_edges(pairs, directed)
    assert g.original_ids.tolist() == ids
    assert g.summary == summary
    assert dense.summary == dataclasses.replace(summary, lines_read=0)
    for h in (g, dense):
        assert h.indptr.tolist() == indptr
        assert h.indices.tolist() == indices
        if directed:
            assert h.labels.tolist() == labels
        else:
            assert h.labels is None


def test_from_arrays_refuses_graphs_too_large_for_the_edge_key():
    # row * n + col stays below n**2, which reaches 2**63 just past MAX_NODES;
    # the check runs before any node-sized array is allocated
    assert MAX_NODES**2 < 2**63 <= (MAX_NODES + 1) ** 2
    with pytest.raises(GraphError, match=r"2\*\*63"):
        Graph.from_edges([(0, 1)], node_count=MAX_NODES + 1)
    with pytest.raises(GraphError, match=r"2\*\*63"):
        Graph.from_edges([(0, 3_100_000_000)])


def test_from_edges_rejects_out_of_range_ids():
    with pytest.raises(GraphError):
        Graph.from_edges([(0, 5)], node_count=3)
    with pytest.raises(GraphError):
        Graph.from_edges([(-2, 1)])


def test_non_integer_ids_are_refused_not_truncated():
    # a cast to int64 would read 1.7 as 1 and True as 1
    for u, v in (([0, 1], [1.7, 2]), ([0, 1], [True, False]), ([0.0, 1.0], [1, 2])):
        with pytest.raises(GraphError, match="integers"):
            Graph.from_arrays(np.array(u), np.array(v))
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges([(0, 1.7), (1, 2)])
    with pytest.raises(EmptyGraphError):
        Graph.from_edges([])
    g = Graph.from_arrays(np.array([0, 1], np.uint8), np.array([1, 2], np.int32))
    assert g.edge_count == 2
    for v in (3.0, 1.0, True, "1", None):
        with pytest.raises(GraphError, match="integer"):
            g.stats(v)
    assert g.stats(np.int32(1)) == g.stats(1)


def test_node_queries_refuse_ids_outside_the_graph():
    # a numpy index answers -1 with the last node's entry
    g = Graph.from_edges([(0, 1), (1, 2)])
    for query in (g.degree, g.neighbors, g.to_original, g.stats):
        for v, message in (
            (-1, "out of range"), (3, "out of range"), (1.5, "integer"), (True, "integer")
        ):
            with pytest.raises(GraphError, match=message):
                query(v)
    assert g.degree(np.int64(1)) == 2 and g.to_original(2) == 2
    assert g.neighbors(1).tolist() == [0, 2]


def test_sparse_random_graph_rejects_impossible_edge_counts():
    # more edges than node pairs, or no pair at all: rejection never ends
    for n, avg_degree in ((4, 10.0), (1, 10.0), (1, 0.0)):
        with pytest.raises(ValueError, match="need 2 or more nodes"):
            sparse_random_graph(n, avg_degree, seed=0)
    assert sparse_random_graph(4, 3.0, seed=0).degrees.tolist() == [3, 3, 3, 3]


def test_id_compaction_and_map():
    g = load_edge_list(io.StringIO("100 7\n7 250\n"))
    assert g.node_count == 3
    assert list(g.original_ids) == [7, 100, 250]
    assert g.to_dense(100) == 1 and g.to_original(1) == 100
    with pytest.raises(GraphError):
        g.to_dense(8)


def test_directed_arc_semantics():
    g = load_edge_list(io.StringIO("0 1\n2 1\n"), directed=True)
    assert g.direction_codes([0], [1])[0] == OUT
    assert g.direction_codes([1], [0])[0] == IN
    assert g.direction_codes([2], [1])[0] == OUT


def test_k4_stats(k4):
    st = k4.stats(0)
    assert (st.wedges, st.two_paths, st.forked_paths) == (3, 6, 12)
    assert (st.tail_wedges, st.three_walks, st.triples) == (3, 12, 1)


def test_star_center_stats(star4):
    st = star4.stats(0)
    assert (st.wedges, st.two_paths, st.forked_paths) == (3, 0, 0)
    assert (st.tail_wedges, st.three_walks, st.triples) == (0, 0, 1)


def test_path_mid_stats(path4):
    st = path4.stats(1)
    assert st.wedges == 1 and st.two_paths == 1 and st.three_walks == 0


def test_degree_zero_node_stats():
    g = Graph.from_edges([(0, 1)], node_count=3)
    st = g.stats(2)
    assert st.degree == 0 and st.wedges == 0 and st.two_paths == 0
    assert len(g.acc_degree(st)) == 0


def test_pos_of():
    g = Graph.from_edges([(4, 2), (4, 5), (4, 9), (2, 5)], node_count=10)
    assert list(g.neighbors(4)) == [2, 5, 9]
    assert g.pos_of_many([4], 5)[0] == 1
    assert g.pos_of_many([4], 9)[0] == 2
    with pytest.raises(NotANeighborError):
        g.pos_of_many([4], 7)[0]


def test_stats_match_naive_double_loop():
    graphs = [gnp(20 + 2 * s, 0.15, seed=s) for s in range(30)]
    graphs += [preferential_attachment(20 + 3 * s, 2, seed=s) for s in range(20)]
    for g in graphs:
        for v in range(g.node_count):
            st = g.stats(v)
            ref = naive_node_stats(g, v)
            for key, val in ref.items():
                assert getattr(st, key) == val, (v, key)


def test_acc_arrays_end_at_scalars():
    for s in range(8):
        g = gnp(30, 0.2, seed=s)
        for v in range(g.node_count):
            st = g.stats(v)
            if st.degree == 0:
                continue
            assert int(g.acc_degree(st)[-1]) == st.two_paths
            assert int(g.acc_wedge(st)[-1]) == st.tail_wedges
            assert int(g.acc_walk(st)[-1]) == st.three_walks
            assert np.all(np.diff(g.acc_degree(st)) >= 0)
            assert np.all(np.diff(g.acc_wedge(st)) >= 0)
            assert np.all(np.diff(g.acc_walk(st)) >= 0)


def test_acc_arrays_check_their_total_against_the_stats():
    # a wrapped 64-bit cumulative sum would differ from the exact Python-int
    # total in NodeStats; a total 2**64 away stands in for the wrap
    g = gnp(30, 0.2, seed=1)
    st = g.stats(int(np.argmax(g.degrees)))
    for acc, total in (
        ("acc_degree", "two_paths"), ("acc_wedge", "tail_wedges"),
        ("acc_walk", "three_walks"),
    ):
        wrapped = dataclasses.replace(st, **{total: getattr(st, total) + 2**64})
        with pytest.raises(OverflowError, match="overflowed 64 bits"):
            getattr(g, acc)(wrapped)


def test_structural_invariants():
    for s in range(8):
        g = gnp(40, 0.12, seed=s)
        g.validate()
        assert int(g.degrees.sum()) == 2 * g.edge_count


def test_directed_label_reversal():
    g = gnp_directed(25, 0.2, seed=3)
    g.validate()
    for v in range(g.node_count):
        for u in g.neighbors(v).tolist():
            a, b = g.direction_codes([v], [u])[0], g.direction_codes([u], [v])[0]
            assert (a, b) in ((OUT, IN), (IN, OUT), (MUTUAL, MUTUAL))


def test_graph_arrays_immutable(k4):
    with pytest.raises(ValueError):
        k4.indices[0] = 99
    assert k4.stats(0) == k4.stats(0)  # recomputed, same values


def test_vectorized_edge_queries(eight):
    us = np.array([0, 0, 4, 6, 3])
    vs = np.array([1, 7, 7, 7, 4])
    assert list(eight.has_edges(us, vs)) == [True, False, True, True, False]
    assert eight.pos_of_many(np.array([0, 0]), 3).tolist() == [
        eight.pos_of_many([0], 3)[0],
        eight.pos_of_many([0], 3)[0],
    ]


@st.composite
def small_graphs(draw):
    # up to 10 nodes on few edges, so isolated nodes, leaves and degree-2
    # nodes are common; node_count may exceed every id in the edge list
    n = draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=25))
    pairs = [(a, b) for a, b in pairs if a != b] or [(0, 1)]
    return Graph.from_edges(pairs, directed=draw(st.booleans()), node_count=n)


def _check_anchor_context(g: Graph, v: int) -> None:
    ctx = AnchorContext(g, v)
    assert ctx.nb.tolist() == g.neighbors(v).tolist()
    assert ctx.back.tolist() == [g.pos_of_many([int(u)], v)[0] for u in ctx.nb]
    assert ctx.code.dtype == np.int8 and len(ctx.code) == g.node_count
    for x in range(g.node_count):
        assert bool(ctx.code[x]) == g.has_edges([v], [x])[0], (v, x)
        if ctx.code[x]:
            expect = g.direction_codes([v], [x])[0] if g.directed else MUTUAL
            assert ctx.code[x] == expect, (v, x)
    _check_pair_codes(g, v)


def _check_pair_codes(g: Graph, v: int) -> None:
    """The anchor's pair codes against the edge-key search, and the build
    rule of its matrix on either side of the boundary: a batch one draw
    short of the rule searches the edge keys, the first batch the rule
    admits builds the d x d matrix, and every later batch reads it (all d*d
    entries, then a batch of one), with no search."""
    ctx = AnchorContext(g, v)
    d = len(ctx.nb)
    if not d:
        return  # no pairs to ask about
    ia, ib = np.repeat(np.arange(d), d), np.tile(np.arange(d), d)
    a, b = ctx.nb[ia], ctx.nb[ib]
    edge = g.has_edges(a, b)
    want = np.zeros(d * d, dtype=np.int8)
    want[edge] = g.direction_codes(a[edge], b[edge]) if g.directed else MUTUAL
    size = d * d + 8 * (ctx.stats.two_paths + d)  # its bytes, with the gather
    searches = []

    def counted(us, vs):
        searches.append(len(us))
        return Graph.has_edges(g, us, vs)

    batches = (((size - 1) // 24, 1), (-(-size // 24), 0), (d * d, 0), (1, 0))
    with mock.patch.object(g, "has_edges", counted):
        for k, searched in batches:
            searches.clear()
            rows = np.arange(k) % (d * d)
            got = ctx.pair_codes(g, a[rows], b[rows], ia[rows], ib[rows], g.directed)
            assert len(searches) == searched, (v, k)
            assert (got != 0).tolist() == edge[rows].tolist(), (v, k)
            if g.directed or not searched:  # an undirected search gives bools
                assert got.tolist() == want[rows].tolist(), (v, k)


@given(small_graphs())
def test_anchor_context_matches_scalar_lookups(g):
    for v in range(g.node_count):
        _check_anchor_context(g, v)


def test_anchor_context_at_low_degree_anchors():
    # node 0: isolated; 1: leaf; 2: degree 2; 3: degree 3
    edges = [(1, 3), (2, 3), (2, 4), (3, 4)]
    for directed in (False, True):
        g = Graph.from_edges(edges, directed=directed, node_count=5)
        assert g.degrees.tolist() == [0, 1, 2, 3, 2]
        for v in range(5):
            _check_anchor_context(g, v)


def test_pair_index_matches_edge_searches():
    # every entry at every anchor: a clique, two triangles with a square,
    # a directed random graph, and each connected directed 3-node graph
    graphs = [complete_graph(4), Graph.from_edges(EIGHT_EDGES)]
    graphs += [gnp_directed(30, 0.2, seed=2)]
    graphs += [g for _, g in all_directed_3node()]
    for g in graphs:
        for v in range(g.node_count):
            _check_pair_codes(g, v)


@given(small_graphs(), st.data())
def test_list_entries_are_the_lists_end_to_end(g, data):
    # the drawn nodes, then them again with every isolated node between
    # (repeats and empty lists), then no node at all
    node = st.integers(0, g.node_count - 1)
    xs = np.array(data.draw(st.lists(node, max_size=12)), dtype=np.int64)
    isolated = np.flatnonzero(g.degrees == 0)
    for case in (xs, np.concatenate((xs, isolated, xs)), xs[:0]):
        at, ends = g.list_entries(case)
        want = [i for x in case.tolist() for i in range(g.indptr[x], g.indptr[x + 1])]
        assert at.tolist() == want
        assert ends.tolist() == np.cumsum(g.degrees[case]).tolist()


def _check_batch_lookups(g: Graph, us: np.ndarray, vs: np.ndarray) -> None:
    pairs = list(zip(us.tolist(), vs.tolist()))
    assert g.has_edges(us, vs).tolist() == [g.has_edges([a], [b])[0] for a, b in pairs]
    edge = np.array([g.has_edges([a], [b])[0] for a, b in pairs], dtype=bool)
    eu, ev = us[edge], vs[edge]
    assert g.pos_of_many(eu, ev).tolist() == [
        g.pos_of_many([a], b)[0] for a, b in zip(eu.tolist(), ev.tolist())
    ]
    for b in set(ev.tolist()):  # one node looked up in many lists
        rows = eu[ev == b]
        assert g.pos_of_many(rows, b).tolist() == [
            g.pos_of_many([a], b)[0] for a in rows
        ]
    if g.directed:
        assert g.direction_codes(eu, ev).tolist() == [
            g.direction_codes([a], [b])[0] for a, b in zip(eu.tolist(), ev.tolist())
        ]
    if not edge.all():
        with pytest.raises(NotANeighborError):
            g.pos_of_many(us, vs)
        if g.directed:
            with pytest.raises(NotANeighborError):
                g.direction_codes(us, vs)


@given(small_graphs(), st.data())
def test_batch_lookups_match_scalar_calls(g, data):
    # unsorted queries with repeats; the last node's pairs lie past the
    # last edge key whenever that node has no neighbour above it
    node = st.integers(0, g.node_count - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=30))
    last = g.node_count - 1
    pairs += [(last, last), (last, 0)] + pairs[::-1]
    us = np.array([a for a, _ in pairs], dtype=np.int64)
    vs = np.array([b for _, b in pairs], dtype=np.int64)
    _check_batch_lookups(g, us, vs)


def test_batch_lookups_past_the_last_edge_key(eight):
    # (7, 7) sorts after every edge key, so its search lands past the end
    assert eight._edge_keys[-1] < 7 * eight.node_count + 7
    us = np.array([7, 0, 7, 6, 7, 0], dtype=np.int64)
    vs = np.array([7, 1, 6, 7, 7, 1], dtype=np.int64)
    assert eight.has_edges(us, vs).tolist() == [False, True, True, True, False, True]
    _check_batch_lookups(eight, us, vs)
    empty = np.array([], dtype=np.int64)
    assert eight.has_edges(empty, empty).tolist() == []
    assert eight.pos_of_many(empty, 0).tolist() == []


def test_batch_lookups_refuse_non_edges():
    # arcs 0->1->2->3: (0, 2) and (0, 3) search to entries of other pairs,
    # and (3, 3) sorts past the last edge key; a batch names its first
    # non-edge in the words of its scalar twin
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], directed=True)
    with pytest.raises(NotANeighborError, match="0 is not a neighbour of 2"):
        g.direction_codes([0], [2])
    with pytest.raises(NotANeighborError, match="0 is not a neighbour of 2"):
        g.direction_codes([1, 0, 0], [0, 2, 3])
    with pytest.raises(NotANeighborError, match="3 is not a neighbour of 0"):
        g.pos_of_many([0], 3)
    with pytest.raises(NotANeighborError, match="3 is not a neighbour of 3"):
        g.direction_codes(np.array([2, 3]), np.array([3, 3]))
    with pytest.raises(NotANeighborError, match="3 is not a neighbour of 3"):
        g.pos_of_many(np.array([2, 3]), 3)


def test_lookups_refuse_ids_out_of_range():
    # key 0 * 3 + 5 is the key of (1, 2), and on the path 0-1-2-3 the pair
    # (0, 6) has the key of (1, 2): an unchecked id answers for another pair
    g = Graph.from_edges([(1, 2)], node_count=3)
    path = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    for lookup in (
        lambda: g.has_edges([0], [5])[0],
        lambda: g.pos_of_many([0], 5)[0],
        lambda: g.has_edges(np.array([1, -1]), np.array([2, 2])),
        lambda: classify_undirected(path, 0, [0, 1, 6]),
    ):
        with pytest.raises(GraphError, match=r"node ids must lie in 0\.\."):
            lookup()


@pytest.mark.parametrize(
    "indptr, indices, labels, message",
    [
        ([0, 1, 2], [1, 5], None, "out of range"),
        ([0, 1, 2], [1, -1], None, "out of range"),
        ([0, 2, 3, 4], [2, 1, 0, 0], None, "not strictly increasing"),
        ([0, 2, 4], [1, 1, 0, 0], None, "not strictly increasing"),
        ([0, 2, 3], [0, 1, 0], None, "self loop"),
        ([0, 1, 2, 3], [1, 0, 0], None, "degree sum"),
        ([0, 1, 2, 4], [1, 2, 0, 1], None, "asymmetric edge"),
        ([0, 1, 2], [1, 0], [OUT, OUT], "label mismatch"),
        ([0, 1, 2], [1, 0], [MUTUAL, IN], "label mismatch"),
    ],
    ids=[
        "id-too-large", "id-negative", "unsorted", "repeated", "self-loop",
        "odd-degree-sum", "asymmetric", "same-direction", "mutual-one-side",
    ],
)
def test_validate_rejects_broken_invariant(indptr, indices, labels, message):
    # an id out of range fails at construction, every other case in validate
    with pytest.raises(GraphError, match=message):
        Graph(np.array(indptr), np.array(indices), labels).validate()


@pytest.mark.parametrize(
    "indptr, indices, labels, message",
    [
        ([0, 1, 2], [1, 2], None, "neighbour id out of range"),
        ([0, 1, 2], [1, -1], None, "neighbour id out of range"),
        ([0, 1, 2], [-(2**62), 0], None, "neighbour id out of range"),
        # row 0's key 0 * 3 + 4 is the key of (1, 1): built unchecked, this
        # graph would answer has_edges(1, 1) with True
        ([0, 2, 3, 4], [1, 4, 2, 0], None, "neighbour id out of range"),
        ([0, 1, 3], [1, 0], None, "indptr must rise"),
        ([1, 2, 3], [1, 0, 0], None, "indptr must rise"),
        ([0, 2, 1, 2], [1, 0], None, "indptr must rise"),
        ([], [1], None, "indptr must rise"),
        ([[0, 1, 2]], [1, 0], None, "one-dimensional"),
        # built unchecked, this graph's edge keys would be a 2 x 2 matrix
        ([0, 1, 2], [[1], [0]], None, "one-dimensional"),
        ([0, 1, 2], [1, 0], [[OUT], [IN]], "labels must align"),
    ],
    ids=[
        "id-too-large", "id-negative", "id-very-negative", "aliasing-key",
        "indptr-past-end", "indptr-late-start", "indptr-falls",
        "indptr-empty", "indptr-2d", "indices-2d", "labels-2d",
    ],
)
def test_construction_rejects_malformed_arrays(indptr, indices, labels, message):
    with pytest.raises(GraphError, match=message):
        Graph(np.array(indptr), np.array(indices), labels)


def test_validate_accepts_hand_built_graph():
    Graph(np.array([0, 1, 2]), np.array([1, 0])).validate()
    Graph(np.array([0, 1, 2]), np.array([1, 0]), [OUT, IN]).validate()
    Graph(np.array([0, 1, 2]), np.array([1, 0]), [MUTUAL, MUTUAL]).validate()
