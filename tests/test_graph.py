"""Graph loading, statistics, and invariant tests."""

import io

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
from orbitsampler.generators import gnp, preferential_attachment
from orbitsampler.graph import IN, MUTUAL, OUT

from conftest import naive_node_stats


def test_load_triangle():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
    assert g.node_count == 3 and g.edge_count == 3
    assert list(g.degrees) == [2, 2, 2]


def test_load_directed_mutual_merge():
    g = load_edge_list(io.StringIO("0 1\n1 0\n"), directed=True)
    assert g.edge_count == 1
    assert g.direction_code(0, 1) == MUTUAL
    assert g.direction_code(1, 0) == MUTUAL


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
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("0 x\n"))
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("-1 2\n"))


def test_load_empty_graph_error():
    with pytest.raises(EmptyGraphError):
        load_edge_list(io.StringIO("# nothing\n0 0\n"))


def test_load_accepts_bytes_and_line_iterables():
    for src in (b"0 1\n1 2\n", io.BytesIO(b"0 1\n1 2\n"), ["0 1", "1 2"]):
        assert load_edge_list(src).edge_count == 2


def test_load_directed_repeated_and_reciprocal_arcs():
    g = load_edge_list(io.StringIO("0 1\n0 1\n1 0\n1 0\n"), directed=True)
    assert g.edge_count == 1 and g.direction_code(0, 1) == MUTUAL
    assert g.summary.duplicates_merged == 2
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 1\n"), directed=True)
    assert g.direction_code(0, 1) == MUTUAL
    assert g.summary.duplicates_merged == 1


def test_load_largest_node_id():
    top = 2**63 - 1
    g = load_edge_list(io.StringIO(f"{top} 3\n3 0\n"))
    assert g.original_ids.tolist() == [0, 3, top]
    assert g.to_dense(top) == 2 and g.to_original(2) == top
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO(f"0 1\n# c\n{2**63} 1\n"))
    assert exc.value.line_no == 3


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
    if not indices:
        with pytest.raises(EmptyGraphError):
            load_edge_list(text, directed=directed)
        return
    g = load_edge_list(text, directed=directed)
    assert g.indptr.tolist() == indptr
    assert g.indices.tolist() == indices
    assert g.original_ids.tolist() == ids
    assert g.summary == summary
    if directed:
        assert g.labels.tolist() == labels
    else:
        assert g.labels is None


def test_from_edges_rejects_out_of_range_ids():
    with pytest.raises(GraphError):
        Graph.from_edges([(0, 5)], node_count=3)
    with pytest.raises(GraphError):
        Graph.from_edges([(-2, 1)])


def test_id_compaction_and_map(tmp_path):
    g = load_edge_list(io.StringIO("100 7\n7 250\n"))
    assert g.node_count == 3
    assert list(g.original_ids) == [7, 100, 250]
    assert g.to_dense(100) == 1 and g.to_original(1) == 100
    with pytest.raises(GraphError):
        g.to_dense(8)
    path = tmp_path / "ids.txt"
    g.write_id_map(path)
    rows = [line.split() for line in path.read_text().splitlines()]
    assert rows == [["0", "7"], ["1", "100"], ["2", "250"]]


def test_directed_arc_semantics():
    g = load_edge_list(io.StringIO("0 1\n2 1\n"), directed=True)
    assert g.direction_code(0, 1) == OUT
    assert g.direction_code(1, 0) == IN
    assert g.direction_code(2, 1) == OUT


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
    assert len(g.acc_degree(2)) == 0


def test_pos_of():
    g = Graph.from_edges([(4, 2), (4, 5), (4, 9), (2, 5)], node_count=10)
    assert list(g.neighbors(4)) == [2, 5, 9]
    assert g.pos_of(4, 5) == 1
    assert g.pos_of(4, 9) == 2
    with pytest.raises(NotANeighborError):
        g.pos_of(4, 7)


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
            assert int(g.acc_degree(v)[-1]) == st.two_paths
            assert int(g.acc_wedge(v)[-1]) == st.tail_wedges
            assert int(g.acc_walk(v)[-1]) == st.three_walks
            assert np.all(np.diff(g.acc_degree(v)) >= 0)
            assert np.all(np.diff(g.acc_wedge(v)) >= 0)
            assert np.all(np.diff(g.acc_walk(v)) >= 0)


def test_structural_invariants():
    for s in range(8):
        g = gnp(40, 0.12, seed=s)
        g.validate()
        assert int(g.degrees.sum()) == 2 * g.edge_count


def test_directed_label_reversal():
    from orbitsampler.generators import gnp_directed

    g = gnp_directed(25, 0.2, seed=3)
    g.validate()
    for v in range(g.node_count):
        for u in g.neighbors(v):
            a, b = g.direction_code(v, int(u)), g.direction_code(int(u), v)
            assert (a, b) in ((OUT, IN), (IN, OUT), (MUTUAL, MUTUAL))


def test_graph_arrays_immutable(k4):
    with pytest.raises(ValueError):
        k4.indices[0] = 99
    assert k4.stats(0) is k4.stats(0)  # cached


def test_vectorized_edge_queries(eight):
    us = np.array([0, 0, 4, 6, 3])
    vs = np.array([1, 7, 7, 7, 4])
    assert list(eight.has_edges(us, vs)) == [True, False, True, True, False]
    assert eight.pos_of_many(np.array([0, 0]), 3).tolist() == [
        eight.pos_of(0, 3),
        eight.pos_of(0, 3),
    ]
