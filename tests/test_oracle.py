"""Oracle tests: enumeration correctness, identities, and cross counters."""

import ast
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from orbitsampler import (
    CannotSampleError,
    GuardExceededError,
    bias_vector,
    exact_orbit_degrees,
    verify_identities,
)
from orbitsampler import oracle, samplers
from orbitsampler.generators import gnp, preferential_attachment
from orbitsampler.graph import Graph
from orbitsampler.oracle import candidate_bound, check_guard
from orbitsampler.samplers import METHOD_ORDER

from conftest import (
    EIGHT_EDGES,
    all_directed_3node,
    complete_graph,
    naive_cises,
    path_graph,
    star_graph,
)
from support import (
    brute_force_orbits3,
    brute_force_orbits4,
    coded_graph,
    coded_graphs,
    enumerate_cises,
    gnp_directed,
)


def test_enumerate_k4_triangles(k4):
    sets = list(enumerate_cises(k4, 0, 3))
    assert len(sets) == 3 and len(set(sets)) == 3


def test_enumerate_path_single_quad(path4):
    assert list(enumerate_cises(path4, 0, 4)) == [(0, 1, 2, 3)]


def test_enumerate_star_leaf(star4):
    sets = set(enumerate_cises(star4, 1, 3))
    assert sets == {(0, 1, 2), (0, 1, 3)}


def test_enumeration_matches_naive_reference():
    for seed in range(6):
        g = gnp(16, 0.3, seed)
        for v in range(g.node_count):
            for k in (3, 4):
                fast = sorted(enumerate_cises(g, v, k))
                assert len(fast) == len(set(fast)), "duplicate emission"
                assert set(fast) == naive_cises(g, v, k)


def test_exact_degrees_paw(paw):
    c = exact_orbit_degrees(paw, 2).undirected
    assert {i: n for i, n in c.items() if n} == {0: 3, 2: 2, 3: 1, 11: 1}


def test_exact_degrees_k4(k4):
    c = exact_orbit_degrees(k4, 0).undirected
    assert {i: n for i, n in c.items() if n} == {0: 3, 3: 3, 14: 1}


def test_eight_covers_every_orbit():
    # conftest's EIGHT_EDGES claims an instance of every undirected orbit
    g = Graph.from_edges(EIGHT_EDGES)
    seen = set()
    for v in range(g.node_count):
        und, _ = brute_force_orbits3(g, v)
        seen |= {i for i, n in (und | brute_force_orbits4(g, v)).items() if n}
    assert seen == set(range(1, 15))


def test_exact_counts_serialize_for_a_numpy_node_id():
    g = preferential_attachment(40, 2, seed=3)
    counts = exact_orbit_degrees(g, np.argmax(g.degrees))
    assert type(counts.node) is int
    assert json.loads(json.dumps(dataclasses.asdict(counts)))["node"] == counts.node


NORMALIZERS = (
    "wedges", "two_paths", "forked_paths", "tail_wedges", "three_walks", "triples"
)


def _assert_identities_hold(g, v):
    rep = verify_identities(exact_orbit_degrees(g, v), g.stats(v))
    assert rep.residuals == dict.fromkeys(NORMALIZERS, 0) and rep.ok, (v, rep)


def test_identities_paw(paw):
    _assert_identities_hold(paw, 2)
    _assert_identities_hold(paw, 0)


def test_identities_degree_one_node(paw):
    _assert_identities_hold(paw, 3)


def _triangle_count(g: Graph) -> int:
    total = 0
    for v in range(g.node_count):
        nb = [int(x) for x in g.neighbors(v)]
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                if g.has_edges([a], [b])[0]:
                    total += 1
    return total // 3


def _k4_count(g: Graph) -> int:
    # each 4-clique is counted once per edge, six times in total
    total = 0
    for v in range(g.node_count):
        for u in g.neighbors(v):
            u = int(u)
            if u < v:
                continue
            common = [
                x
                for x in g.neighbors(v).tolist()
                if x != u and g.has_edges([x], [u])[0]
            ]
            for i, a in enumerate(common):
                for b in common[i + 1 :]:
                    if g.has_edges([a], [b])[0]:
                        total += 1
    return total // 6


def test_totals_match_independent_counters():
    for seed in (0, 3):
        g = gnp(22, 0.3, seed)
        per_node = [exact_orbit_degrees(g, v).undirected for v in range(g.node_count)]
        assert sum(c[3] for c in per_node) == 3 * _triangle_count(g)
        assert sum(c[14] for c in per_node) == 4 * _k4_count(g)


def test_sampler_normalization_against_oracle():
    graphs = [Graph.from_edges(EIGHT_EDGES)] + [gnp(14, 0.3, s) for s in range(3)]
    for g in graphs:
        for v in range(g.node_count):
            counts = exact_orbit_degrees(g, v).undirected
            st = g.stats(v)
            for method in METHOD_ORDER:
                try:
                    p = bias_vector(method, st)
                except CannotSampleError:
                    continue
                total = sum(p[i] * counts[i] for i in p)
                assert total == pytest.approx(1.0, abs=1e-9), (v, method)


def test_guard():
    hub = star_graph(60)
    assert candidate_bound(hub.stats(0)) > 10_000
    with pytest.raises(GuardExceededError):
        check_guard(hub, 0, limit=10_000)
    with pytest.raises(GuardExceededError):
        exact_orbit_degrees(hub, 0, guard=10)
    check_guard(hub, 0, limit=None)  # disabled guard never raises


def test_oracle_makes_no_back_queries_and_one_stats_call(monkeypatch):
    # the guard is priced from the context's statistics, and the oracle
    # never reads the context's back positions
    calls = {"pos_of_many": 0, "stats": 0}
    for name in calls:
        def spy(self, *args, _name=name, _real=getattr(Graph, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(Graph, name, spy)
    for g in (gnp(20, 0.3, 1), gnp_directed(20, 0.3, 1)):
        for v, sizes in ((0, (3, 4)), (1, (3,)), (2, (4,))):
            for guard in (oracle.DEFAULT_GUARD, None):
                calls.update(pos_of_many=0, stats=0)
                exact_orbit_degrees(g, v, guard=guard, sizes=sizes)
                assert calls == {"pos_of_many": 0, "stats": 1}
    calls.update(stats=0)
    with pytest.raises(GuardExceededError):
        exact_orbit_degrees(star_graph(60), 0, guard=10)
    assert calls == {"pos_of_many": 0, "stats": 1}


def test_oracle_counts_match_public_classifier():
    # the oracle's tallies by edge pattern and code triple must agree with
    # the classifiers applied to each member set, undirected and directed
    from support import classify_directed3, classify_undirected, gnp_directed

    for seed in range(3):
        g = gnp_directed(16, 0.3, seed)
        for v in range(g.node_count):
            counts = exact_orbit_degrees(g, v, guard=None)
            und = {i: 0 for i in range(15)}
            und[0] = g.degree(v)
            dir3 = {i: 0 for i in range(1, 31)}
            for k in (3, 4):
                for mem in enumerate_cises(g, v, k):
                    und[classify_undirected(g, v, mem)] += 1
                    if k == 3:
                        dir3[classify_directed3(g, v, mem)] += 1
            assert und == counts.undirected
            assert dir3 == counts.directed3


def test_identity_residuals_on_random_graphs():
    for seed in range(6):
        g = (
            gnp(30, 0.15, seed)
            if seed % 2 == 0
            else preferential_attachment(30, 2, seed)
        )
        for v in range(g.node_count):
            _assert_identities_hold(g, v)


def _assert_counter_matches_brute_force(g: Graph) -> None:
    """The counts at every node, of 3-node subgraphs alone and of both
    sizes, against tallies of the enumerated member sets: 3-node sets
    classified one at a time, 4-node sets by edge pattern."""
    for v in range(g.node_count):
        und, dir3 = brute_force_orbits3(g, v)
        three = {0: g.degree(v), **und, **dict.fromkeys(range(4, 15), 0)}
        both = {**three, **brute_force_orbits4(g, v)}
        for sizes, want in (((3,), three), ((3, 4), both)):
            counts = exact_orbit_degrees(g, v, guard=None, sizes=sizes)
            assert counts.undirected == want, (v, sizes)
            assert counts.directed3 == dir3, (v, sizes)


@given(coded_graphs())
def test_three_node_counter_matches_brute_force(g):
    _assert_counter_matches_brute_force(g)


def test_three_node_counter_corner_cases():
    rng = np.random.default_rng(7)
    graphs = [
        star_graph(5),  # neighbours with no other neighbour
        path_graph(3),  # anchors of degree 1 and 2
        Graph.from_edges([(1, 2)], node_count=4),  # isolated anchors
        Graph.from_edges([(1, 2)], directed=True, node_count=4),
        complete_graph(6),
        gnp_directed(25, 0.3, seed=4),
    ]
    for n in (4, 6):
        # complete digraphs: all mutual, a tournament, mixed codes
        pairs = n * (n - 1) // 2
        tournament, mixed = rng.integers(1, 3, pairs), rng.integers(1, 4, pairs)
        for codes in ([3] * pairs, tournament, mixed):
            graphs.append(coded_graph(n, codes, directed=True))
    graphs += [g for _, g in all_directed_3node()]
    for g in graphs:
        _assert_counter_matches_brute_force(g)


def test_counts_match_brute_force_in_small_chunks(monkeypatch):
    # with a few rows per chunk R41 and R42 split across many chunks, and
    # the chunks' boundaries fall inside lists and inside entries; R32's
    # selections are the gather's entries, in one batch
    monkeypatch.setattr(samplers, "_SELECTION_CHUNK", 5)
    seen = []  # the method and row count of every batch the oracle tallies

    def spy(g, ctx, methods):
        for method, cols in samplers.selections(g, ctx, methods):
            seen.append((method, len(cols[0])))
            yield method, cols

    monkeypatch.setattr(oracle, "selections", spy)
    graphs = (
        Graph.from_edges(EIGHT_EDGES), gnp(18, 0.3, 2), preferential_attachment(25, 3, 4)
    )
    for g in graphs:
        seen.clear()
        _assert_counter_matches_brute_force(g)
        stats = [g.stats(v) for v in range(g.node_count)]
        # R32 is listed at both sizes the check counts, R41 and R42 at one
        for method, normalizer, calls in (
            ("R32", "two_paths", 2), ("R41", "forked_paths", 1), ("R42", "tail_wedges", 1)
        ):
            rows = [n for m, n in seen if m == method]
            total = sum(getattr(st, normalizer) for st in stats)
            assert sum(rows) == calls * total, method
            if method == "R32":
                assert len(rows) == calls * sum(st.two_paths > 0 for st in stats)
            else:
                assert len(rows) > 10 and all(0 < n <= 5 for n in rows), method


def test_four_node_counter_memory_stays_within_one_chunk():
    # The peak is the gather of the anchor's lists, O(two_paths + d) with
    # the node-sized code array, plus the temporaries of one chunk: about
    # 120 bytes per row were measured.  Classifying all forked_paths
    # selections at once would take some 16 MB here.
    g = preferential_attachment(1500, 3, seed=1)
    hub = int(np.argmax(g.degrees))
    st = g.stats(hub)
    chunk = samplers._SELECTION_CHUNK
    assert st.forked_paths > 8 * chunk
    exact_orbit_degrees(g, hub, guard=None)  # warm the graph's caches
    tracemalloc.start()
    try:
        exact_orbit_degrees(g, hub, guard=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 64 * (st.two_paths + st.degree) + g.node_count + 160 * chunk
    assert peak < bound, (peak, bound)


def test_counter_gathers_the_lists_once_per_use(monkeypatch):
    # at a hub whose R41 selections span many chunks: one gather for the
    # selections of all three routes, one for the pair matrix that every
    # R41 chunk reads
    g = preferential_attachment(1500, 3, seed=1)
    hub = int(np.argmax(g.degrees))
    want = exact_orbit_degrees(g, hub, guard=None)
    gathers = []
    list_entries = Graph.list_entries

    def counted(self, xs):
        gathers.append(len(xs))
        return list_entries(self, xs)

    monkeypatch.setattr(Graph, "list_entries", counted)
    assert exact_orbit_degrees(g, hub, guard=None) == want
    assert gathers == [g.degree(hub)] * 2


def test_directed_counter_classifies_through_the_module(monkeypatch):
    # a directed graph's 3-node subgraphs: one gather of the lists, and each
    # entry classified once by the chain classifier, looked up on samplers
    # at the call (as a wrapper set there sees it)
    g = gnp_directed(40, 0.2, seed=3)
    v = int(np.argmax(g.degrees))
    want = exact_orbit_degrees(g, v, guard=None, sizes=(3,))
    gathers, rows = [], []
    list_entries = Graph.list_entries
    chain = samplers.classify_chain_batch

    def counted(self, xs):
        gathers.append(len(xs))
        return list_entries(self, xs)

    def spy(g, ctx, u, w, at, directed):
        rows.append((len(u), directed))
        return chain(g, ctx, u, w, at, directed)

    monkeypatch.setattr(Graph, "list_entries", counted)
    monkeypatch.setattr(samplers, "classify_chain_batch", spy)
    assert exact_orbit_degrees(g, v, guard=None, sizes=(3,)) == want
    assert gathers == [g.degree(v)]
    assert rows == [(g.stats(v).two_paths, True)]


def test_sizes_must_hold_three_or_four(paw):
    for sizes in ((), (5,), (3, 5), (2,)):
        with pytest.raises(ValueError, match="sizes must hold 3, 4 or both"):
            exact_orbit_degrees(paw, 2, sizes=sizes)
    whole = exact_orbit_degrees(paw, 2).undirected
    for sizes, orbits in (((3,), range(1, 4)), ((4,), range(4, 15))):
        part = exact_orbit_degrees(paw, 2, sizes=sizes).undirected
        assert part == {i: whole[i] if i in orbits or i == 0 else 0 for i in range(15)}


def test_oracle_imports_nothing_from_the_estimator():
    # the ground truth must not lean on the code it checks
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"estimators", "experiment"}, sorted(names)
    assert "samplers.MODES" in names
