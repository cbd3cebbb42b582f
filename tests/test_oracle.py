"""Oracle tests: enumeration correctness, identities, and cross counters."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import (
    CannotSampleError,
    GuardExceededError,
    bias_vector,
    enumerate_cises,
    exact_orbit_degrees,
    verify_identities,
)
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
from support import brute_force_orbits3, gnp_directed


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
    """The 3-node counts at every node against a tally of the enumerated
    member sets, each classified on its own."""
    for v in range(g.node_count):
        counts = exact_orbit_degrees(g, v, guard=None, sizes=(3,))
        und, dir3 = brute_force_orbits3(g, v)
        want = dict.fromkeys(range(15), 0)
        want[0] = g.degree(v)
        want.update(und)
        assert counts.undirected == want, v
        assert counts.directed3 == dir3, v


def _coded_graph(n: int, codes, directed: bool) -> Graph:
    """One code per node pair (i < j) in ``combinations`` order: 0 no edge,
    1 the arc i -> j, 2 the arc j -> i, 3 both arcs (mutual)."""
    arcs = []
    for (i, j), c in zip(combinations(range(n), 2), codes):
        if c & 1:
            arcs.append((i, j))
        if c & 2:
            arcs.append((j, i))
    return Graph.from_edges(arcs or [(0, 1)], directed=directed, node_count=n)


@st.composite
def coded_graphs(draw):
    # up to 8 nodes; every pair absent, one arc either way, or mutual, so
    # isolated nodes, leaves, mutual edges and complete digraphs all occur
    n = draw(st.integers(2, 8))
    pairs = n * (n - 1) // 2
    codes = draw(st.lists(st.integers(0, 3), min_size=pairs, max_size=pairs))
    return _coded_graph(n, codes, draw(st.booleans()))


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
            graphs.append(_coded_graph(n, codes, directed=True))
    graphs += [g for _, g in all_directed_3node()]
    for g in graphs:
        _assert_counter_matches_brute_force(g)
