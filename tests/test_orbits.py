"""Orbit classification tests, including a from-scratch taxonomy derivation."""

from itertools import combinations, permutations, product

import pytest

from orbitsampler import (
    EmptyGraphError,
    Graph,
    GraphError,
    exact_orbit_degrees,
    orbit_table,
    unorbit,
)
from orbitsampler.generators import gnp
from orbitsampler.orbits import CENTER_IDS, DIR3, END_IDS, ORBIT3, ORBIT4, TRIANGLE_IDS

from conftest import all_directed_3node, arc_graph, cycle_graph
from support import (
    NotACisError,
    classify_directed3,
    classify_undirected,
    gnp_directed,
)


def test_paw_anchors(paw):
    # pendant node, hub node, rim node of the triangle
    assert classify_undirected(paw, 3, (0, 1, 2, 3)) == 9
    assert classify_undirected(paw, 2, (0, 1, 2, 3)) == 11
    assert classify_undirected(paw, 0, (0, 1, 2, 3)) == 10


def test_cycle_and_diamond_anchors():
    c4 = cycle_graph(4)
    for v in range(4):
        assert classify_undirected(c4, v, (0, 1, 2, 3)) == 8
    diamond = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert classify_undirected(diamond, 0, (0, 1, 2, 3)) == 12
    assert classify_undirected(diamond, 3, (0, 1, 2, 3)) == 12
    assert classify_undirected(diamond, 1, (0, 1, 2, 3)) == 13


def test_two_node_and_errors(paw):
    assert classify_undirected(paw, 0, (0, 1)) == 0
    with pytest.raises(NotACisError):
        classify_undirected(paw, 0, (0, 3))  # not an edge
    with pytest.raises(NotACisError):
        classify_undirected(paw, 0, (1, 2, 3))  # anchor outside
    with pytest.raises(NotACisError):
        classify_undirected(Graph.from_edges([(0, 1), (2, 3)]), 0, (0, 1, 2, 3))


def test_member_order_irrelevant(eight):
    for members in combinations(range(8), 4):
        try:
            base = classify_undirected(eight, members[0], members)
        except NotACisError:
            continue
        for perm in permutations(members):
            if perm[0] != members[0]:
                continue
            assert classify_undirected(eight, members[0], perm) == base


def _anchored_isomorphic(edges_a, edges_b, n, anchor=0) -> bool:
    for perm in permutations(range(n)):
        if perm[anchor] != anchor:
            continue
        mapped = {tuple(sorted((perm[x], perm[y]))) for x, y in edges_a}
        if mapped == edges_b:
            return True
    return False


def test_undirected_taxonomy_is_the_anchored_isomorphism_partition():
    """classify_undirected must agree exactly with brute-force anchored
    isomorphism over every connected 3- and 4-node graph."""
    for n, expected_classes in ((3, 3), (4, 11)):
        pairs = list(combinations(range(n), 2))
        anchored = []
        for bits in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            try:
                g = Graph.from_edges(edges, node_count=n)
                orbit = classify_undirected(g, 0, range(n))
            except (NotACisError, EmptyGraphError):
                continue
            anchored.append((edges, orbit))
        seen = {orbit for _, orbit in anchored}
        assert len(seen) == expected_classes
        for (ea, oa), (eb, ob) in combinations(anchored, 2):
            iso = _anchored_isomorphic(ea, eb, n)
            assert iso == (oa == ob), (ea, eb, oa, ob)


def _anchored_arc_isomorphic(arcs_a, arcs_b) -> bool:
    for perm in permutations(range(3)):
        if perm[0] != 0:
            continue
        if {(perm[x], perm[y]) for x, y in arcs_a} == set(arcs_b):
            return True
    return False


def test_directed_taxonomy_is_the_anchored_isomorphism_partition():
    graphs = all_directed_3node()
    labelled = [
        (arcs, classify_directed3(g, 0, (0, 1, 2))) for arcs, g in graphs
    ]
    assert {orbit for _, orbit in labelled} == set(range(1, 31))
    for (aa, oa), (ab, ob) in combinations(labelled, 2):
        assert _anchored_arc_isomorphic(aa, ab) == (oa == ob), (aa, ab, oa, ob)


def test_orbit_tables_agree():
    # a code triple's directed orbit lies in the undirected orbit of its
    # edge pattern, and a 4-node pattern that leaves member 3 isolated is
    # disconnected
    for a, b, c in product(range(4), repeat=3):
        pattern = (a > 0) | (b > 0) << 1 | (c > 0) << 2
        if ORBIT3[pattern] < 0:
            assert DIR3[a, b, c] == -1
        else:
            assert unorbit(int(DIR3[a, b, c])) == ORBIT3[pattern]
        assert ORBIT4[pattern] == -1


def test_directed_class_sizes_and_examples():
    assert len(END_IDS) == 9 and len(CENTER_IDS) == 6 and len(TRIANGLE_IDS) == 15
    # mutual in-out star centre: codes {3,3} -> last centre id
    g = arc_graph([(0, 1), (1, 0), (0, 2), (2, 0)])
    assert classify_directed3(g, 0, (0, 1, 2)) == 14
    # fully mutual triangle -> highest triangle id
    g = arc_graph([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    assert classify_directed3(g, 0, (0, 1, 2)) == 30
    # forward chain, anchor at the tail -> first end id
    g = arc_graph([(0, 1), (1, 2)])
    assert classify_directed3(g, 0, (0, 1, 2)) == 2
    # out-star centre: codes {1,1} -> first centre id
    g = arc_graph([(0, 1), (0, 2)])
    assert classify_directed3(g, 0, (0, 1, 2)) == 1


def test_directed_requires_labels(k3):
    with pytest.raises(GraphError):
        classify_directed3(k3, 0, (0, 1, 2))


def test_unorbit_partition():
    assert unorbit(8) == 2
    assert unorbit(15) == 1
    assert unorbit(23) == 3
    assert {i for i in range(1, 31) if unorbit(i) == 1} == set(END_IDS)
    assert {i for i in range(1, 31) if unorbit(i) == 2} == set(CENTER_IDS)
    assert {i for i in range(1, 31) if unorbit(i) == 3} == set(TRIANGLE_IDS)
    with pytest.raises(ValueError):
        unorbit(31)
    with pytest.raises(ValueError):
        unorbit(0)


def test_directed_sums_match_undirected():
    for seed in range(4):
        g = gnp_directed(18, 0.25, seed)
        for v in range(g.node_count):
            counts = exact_orbit_degrees(g, v)
            for j in (1, 2, 3):
                total = sum(
                    n for i, n in counts.directed3.items() if unorbit(i) == j
                )
                assert total == counts.undirected[j]


SHAPE_MULTIPLICITY = {
    # orbit -> nodes at that orbit per instance of its shape
    1: 2, 2: 1, 3: 3,
    4: 2, 5: 2, 6: 3, 7: 1, 8: 4, 9: 1, 10: 2, 11: 1, 12: 2, 13: 2, 14: 4,
}
SHAPE_GROUPS = [(1, 2), (3,), (4, 5), (6, 7), (8,), (9, 10, 11), (12, 13), (14,)]


def test_orbit_totals_consistent_with_shape_instances():
    for seed in (1, 2):
        g = gnp(24, 0.25, seed)
        totals = {i: 0 for i in range(15)}
        for v in range(g.node_count):
            for i, c in exact_orbit_degrees(g, v).undirected.items():
                totals[i] += c
        for group in SHAPE_GROUPS:
            instances = {totals[i] / SHAPE_MULTIPLICITY[i] for i in group}
            assert len(instances) == 1, (group, totals)
            (val,) = instances
            assert val == int(val)


def test_orbit_table_shape():
    rows = orbit_table()
    assert [r["orbit"] for r in rows] == list(range(1, 31))
    assert sum(r["class"] == "path-end" for r in rows) == 9
    assert sum(r["class"] == "path-center" for r in rows) == 6
    assert sum(r["class"] == "triangle" for r in rows) == 15
    codes = {(r["class"], r["codes"]) for r in rows}
    assert len(codes) == 30


TARGET_VECTOR = {0: 3, 1: 1, 2: 2, 3: 1, 5: 1, 10: 1, 11: 1}


def test_search_realizes_reference_degree_vector():
    """A degree-3 anchor with the documented orbit-degree vector exists and
    is found by exhaustive search over graphs of at most six nodes."""
    target = {i: TARGET_VECTOR.get(i, 0) for i in range(15)}
    found = []
    pairs = list(combinations(range(1, 6), 2))
    for bits in range(1 << len(pairs)):
        edges = [(0, 1), (0, 2), (0, 3)]
        edges += [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.from_edges(edges, node_count=6)
        if exact_orbit_degrees(g, 0).undirected == target:
            found.append(edges)
    assert found, "no graph realizes the reference vector"
    witness = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
    assert exact_orbit_degrees(witness, 0).undirected == target
