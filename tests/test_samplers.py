"""Sampler tests: exact outcome-lattice enumeration against stated biases.

Rather than only testing statistically, ``enumerate_outcomes`` drives one
draw of ``draw_batch(g, v, method, 1, probe)`` through every value its random
draws could take, with exact probabilities.  The induced distribution over
member sets must equal the per-subgraph bias of the route at the anchor's
orbit, subgraph by subgraph.
"""

from collections import defaultdict

import numpy as np
import pytest

from orbitsampler import (
    BiasUndefinedError,
    CannotSampleError,
    METHOD_ORDER,
    bias_vector,
    classify_undirected,
    sample_members,
    tally_orbits,
)
from orbitsampler.graph import Graph
from orbitsampler.samplers import _skip_one, _skip_two, _weighted_pick, draw_batch

from conftest import EIGHT_EDGES, complete_graph, star_graph


class _NeedMore(Exception):
    pass


class _Probe:
    """Random source for single draws: replays ``prefix`` through the
    ``Generator.integers`` calls of a batch of one, each answered as a
    length-1 array, and records the range of the first call beyond it."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.i = 0
        self.need = None

    def integers(self, low, high=None, size=None):
        lo, hi = (0, low) if high is None else (low, high)
        lo, hi = np.asarray(lo), np.asarray(hi)
        assert size == 1 or (size is None and max(lo.size, hi.size) == 1)
        lo, hi = int(lo.reshape(-1)[0]), int(hi.reshape(-1)[0])
        if self.i < len(self.prefix):
            v = self.prefix[self.i]
            self.i += 1
            assert lo <= v < hi
            return np.array([v], dtype=np.int64)
        self.need = (lo, hi)
        raise _NeedMore


def enumerate_outcomes(fn):
    """All (probability, result) pairs of a function of one probe."""
    results = []

    def walk(prefix, prob):
        probe = _Probe(prefix)
        try:
            out = fn(probe)
        except _NeedMore:
            lo, hi = probe.need
            for v in range(lo, hi):
                walk(prefix + [v], prob / (hi - lo))
            return
        results.append((prob, out))

    walk([], 1.0)
    return results


def draw_outcomes(g: Graph, v: int, method: str):
    """(probability, sorted member tuple) of every outcome of one draw."""
    return [
        (p, tuple(sorted({v, *(int(c[0]) for c in cols)})))
        for p, cols in enumerate_outcomes(lambda rng: draw_batch(g, v, method, 1, rng))
    ]


def assert_exact_bias(g: Graph, v: int, method: str):
    """Outcome lattice of one route matches its bias vector exactly."""
    prob_by_set = defaultdict(float)
    for prob, members in draw_outcomes(g, v, method):
        assert len(members) in (3, 4)
        prob_by_set[members] += prob
    assert abs(sum(prob_by_set.values()) - 1.0) < 1e-12
    p = bias_vector(method, g.stats(v))
    for members, prob in prob_by_set.items():
        orbit = classify_undirected(g, v, members)
        assert p[orbit] > 0, f"{method} produced zero-probability orbit {orbit}"
        assert abs(prob - p[orbit]) < 1e-12, (members, orbit, prob, p[orbit])


def _cannot_sample(g: Graph, v: int, method: str) -> None:
    # an empty probe: the route must refuse before drawing anything
    with pytest.raises(CannotSampleError):
        draw_batch(g, v, method, 1, _Probe([]))


EIGHT = Graph.from_edges(EIGHT_EDGES)
PAW = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize("method", METHOD_ORDER)
def test_exact_bias_on_small_graphs(method):
    cases = [
        (complete_graph(4), 0),
        (PAW, 2),
        (PAW, 0),
        (EIGHT, 0),
        (EIGHT, 1),
        (EIGHT, 4),
    ]
    checked = 0
    for g, v in cases:
        try:
            assert_exact_bias(g, v, method)
            checked += 1
        except (CannotSampleError, BiasUndefinedError):
            continue
    assert checked >= 2


def test_r31_examples(paw, star4, k3):
    # triangle through the paw hub appears with probability 1/wedges = 1/3
    tri = sum(p for p, s in draw_outcomes(paw, 2, "R31") if s == (0, 1, 2))
    assert abs(tri - 1 / 3) < 1e-12
    # star centre: every draw is a path with the centre in the middle
    for p, s in draw_outcomes(star4, 0, "R31"):
        assert classify_undirected(star4, 0, s) == 2
    # triangle graph: always the whole triangle
    for p, s in draw_outcomes(k3, 0, "R31"):
        assert s == (0, 1, 2)


def test_r32_examples(paw, path4, star4):
    # paw hub: only the triangle is reachable (probability one)
    assert all(s == (0, 1, 2) for _, s in draw_outcomes(paw, 2, "R32"))
    # path end: forced two-step chain
    assert all(s == (0, 1, 2) for _, s in draw_outcomes(path4, 0, "R32"))
    assert classify_undirected(path4, 0, (0, 1, 2)) == 1
    _cannot_sample(star4, 0, "R32")


def test_r41_k4_split(k4):
    # half the draws degenerate to triangles, half give the full clique
    outcomes = draw_outcomes(k4, 0, "R41")
    p3 = sum(p for p, s in outcomes if len(s) == 3)
    p14 = sum(p for p, s in outcomes if len(s) == 4)
    assert abs(p3 - 0.5) < 1e-12 and abs(p14 - 0.5) < 1e-12
    _cannot_sample(star_graph(3), 0, "R41")


def test_r41_path_mid_never_degenerates(path4):
    # a triangle-free anchor can only yield full 4-node draws
    assert all(s == (0, 1, 2, 3) for _, s in draw_outcomes(path4, 1, "R41"))


def test_r42_examples(k4, k3):
    # star-of-star: deterministic draw with the anchor at a leaf
    g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
    assert all(s == (0, 1, 2, 3) for _, s in draw_outcomes(g, 0, "R42"))
    assert classify_undirected(g, 0, (0, 1, 2, 3)) == 6
    # 4-clique: always the clique itself
    assert all(s == (0, 1, 2, 3) for _, s in draw_outcomes(k4, 0, "R42"))
    _cannot_sample(k3, 0, "R42")


def test_r43_examples(k4, path4, star4):
    assert all(s == (0, 1, 2, 3) for _, s in draw_outcomes(path4, 0, "R43"))
    p3 = sum(p for p, s in draw_outcomes(k4, 0, "R43") if len(s) == 3)
    assert abs(p3 - 0.5) < 1e-12
    _cannot_sample(star4, 0, "R43")


def test_r44_examples(k4, star4, path4):
    assert all(s == (0, 1, 2, 3) for _, s in draw_outcomes(star4, 0, "R44"))
    assert classify_undirected(star4, 0, (0, 1, 2, 3)) == 7
    assert all(s == (0, 1, 2, 3) for _, s in draw_outcomes(k4, 0, "R44"))
    _cannot_sample(path4, 1, "R44")


def test_random_vertex_primitives():
    # uniform index draws that skip one or two excluded positions, mapped
    # exactly over every drawn index
    nb = np.array([10, 20, 30])
    assert nb[_skip_one(np.arange(2), 1)].tolist() == [10, 30]
    assert nb[_skip_one(np.arange(3), 3)].tolist() == [10, 20, 30]
    for p1, p2 in ((0, 2), (2, 0)):  # either order of the two exclusions
        assert nb[_skip_two(np.array([0]), p1, p2)].tolist() == [20]
    four = np.array([10, 20, 30, 40])
    assert four[_skip_two(np.arange(2), 1, 3)].tolist() == [10, 30]


def test_weighted_random_vertex_mapping():
    acc = np.array([2, 2, 6])  # weights 2, 0, 4
    picks = [int(_weighted_pick(acc, 1, _Probe([r]))[0]) for r in range(1, 7)]
    assert picks == [0, 0, 2, 2, 2, 2]  # middle position never chosen
    # equal weights split evenly, a single candidate is certain
    picks = [int(_weighted_pick(np.array([1, 2]), 1, _Probe([r]))[0]) for r in (1, 2)]
    assert picks == [0, 1]
    assert _weighted_pick(np.array([5]), 1, _Probe([1]))[0] == 0
    with pytest.raises(CannotSampleError):
        _weighted_pick(np.array([0, 0]), 1, _Probe([]))
    with pytest.raises(CannotSampleError):
        _weighted_pick(np.array([], dtype=np.int64), 1, _Probe([]))


def test_weighted_random_vertex_excluding_mapping():
    # R43's second step: w in N(u) - {v} weighted by d_w - 1, drawn from the
    # cumulative range with v's weight block cut out.  Anchor 2 sits between
    # the neighbours of u = 1: N(1) = [0, 2, 3] with weights 3, 1, 1, and
    # every walk-weighted first step lands on u.
    g = Graph.from_edges(
        [(1, 0), (1, 2), (1, 3), (2, 4), (0, 5), (0, 6), (0, 7), (3, 8)]
    )
    assert g.acc_degree(1).tolist() == [3, 4, 5]
    assert g.acc_walk(2).tolist() == [4, 4]
    picks = []
    for r in range(1, 5):  # residual weight 3 + 1
        u, w, _ = draw_batch(g, 2, "R43", 1, _Probe([1, r, 0]))
        assert u[0] == 1
        picks.append(int(w[0]))
    assert picks == [0, 0, 0, 3]


def test_bias_vector_values(paw, k4):
    p = bias_vector("R31", paw.stats(2))
    assert p[2] == pytest.approx(1 / 3) and p[3] == pytest.approx(1 / 3)
    assert p[1] == 0.0
    p = bias_vector("R42", k4.stats(0))
    assert p[6] == p[9] == p[10] == p[13] == pytest.approx(1 / 3)
    assert p[12] == pytest.approx(2 / 3) and p[14] == pytest.approx(1.0)
    st3 = complete_graph(4).stats(0)
    p = bias_vector("R44", st3)
    assert p[7] == p[11] == p[13] == p[14] == 1.0
    with pytest.raises(BiasUndefinedError):
        bias_vector("R32", star_graph(3).stats(0))


def test_batch_determinism_and_members(eight):
    for method in METHOD_ORDER:
        t1 = tally_orbits(eight, 0, method, 5000, np.random.default_rng(9))
        t2 = tally_orbits(eight, 0, method, 5000, np.random.default_rng(9))
        assert (t1 == t2).all()
        assert t1.sum() == 5000
        mem = sample_members(eight, 0, method, 200, np.random.default_rng(9))
        assert (mem[:, 0] == 0).all()


def test_batch_never_hits_zero_probability_orbits(eight):
    for method in METHOD_ORDER:
        for v in range(eight.node_count):
            try:
                p = bias_vector(method, eight.stats(v))
            except BiasUndefinedError:
                continue
            tally = tally_orbits(eight, v, method, 20_000, np.random.default_rng(v))
            for orbit, prob in p.items():
                if prob == 0.0:
                    assert tally[orbit] == 0, (method, v, orbit)


def test_batch_labels_match_scalar_classifier(eight):
    # the vectorized per-draw labeling must agree with the general
    # classifier on every single draw
    from orbitsampler.orbits import (
        classify_chain_batch,
        classify_quad_batch,
        classify_wedge_batch,
    )
    from orbitsampler.samplers import draw_batch

    for v in (0, 1, 4):
        for method in METHOD_ORDER:
            try:
                cols = draw_batch(eight, v, method, 500, np.random.default_rng(v))
            except CannotSampleError:
                continue
            if method == "R31":
                labels = classify_wedge_batch(eight, v, cols[0], cols[1], False)
            elif method == "R32":
                labels = classify_chain_batch(eight, v, cols[0], cols[1], False)
            else:
                labels = classify_quad_batch(eight, method, v, *cols)
            for row in range(500):
                members = {v, *(int(c[row]) for c in cols)}
                assert classify_undirected(eight, v, members) == labels[row]


def test_batch_directed_labels_match_scalar_classifier():
    from orbitsampler.generators import gnp_directed
    from orbitsampler.orbits import classify_chain_batch, classify_wedge_batch
    from orbitsampler.samplers import draw_batch
    from orbitsampler import classify_directed3

    g = gnp_directed(20, 0.25, seed=6)
    v = int(np.argmax(g.degrees))
    for method, fn in (("R31", classify_wedge_batch), ("R32", classify_chain_batch)):
        cols = draw_batch(g, v, method, 500, np.random.default_rng(1))
        labels = fn(g, v, cols[0], cols[1], True)
        for row in range(500):
            members = {v, int(cols[0][row]), int(cols[1][row])}
            assert classify_directed3(g, v, members) == labels[row]
