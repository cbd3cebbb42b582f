"""Sampler tests: exact outcome-lattice enumeration against stated biases.

Rather than only testing statistically, ``enumerate_outcomes`` drives one
draw of ``draw_batch(g, ctx, method, 1, probe)`` through every value its random
draws could take, with exact probabilities.  The induced distribution over
member sets must equal the per-subgraph bias of the route at the anchor's
orbit, subgraph by subgraph.
"""

import copy
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import (
    AnchorContext,
    CannotSampleError,
    METHOD_ORDER,
    bias_vector,
    tally_orbits,
)
from orbitsampler import samplers
from orbitsampler.generators import gnp, preferential_attachment
from orbitsampler.graph import Graph
from orbitsampler.samplers import (
    ROUTES,
    _second_step,
    _skip_one,
    _skip_two,
    _weighted_pick,
    classify_chain_batch,
    classify_quad_batch,
    classify_wedge_batch,
    draw_batch,
    selections,
)

from conftest import EIGHT_EDGES, all_directed_3node, complete_graph, star_graph
from support import (
    classify_directed3,
    classify_undirected,
    enumerate_cises,
    gnp_directed,
)


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
    ctx = AnchorContext(g, v)
    size = ROUTES[method].size
    outcomes = enumerate_outcomes(lambda rng: draw_batch(g, ctx, method, 1, rng))
    return [
        (p, tuple(sorted({v, *(int(c[0]) for c in cols[:size])})))
        for p, cols in outcomes
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
        draw_batch(g, AnchorContext(g, v), method, 1, _Probe([]))


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
        except CannotSampleError:
            continue
    assert checked >= 2


def test_r31_examples(paw, star4, k3):
    # triangle through the paw hub appears with probability 1/wedges = 1/3
    tri = sum(p for p, s in draw_outcomes(paw, 2, "R31") if s == (0, 1, 2))
    assert abs(tri - 1 / 3) < 1e-12
    # star centre: every draw is a path with the centre in the middle
    for p, s in draw_outcomes(star4, 0, "R31"):
        assert classify_undirected(star4, 0, s) == 2
    # ... and the centre of the whole star, which no route draws, is orbit 7
    assert classify_undirected(star4, 0, (0, 1, 2, 3)) == 7
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


def test_skip_one_and_skip_two_map_every_index():
    # uniform index draws that skip one or two excluded positions, mapped
    # exactly over every drawn index
    nb = np.array([10, 20, 30])
    assert nb[_skip_one(np.arange(2), 1)].tolist() == [10, 30]
    assert nb[_skip_one(np.arange(3), 3)].tolist() == [10, 20, 30]
    for p1, p2 in ((0, 2), (2, 0)):  # either order of the two exclusions
        assert nb[_skip_two(np.array([0]), p1, p2)].tolist() == [20]
    four = np.array([10, 20, 30, 40])
    assert four[_skip_two(np.arange(2), 1, 3)].tolist() == [10, 30]


def test_weighted_pick_maps_every_draw():
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


def test_r43_second_step_cuts_out_the_anchor_block():
    # R43's first two steps are one pick over the entries of the anchor's
    # neighbour lists, entry w weighing d_w - 1 and v's entries 0.  Anchor 2
    # has N(2) = [1, 4]: N(1) = [0, 2, 3] weighs 3, 0, 1 and N(4) = [2]
    # weighs 0, so the cumulative entry weights are 3, 3, 4, 4.
    g = Graph.from_edges(
        [(1, 0), (1, 2), (1, 3), (2, 4), (0, 5), (0, 6), (0, 7), (3, 8)]
    )
    assert g.acc_degree(g.stats(1)).tolist() == [3, 4, 5]
    assert g.acc_walk(g.stats(2)).tolist() == [4, 4]
    ctx = AnchorContext(g, 2)
    picks = []
    for r in range(1, 5):  # residual weight 3 + 1
        u, w, _ = draw_batch(g, ctx, "R43", 1, _Probe([r, 0]))
        assert u[0] == 1
        picks.append(int(w[0]))
    assert picks == [0, 0, 0, 3]


@st.composite
def pick_cases(draw):
    """Weights with zero runs at either end and inside, totals from below
    to far above 16 per candidate and up to near 2**62, and batches from no
    draw to many per candidate."""
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from(["unit", "wide", "skewed", "huge"]))
    if scale == "unit":
        body = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    elif scale == "wide":
        body = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    elif scale == "skewed":  # Pareto(1.1), as the weights at a hub
        seed = draw(st.integers(0, 2**32 - 1))
        pareto = np.random.default_rng(seed).pareto(1.1, n)
        body = np.minimum(pareto * 10, 10**12).astype(np.int64).tolist()
    else:
        body = draw(st.lists(st.integers(0, 2**62 // n), min_size=n, max_size=n))
    zeros = st.integers(0, 3)
    weights = [0] * draw(zeros) + body + [0] * draw(zeros)
    if sum(weights) == 0:
        weights[draw(st.integers(0, len(weights) - 1))] = 1
    # 4 per candidate: as many buckets as draws, some holding one answer
    ks = [0, 1, max(1, n // 2), 4 * len(weights), 50 * len(weights)]
    k = draw(st.sampled_from(ks))
    return np.cumsum(weights, dtype=np.int64), k, draw(st.integers(0, 2**32 - 1))


@given(pick_cases())
def test_weighted_pick_equals_searchsorted_of_the_same_draws(case):
    acc, k, seed = case
    rng = np.random.default_rng(seed)
    clone = copy.deepcopy(rng)
    picks = _weighted_pick(acc, k, rng)
    rnd = clone.integers(1, int(acc[-1]) + 1, size=k)
    assert picks.tolist() == np.searchsorted(acc, rnd, side="left").tolist()
    # one integers call: both generators are left in the same state
    assert rng.bit_generator.state == clone.bit_generator.state


def _r43_per_draw_reference(g, ctx, k, rng):
    """R43 with a searchsorted per draw: one integers call over the
    cumulative weights of the entries of the anchor's neighbour lists (d_w - 1
    per entry w, 0 at v's entries), and u the list that holds each entry."""
    lists, entries, weights = [], [], []
    for x in ctx.nb.tolist():
        for y in g.neighbors(x).tolist():
            lists.append(x)
            entries.append(y)
            weights.append(0 if y == ctx.v else int(g.degrees[y]) - 1)
    acc = np.cumsum(weights)
    assert int(acc[-1]) == ctx.stats.three_walks
    rnd = rng.integers(1, int(acc[-1]) + 1, size=k)
    u = np.empty(k, dtype=np.int64)
    w = np.empty(k, dtype=np.int64)
    for n, r in enumerate(rnd.tolist()):
        j = int(np.searchsorted(acc, r, side="left"))
        u[n], w[n] = lists[j], entries[j]
    return u, w, g.indices[_second_step(g, w, g.pos_of_many(w, u), rng)]


def test_r43_batched_draws_match_the_per_draw_loop():
    g = preferential_attachment(3000, 3, seed=11)
    ctx = AnchorContext(g, int(np.argmax(g.degrees)))
    got = draw_batch(g, ctx, "R43", 20_000, np.random.default_rng(5))
    want = _r43_per_draw_reference(g, ctx, 20_000, np.random.default_rng(5))
    assert len(np.unique(got[0])) > 50  # many groups, in one batch
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()


@pytest.mark.parametrize("method", METHOD_ORDER)
def test_empty_batch_draws_nothing(method):
    ctx = AnchorContext(EIGHT, 0)
    cols = draw_batch(EIGHT, ctx, method, 0, np.random.default_rng(0))
    assert [len(c) for c in cols] == [0] * len(cols)


def test_bias_vector_values(paw, k4):
    p = bias_vector("R31", paw.stats(2))
    assert p[2] == pytest.approx(1 / 3) and p[3] == pytest.approx(1 / 3)
    assert p[1] == 0.0
    p = bias_vector("R42", k4.stats(0))
    assert p[6] == p[9] == p[10] == p[13] == pytest.approx(1 / 3)
    assert p[12] == pytest.approx(2 / 3) and p[14] == pytest.approx(1.0)
    undefined = r"R32 cannot draw at node 0 \(two_paths = 0\)"
    with pytest.raises(CannotSampleError, match=undefined):
        bias_vector("R32", star_graph(3).stats(0))


def test_batch_determinism_and_members(eight):
    ctx = AnchorContext(eight, 0)
    for method in METHOD_ORDER:
        t1 = tally_orbits(eight, ctx, method, 5000, np.random.default_rng(9))
        t2 = tally_orbits(eight, ctx, method, 5000, np.random.default_rng(9))
        assert (t1 == t2).all()
        assert t1.sum() == 5000
        # one seed draws the same members; each drawn set, with the anchor,
        # is a connected induced subgraph (4-node routes may degenerate to 3)
        size = ROUTES[method].size
        m1 = draw_batch(eight, ctx, method, 200, np.random.default_rng(9))[:size]
        m2 = draw_batch(eight, ctx, method, 200, np.random.default_rng(9))[:size]
        assert all((a == b).all() for a, b in zip(m1, m2, strict=True))
        masks = np.bitwise_or.reduce([1 << col for col in m1]) | 1  # anchor 0
        sizes = (3,) if size == 2 else (3, 4)
        cises = {sum(1 << x for x in c) for k in sizes for c in enumerate_cises(eight, 0, k)}
        assert set(masks.tolist()) <= cises


def test_batch_never_hits_zero_probability_orbits(eight):
    for method in METHOD_ORDER:
        for v in range(eight.node_count):
            try:
                p = bias_vector(method, eight.stats(v))
            except CannotSampleError:
                continue
            ctx = AnchorContext(eight, v)
            tally = tally_orbits(eight, ctx, method, 20_000, np.random.default_rng(v))
            for orbit, prob in p.items():
                if prob == 0.0:
                    assert tally[orbit] == 0, (method, v, orbit)


def _batch_labels(g, ctx, method, cols, directed=False):
    """The route's batch classifier, fed every column draw_batch returned."""
    if method == "R31":
        return classify_wedge_batch(g, ctx, *cols, directed)
    if method == "R32":
        return classify_chain_batch(g, ctx, *cols, directed)
    return classify_quad_batch(g, method, ctx, *cols)


def _scalar_labels(g, v, method, cols, directed=False):
    """Each draw's orbit by the scalar classifier, from the member columns."""
    classify = classify_directed3 if directed else classify_undirected
    members = cols[: ROUTES[method].size]
    return [
        classify(g, v, {v, *(int(c[row]) for c in members)})
        for row in range(len(members[0]))
    ]


def test_batch_labels_match_scalar_classifier(eight):
    # the vectorized per-draw labeling must agree with the general
    # classifier on every single draw
    degenerate = 0
    for v in (0, 1, 4):
        ctx = AnchorContext(eight, v)
        for method in METHOD_ORDER:
            try:
                cols = draw_batch(eight, ctx, method, 500, np.random.default_rng(v))
            except CannotSampleError:
                continue
            labels = _batch_labels(eight, ctx, method, cols)
            assert labels.tolist() == _scalar_labels(eight, v, method, cols)
            if method == "R41":
                # R41's degenerate draws, w == r, are exactly its triangles
                assert ((labels == 3) == (cols[1] == cols[2])).all()
                degenerate += int((cols[1] == cols[2]).sum())
    assert degenerate > 0


def test_batch_directed_labels_match_scalar_classifier(monkeypatch):
    g = gnp_directed(20, 0.25, seed=6)
    v = int(np.argmax(g.degrees))
    ctx = AnchorContext(g, v)
    for method in ("R31", "R32"):
        cols = draw_batch(g, ctx, method, 500, np.random.default_rng(1))
        labels = _batch_labels(g, ctx, method, cols, True)
        assert labels.tolist() == _scalar_labels(g, v, method, cols, True)
    # 4-node draws have no directed orbits
    for method in ("R41", "R42", "R43"):
        with pytest.raises(ValueError, match="undirected only"):
            tally_orbits(g, ctx, method, 10, np.random.default_rng(1), directed=True)

    # every connected directed 3-node graph, through each draw shape that
    # reaches it: wedges (0; u, w), fed the positions of u and w in N(0),
    # and chains 0 - u - w, fed the adjacency index of w in N(u).  Each
    # batch gets a fresh context.  Wedges in a batch of 64 read the pair
    # matrix; in a batch of one, the matrix (4 + 8 * (two_paths + 2) bytes)
    # is over the build rule at every triangle, so those search the edge
    # keys, once per batch.
    searches = []
    has_edges = Graph.has_edges

    def counted(self, us, vs):
        searches.append(len(us))
        return has_edges(self, us, vs)

    monkeypatch.setattr(Graph, "has_edges", counted)
    seen = set()
    for _, g in all_directed_3node():
        want = classify_directed3(g, 0, (0, 1, 2))
        triangle = g.edge_count == 3
        for u, w in ((1, 2), (2, 1)):
            for k in (1, 64):
                shapes = []
                if g.has_edges([0], [u])[0] and g.has_edges([0], [w])[0]:
                    at = (g.pos_of_many([0], u)[0], g.pos_of_many([0], w)[0])
                    shapes.append((classify_wedge_batch, (u, w, *at)))
                if g.has_edges([0], [u])[0] and g.has_edges([u], [w])[0]:
                    at = g.indptr[u] + g.pos_of_many([u], w)[0]
                    shapes.append((classify_chain_batch, (u, w, at)))
                for fn, row in shapes:
                    ctx = AnchorContext(g, 0)
                    cols = [np.full(k, x) for x in row]
                    searches.clear()
                    got = fn(g, ctx, *cols, True)
                    assert got.tolist() == [want] * k, (fn.__name__, u, w, k)
                    searched = fn is classify_wedge_batch and k == 1 and triangle
                    assert searches == ([k] if searched else []), (fn.__name__, k)
                    seen.add(want)
    assert seen == set(range(1, 31))


# Per route that reads the pair index: its has_edges calls per batch when
# the batch is below the build rule (the edge keys answer every pair) and
# when it is at the rule (only pairs outside N(v) are searched).
_SEARCHES = {"R31": (1, 0), "R41": (2, 1)}


@pytest.mark.parametrize(
    "method, directed", [("R31", False), ("R31", True), ("R41", False)]
)
def test_pair_index_build_rule_keeps_labels(method, directed, monkeypatch):
    # The index is built only when it and its gather take no more bytes
    # than three int64 columns of the batch.  A tally one draw below that
    # size searches the edge keys, a tally at it reads the index, and both
    # label every draw as the scalar classifiers do.
    g = gnp_directed(40, 0.2, seed=3) if directed else gnp(40, 0.2, seed=3)
    v = int(np.argmax(g.degrees))
    d = g.degree(v)
    size = d * d + 8 * (g.stats(v).two_paths + d)
    searches = []
    has_edges = Graph.has_edges

    def counted(self, us, vs):
        searches.append(len(us))
        return has_edges(self, us, vs)

    monkeypatch.setattr(Graph, "has_edges", counted)
    ctx = AnchorContext(g, v)
    for k, expect in zip(((size - 1) // 24, -(-size // 24)), _SEARCHES[method]):
        searches.clear()
        tally = tally_orbits(g, ctx, method, k, np.random.default_rng(k), directed)
        assert len(searches) == expect, (k, searches)
        cols = draw_batch(g, ctx, method, k, np.random.default_rng(k))
        want = _scalar_labels(g, v, method, cols, directed)
        assert tally.tolist() == np.bincount(want, minlength=len(tally)).tolist()


def test_pair_matrix_is_gathered_once_per_context(monkeypatch):
    # the first batch that the build rule admits gathers the neighbours'
    # lists for the pair matrix; a later batch on that context reads it
    g = gnp(40, 0.2, seed=3)
    ctx = AnchorContext(g, int(np.argmax(g.degrees)))
    gathers = []
    list_entries = Graph.list_entries

    def counted(self, xs):
        gathers.append(len(xs))
        return list_entries(self, xs)

    monkeypatch.setattr(Graph, "list_entries", counted)
    for seed in (1, 2):
        cols = draw_batch(g, ctx, "R31", 1000, np.random.default_rng(seed))
        want = _scalar_labels(g, ctx.v, "R31", cols)
        assert classify_wedge_batch(g, ctx, *cols, False).tolist() == want
    assert gathers == [len(ctx.nb)]


def test_selections_list_every_selection_once(monkeypatch, eight):
    # each R32, R41 and R42 selection, as a Python loop lists it, comes once
    # in draw_batch's column layout; R32's in one batch, R41's and R42's in
    # chunks, also when the chunks split lists
    methods = ("R32", "R41", "R42")
    for chunk in (1 << 14, 3):
        monkeypatch.setattr(samplers, "_SELECTION_CHUNK", chunk)
        for g in (eight, gnp(14, 0.35, seed=5)):
            for v in range(g.node_count):
                ctx = AnchorContext(g, v)
                nb = ctx.nb.tolist()
                want = {m: Counter() for m in methods}
                for u in nb:
                    rest = [x for x in g.neighbors(u).tolist() if x != v]
                    want["R32"].update((u, w) for w in rest)
                    want["R41"].update((u, w, r) for r in rest for w in nb if w != u)
                    want["R42"].update((u, w, r) for w, r in combinations(rest, 2))
                got = {m: Counter() for m in methods}
                batches = Counter()
                for method, cols in selections(g, ctx, methods):
                    drawn = draw_batch(g, ctx, method, 1, np.random.default_rng(0))
                    assert len(cols) == len(drawn)
                    assert len(cols[0]) > 0
                    batches[method] += 1
                    size = ROUTES[method].size
                    got[method].update(zip(*(c.tolist() for c in cols[:size])))
                    if method == "R32":
                        assert (g.indices[cols[2]] == cols[1]).all()
                        assert (g.indptr[cols[0]] <= cols[2]).all()
                        assert (cols[2] < g.indptr[cols[0] + 1]).all()
                    else:
                        assert len(cols[0]) <= chunk
                    if method == "R41":
                        assert (ctx.nb[cols[3]] == cols[0]).all()
                        assert (ctx.nb[cols[4]] == cols[1]).all()
                assert got == want, v
                assert batches["R32"] == (g.stats(v).two_paths > 0)
