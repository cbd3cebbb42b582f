"""Estimation pipeline tests: pooled inversion, identities, covariance."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import (
    BudgetConfig,
    Estimate,
    PooledHits,
    bias_vector,
    covariance,
    estimate_orbit_degrees,
    exact_orbit_degrees,
    pool_hits,
)
from orbitsampler.experiment import run_experiment, run_pipeline_matrix
from orbitsampler.generators import gnp
from orbitsampler.graph import Graph
from orbitsampler.report import dumps, report_to_dict

from conftest import pooled_value
from support import gnp_directed, sparse_random_graph


def _pool(draws, hits, probs, routes=None):
    """Pool one column per orbit; ``routes`` defaults to R1, R2, ..."""
    routes = routes or [f"R{r + 1}" for r in range(len(draws))]
    return pool_hits(
        routes, np.array(draws), np.array(hits, ndmin=2), np.array(probs, ndmin=2)
    )


def test_pool_hits_one_route_is_plain_inversion():
    # one route: the pooled rule is the plain inversion m / (K p) with
    # variance d/K (1/p - d)
    e = _pool([100], [[30]], [[1 / 3]], ["R32"]).estimates([0])[0]
    assert e.value == pytest.approx(0.9)
    assert e.variance == pytest.approx((0.9 / 100) * (3 - 0.9))
    assert e.source == "R32"


def test_pool_hits_one_route_boundaries():
    e = _pool([100], [[100]], [[1 / 5]]).estimates([0])[0]
    assert e.value == pytest.approx(5.0) and e.variance == 0.0
    e = _pool([50], [[0]], [[0.2]]).estimates([0])[0]
    assert e.value == 0.0 and e.variance == 0.0 and e.source == "R1"
    # a zero probability or a zero draw count leaves D = 0: an exact zero
    e = _pool([10], [[0]], [[0.0]]).estimates([0])[0]
    assert (e.value, e.variance, e.source) == (0.0, 0.0, "exact")
    e = _pool([0], [[0]], [[0.5]]).estimates([0])[0]
    assert (e.value, e.variance, e.source) == (0.0, 0.0, "exact")
    # no route at all: every orbit is an exact zero
    pooled = pool_hits([], np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
    assert list(pooled.estimates(range(3)).values()) == [Estimate(0.0, 0.0, "exact")] * 3


def test_pool_hits_two_route_examples():
    # D = 100 * 0.1 + 300 * 0.05 = 25; hits 20 + 45 over D
    pooled = _pool([100, 300], [[20], [45]], [[0.1], [0.05]])
    e = pooled.estimates([0])[0]
    assert e.value == pytest.approx(2.6) and e.source == "combined"
    # q = 0.26 and 0.13: (100 .26 .74 + 300 .13 .87) / 25^2
    assert e.variance == pytest.approx((19.24 + 33.93) / 625)
    assert pooled.weights[:, 0] == pytest.approx([0.4, 0.6])
    # a route without hits no longer forces the orbit to 0
    e = _pool([100, 300], [[0], [45]], [[0.1], [0.05]]).estimates([0])[0]
    assert e.value == pytest.approx(1.8)
    assert e.variance == pytest.approx((100 * 0.18 * 0.82 + 300 * 0.09 * 0.91) / 625)
    # columns are independent orbits: one reached by both routes, one by
    # the second only, one by neither
    pooled = _pool(
        [100, 300], [[20, 0, 0], [45, 9, 0]], [[0.1, 0.0, 0.0], [0.05, 0.1, 0.0]],
        ["R41", "R42"],
    )
    assert pooled.sources == ["combined", "R42", "exact"]
    assert pooled.values == pytest.approx([2.6, 0.3, 0.0])


@given(
    st.integers(1, 10_000),
    st.integers(1, 10_000),
    st.floats(1e-6, 1.0),
    st.floats(1e-6, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_pool_hits_is_convex(ka, kb, pa, pb, fa, fb):
    ma, mb = int(fa * ka), int(fb * kb)
    pooled = _pool([ka, kb], [[ma], [mb]], [[pa], [pb]])
    wa, wb = pooled.weights[:, 0]
    assert wa + wb == pytest.approx(1.0) and wa >= 0 and wb >= 0
    xa, xb = ma / (ka * pa), mb / (kb * pb)
    value = pooled.values[0]
    assert value == pytest.approx(wa * xa + wb * xb, rel=1e-9, abs=1e-12)
    assert min(xa, xb) * (1 - 1e-9) <= value <= max(xa, xb) * (1 + 1e-9)
    assert pooled.variances[0] >= 0.0


def test_budget_even_split_with_remainder():
    ks = BudgetConfig(total=10).resolve(("R32", "R41", "R42"))
    assert ks == {"R32": 4, "R41": 3, "R42": 3}
    ks = BudgetConfig(total=7).resolve(("R31", "R32"))
    assert ks == {"R31": 4, "R32": 3}
    ks = BudgetConfig(split=(5, 6, 7)).resolve(("R32", "R41", "R42"))
    assert ks == {"R32": 5, "R41": 6, "R42": 7}
    with pytest.raises(ValueError):
        BudgetConfig(total=2).resolve(("R32", "R41", "R42"))
    with pytest.raises(ValueError):
        BudgetConfig(split=(1, 2)).resolve(("R32", "R41", "R42"))
    with pytest.raises(ValueError):
        BudgetConfig().resolve(("R31",))


def test_budget_counts_must_be_integers():
    # a fractional or bool count is refused, not truncated or read as 1;
    # numpy integers are taken
    for budget in (
        BudgetConfig(total=10.9), BudgetConfig(total=np.float64(12)),
        BudgetConfig(split=(1.9, 2, 3)), BudgetConfig(split=(5, 6, 7.0)),
        BudgetConfig(split=(True, 2, 3)), BudgetConfig(total=True),
    ):
        with pytest.raises(ValueError, match="integer"):
            budget.resolve(("R32", "R41", "R42"))
    ks = BudgetConfig(split=tuple(np.array([5, 6, 7]))).resolve(("R32", "R41", "R42"))
    assert ks == {"R32": 5, "R41": 6, "R42": 7}
    assert BudgetConfig(total=np.int32(7)).resolve(("R31", "R32")) == {"R31": 4, "R32": 3}


def _pooled(values, weights, variances=None, draws=(1000, 1000, 1000)):
    """Pooled estimates over orbit ids 0..14 of the routes R32, R41 and
    R42, with the given weights per route (default 0) and values."""
    w = np.zeros((3, 15))
    for r, row in enumerate(weights):
        for i, x in row.items():
            w[r, i] = x
    d = np.zeros(15)
    for i, x in values.items():
        d[i] = x
    var = np.zeros(15) if variances is None else np.asarray(variances, float)
    return PooledHits(d, var, ["exact"] * 15, w, np.asarray(draws, float))


# Route weights of the undirected orbits: R32, R41 and R42 rows.
_WEIGHTS = (
    {1: 1.0, 3: 0.75},
    {3: 0.25, 5: 1.0, 8: 1.0, 10: 0.5, 11: 1.0, 13: 0.4},
    {6: 1.0, 9: 1.0, 10: 0.5, 13: 0.6},
)


def test_covariance_cases():
    values = {5: 2.0, 8: 3.0, 6: 4.0, 9: 5.0, 3: 6.0, 10: 2.0, 13: 7.0}
    cov = covariance(_pooled(values, _WEIGHTS, variances=np.arange(15.0)))
    assert cov[5, 8] == pytest.approx(-6.0 / 1000)
    assert cov[8, 5] == pytest.approx(-6.0 / 1000)
    assert cov[3, 5] == pytest.approx(-0.25 * 12.0 / 1000)
    assert cov[6, 9] == pytest.approx(-20.0 / 1000)
    assert cov[10, 13] == pytest.approx(
        -(0.5 * 0.4 * 14.0 / 1000 + 0.5 * 0.6 * 14.0 / 1000)
    )
    assert cov[3, 6] == 0.0  # independent routes
    assert cov[6, 8] == 0.0
    assert cov[5, 13] == pytest.approx(-0.4 * 14.0 / 1000)
    assert cov[6, 13] == pytest.approx(-0.6 * 28.0 / 1000)
    assert cov[3, 13] == pytest.approx(-0.25 * 0.4 * 42.0 / 1000)
    assert np.diag(cov) == pytest.approx(np.arange(15.0))
    assert (cov == cov.T).all()


def test_covariance_zero_estimate_and_unsupported():
    cov = covariance(_pooled({5: 0.0, 8: 3.0}, _WEIGHTS))
    assert cov[5, 8] == 0.0 and math.copysign(1.0, cov[5, 8]) == 1.0
    # pairs the pipeline never reports: orbits no route reaches (4, 7) and
    # orbits without a shared route (1, 5) covary by exactly +0.0
    cov = covariance(_pooled({i: 1.0 for i in range(15)}, _WEIGHTS))
    for i, j in ((1, 5), (4, 7), (4, 13), (7, 14)):
        assert cov[i, j] == 0.0 and math.copysign(1.0, cov[i, j]) == 1.0
    assert cov[1, 3] == pytest.approx(-0.75 / 1000)


def test_pipeline_k4_deterministic(k4, route_tallies):
    rep = estimate_orbit_degrees(k4, 0, "undirected", BudgetConfig(total=300), seed=11)
    vals = {i: e.value for i, e in rep.estimates.items()}
    st_v = k4.stats(0)
    # orbits 3 and 14 pool R32/R41 and R41/R42 hits respectively
    for i in (3, 14):
        assert vals[i] == pytest.approx(pooled_value(k4, 0, route_tallies, i)), i
        assert rep.estimates[i].source == "combined"
    assert vals[3] > 0.0 and vals[14] > 0.0
    assert vals[2] == pytest.approx(st_v.wedges - vals[3])
    assert vals[4] == pytest.approx(st_v.three_walks - 2 * vals[3] - 6 * vals[14])
    assert vals[7] == pytest.approx(st_v.triples - vals[14])
    for i in (1, 5, 6, 8, 9, 10, 11, 12, 13):
        assert vals[i] == pytest.approx(0.0), i


def test_pipeline_biases_are_bias_vectors(monkeypatch):
    """Each route's probabilities in the pooled estimate are exactly
    ``bias_vector``'s, read at every tally index's shape orbit."""
    from orbitsampler import estimators

    seen = []
    pool = estimators.pool_hits

    def spy(routes, draws, hits, probs):
        seen.append((routes, probs.tolist()))
        return pool(routes, draws, hits, probs)

    monkeypatch.setattr(estimators, "pool_hits", spy)
    cases = (gnp(30, 0.15, seed=2), "undirected"), (gnp_directed(30, 0.15, 2), "directed3")
    for g, mode in cases:
        spec, every_route = estimators.MODES[mode], 0
        for v in range(g.node_count):
            seen.clear()
            estimate_orbit_degrees(g, v, mode, BudgetConfig(total=30), seed=v)
            ((routes, probs),) = seen
            st = g.stats(v)
            want = [[bias_vector(m, st).get(s, 0.0) for s in spec.shape] for m in routes]
            assert probs == want, v
            every_route += tuple(routes) == spec.routes
        assert every_route > 0


def test_pipeline_star_center(star4):
    rep = estimate_orbit_degrees(star4, 0, "undirected", BudgetConfig(total=30), seed=1)
    est = rep.estimates
    assert est[1].value == 0.0 and est[1].source == "exact"
    assert est[3].value == 0.0 and est[3].source == "exact"
    assert est[2].value == pytest.approx(3.0)
    assert est[7].value == pytest.approx(1.0)


def test_pipeline_path_end(path4):
    rep = estimate_orbit_degrees(path4, 0, "undirected", BudgetConfig(total=30), seed=1)
    assert rep.estimates[1].value == pytest.approx(1.0)
    assert rep.estimates[4].value == pytest.approx(1.0)
    assert rep.estimates[4].source == "identity"


def test_identity_closure_on_random_graph():
    g = gnp(40, 0.15, seed=8)
    v = int(np.argmax(g.degrees))
    st_v = g.stats(v)
    for seed in range(5):
        rep = estimate_orbit_degrees(
            g, v, "undirected", BudgetConfig(total=900), seed=seed
        )
        est = rep.estimates
        # construction-level identities hold exactly
        assert est[2].value == st_v.wedges - est[3].value
        walk_sum = (
            2 * est[3].value + est[4].value + 2 * est[8].value + 2 * est[9].value
            + est[10].value + 4 * est[12].value + 2 * est[13].value
            + 6 * est[14].value
        )
        assert walk_sum == pytest.approx(st_v.three_walks, rel=1e-12, abs=1e-9)
        triple_sum = (
            est[7].value + est[11].value + est[13].value + est[14].value
        )
        assert triple_sum == pytest.approx(st_v.triples, rel=1e-12, abs=1e-9)
        assert est[2].variance == est[3].variance
        for e in est.values():
            assert e.variance >= 0.0
            assert e.clamped >= 0.0


def test_report_estimates_in_orbit_order():
    # the quick start prints the estimates in dict order; undirected mode
    # also holds the exact degree and the identity-solved orbits 2, 4, 7
    g = gnp_directed(30, 0.2, seed=2)
    v = int(np.argmax(g.degrees))
    for mode, ids in (("undirected", range(15)), ("directed3", range(1, 31))):
        rep = estimate_orbit_degrees(g, v, mode, BudgetConfig(total=600), seed=1)
        assert list(rep.estimates) == list(ids)
        if mode == "undirected":
            sources = [rep.estimates[i].source for i in (0, 2, 4, 7)]
            assert sources == ["exact", "identity", "identity", "identity"]


def test_report_covariance_pairs_complete():
    g = gnp(40, 0.15, seed=8)
    v = int(np.argmax(g.degrees))
    rep = estimate_orbit_degrees(g, v, "undirected", BudgetConfig(total=900), seed=0)
    expected_pairs = {
        (i, j)
        for i in (3, 5, 6, 8, 9, 10, 11, 12, 13, 14)
        for j in (3, 5, 6, 8, 9, 10, 11, 12, 13, 14)
        if i < j
    }
    assert set(rep.covariances) == expected_pairs


def test_pipeline_seed_determinism():
    g = gnp(30, 0.2, seed=2)
    v = int(np.argmax(g.degrees))
    r1 = estimate_orbit_degrees(g, v, "undirected", BudgetConfig(total=600), seed=5)
    r2 = estimate_orbit_degrees(g, v, "undirected", BudgetConfig(total=600), seed=5)
    assert r1 == r2
    r3 = estimate_orbit_degrees(g, v, "undirected", BudgetConfig(total=600), seed=6)
    assert any(
        r1.estimates[i].value != r3.estimates[i].value for i in range(1, 15)
    )


def test_reports_store_numpy_ids_as_python_ints():
    # A node id from np.argmax and a numpy seed give the same bytes as the
    # same Python ints, in the estimate and in the evaluation report.
    g = gnp(30, 0.2, seed=2)
    v = np.argmax(g.degrees)
    budget = BudgetConfig(total=600)

    def estimate(v, seed):
        report = estimate_orbit_degrees(g, v, "undirected", budget, seed=seed)
        return dumps(report_to_dict(report))

    def evaluate(v, seed):
        return dumps(run_experiment(g, v, "undirected", budget, 2, seed).to_dict())

    for build in (estimate, evaluate):
        assert build(v, np.int64(5)) == build(int(v), 5)


def test_directed_pipeline_forced():
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    g = Graph.from_edges(arcs, directed=True)
    rep = estimate_orbit_degrees(g, 0, "directed3", BudgetConfig(total=100), seed=4)
    vals = {i: e.value for i, e in rep.estimates.items() if e.value != 0}
    assert vals == {30: pytest.approx(1.0)}
    out_star = Graph.from_edges([(0, 1), (0, 2)], directed=True)
    rep = estimate_orbit_degrees(
        out_star, 0, "directed3", BudgetConfig(total=50), seed=4
    )
    vals = {i: e.value for i, e in rep.estimates.items() if e.value != 0}
    assert vals == {1: pytest.approx(1.0)}


def test_directed_pipeline_no_two_paths():
    # anchor with neighbour pairs but no two-edge walks: triangles and path
    # ends are structurally impossible, centres still estimated
    g = Graph.from_edges([(0, 1), (0, 2), (2, 0)], directed=True)
    rep = estimate_orbit_degrees(g, 0, "directed3", BudgetConfig(total=60), seed=2)
    st_v = g.stats(0)
    assert st_v.two_paths == 0 and st_v.wedges == 1
    for i, e in rep.estimates.items():
        from orbitsampler import unorbit

        if unorbit(i) == 1:  # no defined route reaches a path end
            assert e.value == 0.0 and e.variance == 0.0 and e.source == "exact"
        if unorbit(i) == 3:  # only R31 reaches triangles here, without hits
            assert e.value == 0.0 and e.variance == 0.0 and e.source == "R31"
    center_total = sum(
        e.value for i, e in rep.estimates.items() if e.source == "R31"
    )
    assert center_total == pytest.approx(1.0)


def test_directed_pipeline_requires_directed_graph(k4):
    with pytest.raises(ValueError):
        estimate_orbit_degrees(k4, 0, "directed3", BudgetConfig(total=10), seed=0)
    with pytest.raises(ValueError):
        estimate_orbit_degrees(k4, 0, "bogus", BudgetConfig(total=10), seed=0)


def test_pipeline_isolated_node():
    g = Graph.from_edges([(0, 1)], node_count=3)
    rep = estimate_orbit_degrees(g, 2, "undirected", BudgetConfig(total=30), seed=0)
    assert all(e.value == 0.0 for i, e in rep.estimates.items())
    assert all(e.variance == 0.0 for e in rep.estimates.values())


def test_unbiasedness_smoke():
    # lightweight version of the acceptance criterion: mean over 300 runs
    # within 6 standard errors for a couple of well-sampled orbits
    g = gnp(40, 0.2, seed=12)
    v = int(np.argmax(g.degrees))
    counts = exact_orbit_degrees(g, v).undirected
    mats = []
    for seed in range(300):
        rep = estimate_orbit_degrees(
            g, v, "undirected", BudgetConfig(total=1500), seed=seed
        )
        mats.append([rep.estimates[i].value for i in range(15)])
    mat = np.asarray(mats)
    for i in (1, 5, 6):
        if counts[i] == 0:
            continue
        col = mat[:, i]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - counts[i]) < 6 * se + 1e-9, i


def test_small_budget_unbiasedness():
    # At 100 draws per route the combined orbits 3 and 12 see few hits; a
    # rule that lets a hitless route decide the estimate biases them to 0.
    g = gnp(80, 0.12, seed=3)
    v = int(np.argmax(g.degrees))
    counts = exact_orbit_degrees(g, v).undirected
    assert (counts[3], counts[12]) == (12, 11)
    matrix, _ = run_pipeline_matrix(
        g, v, "undirected", BudgetConfig(total=300), runs=1000, seed=0
    )
    for i in (3, 12):
        col = matrix[:, i]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - counts[i]) < 4 * se, (i, col.mean(), se)


def _identity_variance(rep, terms):
    """sum c^2 var + 2 sum c_i c_j cov over the report's own covariances."""
    est, covs = rep.estimates, rep.covariances
    var = sum(c * c * est[i].variance for i, c in terms.items())
    ids = sorted(terms)
    for x, i in enumerate(ids):
        for j in ids[x + 1:]:
            var += 2.0 * terms[i] * terms[j] * covs[(i, j)]
    return max(var, 0.0)


def test_identity_orbit_variances_from_reported_covariances():
    walk = {3: 2, 8: 2, 9: 2, 10: 1, 12: 4, 13: 2, 14: 6}
    triple = {11: 1, 13: 1, 14: 1}
    checked = 0
    for gseed in (8, 12, 21):
        g = gnp(40, 0.2, seed=gseed)
        v = int(np.argmax(g.degrees))
        for seed in range(4):
            rep = estimate_orbit_degrees(
                g, v, "undirected", BudgetConfig(total=900), seed=seed
            )
            for orbit, terms in ((4, walk), (7, triple)):
                expected = _identity_variance(rep, terms)
                assert rep.estimates[orbit].variance == pytest.approx(
                    expected, rel=1e-9, abs=1e-12
                )
                checked += expected > 0.0
    assert checked >= 12  # the covariance terms are exercised, not all zero


def _count_calls(monkeypatch, module, name, counts, calls=None):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if calls is not None:
            calls.append((name, args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_pipelines_call_layers_through_module_attributes(monkeypatch):
    # Per-layer tracing wraps these module attributes; a pipeline that
    # captured the functions themselves would bypass the wrappers.  The
    # tracer also reads arguments by position: the route name and draw
    # count of draw_batch (2 and 3), the route of classify_quad_batch (1).
    from orbitsampler import estimators, samplers

    counts: dict[str, int] = {}
    calls: list[tuple[str, tuple]] = []
    for name in (
        "draw_batch", "classify_wedge_batch", "classify_chain_batch",
        "classify_quad_batch",
    ):
        _count_calls(monkeypatch, samplers, name, counts, calls)
    for name in ("tally_orbits", "covariance"):
        _count_calls(monkeypatch, estimators, name, counts)
    # the anchor's statistics are computed once per estimate, in its
    # AnchorContext, and each route builds its cumulative array from them.
    # Above the pair index's build rule, the edge keys are searched only
    # for pairs outside N(v): R41's and R42's (w, r); never in directed3.
    for name in ("stats", "acc_degree", "acc_wedge", "has_edges", "direction_codes"):
        _count_calls(monkeypatch, Graph, name, counts)

    g = gnp(40, 0.2, seed=8)
    estimate_orbit_degrees(
        g, int(np.argmax(g.degrees)), "undirected", BudgetConfig(total=300), 1
    )
    assert counts == {
        "draw_batch": 3, "classify_chain_batch": 1, "classify_quad_batch": 2,
        "tally_orbits": 3, "covariance": 1,
        "stats": 1, "acc_degree": 2, "acc_wedge": 1, "has_edges": 2,
    }
    assert _traced_positions(calls) == (
        [("R32", 100), ("R41", 100), ("R42", 100)], ["R41", "R42"]
    )

    counts.clear()
    calls.clear()
    dg = gnp_directed(30, 0.2, seed=9)
    estimate_orbit_degrees(
        dg, int(np.argmax(dg.degrees)), "directed3", BudgetConfig(total=300), 1
    )
    assert counts == {
        "draw_batch": 2, "classify_wedge_batch": 1, "classify_chain_batch": 1,
        "tally_orbits": 2, "stats": 1, "acc_degree": 1,
    }
    assert _traced_positions(calls) == ([("R31", 150), ("R32", 150)], [])


def _traced_positions(calls):
    """(route, draws) of each draw_batch call and the route of each
    classify_quad_batch call, read at the positions the tracer reads."""
    draws = [(args[2], args[3]) for name, args in calls if name == "draw_batch"]
    quads = [args[1] for name, args in calls if name == "classify_quad_batch"]
    return draws, quads


def test_graph_is_complete_when_constructed():
    # estimates, the oracle and experiments read the graph and never set
    # or replace an attribute of it, not even on their first call
    g = gnp_directed(30, 0.2, seed=9)
    before = dict(vars(g))
    v = int(np.argmax(g.degrees))
    for mode in ("undirected", "directed3"):
        estimate_orbit_degrees(g, v, mode, BudgetConfig(total=300), 0)
        run_experiment(g, v, mode, BudgetConfig(total=300), runs=2, seed=0)
    exact_orbit_degrees(g, v)
    after = vars(g)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_anchor_sweep_retains_no_per_anchor_state():
    # estimating many anchors of one graph is the normal traffic; nothing
    # computed for one anchor may stay behind on the shared graph
    g = sparse_random_graph(3000, 6.0, seed=4)
    budget = BudgetConfig(total=30)
    estimate_orbit_degrees(g, 2999, "undirected", budget, 0)  # warm-up, uncounted
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for v in range(2000):
            estimate_orbit_degrees(g, v, "undirected", budget, v)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained
