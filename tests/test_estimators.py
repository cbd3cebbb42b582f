"""Estimation pipeline tests: inversion, combination, identities, covariance."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import (
    BudgetConfig,
    CovarianceContext,
    Estimate,
    EstimatorUndefinedError,
    UnsupportedPairError,
    combine,
    covariance,
    estimate_directed3,
    estimate_orbit_degrees,
    estimate_single,
    estimate_undirected,
    exact_orbit_degrees,
)
from orbitsampler.generators import gnp
from orbitsampler.graph import Graph




def test_estimate_single_arithmetic():
    e = estimate_single(30, 100, 1 / 3)
    assert e.value == pytest.approx(0.9)
    assert e.variance == pytest.approx((0.9 / 100) * (3 - 0.9))


def test_estimate_single_boundaries():
    e = estimate_single(100, 100, 1 / 5)
    assert e.value == pytest.approx(5.0) and e.variance == 0.0
    e = estimate_single(0, 50, 0.2)
    assert e.value == 0.0 and e.variance == 0.0
    with pytest.raises(EstimatorUndefinedError):
        estimate_single(1, 10, 0.0)
    with pytest.raises(EstimatorUndefinedError):
        estimate_single(1, 0, 0.5)


def test_combine_examples():
    c, lam = combine(Estimate(10, 4, "a"), Estimate(14, 4, "b"))
    assert c.value == pytest.approx(12) and c.variance == pytest.approx(2)
    assert lam == (0.5, 0.5)
    c, lam = combine(Estimate(10, 2, "a"), Estimate(10, 6, "b"))
    assert c.value == pytest.approx(10) and c.variance == pytest.approx(1.5)
    assert lam == (0.75, 0.25)
    # a zero-variance side wins outright, whichever side it is
    c, lam = combine(Estimate(10, 0, "a"), Estimate(99, 5, "b"))
    assert (c.value, c.variance, lam) == (10, 0, (1.0, 0.0))
    c, lam = combine(Estimate(99, 5, "a"), Estimate(0, 0, "b"))
    assert (c.value, c.variance, lam) == (0, 0, (0.0, 1.0))
    # both variances zero: equal weights, even when the values disagree
    c, lam = combine(Estimate(3, 0, "a"), Estimate(4, 0, "b"))
    assert (c.value, c.variance, lam) == (3.5, 0, (0.5, 0.5))
    assert c.source == "combined"


@given(
    st.floats(0.01, 1e6),
    st.floats(0.01, 1e6),
    st.floats(0, 1e5),
    st.floats(0, 1e5),
)
def test_combine_is_optimal_and_convex(va, vb, xa, xb):
    c, (la, lb) = combine(Estimate(xa, va, "a"), Estimate(xb, vb, "b"))
    assert la + lb == pytest.approx(1.0) and la >= 0 and lb >= 0
    assert c.variance <= min(va, vb) + 1e-9
    assert min(xa, xb) - 1e-9 <= c.value <= max(xa, xb) + 1e-9


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


def _ctx(values, lam=None, k41=1000, k42=1000):
    return CovarianceContext(values=values, lam=lam or {}, k41=k41, k42=k42)


def test_covariance_cases():
    ctx = _ctx({5: 2.0, 8: 3.0, 6: 4.0, 9: 5.0, 3: 6.0, 10: 2.0, 13: 7.0},
               lam={3: (0.25, 0.75), 10: (0.5, 0.5), 13: (0.4, 0.6)})
    assert covariance(5, 8, ctx) == pytest.approx(-6.0 / 1000)
    assert covariance(8, 5, ctx) == pytest.approx(-6.0 / 1000)
    assert covariance(3, 5, ctx) == pytest.approx(-0.25 * 12.0 / 1000)
    assert covariance(6, 9, ctx) == pytest.approx(-20.0 / 1000)
    assert covariance(10, 13, ctx) == pytest.approx(
        -(0.5 * 0.4 * 14.0 / 1000 + 0.5 * 0.6 * 14.0 / 1000)
    )
    assert covariance(3, 6, ctx) == 0.0  # independent routes
    assert covariance(6, 8, ctx) == 0.0
    assert covariance(5, 13, ctx) == pytest.approx(-0.4 * 14.0 / 1000)
    assert covariance(6, 13, ctx) == pytest.approx(-0.6 * 28.0 / 1000)
    assert covariance(3, 13, ctx) == pytest.approx(-0.25 * 0.4 * 42.0 / 1000)


def test_covariance_zero_estimate_and_unsupported():
    ctx = _ctx({5: 0.0, 8: 3.0})
    assert covariance(5, 8, ctx) == 0.0
    with pytest.raises(UnsupportedPairError):
        covariance(1, 5, _ctx({1: 1.0, 5: 1.0}))
    with pytest.raises(UnsupportedPairError):
        covariance(4, 7, _ctx({4: 1.0, 7: 1.0}))
    with pytest.raises(UnsupportedPairError):
        covariance(5, 5, _ctx({5: 1.0}))


def test_pipeline_k4_deterministic(k4):
    rep = estimate_undirected(k4, 0, BudgetConfig(total=300), seed=11)
    vals = {i: e.value for i, e in rep.estimates.items()}
    assert vals[3] == pytest.approx(3.0) and rep.estimates[3].variance == 0.0
    assert vals[2] == pytest.approx(0.0)
    assert vals[14] == pytest.approx(1.0)
    assert vals[7] == pytest.approx(0.0)
    for i in (1, 4, 5, 6, 8, 9, 10, 11, 12, 13):
        assert vals[i] == pytest.approx(0.0), i


def test_pipeline_star_center(star4):
    rep = estimate_undirected(star4, 0, BudgetConfig(total=30), seed=1)
    est = rep.estimates
    assert est[1].value == 0.0 and est[1].source == "exact"
    assert est[3].value == 0.0 and est[3].source == "exact"
    assert est[2].value == pytest.approx(3.0)
    assert est[7].value == pytest.approx(1.0)


def test_pipeline_path_end(path4):
    rep = estimate_undirected(path4, 0, BudgetConfig(total=30), seed=1)
    assert rep.estimates[1].value == pytest.approx(1.0)
    assert rep.estimates[4].value == pytest.approx(1.0)
    assert rep.estimates[4].source == "identity"


def test_identity_closure_on_random_graph():
    g = gnp(40, 0.15, seed=8)
    v = int(np.argmax(g.degrees))
    st_v = g.stats(v)
    for seed in range(5):
        rep = estimate_undirected(g, v, BudgetConfig(total=900), seed=seed)
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


def test_report_covariance_pairs_complete():
    g = gnp(40, 0.15, seed=8)
    v = int(np.argmax(g.degrees))
    rep = estimate_undirected(g, v, BudgetConfig(total=900), seed=0)
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
    r1 = estimate_undirected(g, v, BudgetConfig(total=600), seed=5)
    r2 = estimate_undirected(g, v, BudgetConfig(total=600), seed=5)
    assert r1 == r2
    r3 = estimate_undirected(g, v, BudgetConfig(total=600), seed=6)
    assert any(
        r1.estimates[i].value != r3.estimates[i].value for i in range(1, 15)
    )


def test_directed_pipeline_forced():
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    g = Graph.from_edges(arcs, directed=True)
    rep = estimate_directed3(g, 0, BudgetConfig(total=100), seed=4)
    vals = {i: e.value for i, e in rep.estimates.items() if e.value != 0}
    assert vals == {30: pytest.approx(1.0)}
    out_star = Graph.from_edges([(0, 1), (0, 2)], directed=True)
    rep = estimate_directed3(out_star, 0, BudgetConfig(total=50), seed=4)
    vals = {i: e.value for i, e in rep.estimates.items() if e.value != 0}
    assert vals == {1: pytest.approx(1.0)}


def test_directed_pipeline_no_two_paths():
    # anchor with neighbour pairs but no two-edge walks: triangles and path
    # ends are structurally impossible, centres still estimated
    g = Graph.from_edges([(0, 1), (0, 2), (2, 0)], directed=True)
    rep = estimate_directed3(g, 0, BudgetConfig(total=60), seed=2)
    st_v = g.stats(0)
    assert st_v.two_paths == 0 and st_v.wedges == 1
    for i, e in rep.estimates.items():
        from orbitsampler import unorbit

        if unorbit(i) in (1, 3):
            assert e.value == 0.0 and e.source == "exact"
    center_total = sum(
        e.value for i, e in rep.estimates.items() if e.source == "R31"
    )
    assert center_total == pytest.approx(1.0)


def test_directed_pipeline_requires_directed_graph(k4):
    with pytest.raises(ValueError):
        estimate_directed3(k4, 0, BudgetConfig(total=10), seed=0)
    with pytest.raises(ValueError):
        estimate_orbit_degrees(k4, 0, "bogus", BudgetConfig(total=10), seed=0)


def test_pipeline_isolated_node():
    g = Graph.from_edges([(0, 1)], node_count=3)
    rep = estimate_undirected(g, 2, BudgetConfig(total=30), seed=0)
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
        rep = estimate_undirected(g, v, BudgetConfig(total=1500), seed=seed)
        mats.append([rep.estimates[i].value for i in range(15)])
    mat = np.asarray(mats)
    for i in (1, 5, 6):
        if counts[i] == 0:
            continue
        col = mat[:, i]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - counts[i]) < 6 * se + 1e-9, i
