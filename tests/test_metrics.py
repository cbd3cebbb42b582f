"""Metric function tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import l1_l2, nrmse, topk_detection


def test_nrmse_examples():
    assert nrmse([9, 11], 10) == pytest.approx(0.1)
    assert nrmse([10, 10, 10], 10) == 0.0
    assert nrmse([1, 2], 0) is None
    with pytest.raises(ValueError):
        nrmse([5], 5)


def test_l1_l2_examples():
    assert l1_l2([1, 1], [2, 2]) == (0.0, 0.0)
    l1, l2 = l1_l2([0.6, 0.4], [0.5, 0.5])
    assert l1 == pytest.approx(0.2)
    assert l2 == pytest.approx(math.sqrt(2 * 0.1**2))
    # moving eps of normalized mass doubles into the L1 distance
    eps = 0.01
    l1, _ = l1_l2([0.5 + eps, 0.5 - eps], [0.5, 0.5])
    assert l1 == pytest.approx(2 * eps)
    with pytest.raises(ValueError):
        l1_l2([0, 0], [1, 1])
    with pytest.raises(ValueError):
        l1_l2([1, 2, 3], [1, 2])


def test_topk_examples():
    exact = list(range(30, 0, -1))  # orbit 1 is largest
    assert topk_detection(exact, exact, 5) == 5
    est = list(exact)
    est[0], est[5] = est[5], est[0]  # swap ranks 1 and 6
    assert topk_detection(est, exact, 5) == 4
    assert topk_detection(est, exact, 30) == 30
    with pytest.raises(ValueError):
        topk_detection(exact, exact, 31)


def test_topk_rejects_k_below_one():
    # a negative k would slice off the last orbits and count the rest
    vec = [4, 3, 2, 1]
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k = {k} lies outside 1..4"):
            topk_detection(vec, vec, k)
        with pytest.raises(ValueError):
            topk_detection([vec, vec], vec, k)


def test_topk_tie_breaks_by_orbit_id():
    # two tied values: the smaller orbit id wins the last slot in both
    # rankings, so identical vectors always agree
    vec = [5, 5, 1]
    assert topk_detection(vec, vec, 1) == 1
    est = [5, 5, 1]
    exact = [5, 5, 1]
    assert topk_detection(est, exact, 2) == 2
    # ordering is (value desc, id asc): orbit 1 beats orbit 2 at equal value
    assert topk_detection([5, 5, 6], [6, 5, 5], 1) == 0


def _topk_reference(vec, exact, k, ids) -> int:
    """The scalar ranking: value descending, then id ascending."""

    def top(v) -> set[int]:
        order = sorted(zip(v, ids), key=lambda t: (-t[0], t[1]))
        return {i for _, i in order[:k]}

    return len(top(vec) & top(exact))


@st.composite
def scored_runs(draw):
    # few distinct values, so ties (and -0.0 against 0.0) are common; ids
    # in any order; up to 40 orbits, past numpy's 8-wide unrolled sums
    n = draw(st.integers(1, 40))
    value = st.sampled_from([0.0, -0.0, 1.0, 2.5, 2.5, 7.0]) | st.floats(0, 1e6)
    rows = draw(st.integers(1, 6))
    row = st.lists(value, min_size=n, max_size=n)
    matrix = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    exact = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    ids = draw(st.permutations(range(1, n + 1)))
    return matrix, exact, ids, draw(st.integers(1, n))


@given(scored_runs())
def test_matrix_metrics_equal_per_row_results(case):
    matrix, exact, ids, k = case
    hits = topk_detection(matrix, exact, k, orbit_ids=ids)
    assert hits.shape == (len(matrix),)
    want = [_topk_reference(row.tolist(), exact.tolist(), k, ids) for row in matrix]
    assert hits.tolist() == want
    assert [topk_detection(row, exact, k, orbit_ids=ids) for row in matrix] == want
    if exact.sum() > 0 and (matrix.sum(axis=1) > 0).all():
        l1, l2 = l1_l2(matrix, exact)
        rows = [l1_l2(row, exact) for row in matrix]
        assert (l1.tolist(), l2.tolist()) == tuple(map(list, zip(*rows)))
        for row, (r1, r2) in zip(matrix, rows):
            delta = row / row.sum() - exact / exact.sum()
            assert r1 == float(np.abs(delta).sum())
            assert r2 == float(np.sqrt((delta**2).sum()))


def test_matrix_metrics_examples():
    exact = [5.0, 0.0, 0.0, 0.0]
    matrix = np.array(
        [[5.0, 0.0, 5.0, 0.0], [0.0, -0.0, 1.0, -0.0], [1.0, 1.0, 0.5, 1.0]]
    )
    # ids out of column order: every tie goes to the smaller id, not the
    # earlier column (row 0's two 5s: column 2, id 1)
    ids = [3, 9, 1, 5]
    assert topk_detection(matrix, exact, 1, orbit_ids=ids).tolist() == [0, 0, 1]
    assert topk_detection(matrix, exact, 2, orbit_ids=ids).tolist() == [2, 2, 1]
    # -0.0 ties 0.0, so the smaller id ranks first
    assert topk_detection([-0.0, 0.0], [1.0, 0.0], 1, orbit_ids=[5, 7]) == 1
    l1, l2 = l1_l2(np.array([exact, matrix[2]]), exact)
    assert (l1[0], l2[0]) == (0.0, 0.0)
    assert (l1[1], l2[1]) == l1_l2(matrix[2], exact)
    with pytest.raises(ValueError):
        l1_l2(np.array([[1.0, 1.0], [0.0, 0.0]]), [1.0, 1.0])
    with pytest.raises(ValueError):
        l1_l2(np.ones((2, 3)), [1.0, 1.0])
    with pytest.raises(ValueError):
        topk_detection(np.ones((2, 3)), [1.0, 1.0, 1.0], 4)
    with pytest.raises(ValueError):
        topk_detection(np.ones((2, 3)), [1.0, 1.0], 1)
