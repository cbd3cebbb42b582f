"""Accuracy metrics comparing estimates against exact counts.

``l1_l2`` and ``topk_detection`` take either one estimate vector or a
matrix with one run per row, and then return one result per row.
"""

from __future__ import annotations

import numpy as np


def nrmse(values, exact: float) -> float | None:
    """Root mean squared deviation from the exact value, normalized by it.

    Undefined (returns None) when the exact count is zero; needs at least
    two runs to be meaningful.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("nrmse needs at least two runs")
    if exact == 0:
        return None
    return float(np.sqrt(np.mean((arr - exact) ** 2)) / exact)


def l1_l2(estimates, exact):
    """L1 and L2 distances between the two normalized orbit-degree vectors.

    Both vectors are scaled to sum to one first; a zero-sum vector (or
    estimate row) has no normalization and raises ValueError.  For a matrix
    of estimates the two distances are arrays, one entry per row.
    """
    a = np.asarray(estimates, dtype=float)
    b = np.asarray(exact, dtype=float)
    if a.shape[-1:] != b.shape:
        raise ValueError("vectors must have equal length")
    sa, sb = a.sum(axis=-1, keepdims=True), b.sum()
    if (sa <= 0).any() or sb <= 0:
        raise ValueError("cannot normalize a zero-sum vector")
    delta = a / sa - b / sb
    l1, l2 = np.abs(delta).sum(axis=-1), np.sqrt((delta**2).sum(axis=-1))
    return (float(l1), float(l2)) if a.ndim == 1 else (l1, l2)


def topk_detection(estimates, exact, k: int, orbit_ids=None):
    """Overlap between the top-k orbits of the two vectors.

    Ranking ties break towards the smaller orbit id in both vectors.  For a
    matrix of estimates the overlaps are an int array, one entry per row.
    Raises ``ValueError`` unless ``1 <= k <=`` the number of orbits.
    """
    a = np.asarray(estimates, dtype=float)
    b = np.asarray(exact, dtype=float)
    n = a.shape[-1]
    ids = np.arange(1, n + 1) if orbit_ids is None else np.asarray(orbit_ids)
    if not (b.shape == ids.shape == (n,)):
        raise ValueError("vectors and orbit ids must have equal length")
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} lies outside 1..{n}, the {n} orbits")
    # Columns in ascending id order, so a stable sort by value breaks ties
    # towards the smaller id (-0.0 and 0.0 tie, as they compare equal).
    by_id = np.argsort(ids, kind="stable")

    def top(vec: np.ndarray) -> np.ndarray:
        order = np.argsort(-vec[..., by_id], axis=-1, kind="stable")
        mask = np.zeros(vec.shape, dtype=bool)
        np.put_along_axis(mask, order[..., :k], True, axis=-1)
        return mask

    hits = np.count_nonzero(top(a) & top(b), axis=-1)
    return int(hits) if a.ndim == 1 else hits
