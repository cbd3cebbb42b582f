"""Unbiased orbit-degree estimation from sampling tallies.

A tally of ``m`` hits out of ``K`` draws at per-subgraph probability ``p``
inverts to the unbiased estimate ``m / (K p)`` with variance
``d/K (1/p - d)``.  Orbits reachable by two routes combine their estimates
with :func:`combine`; orbits reachable by none are recovered from exact
identities against the node's normalizers.

The undirected pipeline runs routes R32, R41 and R42 and assembles all
fourteen orbit degrees; the directed pipeline runs R31 and R32 and assembles
the thirty 3-node directed orbit degrees.  Reported variances and
covariances follow the exact formulas for these estimators with plug-in
values, with variances clamped at zero.

The combination rule weights each side by the other's plug-in variance.  A
route that drew no hit for an orbit has plug-in variance 0 and so wins
outright; with both variances 0 the two sides get equal weights.  At small
budgets this collapses a combined orbit to 0 whenever one route missed it,
although the other route saw hits, biasing the estimate towards 0.

Route tallies are multinomial, so two orbit estimates covary only through
the routes whose draws they share (see :func:`covariance`).

Identity-derived orbit estimates (2, 4 and 7) keep their raw, possibly
negative value; ``Estimate.clamped`` gives the floored convenience value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph import AnchorContext, Graph
from .orbits import CENTER_IDS, END_IDS, TRIANGLE_IDS, UNORBIT
from .orbits import TRIPLE_IDENTITY, WALK_IDENTITY, WEDGE_IDENTITY
from .samplers import bias_vector, route_defined, tally_orbits

# Each mode's routes, in pipeline (and budget split) order.
MODE_ROUTES = {"undirected": ("R32", "R41", "R42"), "directed3": ("R31", "R32")}

# Routes each undirected orbit with a covariance is estimated from; a
# combined orbit's ``lam`` weights follow this order.  Orbit 3's R32 tally is
# shared with no other orbit here, so it never enters a covariance.
_COV_ROUTES = {
    3: ("R41", "R32"),
    5: ("R41",), 8: ("R41",), 11: ("R41",),
    6: ("R42",), 9: ("R42",),
    10: ("R41", "R42"), 12: ("R41", "R42"), 13: ("R41", "R42"), 14: ("R41", "R42"),
}


class EstimatorUndefinedError(ValueError):
    """Estimation attempted with zero probability or zero draws."""


class UnsupportedPairError(ValueError):
    """Covariance requested for a pair outside the derived cases."""


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its variance and provenance tag."""

    value: float
    variance: float
    source: str

    @property
    def clamped(self) -> float:
        return self.value if self.value > 0.0 else 0.0


@dataclass(frozen=True)
class BudgetConfig:
    """Sampling budget: either a grand total split evenly, or explicit
    per-route counts in pipeline order."""

    total: int | None = None
    split: tuple[int, ...] | None = None

    def resolve(self, methods: tuple[str, ...]) -> dict[str, int]:
        if self.split is not None:
            if len(self.split) != len(methods):
                raise ValueError(
                    f"budget split needs {len(methods)} entries for {methods}"
                )
            ks = {m: int(k) for m, k in zip(methods, self.split)}
        elif self.total is not None:
            q, r = divmod(int(self.total), len(methods))
            ks = {m: q + (1 if i < r else 0) for i, m in enumerate(methods)}
        else:
            raise ValueError("budget needs a total or an explicit split")
        for m, k in ks.items():
            if k < 1:
                raise ValueError(f"budget for {m} must be at least 1, got {k}")
        return ks


@dataclass
class OrbitReport:
    """Estimated (or exact) orbit degrees of one node."""

    node: int
    mode: str  # "undirected" | "directed3"
    budgets: dict[str, int]
    seed: int | None
    estimates: dict[int, Estimate]
    covariances: dict[tuple[int, int], float] = field(default_factory=dict)

    def values(self, orbit_ids) -> np.ndarray:
        return np.array([self.estimates[i].value for i in orbit_ids], dtype=float)


def estimate_single(m: int, k: int, p: float, source: str = "single") -> Estimate:
    """Invert a tally of ``m`` hits over ``k`` draws at probability ``p``.

    The variance is the plug-in evaluation of ``d/K (1/p - d)``, floored at
    zero (sampling noise can push the plug-in negative).
    """
    if k <= 0:
        raise EstimatorUndefinedError("draw count must be positive")
    if p <= 0.0:
        raise EstimatorUndefinedError("sampling probability must be positive")
    value = m / (k * p)
    variance = (value / k) * (1.0 / p - value)
    return Estimate(value, max(variance, 0.0), source)


def combine(a: Estimate, b: Estimate) -> tuple[Estimate, tuple[float, float]]:
    """Inverse-variance combination of two independent estimates.

    Returns the combined estimate and the weights ``(la, lb)`` it gave to
    ``a`` and ``b``.  A side whose plug-in variance is 0 wins outright; when
    both are 0 the sides get equal weights.  A route with no hit for the
    orbit has plug-in variance 0, so at small budgets one route's miss
    overrides the other's hits and the result is 0 (see the module notes).
    """
    va, vb = a.variance, b.variance
    if va == 0.0 and vb == 0.0:
        return Estimate(0.5 * (a.value + b.value), 0.0, "combined"), (0.5, 0.5)
    if va == 0.0:
        return Estimate(a.value, 0.0, "combined"), (1.0, 0.0)
    if vb == 0.0:
        return Estimate(b.value, 0.0, "combined"), (0.0, 1.0)
    total = va + vb
    lam = (vb / total, va / total)
    est = Estimate(lam[0] * a.value + lam[1] * b.value, va * vb / total, "combined")
    return est, lam


@dataclass(frozen=True)
class CovarianceContext:
    """Plug-in values needed by the pairwise covariance formulas."""

    values: dict[int, float]
    lam: dict[int, tuple[float, float]]  # combined orbits -> (R41 weight, other)
    k41: int
    k42: int


def covariance(i: int, j: int, ctx: CovarianceContext) -> float:
    """Covariance of the estimators of two orbit degrees (plug-in form).

    The sum ``-sum_r w_r(i) w_r(j) d_i d_j / K_r`` over the routes R41 and
    R42 that both estimates draw on, where ``w_r(x)`` is the weight of route
    r's tally in orbit x's estimate (1, or ``lam`` for a combined orbit) and
    ``K_r`` its draw count; a term is 0 where ``K_r`` is 0.  Pairs sharing
    no route give +0.0.  Defined for distinct orbits out of {3, 5, 6, 8, 9,
    10, 11, 12, 13, 14}; other pairs raise :class:`UnsupportedPairError`.
    """
    if i == j or i not in _COV_ROUTES or j not in _COV_ROUTES:
        raise UnsupportedPairError(f"no covariance formula for pair ({i}, {j})")
    di = ctx.values.get(i, 0.0)
    dj = ctx.values.get(j, 0.0)
    shared = [r for r in _COV_ROUTES[i] if r in _COV_ROUTES[j]]
    if di == 0.0 or dj == 0.0 or not shared:
        return 0.0

    def ratio(num: float, k: int) -> float:
        return num / k if k > 0 and num != 0.0 else 0.0

    wi = dict(zip(_COV_ROUTES[i], ctx.lam.get(i, (1.0,))))
    wj = dict(zip(_COV_ROUTES[j], ctx.lam.get(j, (1.0,))))
    ks = {"R41": ctx.k41, "R42": ctx.k42}
    prod = di * dj
    return -sum(ratio((wi[r] * wj[r]) * prod, ks[r]) for r in shared)


def _tally_routes(g: Graph, v: int, mode: str, budget: BudgetConfig, seed: int | None):
    """Per-route draw counts of the mode's routes, plus tallies and bias
    vectors of those defined at ``v``; each route has its own spawned stream
    and all share one anchor context."""
    st = g.stats(v)
    methods = MODE_ROUTES[mode]
    ks = budget.resolve(methods)
    streams = np.random.SeedSequence(seed).spawn(len(methods))
    ctx = AnchorContext(g, v)
    directed = mode == "directed3"
    tallies, bias = {}, {}
    for m, stream in zip(methods, streams):
        if route_defined(m, st):
            rng = np.random.default_rng(stream)
            tallies[m] = tally_orbits(g, v, m, ks[m], rng, directed, ctx)
            bias[m] = bias_vector(m, st)
    return ks, tallies, bias


_EXACT_ZERO = Estimate(0.0, 0.0, "exact")


def estimate_undirected(
    g: Graph, v: int, budget: BudgetConfig, seed: int | None = None
) -> OrbitReport:
    """Estimate all fourteen undirected orbit degrees of ``v``.

    Routes whose selection set is empty at ``v`` are skipped: every orbit
    only they could reach is then structurally zero and reported exactly.
    Orbits 2, 4 and 7 come from the identity relations and may carry a
    (noise-induced) negative raw value.
    """
    st = g.stats(v)
    ks, tallies, bias = _tally_routes(g, v, "undirected", budget, seed)

    def single(method: str, orbit: int) -> Estimate | None:
        if method not in tallies:
            return None
        return estimate_single(
            int(tallies[method][orbit]), ks[method], bias[method][orbit], method
        )

    est: dict[int, Estimate] = {0: Estimate(float(st.degree), 0.0, "exact")}
    est[1] = single("R32", 1) or _EXACT_ZERO
    lam: dict[int, tuple[float, float]] = {}
    for orbit, routes in _COV_ROUTES.items():
        if len(routes) == 1:
            est[orbit] = single(routes[0], orbit) or _EXACT_ZERO
            continue
        check, tilde = (single(m, orbit) for m in routes)
        if check is None and tilde is None:
            lam[orbit], est[orbit] = (0.0, 0.0), _EXACT_ZERO
        elif tilde is None:
            lam[orbit], est[orbit] = (1.0, 0.0), check
        elif check is None:
            lam[orbit], est[orbit] = (0.0, 1.0), tilde
        else:
            est[orbit], lam[orbit] = combine(check, tilde)

    ctx = CovarianceContext(
        values={i: est[i].value for i in _COV_ROUTES},
        lam=lam,
        k41=ks["R41"] if "R41" in tallies else 0,
        k42=ks["R42"] if "R42" in tallies else 0,
    )
    covs = {
        (i, j): covariance(i, j, ctx) for i, j in combinations(sorted(_COV_ROUTES), 2)
    }

    def identity_variance(identity: dict[int, int], solved: int) -> float:
        """Variance of the identity's other terms, sum(c * d_i)."""
        terms = {i: c for i, c in identity.items() if i != solved}
        var = sum(c * c * est[i].variance for i, c in terms.items())
        for i, j in combinations(sorted(terms), 2):
            var += 2.0 * terms[i] * terms[j] * covs[(i, j)]
        return max(var, 0.0)

    # Identity-derived orbits.
    value2 = st.wedges - est[3].value
    est[2] = Estimate(value2, identity_variance(WEDGE_IDENTITY, 2), "identity")
    value4 = st.three_walks - sum(
        c * est[i].value for i, c in WALK_IDENTITY.items() if i != 4
    )
    est[4] = Estimate(value4, identity_variance(WALK_IDENTITY, 4), "identity")
    value7 = st.triples - est[11].value - est[13].value - est[14].value
    est[7] = Estimate(value7, identity_variance(TRIPLE_IDENTITY, 7), "identity")

    return OrbitReport(
        node=v,
        mode="undirected",
        budgets=ks,
        seed=seed,
        estimates=est,
        covariances=covs,
    )


def estimate_directed3(
    g: Graph, v: int, budget: BudgetConfig, seed: int | None = None
) -> OrbitReport:
    """Estimate the thirty 3-node directed orbit degrees of ``v``.

    Path-centre orbits come from R31, path-end orbits from R32 and triangle
    orbits from their inverse-variance combination.  A route's probability
    for a directed orbit equals its probability for the orbit's underlying
    undirected shape.
    """
    if not g.directed:
        raise ValueError("directed estimation needs a directed graph")
    ks, tallies, bias = _tally_routes(g, v, "directed3", budget, seed)

    def single(method: str, orbit: int) -> Estimate:
        if method not in tallies:
            return _EXACT_ZERO
        p = bias[method][UNORBIT[orbit]]
        return estimate_single(int(tallies[method][orbit]), ks[method], p, method)

    est: dict[int, Estimate] = {}
    for orbit in CENTER_IDS:
        est[orbit] = single("R31", orbit)
    for orbit in END_IDS:
        est[orbit] = single("R32", orbit)
    for orbit in TRIANGLE_IDS:
        if "R31" in tallies and "R32" in tallies:
            est[orbit], _ = combine(single("R31", orbit), single("R32", orbit))
        else:
            # A triangle at v needs both a neighbour pair and a two-edge
            # walk, so either denominator vanishing forces a zero count.
            est[orbit] = _EXACT_ZERO

    return OrbitReport(
        node=v,
        mode="directed3",
        budgets=ks,
        seed=seed,
        estimates=est,
        covariances={},
    )


def estimate_orbit_degrees(
    g: Graph, v: int, mode: str, budget: BudgetConfig, seed: int | None = None
) -> OrbitReport:
    """Dispatch to the undirected or directed pipeline by ``mode``."""
    if mode == "undirected":
        return estimate_undirected(g, v, budget, seed)
    if mode == "directed3":
        return estimate_directed3(g, v, budget, seed)
    raise ValueError(f"unknown mode {mode!r}")
