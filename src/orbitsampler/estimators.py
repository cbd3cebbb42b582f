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

Identity-derived orbit estimates (2, 4 and 7) keep their raw, possibly
negative value; ``Estimate.clamped`` gives the floored convenience value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .orbits import CENTER_IDS, END_IDS, TRIANGLE_IDS, UNORBIT, WALK_IDENTITY
from .samplers import bias_vector, tally_orbits

UNDIRECTED_ROUTES = ("R32", "R41", "R42")
DIRECTED_ROUTES = ("R31", "R32")

# The walk identity without orbit 4, which is recovered by rearranging it.
_WALK_TERMS = {i: c for i, c in WALK_IDENTITY.items() if i != 4}

_SET_A = frozenset({5, 8, 11})        # estimated from R41 alone
_SET_B = frozenset({6, 9})            # estimated from R42 alone
_SET_C = frozenset({10, 12, 13, 14})  # combined R41 + R42
_COV_ORBITS = _SET_A | _SET_B | _SET_C | {3}


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

    Defined for distinct orbits out of {3} | {5,8,11} | {6,9} |
    {10,12,13,14}; other pairs raise :class:`UnsupportedPairError`.
    """
    if i == j or i not in _COV_ORBITS or j not in _COV_ORBITS:
        raise UnsupportedPairError(f"no covariance formula for pair ({i}, {j})")
    di = ctx.values.get(i, 0.0)
    dj = ctx.values.get(j, 0.0)
    if di == 0.0 or dj == 0.0:
        return 0.0

    def ratio(num: float, k: int) -> float:
        return num / k if k > 0 and num != 0.0 else 0.0

    def role(x: int) -> str:
        if x == 3:
            return "3"
        if x in _SET_A:
            return "A"
        return "B" if x in _SET_B else "C"

    # Order the pair by role so each case is written once.
    (a, da), (b, db) = sorted(
        ((i, di), (j, dj)), key=lambda t: "3ABC".index(role(t[0]))
    )
    pair = role(a) + role(b)
    prod = da * db
    if pair == "AA":
        return -ratio(prod, ctx.k41)
    if pair == "3A":
        return -ratio(ctx.lam[3][0] * prod, ctx.k41)
    if pair == "BB":
        return -ratio(prod, ctx.k42)
    if pair == "CC":
        la, lb = ctx.lam[a], ctx.lam[b]
        return -(
            ratio(la[0] * lb[0] * prod, ctx.k41)
            + ratio(la[1] * lb[1] * prod, ctx.k42)
        )
    if pair in ("3B", "AB"):
        return 0.0
    if pair == "AC":
        return -ratio(ctx.lam[b][0] * prod, ctx.k41)
    if pair == "BC":
        return -ratio(ctx.lam[b][1] * prod, ctx.k42)
    # remaining case: pair "3C"
    return -ratio(ctx.lam[3][0] * ctx.lam[b][0] * prod, ctx.k41)


def _method_streams(seed: int | None, methods: tuple[str, ...]):
    ss = np.random.SeedSequence(seed)
    return {m: np.random.default_rng(c) for m, c in zip(methods, ss.spawn(len(methods)))}


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
    ks = budget.resolve(UNDIRECTED_ROUTES)
    rngs = _method_streams(seed, UNDIRECTED_ROUTES)
    avail = {
        "R32": st.two_paths > 0,
        "R41": st.forked_paths > 0,
        "R42": st.tail_wedges > 0,
    }
    tallies = {
        m: tally_orbits(g, v, m, ks[m], rngs[m]) if avail[m] else None
        for m in UNDIRECTED_ROUTES
    }
    bias = {m: bias_vector(m, st) for m in UNDIRECTED_ROUTES if avail[m]}

    def single(method: str, orbit: int) -> Estimate | None:
        if not avail[method]:
            return None
        return estimate_single(
            int(tallies[method][orbit]), ks[method], bias[method][orbit], method
        )

    est: dict[int, Estimate] = {0: Estimate(float(st.degree), 0.0, "exact")}
    lam: dict[int, tuple[float, float]] = {}

    est[1] = single("R32", 1) or _EXACT_ZERO
    for orbit in (5, 8, 11):
        est[orbit] = single("R41", orbit) or _EXACT_ZERO
    for orbit in (6, 9):
        est[orbit] = single("R42", orbit) or _EXACT_ZERO

    def combined(orbit: int, other_method: str) -> Estimate:
        check = single("R41", orbit)
        tilde = single(other_method, orbit)
        if check is None and tilde is None:
            lam[orbit] = (0.0, 0.0)
            return _EXACT_ZERO
        if tilde is None:
            lam[orbit] = (1.0, 0.0)
            return check
        if check is None:
            lam[orbit] = (0.0, 1.0)
            return tilde
        out, lam[orbit] = combine(check, tilde)
        return out

    est[3] = combined(3, "R32")
    for orbit in (10, 12, 13, 14):
        est[orbit] = combined(orbit, "R42")

    # Identity-derived orbits.
    est[2] = Estimate(st.wedges - est[3].value, est[3].variance, "identity")

    ctx = CovarianceContext(
        values={i: est[i].value for i in _COV_ORBITS},
        lam=lam,
        k41=ks["R41"] if avail["R41"] else 0,
        k42=ks["R42"] if avail["R42"] else 0,
    )

    value4 = st.three_walks - sum(c * est[i].value for i, c in _WALK_TERMS.items())
    var4 = sum(c * c * est[i].variance for i, c in _WALK_TERMS.items())
    walk_ids = sorted(_WALK_TERMS)
    for x, i in enumerate(walk_ids):
        for j in walk_ids[x + 1 :]:
            var4 += 2.0 * _WALK_TERMS[i] * _WALK_TERMS[j] * covariance(i, j, ctx)
    est[4] = Estimate(value4, max(var4, 0.0), "identity")

    value7 = st.triples - est[11].value - est[13].value - est[14].value
    var7 = est[11].variance + est[13].variance + est[14].variance
    for i, j in ((11, 13), (11, 14), (13, 14)):
        var7 += 2.0 * covariance(i, j, ctx)
    est[7] = Estimate(value7, max(var7, 0.0), "identity")

    covs = {}
    orbits = sorted(_COV_ORBITS)
    for x, i in enumerate(orbits):
        for j in orbits[x + 1 :]:
            covs[(i, j)] = covariance(i, j, ctx)

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
    st = g.stats(v)
    ks = budget.resolve(DIRECTED_ROUTES)
    rngs = _method_streams(seed, DIRECTED_ROUTES)
    avail = {"R31": st.wedges > 0, "R32": st.two_paths > 0}
    tallies = {
        m: tally_orbits(g, v, m, ks[m], rngs[m], directed=True) if avail[m] else None
        for m in DIRECTED_ROUTES
    }
    bias = {m: bias_vector(m, st) for m in DIRECTED_ROUTES if avail[m]}

    def single(method: str, orbit: int) -> Estimate:
        p = bias[method][UNORBIT[orbit]]
        return estimate_single(int(tallies[method][orbit]), ks[method], p, method)

    est: dict[int, Estimate] = {}
    for orbit in CENTER_IDS:
        est[orbit] = single("R31", orbit) if avail["R31"] else _EXACT_ZERO
    for orbit in END_IDS:
        est[orbit] = single("R32", orbit) if avail["R32"] else _EXACT_ZERO
    for orbit in TRIANGLE_IDS:
        if avail["R31"] and avail["R32"]:
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
