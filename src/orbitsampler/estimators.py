"""Unbiased orbit-degree estimation from sampling tallies.

Every sampled orbit is estimated by one rule, pooled hits.  Route r draws
``K_r`` subgraphs and hits any fixed subgraph at orbit i with probability
``p_r(i)``, so its hit count ``m_r(i)`` has mean ``K_r p_r(i) d_i``.  Over
the routes that reach the orbit (``p_r(i) > 0``)::

    D_i = sum_r K_r p_r(i)
    d_i = sum_r m_r(i) / D_i
    Var = sum_r K_r q_r (1 - q_r) / D_i^2,    q_r = d_i p_r(i)

The estimate is exactly unbiased at every budget, and with one route it is
the plain inversion ``m / (K p)``.  Route r's weight in it,
``w_r(i) = K_r p_r(i) / D_i``, is fixed by the budget and the node's
statistics, not by the tallies, so a route without hits cannot override
another route's hits.  Route tallies are multinomial, so two estimates
covary only through the routes they share:
``cov(i, j) = -sum_r w_r(i) w_r(j) d_i d_j / K_r`` (see :func:`covariance`).
Reported variances and covariances are plug-in values; variances are
floored at zero.

An orbit that no route defined at the node reaches (``D_i = 0``) is
structurally zero and tagged ``exact``.  Otherwise its tag names its route,
or is ``combined`` when several routes reach it.

The undirected mode runs routes R32, R41 and R42 and recovers orbits 2, 4
and 7, which none of them reaches, from exact identities against the node's
normalizers.  Those keep their raw, possibly negative value;
``Estimate.clamped`` gives the floored convenience value.  The directed3
mode runs R31 and R32 for the thirty 3-node directed orbits; a route's
probability for a directed orbit is its probability for the orbit's
undirected shape.  :data:`MODES` holds what the rest of the package needs
to know of each mode.  Bias numerators and solved rows are read from
:mod:`orbitsampler.orbits` (``IDENTITIES`` and ``SOLVED``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from .graph import AnchorContext, Graph, GraphError
from .orbits import IDENTITIES, SOLVED, UNORBIT
from .samplers import ROUTES, tally_orbits


@dataclass(frozen=True)
class Mode:
    """What one estimation mode draws and reports."""

    routes: tuple[str, ...]  # in pipeline (and budget split) order
    orbits: tuple[int, ...]  # the orbit ids a report carries
    shape: tuple[int, ...]  # per tally index, the orbit whose bias applies


MODES = {
    "undirected": Mode(("R32", "R41", "R42"), tuple(range(15)), tuple(range(15))),
    "directed3": Mode(
        ("R31", "R32"),
        tuple(range(1, 31)),
        (0,) + tuple(UNORBIT[i] for i in range(1, 31)),
    ),
}


def check_mode(g: Graph, mode: str) -> None:
    """Refuse a mode ``g`` cannot run: ValueError for an unknown mode,
    GraphError for directed3 on a graph without direction labels."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "directed3" and not g.directed:
        raise GraphError("mode directed3 needs a directed graph (--directed)")


# The orbits R41 and R42 reach (those of their rows), whose pairwise
# covariances the undirected report carries (their flat indices into the
# 15 x 15 covariance matrix); they cover every term of the identities for
# 2, 4 and 7.
_COV_ORBITS = tuple(sorted({*IDENTITIES["forked_paths"], *IDENTITIES["tail_wedges"]}))
_COV_PAIRS = tuple(combinations(_COV_ORBITS, 2))
_COV_FLAT = np.array([15 * i + j for i, j in _COV_PAIRS])


# Row after row of SOLVED, the variance terms a * cov[i, j] * b over pairs
# of the row's n other terms (n * n of them): the flat index of (i, j) in
# the 15 x 15 covariance matrix, a and b.
_VAR_TERMS = [(15 * i + j, a, b) for _, _, c in SOLVED for i, a in c for j, b in c]
_VAR_FLAT, _VAR_A, _VAR_B = (np.array(col) for col in zip(*_VAR_TERMS))


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
        for k in (self.total, *(self.split or ())):
            if isinstance(k, bool) or not isinstance(k, (int, np.integer, type(None))):
                raise ValueError(f"budget counts must be integers, got {k!r}")
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


@dataclass(frozen=True)
class PooledHits:
    """Pooled-hit estimates indexed by orbit id, with the route weights and
    draw counts their covariances need."""

    values: np.ndarray
    variances: np.ndarray
    sources: list[str]
    weights: np.ndarray  # w_r(i): one row per route
    draws: np.ndarray  # K_r, per route

    def estimates(self, orbit_ids, given=None) -> dict[int, Estimate]:
        """Per orbit id in order, its entry in ``given`` if it has one, else
        its pooled estimate."""
        given = given or {}
        values, variances = self.values.tolist(), self.variances.tolist()
        return {
            i: given.get(i) or Estimate(values[i], variances[i], self.sources[i])
            for i in orbit_ids
        }


def pool_hits(
    routes: list[str], draws: np.ndarray, hits: np.ndarray, probs: np.ndarray
) -> PooledHits:
    """Pool the routes' tallies into one estimate per orbit id.

    ``hits`` and ``probs`` have one row per route (named by ``routes`` and
    drawn ``draws`` times) and one column per orbit id: the route's hit
    count there, and its probability of hitting a fixed subgraph there in
    one draw.
    """
    k = np.asarray(draws, dtype=float)[:, None]
    expected = k * probs
    denom = np.add.reduce(expected, axis=0)  # ndarray.sum, without its wrapper
    safe = np.where(denom > 0.0, denom, 1.0)
    values = np.add.reduce(hits, axis=0) / safe
    q = values * probs
    variances = np.maximum(np.add.reduce(k * q * (1.0 - q), axis=0) / safe**2, 0.0)
    reached = expected > 0.0
    sources = _sources(tuple(routes), reached.tobytes(), reached.shape[1])
    return PooledHits(values, variances, list(sources), expected / safe, k[:, 0])


@lru_cache(maxsize=64)
def _sources(routes: tuple[str, ...], reached: bytes, n: int) -> tuple[str, ...]:
    """Per orbit id, the one route that reaches it, else ``combined`` or
    ``exact``; ``reached`` is the route-by-orbit reach mask's bytes.  A mode
    has few masks (they follow from which routes are defined at the node),
    so the tags are built once per mask."""
    reach = [[r for x, r in enumerate(routes) if reached[x * n + i]] for i in range(n)]
    return tuple(
        rs[0] if len(rs) == 1 else "combined" if rs else "exact" for rs in reach
    )


def covariance(pooled: PooledHits) -> np.ndarray:
    """Covariance matrix of pooled estimates, indexed by orbit id (plug-in).

    Off the diagonal it is ``-sum_r w_r(i) w_r(j) d_i d_j / K_r``, which is
    +0.0 for estimates that share no route; the diagonal holds the
    variances.
    """
    x = pooled.weights * pooled.values / np.sqrt(pooled.draws)[:, None]
    # One fixed-order sum over the (at most three) route rows, not a BLAS
    # product, whose kernels add in an order that depends on the CPU.
    cov = 0.0 - np.add.reduce(x[:, :, None] * x[:, None, :], axis=0)  # +0.0, not -0.0
    cov.flat[:: len(cov) + 1] = pooled.variances
    return cov


def estimate_orbit_degrees(
    g: Graph, v: int, mode: str, budget: BudgetConfig, seed: int | None = None
) -> OrbitReport:
    """Estimate the orbit degrees of ``v`` that ``mode`` reports.

    Each of the mode's routes defined at ``v`` draws from its own spawned
    stream, and all share one anchor context.  Undirected mode reports all
    fifteen orbits; 2, 4 and 7 come from the identity relations and may
    carry a (noise-induced) negative raw value.  Directed3 mode reports the
    thirty 3-node directed orbits: path centres from R31, path ends from
    R32 and triangles from both.
    """
    check_mode(g, mode)
    directed = mode == "directed3"
    spec = MODES[mode]
    ctx = AnchorContext(g, v)
    st = ctx.stats
    ks = budget.resolve(spec.routes)
    streams = np.random.SeedSequence(seed).spawn(len(spec.routes))
    routes, hits, probs = [], [], []
    for m, stream in zip(spec.routes, streams):
        name = ROUTES[m].normalizer
        denom, row = getattr(st, name), IDENTITIES[name]
        if denom > 0:  # the route is defined at v
            rng = np.random.default_rng(stream)
            hits.append(tally_orbits(g, ctx, m, ks[m], rng, directed))
            probs.append([row.get(s, 0) / denom for s in spec.shape])
            routes.append(m)
    size = (len(routes), len(spec.shape))
    draws = np.array([ks[m] for m in routes])
    pooled = pool_hits(
        routes, draws, np.array(hits).reshape(size), np.array(probs).reshape(size)
    )
    covariances, given = {}, {}
    if not directed:
        values = pooled.values.tolist()
        flat = covariance(pooled).ravel()
        given[0] = Estimate(float(st.degree), 0.0, "exact")
        # Each identity row solved for its orbit, from its normalizer and
        # other terms, with the variance of those terms; fsum rounds each
        # sum once, so neither depends on the order of its terms.
        var_terms = iter((_VAR_A * flat[_VAR_FLAT] * _VAR_B).tolist())
        for solved, name, c in SOLVED:
            value = getattr(st, name) - math.fsum(a * values[i] for i, a in c)
            var = math.fsum(islice(var_terms, len(c) ** 2))
            given[solved] = Estimate(value, max(var, 0.0), "identity")
        covariances = dict(zip(_COV_PAIRS, flat[_COV_FLAT].tolist()))
    return OrbitReport(
        node=int(v),
        mode=mode,
        budgets=ks,
        seed=None if seed is None else int(seed),
        estimates=pooled.estimates(spec.orbits, given),
        covariances=covariances,
    )
