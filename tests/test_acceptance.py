"""Acceptance suite: one test per release criterion, with fixed fixtures.

Every criterion prints its own PASS/FAIL line (run with ``pytest -s`` to see
them inline).  All randomness is seeded, so results are reproducible; the
statistical fixtures (graph seed, run seed) are part of the pinned
configuration.

Criteria:
  1. sampler draw distributions match their stated biases (chi-square,
     1e6 draws per sampler/node, alpha = 0.001), in under 2 minutes;
  2. count identities hold exactly on 50 random graphs, where all 15
     undirected counts also equal a brute-force tally at every node, and
     directed class sums on 20 random digraphs, where the directed counts
     also equal a brute-force tally at every node, in under 1 minute;
  3. estimator means over 2000 runs (2000 draws per route) sit within 4
     standard errors of enumeration for every nonzero orbit, undirected
     and directed, in under 5 minutes;
  4. empirical estimator variances match the closed-form model within
     15 percent for every well-sampled orbit;
  5. with a 1e5 total budget, the top-5 directed orbits are exactly
     recovered in at least 95 percent of 200 runs and mean top-10 hits
     reach 9.5;
  6. with a 1e6 total budget, the mean normalized L1 distance over 25
     runs stays at or below 0.01 (pilot measured about 0.002);
  7. (informational) route R32 sustains at least 1e4 draws/sec on a
     100k-node graph; a shortfall warns instead of failing;
  8. identical CLI invocations produce byte-identical JSON regardless of
     worker-pool size.
"""

import json
import time
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from orbitsampler import (
    BudgetConfig,
    CannotSampleError,
    METHOD_ORDER,
    bias_vector,
    exact_orbit_degrees,
    verify_identities,
)
from orbitsampler.cli import main as cli_main
from orbitsampler.experiment import run_pipeline_matrix
from orbitsampler.generators import gnp, preferential_attachment
from orbitsampler.graph import AnchorContext, Graph
from orbitsampler.metrics import l1_l2, topk_detection
from orbitsampler.orbits import UNORBIT
from orbitsampler.samplers import ROUTES, draw_batch

from conftest import EIGHT_EDGES
from support import (
    brute_force_orbits3,
    brute_force_orbits4,
    classify_undirected,
    enumerate_cises,
    gnp_directed,
    sparse_random_graph,
)

# Pinned statistical fixtures.  The graph seeds give the max-degree node
# nonzero orbit counts that are well sampled at the pinned budgets, so the
# normal approximation behind criteria 3 and 4 holds; the run seeds make the
# Monte Carlo outcome reproducible.
UND_GRAPH_SEED = 103
UND_RUN_SEED = 1000
DIR_GRAPH_SEED = 45
DIR_RUN_SEED = 5000
RUNS = 2000
K_PER_METHOD = 2000

CHI_SQUARE_ALPHA = 0.001
CHI_SQUARE_DRAWS = 10**6
CHI_SQUARE_SEED = 40_000  # fixed stream; worst case p-value 0.08 at this base


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def und_fixture():
    g = gnp(60, 0.12, seed=UND_GRAPH_SEED)
    v = int(np.argmax(g.degrees))
    counts = exact_orbit_degrees(g, v).undirected
    matrix, _ = run_pipeline_matrix(
        g, v, "undirected",
        BudgetConfig(split=(K_PER_METHOD,) * 3),
        runs=RUNS, seed=UND_RUN_SEED, workers=1,
    )
    return g, v, counts, matrix


@pytest.fixture(scope="module")
def dir_fixture():
    g = gnp_directed(60, 0.25, seed=DIR_GRAPH_SEED, mutual_fraction=0.0)
    v = int(np.argmax(g.degrees))
    counts = exact_orbit_degrees(g, v)
    return g, v, counts


def test_criterion_1_sampler_distributions():
    start = time.time()
    g = Graph.from_edges(EIGHT_EDGES)
    failures = []
    tested = 0
    for method in METHOD_ORDER:
        sizes = (3,) if method in ("R31", "R32") else (3, 4)
        for v in range(g.node_count):
            try:
                p = bias_vector(method, g.stats(v))
            except CannotSampleError:
                continue
            expected = {}
            for k in sizes:
                for mem in enumerate_cises(g, v, k):
                    prob = p.get(classify_undirected(g, v, mem), 0.0)
                    if prob > 0.0:
                        expected[sum(1 << x for x in mem)] = prob
            rng = np.random.default_rng(
                CHI_SQUARE_SEED + 100 * METHOD_ORDER.index(method) + v
            )
            cols = draw_batch(g, AnchorContext(g, v), method, CHI_SQUARE_DRAWS, rng)
            masks = np.full(CHI_SQUARE_DRAWS, 1 << v, dtype=np.int64)
            for col in cols[: ROUTES[method].size]:
                masks |= 1 << col
            observed = np.bincount(masks, minlength=256)
            keys = sorted(expected)
            obs = observed[keys]
            tested += 1
            if observed.sum() != obs.sum():
                failures.append((method, v, "draw outside reachable set"))
                continue
            if len(keys) == 1:
                if obs[0] != CHI_SQUARE_DRAWS:
                    failures.append((method, v, "deterministic cell missed"))
                continue
            exp = np.array([expected[key] * CHI_SQUARE_DRAWS for key in keys])
            _, pval = sps.chisquare(obs, exp)
            if pval <= CHI_SQUARE_ALPHA:
                failures.append((method, v, f"p={pval:.2e}"))
    elapsed = time.time() - start
    ok = not failures and elapsed < 120
    _report("1 sampler-distributions", ok, f"({tested} tests, {elapsed:.0f}s)")
    assert not failures, failures
    assert elapsed < 120, f"took {elapsed:.0f}s"


def test_criterion_2_identities():
    start = time.time()
    bad = []
    graphs = []
    for s in range(25):
        n = 30 + 7 * s  # up to 198 nodes
        graphs.append(("gnp", s, gnp(n, 5.0 / n, seed=s)))
    for s in range(25):
        n = 30 + 6 * s
        graphs.append(("pa", s, preferential_attachment(n, 2 + s % 2, seed=100 + s)))
    for kind, s, g in graphs:
        for v in range(g.node_count):
            # the identities hold, and all 15 orbits equal a tally of the
            # enumerated member sets
            counts = exact_orbit_degrees(g, v, guard=None)
            rep = verify_identities(counts, g.stats(v))
            if not rep.ok:
                bad.append((kind, s, v, rep))
            und, _ = brute_force_orbits3(g, v)
            want = {0: g.degree(v), **und, **brute_force_orbits4(g, v)}
            if counts.undirected != want:
                bad.append((f"{kind} brute force", s, v))
    for s in range(20):
        g = gnp_directed(40 + 4 * s, 0.1, seed=s)
        for v in range(g.node_count):
            # the directed counts of each undirected class sum to its count,
            # and they equal a tally of the enumerated member sets
            counts = exact_orbit_degrees(g, v, guard=None, sizes=(3,))
            sums = {1: 0, 2: 0, 3: 0}
            for i, n in counts.directed3.items():
                sums[UNORBIT[i]] += n
            if any(sums[j] != counts.undirected[j] for j in (1, 2, 3)):
                bad.append(("digraph", s, v))
            if counts.directed3 != brute_force_orbits3(g, v)[1]:
                bad.append(("digraph brute force", s, v))
    elapsed = time.time() - start
    ok = not bad and elapsed < 60
    _report("2 identities", ok, f"({elapsed:.0f}s)")
    assert not bad, bad[:5]
    assert elapsed < 60, f"took {elapsed:.0f}s"


def _z_scores(matrix: np.ndarray, ids, exact: dict[int, int]) -> dict[int, float]:
    zs = {}
    for col, i in enumerate(ids):
        if exact[i] == 0:
            continue
        values = matrix[:, col]
        se = values.std(ddof=1) / np.sqrt(len(values))
        if se == 0.0:
            zs[i] = 0.0 if abs(values.mean() - exact[i]) < 1e-9 else np.inf
        else:
            zs[i] = abs(float(values.mean()) - exact[i]) / se
    return zs


def test_criterion_3_unbiasedness(und_fixture, dir_fixture):
    start = time.time()
    g, v, counts, matrix = und_fixture
    zs = _z_scores(matrix, list(range(15)), counts)

    gd, vd, counts_d = dir_fixture
    matrix_d, _ = run_pipeline_matrix(
        gd, vd, "directed3",
        BudgetConfig(split=(K_PER_METHOD,) * 2),
        runs=RUNS, seed=DIR_RUN_SEED, workers=1,
    )
    zs_d = _z_scores(matrix_d, list(range(1, 31)), counts_d.directed3)

    # class sums of the directed estimates must also match the undirected
    # counts of the same node
    ids = list(range(1, 31))
    zs_class = {}
    for j in (1, 2, 3):
        cols = [x for x, i in enumerate(ids) if UNORBIT[i] == j]
        sums = matrix_d[:, cols].sum(axis=1)
        se = sums.std(ddof=1) / np.sqrt(len(sums))
        zs_class[j] = abs(float(sums.mean()) - counts_d.undirected[j]) / se

    elapsed = time.time() - start
    worst = max(max(zs.values()), max(zs_d.values()), max(zs_class.values()))
    ok = worst < 4.0 and elapsed < 300
    _report("3 unbiasedness", ok, f"(worst z {worst:.2f}, {elapsed:.0f}s)")
    assert max(zs.values()) < 4.0, zs
    assert max(zs_d.values()) < 4.0, zs_d
    assert max(zs_class.values()) < 4.0, zs_class
    assert elapsed < 300


def _model_variances(counts: dict[int, int], stats) -> tuple[dict, dict]:
    """Closed-form variances of the pooled-hit estimators evaluated with the
    true counts, and each orbit's per-draw hit probability.

    Route r's tally of orbit i has mean K q_r(i), with q_r(i) = p_r(i) d_i,
    and multinomial covariances K (q_r(i) [i = j] - q_r(i) q_r(j)); the
    estimate of orbit i divides the routes' summed tallies by
    D_i = sum_r K p_r(i).
    """
    K = K_PER_METHOD
    fp, tp, tw = stats.forked_paths, stats.two_paths, stats.tail_wedges
    numerators = (
        ({1: 1, 3: 2}, tp),  # R32
        ({3: 2, 5: 1, 8: 2, 10: 1, 11: 2, 12: 2, 13: 4, 14: 6}, fp),  # R41
        ({6: 1, 9: 1, 10: 1, 12: 2, 13: 1, 14: 3}, tw),  # R42
    )
    probs = np.array(
        [[num.get(i, 0) / den if den else 0.0 for i in range(15)] for num, den in numerators]
    )
    q = probs * np.array([counts[i] for i in range(15)], dtype=float)
    tallies = sum(K * (np.diag(qr) - np.outer(qr, qr)) for qr in q)
    denom = K * probs.sum(axis=0)
    denom[denom == 0.0] = np.inf  # unreached orbits: no tally, no variance
    cov = tallies / np.outer(denom, denom)

    var = {i: float(cov[i, i]) for i in range(1, 15)}
    hit = {i: float(q[:, i].max()) for i in range(1, 15)}
    coeff = {3: 2, 8: 2, 9: 2, 10: 1, 12: 4, 13: 2, 14: 6}
    for solved, terms in ((2, {3: 1}), (4, coeff), (7, {11: 1, 13: 1, 14: 1})):
        c = np.array([terms.get(i, 0) for i in range(15)], dtype=float)
        var[solved] = float(c @ cov @ c)
        hit[solved] = min((hit[i] for i in terms if counts[i] > 0), default=0.0)
    return var, hit


def test_criterion_4_variance_fidelity(und_fixture):
    g, v, counts, matrix = und_fixture
    model, hit = _model_variances(counts, g.stats(v))
    errors = {}
    for col, i in enumerate(range(15)):
        if i == 0 or model.get(i, 0.0) <= 0.0 or hit.get(i, 0.0) < 0.01:
            continue
        empirical = float(matrix[:, col].var(ddof=1))
        errors[i] = abs(empirical - model[i]) / model[i]
    worst = max(errors.values())
    ok = worst <= 0.15
    _report("4 variance-fidelity", ok, f"(worst rel err {worst:.3f}, {len(errors)} orbits)")
    assert errors, "no orbit qualified for the variance check"
    assert worst <= 0.15, errors


def test_criterion_5_topk_recovery(dir_fixture):
    g, v, counts = dir_fixture
    ids = list(range(1, 31))
    exact_vec = np.array([counts.directed3[i] for i in ids], dtype=float)
    matrix, _ = run_pipeline_matrix(
        g, v, "directed3", BudgetConfig(total=10**5),
        runs=200, seed=2000, workers=1,
    )
    top5 = np.array([topk_detection(row, exact_vec, 5, orbit_ids=ids) for row in matrix])
    top10 = np.array([topk_detection(row, exact_vec, 10, orbit_ids=ids) for row in matrix])
    recovery = float((top5 == 5).mean())
    mean10 = float(top10.mean())
    ok = recovery >= 0.95 and mean10 >= 9.5
    _report("5 top-k", ok, f"(top5 recovery {recovery:.3f}, top10 mean {mean10:.2f})")
    assert recovery >= 0.95
    assert mean10 >= 9.5


def test_criterion_6_l1_distance(dir_fixture):
    g, v, counts = dir_fixture
    ids = list(range(1, 31))
    exact_vec = np.array([counts.directed3[i] for i in ids], dtype=float)
    matrix, _ = run_pipeline_matrix(
        g, v, "directed3", BudgetConfig(total=10**6),
        runs=25, seed=3000, workers=1,
    )
    dists = np.array([l1_l2(row, exact_vec) for row in matrix])
    mean_l1 = float(dists[:, 0].mean())
    mean_l2 = float(dists[:, 1].mean())
    # pilot run measured mean L1 = 0.0021 at this configuration
    ok = mean_l1 <= 0.01
    _report("6 l1-distance", ok, f"(L1 {mean_l1:.4f}, L2 {mean_l2:.4f})")
    assert mean_l1 <= 0.01


def test_criterion_7_throughput_soft():
    g = sparse_random_graph(100_000, 10.0, seed=7)
    v = int(np.argmax(g.degrees))
    # the anchor context is built untimed, and the draws are not classified
    ctx = AnchorContext(g, v)
    rng = np.random.default_rng(1)
    draw_batch(g, ctx, "R32", 1000, rng)  # untimed warm-up
    start = time.perf_counter()
    draw_batch(g, ctx, "R32", 100_000, rng)
    rate = 100_000 / (time.perf_counter() - start)
    ok = rate >= 10_000
    _report("7 throughput (soft)", ok, f"({rate:,.0f} draws/sec)")
    if not ok:
        warnings.warn(f"route R32 throughput {rate:,.0f}/s below 1e4/s target")


def test_criterion_8_cli_determinism(tmp_path):
    g = gnp(40, 0.15, seed=5)
    path = tmp_path / "graph.txt"
    with open(path, "w") as f:
        for a in range(g.node_count):
            for b in g.neighbors(a):
                if a < b:
                    f.write(f"{a} {b}\n")
    args = [
        "evaluate", "--graph", str(path), "--max-degree-node",
        "--budget", "3000", "--runs", "8", "--seed", "11",
    ]
    outs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.json"
        rc = cli_main(args + ["--workers", str(workers), "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _report("8 determinism", ok, f"({len(outs[0])} bytes)")
    assert ok
    json.loads(outs[0])  # also valid JSON
