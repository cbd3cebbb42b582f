"""Per-node graphlet orbit degree estimation by weighted subgraph sampling.

The package estimates, for one anchor node of a large graph, how many
connected induced 3- and 4-node subgraphs touch it at each automorphism
orbit (14 undirected orbits; 30 directed orbits for 3-node subgraphs).
Draws come from six cheap biased sampling routes whose per-subgraph bias is
known exactly, so tallies invert into unbiased estimates with closed-form
variances.  A brute-force enumeration oracle provides ground truth for
verification at small scale.
"""

from .estimators import (
    BudgetConfig,
    CovarianceContext,
    Estimate,
    EstimatorUndefinedError,
    OrbitReport,
    UnsupportedPairError,
    combine,
    covariance,
    estimate_directed3,
    estimate_orbit_degrees,
    estimate_single,
    estimate_undirected,
)
from .experiment import EvalReport, measure_sample_time, run_experiment
from .graph import (
    EmptyGraphError,
    Graph,
    GraphError,
    LoadSummary,
    NodeStats,
    NotANeighborError,
    ParseError,
    load_edge_list,
)
from .metrics import l1_l2, nrmse, topk_detection
from .oracle import (
    GuardExceededError,
    IdentityReport,
    OrbitCounts,
    enumerate_cises,
    exact_orbit_degrees,
    verify_identities,
)
from .orbits import (
    NotACisError,
    classify_directed3,
    classify_undirected,
    orbit_table,
    unorbit,
)
from .samplers import (
    BiasUndefinedError,
    CannotSampleError,
    METHOD_ORDER,
    bias_vector,
    sample_members,
    tally_orbits,
)

__version__ = "0.1.0"

__all__ = [
    "BiasUndefinedError",
    "BudgetConfig",
    "CannotSampleError",
    "CovarianceContext",
    "EmptyGraphError",
    "Estimate",
    "EstimatorUndefinedError",
    "EvalReport",
    "Graph",
    "GraphError",
    "GuardExceededError",
    "IdentityReport",
    "LoadSummary",
    "METHOD_ORDER",
    "NodeStats",
    "NotACisError",
    "NotANeighborError",
    "OrbitCounts",
    "OrbitReport",
    "ParseError",
    "UnsupportedPairError",
    "bias_vector",
    "classify_directed3",
    "classify_undirected",
    "combine",
    "covariance",
    "enumerate_cises",
    "estimate_directed3",
    "estimate_orbit_degrees",
    "estimate_single",
    "estimate_undirected",
    "exact_orbit_degrees",
    "l1_l2",
    "load_edge_list",
    "measure_sample_time",
    "nrmse",
    "orbit_table",
    "run_experiment",
    "sample_members",
    "tally_orbits",
    "topk_detection",
    "unorbit",
    "verify_identities",
]
