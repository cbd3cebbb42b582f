"""Per-node graphlet orbit degree estimation by weighted subgraph sampling.

The package estimates, for one anchor node of a large graph, how many
connected induced 3- and 4-node subgraphs touch it at each automorphism
orbit (14 undirected orbits; 30 directed orbits for 3-node subgraphs).
Draws come from five cheap biased sampling routes whose per-subgraph bias is
known exactly, so tallies invert into unbiased estimates with closed-form
variances.  An exact oracle provides ground truth for verification: it
classifies every selection of three of the sampling routes once and
inverts the hits through the same bias rows, with no sampling.
"""

from .estimators import (
    BudgetConfig,
    Estimate,
    OrbitReport,
    PooledHits,
    covariance,
    estimate_orbit_degrees,
    pool_hits,
)
from .experiment import EvalReport, run_experiment
from .graph import (
    AnchorContext,
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
    exact_orbit_degrees,
    verify_identities,
)
from .orbits import orbit_table, unorbit
from .samplers import CannotSampleError, METHOD_ORDER, bias_vector, tally_orbits

__version__ = "0.1.0"

__all__ = [
    "AnchorContext",
    "BudgetConfig",
    "CannotSampleError",
    "EmptyGraphError",
    "Estimate",
    "EvalReport",
    "Graph",
    "GraphError",
    "GuardExceededError",
    "IdentityReport",
    "LoadSummary",
    "METHOD_ORDER",
    "NodeStats",
    "NotANeighborError",
    "OrbitCounts",
    "OrbitReport",
    "ParseError",
    "PooledHits",
    "bias_vector",
    "covariance",
    "estimate_orbit_degrees",
    "exact_orbit_degrees",
    "l1_l2",
    "load_edge_list",
    "nrmse",
    "orbit_table",
    "pool_hits",
    "run_experiment",
    "tally_orbits",
    "topk_detection",
    "unorbit",
    "verify_identities",
]
