"""Exact multipacking solvers, hardness-reduction generators, and certifiers."""

from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs,
    ball_rows,
    bfs_distances,
    connected_components,
    induced_subgraph,
    is_connected,
)
from .oracle import (
    DualityReport,
    brute_force_gamma_b,
    brute_force_min_hs,
    brute_force_min_tds,
    brute_force_mp,
    duality_report,
    enumerate_multipackings,
    is_multipacking,
    is_total_dominating,
)
from .rooted_tree import (
    RootedTree,
    bfs_tree,
    deepest_vertices,
)
from .solver import (
    candidate_family,
    candidate_family_162,
    enumerate_h1,
    enumerate_h2,
    max_multipacking_158,
    max_multipacking_162,
)

__all__ = [
    "DistanceMatrix",
    "DualityReport",
    "Graph",
    "RootedTree",
    "all_pairs",
    "ball_rows",
    "bfs_distances",
    "bfs_tree",
    "brute_force_gamma_b",
    "brute_force_min_hs",
    "brute_force_min_tds",
    "brute_force_mp",
    "candidate_family",
    "candidate_family_162",
    "connected_components",
    "deepest_vertices",
    "duality_report",
    "enumerate_h1",
    "enumerate_h2",
    "enumerate_multipackings",
    "induced_subgraph",
    "is_connected",
    "is_multipacking",
    "is_total_dominating",
    "max_multipacking_158",
    "max_multipacking_162",
]
