"""Sparse partition covers and padded decompositions over partition trees.

Pipeline: generate or load a weighted graph, build a randomized
cop-decomposition partition tree, select separator supernodes, grow a
recursive sparse partition cover, and sample padded decompositions from
the cover via truncated-exponential shifts.  Exact verifiers cover every
structural definition; a Monte Carlo harness certifies the padding
probability guarantee.
"""

from ._kernels import get_backend
from .cop_builder import CopConfig, build_cop_decomposition, build_with_gamma_search
from .generators import FamilySpec, generate
from .graph_core import (
    StructuralError,
    WeightedGraph,
    ball,
    connected_components,
    shortest_paths,
    weak_diameter,
)
from .padded import (
    BoundaryDistances,
    PaddedPartition,
    TexpSampler,
    boundary_distances,
    estimate_padding,
    sample_padded,
)
from .partition_tree import (
    BufferReport,
    PartitionTree,
    SkeletonTree,
    Supernode,
    compute_domains_and_bags,
    delta_net,
    verify_buffered,
    verify_tree_decomposition,
)
from .separator import (
    SeparatorSet,
    SubtreeView,
    separator_supernodes,
    subtree_view,
    subtree_width,
    threateners,
)
from .sparse_cover import Cluster, Cover, color_classes, cover, verify_cover

__version__ = "0.1.0"

__all__ = [
    "BoundaryDistances",
    "BufferReport",
    "Cluster",
    "CopConfig",
    "Cover",
    "FamilySpec",
    "PaddedPartition",
    "PartitionTree",
    "SeparatorSet",
    "SkeletonTree",
    "StructuralError",
    "SubtreeView",
    "Supernode",
    "TexpSampler",
    "WeightedGraph",
    "ball",
    "boundary_distances",
    "build_cop_decomposition",
    "build_with_gamma_search",
    "color_classes",
    "compute_domains_and_bags",
    "connected_components",
    "cover",
    "delta_net",
    "estimate_padding",
    "generate",
    "get_backend",
    "sample_padded",
    "separator_supernodes",
    "shortest_paths",
    "subtree_view",
    "subtree_width",
    "threateners",
    "verify_buffered",
    "verify_cover",
    "verify_tree_decomposition",
    "weak_diameter",
]
