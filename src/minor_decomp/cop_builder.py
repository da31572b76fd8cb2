"""Randomized cop-decomposition builder.

Supernodes are carved one at a time from the connected components of the
not-yet-clustered vertices.  Each supernode is a ball of sampled radius
around a pruned shortest-path skeleton: the skeleton is an SSSP tree from
the component's smallest vertex, pruned to the union of shortest paths
toward one contact vertex per previously built neighboring supernode, so
it has at most one leaf per neighbor.  The radius is drawn from a
truncated exponential on [0, delta].

The output deterministically satisfies the radius, skeleton, and
tree-decomposition properties; the buffer is a measured quantity, not a
guarantee, so a retry wrapper re-samples with fresh derived seeds until a
requested buffer target is met (or retries run out and the best attempt is
returned flagged).

Every "arbitrary" choice is resolved by smallest vertex id, which makes a
build a pure function of (graph, config).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._kernels import multisource_dijkstra
from .graph_core import StructuralError, WeightedGraph, connected_components, incident_edges
from .padded import TexpSampler
from .partition_tree import (
    BufferReport,
    PartitionTree,
    SkeletonTree,
    Supernode,
    compute_domains_and_bags,
    verify_buffered,
)
from .seeding import derive_rng, derive_seed_sequence


@dataclass
class CopConfig:
    delta: float
    lambda_radius: float | None = None  # default 2 + 2 ln n, fixed at build time
    seed: int = 0
    max_gamma_retries: int = 16

    def __post_init__(self):
        if self.delta <= 0:
            raise StructuralError("delta must be positive")


def _shortest_pred(g: WeightedGraph, dist: np.ndarray, v: int) -> int:
    """Smallest-id predecessor of v on some shortest path from the sweep's root.

    dist[v] was produced by Dijkstra relaxations, so for a reached v other
    than the root at least one neighbor u satisfies dist[u] + w == dist[v]
    exactly in float arithmetic; unreached neighbors hold +inf and never do.
    """
    lo, hi = g.indptr[v], g.indptr[v + 1]
    nbrs = g.indices[lo:hi]
    hits = nbrs[dist[nbrs] + g.weights[lo:hi] == dist[v]]
    if hits.size == 0:
        raise StructuralError(f"no shortest-path predecessor for vertex {v}")
    return int(hits.min())


def build_cop_decomposition(g: WeightedGraph, cfg: CopConfig) -> PartitionTree:
    """Partition g into supernodes; see module docstring for the process."""
    n = g.vertex_count
    if len(connected_components(g)) != 1:
        raise StructuralError("graph must be connected; run per component")
    lam = cfg.lambda_radius if cfg.lambda_radius is not None else 2.0 + 2.0 * np.log(max(n, 2))
    sampler = TexpSampler(lam, rng=derive_rng(cfg.seed, "cop-radius"))

    node_of = np.full(n, -1, dtype=np.int64)
    unprocessed = np.ones(n, dtype=np.bool_)
    supernodes: list[Supernode] = []

    while unprocessed.any():
        # one sweep from the smallest unprocessed id: its finite entries are
        # the root's component of G[unprocessed], its values the skeleton's SSSP
        root = int(np.argmax(unprocessed))
        dist = multisource_dijkstra(
            g.indptr, g.indices, g.weights, np.array([root], dtype=np.int64), unprocessed, np.inf
        )
        comp = np.flatnonzero(dist < np.inf)

        # previously built supernodes adjacent to this component, read from
        # the component's edge ranges: edge e joins ends[e] to supernode near[e]
        pos = incident_edges(g, comp)
        ends = np.repeat(comp, g.indptr[comp + 1] - g.indptr[comp])
        near = node_of[g.indices[pos]]
        touching = near != -1
        ends, near = ends[touching], near[touching]
        adjacent = np.unique(near)

        if adjacent.size:
            skel_edges: set[tuple[int, int]] = set()
            skel_verts = {root}
            for j in adjacent:
                # contact vertex: nearest to the root, smallest id on ties
                cand = ends[near == j]
                v = int(cand[np.lexsort((cand, dist[cand]))[0]])
                while v != root and v not in skel_verts:
                    u = _shortest_pred(g, dist, v)
                    skel_edges.add((u, v))
                    skel_verts.add(v)
                    v = u
            skeleton = SkeletonTree(root=root, edges=sorted(skel_edges))
            parent = int(adjacent[-1])  # most recently created neighbor
        else:
            if supernodes:
                raise StructuralError("disconnected leftover component with no neighbor")
            skeleton = SkeletonTree(root=root, edges=[])
            parent = None

        r = cfg.delta * sampler.sample()
        skel_src = np.asarray(skeleton.vertices(), dtype=np.int64)
        sd = multisource_dijkstra(g.indptr, g.indices, g.weights, skel_src, unprocessed, r)
        members = np.flatnonzero(sd <= r).astype(np.int64)

        sid = len(supernodes)
        supernodes.append(
            Supernode(
                id=sid,
                vertices=members,
                skeleton=skeleton,
                parent=parent,
                creation_index=sid,
                radius=float(r),
            )
        )
        node_of[members] = sid
        unprocessed[members] = False

    tree = PartitionTree(supernodes, root=0)
    return compute_domains_and_bags(tree, g)


def _derived_seed(seed: int, attempt: int) -> int:
    return int(derive_seed_sequence(seed, "gamma-retry", attempt).generate_state(1, np.uint64)[0])


def build_with_gamma_search(
    g: WeightedGraph, delta: float, target_gamma: float, cfg: CopConfig
) -> tuple[PartitionTree, BufferReport]:
    """Re-sample decompositions until the measured buffer reaches the target.

    Returns the first attempt with gamma_eff >= target_gamma, or after
    ``max_gamma_retries`` attempts the best one seen, with the report
    flagged ``target_not_met``.  target_gamma = 0 accepts the first build.
    """
    if target_gamma < 0:
        raise StructuralError("target_gamma must be >= 0")
    best: tuple[float, int, PartitionTree, BufferReport] | None = None
    attempts = max(1, cfg.max_gamma_retries)
    for k in range(attempts):
        attempt_cfg = replace(cfg, delta=delta, seed=_derived_seed(cfg.seed, k))
        tree = build_cop_decomposition(g, attempt_cfg)
        report = verify_buffered(tree, g, delta, target_gamma, w=g.vertex_count)
        if report.gamma_eff >= target_gamma:
            return tree, report
        if best is None or report.gamma_eff > best[0]:
            best = (report.gamma_eff, k, tree, report)
    _, _, tree, report = best
    report.target_not_met = True
    return tree, report
