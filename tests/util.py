"""Small graph constructors and hand-built partition trees shared by tests."""

import numpy as np

from minor_decomp.graph_core import WeightedGraph
from minor_decomp.partition_tree import (
    PartitionTree,
    SkeletonTree,
    Supernode,
    compute_domains_and_bags,
)


def path_graph(k: int, w: float = 1.0) -> WeightedGraph:
    return WeightedGraph(k, [(i, i + 1, w) for i in range(k - 1)])


def cycle_graph(k: int, w: float = 1.0) -> WeightedGraph:
    edges = [(i, i + 1, w) for i in range(k - 1)] + [(k - 1, 0, w)]
    return WeightedGraph(k, edges)


def grid_graph(rows: int, cols: int, w: float = 1.0) -> WeightedGraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, w))
            if r + 1 < rows:
                edges.append((v, v + cols, w))
    return WeightedGraph(rows * cols, edges)


def random_graph(n: int, p: float, rng: np.random.Generator, connected: bool = True) -> WeightedGraph:
    """Random weighted graph; a spanning path keeps it connected.

    Weights are dyadic rationals (multiples of 1/8) so shortest-path sums
    are exact in float64 and independent of summation order; cross-checks
    against a differently ordered brute-force oracle can then use exact
    equality.
    """
    edges = {}

    def w():
        return int(rng.integers(1, 17)) / 8.0

    if connected:
        order = rng.permutation(n)
        for i in range(n - 1):
            u, v = int(order[i]), int(order[i + 1])
            edges[(min(u, v), max(u, v))] = w()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges[(u, v)] = w()
    return WeightedGraph(n, [(u, v, wt) for (u, v), wt in edges.items()])


def g_induced(g, keep_ids) -> WeightedGraph:
    """Copy of G[keep_ids] with vertex i standing for keep_ids[i].

    An independent induced-subgraph builder: the library itself never
    copies an induced subgraph, it restricts the same graph by a mask.
    """
    lookup = {int(v): i for i, v in enumerate(keep_ids)}
    edges = []
    for u, v, w in g.edges():
        if u in lookup and v in lookup:
            edges.append((lookup[u], lookup[v], w))
    return WeightedGraph(len(keep_ids), edges)


def manual_tree(g, groups, parents, skeleton_roots=None, skeleton_edges=None) -> PartitionTree:
    """Hand-assemble a partition tree; group i gets parent parents[i].

    Skeletons default to a single vertex (the group's smallest member).
    """
    supernodes = []
    root = None
    for i, group in enumerate(groups):
        verts = np.asarray(sorted(group), dtype=np.int64)
        sroot = skeleton_roots[i] if skeleton_roots else int(verts[0])
        sedges = skeleton_edges[i] if skeleton_edges else []
        supernodes.append(
            Supernode(
                id=i,
                vertices=verts,
                skeleton=SkeletonTree(root=sroot, edges=list(sedges)),
                parent=parents[i],
                creation_index=i,
            )
        )
        if parents[i] is None:
            root = i
    tree = PartitionTree(supernodes, root=root)
    return compute_domains_and_bags(tree, g)
