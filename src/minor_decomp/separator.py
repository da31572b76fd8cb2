"""Separator-supernode selection on subtrees of a partition tree.

Repeatedly take the unmarked node of minimum depth, add it to the
separator set, and mark every descendant whose bag meets the selected
node's bag (restricted to the subtree).  Marking only reaches the selected
node and its descendants, so one pass over the members in (depth, id)
order, selecting each node no earlier selection marked, makes the same
choices.  Removing the selected set from the subtree lowers the
subtree-width of every remaining component by at least one, which bounds
the recursion depth of the cover construction; the buffer property bounds
how many selected nodes can "threaten" any fixed vertex.

``TreeMetrics`` memoizes the expensive per-supernode quantities (domain
distance maps, skeleton nets, balls around net points) across the whole
recursion; they depend only on (tree, graph), never on the subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import multisource_dijkstra
from .graph_core import StructuralError, WeightedGraph
from .partition_tree import PartitionTree, delta_net, domain_distances


class TreeMetrics:
    """Distance and net caches bound to one (partition tree, graph) pair."""

    def __init__(self, tree: PartitionTree, g: WeightedGraph):
        tree._require_caches()
        self.tree = tree
        self.g = g
        self._dist_to_node: dict[int, np.ndarray] = {}
        self._nets: dict[tuple[int, float], list[int]] = {}
        self._point_balls: dict[tuple[int, int, float], np.ndarray] = {}

    def dist_to_node(self, node: int) -> np.ndarray:
        """d_{dom(node)}(v, node) for every v; +inf outside the domain."""
        got = self._dist_to_node.get(node)
        if got is None:
            got = domain_distances(self.tree, self.g, node)
            self._dist_to_node[node] = got
        return got

    def net(self, node: int, delta: float) -> list[int]:
        key = (node, float(delta))
        got = self._nets.get(key)
        if got is None:
            got = delta_net(self.tree.supernodes[node].skeleton, self.g, delta)
            self._nets[key] = got
        return got

    def point_ball(self, node: int, p: int, radius: float) -> np.ndarray:
        """Ball around net point p inside dom(node), as a boolean mask."""
        key = (node, p, float(radius))
        got = self._point_balls.get(key)
        if got is None:
            g = self.g
            dist = multisource_dijkstra(
                g.indptr,
                g.indices,
                g.weights,
                np.array([p], dtype=np.int64),
                self.tree.domains[node],
                radius,
            )
            got = dist <= radius
            self._point_balls[key] = got
        return got


@dataclass
class SubtreeView:
    """A connected subtree of the partition tree plus the shared metrics."""

    metrics: TreeMetrics
    members: frozenset[int]
    root: int | None = field(init=False)

    def __post_init__(self):
        tree = self.metrics.tree
        if not self.members:
            self.root = None
            return
        loose = [m for m in self.members
                 if tree.supernodes[m].parent is None or tree.supernodes[m].parent not in self.members]
        if len(loose) != 1:
            raise StructuralError(f"members do not induce a connected subtree (roots {sorted(loose)})")
        self.root = loose[0]

    @property
    def tree(self) -> PartitionTree:
        return self.metrics.tree

    def restrict(self, new_members) -> "SubtreeView":
        return SubtreeView(self.metrics, frozenset(new_members))

    def is_empty(self) -> bool:
        return not self.members


def subtree_view(tree: PartitionTree, g: WeightedGraph, members=None) -> SubtreeView:
    metrics = TreeMetrics(tree, g)
    if members is None:
        members = range(len(tree.supernodes))
    return SubtreeView(metrics, frozenset(int(m) for m in members))


@dataclass
class SeparatorSet:
    supernodes: list[int]  # selection order
    marking_trace: dict[int, int]  # member -> separator that marked it


def separator_supernodes(t: SubtreeView) -> SeparatorSet:
    """Greedy minimum-depth selection; ties broken by smallest node id.

    A selected node marks itself, and a node is marked only by an ancestor
    selected before it, so every member ends up marked.
    """
    tree = t.tree
    depth = tree.depth
    selected: list[int] = []
    marked_by: dict[int, int] = {}
    for x in sorted(t.members, key=lambda m: (depth[m], m)):
        if x in marked_by:
            continue
        selected.append(x)
        m_set = t.members.intersection(tree.bags[x])
        for eta in tree.subtree_nodes(x):
            if eta in t.members and eta not in marked_by and m_set.intersection(tree.bags[eta]):
                marked_by[eta] = x
    return SeparatorSet(selected, marked_by)


def subtree_width(t: SubtreeView) -> int:
    """Max over members of |bag intersect members|; empty subtree has width 0."""
    if t.is_empty():
        return 0
    bags = t.tree.bags
    return max(len(t.members.intersection(bags[m])) for m in t.members)


def components_after_removal(t: SubtreeView, separators) -> list[SubtreeView]:
    """Connected components of the subtree minus the separator nodes.

    Ordered by each component's root node id.
    """
    remaining = t.members - set(separators)
    tree = t.tree
    top: dict[int, int] = {}  # remaining node -> root of its component
    groups: dict[int, set[int]] = {}
    # parents before children: a node joins its parent's component if the parent remains
    for node in sorted(remaining, key=lambda m: tree.depth[m]):
        root = top.get(tree.supernodes[node].parent, node)
        top[node] = root
        groups.setdefault(root, set()).add(node)
    return [t.restrict(groups[r]) for r in sorted(groups)]


def threateners(v: int, x: SeparatorSet, t: SubtreeView, alpha: float, delta: float) -> list[int]:
    """Separators X with v in dom(X) and some bag member of X (inside the
    subtree) whose domain distance to v is at most alpha * delta."""
    if alpha < 1:
        raise StructuralError("alpha must be >= 1")
    tree = t.tree
    out = []
    bound = alpha * delta
    for sep in x.supernodes:
        if not tree.domains[sep][v]:
            continue
        for xp in tree.bags[sep]:
            if xp in t.members and t.metrics.dist_to_node(xp)[v] <= bound:
                out.append(sep)
                break
    return out
