"""Partition trees of supernodes: domains, bags, skeletons, and verifiers.

A partition tree is a rooted tree whose nodes ("supernodes") partition the
vertex set of a weighted graph.  Each supernode carries a skeleton tree it
was grown around.  The domain of a supernode is the union of the vertex
sets in its subtree; its bag is itself plus every ancestor supernode with
an edge into its domain.  Lifting bags to vertex sets yields a tree
decomposition of the graph.

This module only represents and verifies the object; construction lives in
cop_builder.  The verifier checks four properties exactly:

* supernode radius: every vertex of a supernode is within ``delta`` of the
  skeleton, distances inside the supernode's own induced subgraph;
* shortest-path skeleton: the skeleton is an SSSP tree in the domain with
  at most ``w - 1`` leaves (root not counted);
* supernode buffer: a non-adjacent ancestor is at domain distance at least
  ``gamma`` from the whole descendant domain (the minimum observed value
  over all such pairs is reported as ``gamma_eff``);
* tree decomposition: bag sizes at most ``w`` and the expansion is a valid
  tree decomposition.

Violations are data, not faults: the report lists every breach with a
witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._kernels import multisource_dijkstra
from .graph_core import StructuralError, WeightedGraph, mask_to_ids, shortest_paths

SCHEMA_VERSION = 1


def edge_weight(g: WeightedGraph, u: int, v: int) -> float:
    for e in range(g.indptr[u], g.indptr[u + 1]):
        if g.indices[e] == v:
            return float(g.weights[e])
    raise StructuralError(f"edge ({u},{v}) not present in graph")


@dataclass
class SkeletonTree:
    """Tree of graph edges a supernode was grown around; root + edge list."""

    root: int
    edges: list[tuple[int, int]]

    def vertices(self) -> list[int]:
        verts = {self.root}
        for u, v in self.edges:
            verts.add(u)
            verts.add(v)
        return sorted(verts)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {self.root: []}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return adj

    @property
    def leaf_count(self) -> int:
        """Number of degree-<=1 vertices other than the root."""
        adj = self.adjacency()
        return sum(1 for v, nb in adj.items() if v != self.root and len(nb) <= 1)

    def validate(self) -> None:
        adj = self.adjacency()
        if len(self.edges) != len(adj) - 1:
            raise StructuralError("skeleton edges do not form a tree")
        seen = {self.root}
        stack = [self.root]
        while stack:
            u = stack.pop()
            for v in adj.get(u, []):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(adj):
            raise StructuralError("skeleton is not connected")

    def distances_from(self, g: WeightedGraph, start: int) -> dict[int, float]:
        """Distances along skeleton edges only (the skeleton tree metric)."""
        adj = self.adjacency()
        dist = {start: 0.0}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + edge_weight(g, u, v)
                    stack.append(v)
        return dist


@dataclass
class Supernode:
    id: int
    vertices: np.ndarray  # sorted int64 ids
    skeleton: SkeletonTree
    parent: int | None
    creation_index: int
    radius: float | None = None  # sampled grow radius, when built by us


class PartitionTree:
    """Rooted tree of supernodes partitioning V(G), with cached structure.

    Call :func:`compute_domains_and_bags` before using domains, bags, or
    any verifier.
    """

    def __init__(self, supernodes: list[Supernode], root: int):
        for i, sn in enumerate(supernodes):
            if sn.id != i:
                raise StructuralError("supernode ids must equal list positions")
        self.supernodes = supernodes
        self.root = int(root)
        self.caches_ready = False
        self.node_of: np.ndarray | None = None
        self.domains: list[np.ndarray] | None = None  # boolean masks over V
        self.bags: list[tuple[int, ...]] | None = None
        self.depth: np.ndarray | None = None
        self.children: list[list[int]] | None = None
        self._tin: np.ndarray | None = None
        self._tout: np.ndarray | None = None
        self._preorder: np.ndarray | None = None  # node ids by tin

    def __len__(self) -> int:
        return len(self.supernodes)

    def _require_caches(self):
        if not self.caches_ready:
            raise StructuralError("domains/bags not computed; call compute_domains_and_bags first")

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a is an ancestor of b (proper or equal)."""
        self._require_caches()
        return self._tin[a] <= self._tin[b] < self._tout[a]

    def ancestors_of(self, node: int, proper: bool = True) -> list[int]:
        self._require_caches()
        out = []
        cur = node if not proper else self.supernodes[node].parent
        while cur is not None:
            out.append(cur)
            cur = self.supernodes[cur].parent
        return out

    def subtree_nodes(self, node: int) -> list[int]:
        """The node and its descendants, ascending."""
        self._require_caches()
        return np.sort(self._preorder[self._tin[node] : self._tout[node]]).tolist()

    def domain_ids(self, node: int) -> np.ndarray:
        self._require_caches()
        return mask_to_ids(self.domains[node])


def compute_domains_and_bags(tree: PartitionTree, g: WeightedGraph, universe=None) -> PartitionTree:
    """Populate domain and bag caches; validates the partition structure.

    bag(eta) = {eta} plus every ancestor supernode with a graph edge into
    dom(eta).  The supernodes must partition ``universe`` (all of V by
    default; a single component when the pipeline runs per component).
    """
    n = g.vertex_count
    k = len(tree.supernodes)
    node_of = np.full(n, -1, dtype=np.int64)
    for sn in tree.supernodes:
        for v in sn.vertices:
            if node_of[v] != -1:
                raise StructuralError(
                    f"vertex {int(v)} belongs to supernodes {int(node_of[v])} and {sn.id}"
                )
            node_of[v] = sn.id
    uncovered = node_of == -1
    if universe is not None:
        uncovered &= universe
    missing = np.flatnonzero(uncovered)
    if missing.size:
        raise StructuralError(f"vertex {int(missing[0])} is not covered by any supernode")

    roots = [sn.id for sn in tree.supernodes if sn.parent is None]
    if roots != [tree.root]:
        raise StructuralError(f"expected unique root {tree.root}, found parentless nodes {roots}")
    children: list[list[int]] = [[] for _ in range(k)]
    for sn in tree.supernodes:
        if sn.parent is not None:
            if not (0 <= sn.parent < k):
                raise StructuralError(f"supernode {sn.id} has invalid parent {sn.parent}")
            children[sn.parent].append(sn.id)

    # iterative DFS for depth and Euler intervals; also detects cycles
    tin = np.full(k, -1, dtype=np.int64)
    tout = np.full(k, -1, dtype=np.int64)
    depth = np.full(k, -1, dtype=np.int64)
    preorder = np.empty(k, dtype=np.int64)
    clock = 0
    stack = [(tree.root, 0, False)]
    while stack:
        node, d, done = stack.pop()
        if done:
            tout[node] = clock
            continue
        if tin[node] != -1:
            raise StructuralError("parent links contain a cycle")
        tin[node] = clock
        preorder[clock] = node
        clock += 1
        depth[node] = d
        stack.append((node, d, True))
        for c in sorted(children[node], reverse=True):
            stack.append((c, d + 1, False))
    if np.any(tin == -1):
        bad = int(np.flatnonzero(tin == -1)[0])
        raise StructuralError(f"supernode {bad} is not reachable from the root")

    domains = [np.zeros(n, dtype=np.bool_) for _ in range(k)]
    for node in range(k):
        domains[node][tree.supernodes[node].vertices] = True
    for node in sorted(range(k), key=lambda i: -depth[i]):  # leaves first
        p = tree.supernodes[node].parent
        if p is not None:
            domains[p] |= domains[node]

    tree.node_of = node_of
    tree.children = children
    tree.depth = depth
    tree._tin = tin
    tree._tout = tout
    tree._preorder = preorder
    tree.domains = domains
    tree.caches_ready = True

    bag_sets: list[set[int]] = [{i} for i in range(k)]
    parent_arr = [sn.parent for sn in tree.supernodes]
    _e, ends_a, ends_b = _cross_edges(tree, g)
    for a, b in zip(ends_a.tolist(), ends_b.tolist()):
        if tree.is_ancestor(a, b):
            hi, lo = a, b
        elif tree.is_ancestor(b, a):
            hi, lo = b, a
        else:
            continue  # incomparable supernodes never share a bag entry
        node = lo
        while node != hi:
            bag_sets[node].add(hi)
            node = parent_arr[node]
    tree.bags = [tuple(sorted(s)) for s in bag_sets]
    return tree


def _cross_edges(tree: PartitionTree, g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges whose ends lie in two different supernodes, in edge-list order.

    Returns (edge ids, supernode of each u end, supernode of each v end).
    Only these edges bear on bags and edge coverage: an edge inside one
    supernode or with an end outside the tree's universe adds nothing.
    """
    a = tree.node_of[g.edges_u]
    b = tree.node_of[g.edges_v]
    e = np.flatnonzero((a >= 0) & (b >= 0) & (a != b))
    return e, a[e], b[e]


@dataclass
class BufferReport:
    """Measured decomposition quality plus every property breach found."""

    max_radius: float
    max_bag_size: int
    max_skeleton_leaves: int
    gamma_eff: float  # minimum observed buffer; +inf if no non-adjacent ancestor pair
    violations: list[tuple[int, int, int, float]] = field(default_factory=list)
    radius_violations: list[tuple[int, int, float]] = field(default_factory=list)
    skeleton_violations: list[tuple[int, str]] = field(default_factory=list)
    bag_violations: list[tuple[int, int]] = field(default_factory=list)
    tree_decomposition_ok: bool = True
    tree_decomposition_witness: dict | None = None
    buffer_checked: bool = True
    target_not_met: bool = False

    @property
    def passed(self) -> bool:
        return (
            not self.violations
            and not self.radius_violations
            and not self.skeleton_violations
            and not self.bag_violations
            and self.tree_decomposition_ok
        )

    def to_json_obj(self) -> dict:
        return {
            "max_radius": float(self.max_radius),
            "max_bag_size": int(self.max_bag_size),
            "max_skeleton_leaves": int(self.max_skeleton_leaves),
            "gamma_eff": None if self.gamma_eff == np.inf else float(self.gamma_eff),
            "buffer_checked": self.buffer_checked,
            "passed": self.passed,
            "target_not_met": self.target_not_met,
            "violation_counts": {
                "buffer": len(self.violations),
                "radius": len(self.radius_violations),
                "skeleton": len(self.skeleton_violations),
                "bag": len(self.bag_violations),
                "tree_decomposition": 0 if self.tree_decomposition_ok else 1,
            },
        }


def verify_buffered(
    tree: PartitionTree,
    g: WeightedGraph,
    delta: float,
    gamma: float,
    w: int,
    skip_buffer: bool = False,
) -> BufferReport:
    """Exact check of all four decomposition properties.

    For the buffer, every (descendant, non-adjacent ancestor) pair is
    measured: min over v in dom(descendant) of the distance from v to the
    ancestor inside the ancestor's domain.  The global minimum is reported
    as gamma_eff.  With ``skip_buffer`` the quadratic-ish pass is skipped
    and gamma_eff is reported as +inf with ``buffer_checked=False``.
    """
    tree._require_caches()
    n = g.vertex_count
    max_radius = 0.0
    max_leaves = 0
    radius_violations = []
    skeleton_violations = []
    bag_violations = []

    for sn in tree.supernodes:
        own = np.zeros(n, dtype=np.bool_)
        own[sn.vertices] = True
        skel_verts = sn.skeleton.vertices()
        try:
            sn.skeleton.validate()
        except StructuralError as exc:
            skeleton_violations.append((sn.id, str(exc)))
            continue
        if not all(own[v] for v in skel_verts):
            skeleton_violations.append((sn.id, "skeleton leaves its supernode"))
            continue

        # radius inside G[eta]
        dist_in_eta = shortest_paths(g, skel_verts, restrict=own)
        r = float(dist_in_eta[sn.vertices].max())
        max_radius = max(max_radius, r)
        if r > delta:
            witness = int(sn.vertices[int(np.argmax(dist_in_eta[sn.vertices]))])
            radius_violations.append((sn.id, witness, r))

        # SSSP property in dom(eta): tree-path length equals domain distance
        dom = tree.domains[sn.id]
        dist_dom = shortest_paths(g, [sn.skeleton.root], restrict=dom)
        tree_len = sn.skeleton.distances_from(g, sn.skeleton.root)
        for v, tl in tree_len.items():
            if tl != dist_dom[v]:
                skeleton_violations.append(
                    (sn.id, f"skeleton path to {v} has length {tl}, domain distance {dist_dom[v]}")
                )
                break

        leaves = sn.skeleton.leaf_count
        max_leaves = max(max_leaves, leaves)
        if leaves > w - 1:
            skeleton_violations.append((sn.id, f"{leaves} skeleton leaves exceed w-1={w - 1}"))

    max_bag = 0
    for sn in tree.supernodes:
        b = len(tree.bags[sn.id])
        max_bag = max(max_bag, b)
        if b > w:
            bag_violations.append((sn.id, b))

    td_ok, td_witness = verify_tree_decomposition(tree, g)

    gamma_eff = np.inf
    buffer_violations = []
    if not skip_buffer:
        bag_lookup = [set(b) for b in tree.bags]
        for anc in tree.supernodes:
            desc_ids = [d for d in tree.subtree_nodes(anc.id) if d != anc.id]
            targets = [d for d in desc_ids if anc.id not in bag_lookup[d]]
            if not targets:
                continue
            dist_map = domain_distances(tree, g, anc.id)
            for d in targets:
                dom_ids = tree.domain_ids(d)
                vals = dist_map[dom_ids]
                j = int(np.argmin(vals))
                dmin = float(vals[j])
                if dmin < gamma_eff:
                    gamma_eff = dmin
                if dmin < gamma:
                    buffer_violations.append((d, anc.id, int(dom_ids[j]), dmin))

    return BufferReport(
        max_radius=max_radius,
        max_bag_size=max_bag,
        max_skeleton_leaves=max_leaves,
        gamma_eff=gamma_eff,
        violations=buffer_violations,
        radius_violations=radius_violations,
        skeleton_violations=skeleton_violations,
        bag_violations=bag_violations,
        tree_decomposition_ok=td_ok,
        tree_decomposition_witness=td_witness,
        buffer_checked=not skip_buffer,
    )


def domain_distances(tree: PartitionTree, g: WeightedGraph, node: int) -> np.ndarray:
    """d_{dom(node)}(v, node) for every v; +inf outside the domain."""
    src = np.asarray(tree.supernodes[node].vertices, dtype=np.int64)
    return multisource_dijkstra(g.indptr, g.indices, g.weights, src, tree.domains[node], np.inf)


def verify_tree_decomposition(tree: PartitionTree, g: WeightedGraph) -> tuple[bool, dict | None]:
    """Check the expansion of the partition tree is a tree decomposition.

    (i) expanded bags cover V; (ii) every edge has both endpoints in some
    expanded bag; (iii) the bags containing any fixed vertex induce a
    connected subtree.  Returns (ok, first violation or None).
    """
    tree._require_caches()
    k = len(tree.supernodes)
    in_bag_of: list[set[int]] = [set() for _ in range(k)]  # x -> {eta : x in bag(eta)}
    for eta in range(k):
        for x in tree.bags[eta]:
            in_bag_of[x].add(eta)

    # the universe the tree decomposes is its root domain (all of V for a
    # whole-graph tree; one component when built per component)
    universe = tree.domains[tree.root]
    covered = np.zeros(g.vertex_count, dtype=np.bool_)
    for eta in range(k):
        for x in tree.bags[eta]:
            covered[tree.supernodes[x].vertices] = True
    if np.any(universe & ~covered):
        v = int(np.flatnonzero(universe & ~covered)[0])
        return False, {"kind": "vertex_not_covered", "vertex": v}

    for e, a, b in zip(*(x.tolist() for x in _cross_edges(tree, g))):
        if not (in_bag_of[a] & in_bag_of[b]):
            return False, {"kind": "edge_not_covered", "edge": [int(g.edges_u[e]), int(g.edges_v[e])]}

    parent = [sn.parent for sn in tree.supernodes]
    for x in range(k):
        occ = in_bag_of[x]
        loose = [eta for eta in occ if parent[eta] is None or parent[eta] not in occ]
        if len(loose) != 1:
            return False, {"kind": "bag_subtree_disconnected", "supernode": x, "roots": sorted(loose)}
    return True, None


def delta_net(skeleton: SkeletonTree, g: WeightedGraph, delta: float) -> list[int]:
    """Greedy net over the skeleton's own tree metric.

    Accepted points are pairwise more than ``delta`` apart along skeleton
    edges, every skeleton vertex is within ``delta`` of an accepted point,
    and the root is always accepted first.  Remaining vertices are visited
    in increasing (tree distance from root, vertex id) order.
    """
    root_dist = skeleton.distances_from(g, skeleton.root)
    order = sorted((d, v) for v, d in root_dist.items() if v != skeleton.root)
    net = [skeleton.root]
    net_dists = [root_dist]  # per accepted point: its skeleton tree distances
    for _d, v in order:
        if all(dm[v] > delta for dm in net_dists):
            net.append(v)
            net_dists.append(skeleton.distances_from(g, v))
    return net


def verify_net(skeleton: SkeletonTree, g: WeightedGraph, delta: float, net: list[int]) -> list[str]:
    """Exact check of both net conditions; returns violation descriptions."""
    problems = []
    dists = {p: skeleton.distances_from(g, p) for p in net}
    for i, p in enumerate(net):
        for q in net[i + 1 :]:
            if dists[p][q] <= delta:
                problems.append(f"net points {p},{q} at tree distance {dists[p][q]} <= {delta}")
    for v in skeleton.vertices():
        if min(dists[p][v] for p in net) > delta:
            problems.append(f"skeleton vertex {v} farther than {delta} from every net point")
    return problems


# --- JSON persistence (round-trip schema for externally built trees) ---


def tree_to_json_obj(tree: PartitionTree) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "supernodes": [
            {
                "id": sn.id,
                "parent": sn.parent,
                "vertices": [int(v) for v in sn.vertices],
                "skeleton": {
                    "root": int(sn.skeleton.root),
                    "edges": [[int(u), int(v)] for u, v in sn.skeleton.edges],
                },
            }
            for sn in tree.supernodes
        ],
    }


def tree_to_json(tree: PartitionTree) -> str:
    return json.dumps(tree_to_json_obj(tree), sort_keys=True, indent=2) + "\n"


def tree_from_json_obj(obj: dict) -> PartitionTree:
    try:
        entries = obj["supernodes"]
    except (TypeError, KeyError):
        raise StructuralError("partition-tree JSON must contain 'supernodes'") from None
    supernodes = []
    root = None
    for i, ent in enumerate(entries):
        if ent["id"] != i:
            raise StructuralError("supernode ids must be 0..k-1 in order")
        skel = SkeletonTree(
            root=int(ent["skeleton"]["root"]),
            edges=[(int(u), int(v)) for u, v in ent["skeleton"]["edges"]],
        )
        parent = ent["parent"]
        if parent is None:
            if root is not None:
                raise StructuralError("multiple parentless supernodes in JSON")
            root = i
        supernodes.append(
            Supernode(
                id=i,
                vertices=np.asarray(sorted(ent["vertices"]), dtype=np.int64),
                skeleton=skel,
                parent=None if parent is None else int(parent),
                creation_index=i,
            )
        )
    if root is None:
        raise StructuralError("no root supernode in JSON")
    return PartitionTree(supernodes, root)


def tree_from_json(text: str) -> PartitionTree:
    return tree_from_json_obj(json.loads(text))
