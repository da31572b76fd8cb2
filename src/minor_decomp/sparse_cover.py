"""Recursive sparse partition cover over a partition tree.

One recursion level: select separator supernodes in the current subtree,
then for every separator X, every bag member X' inside the subtree, and
every net point p on X''s skeleton, emit the cluster

    ball_{dom(X')}(p, (2 + 4 rho) * delta)  intersect  dom(X)  intersect  A,

where A is the current active vertex set.  Each active vertex is then
routed to the component of the subtree (minus the separators) containing
its qualifying supernode: the minimum-depth member whose domain distance
to the vertex is at most 2 * rho * delta.  Vertices whose qualifying
supernode was removed stop participating.  Recursion bottoms out when the
subtree is empty, and each level lowers the subtree-width by at least one,
which is asserted on every call.

Resulting guarantees, checked exactly by :func:`verify_cover`: cluster
weak diameter at most (4 + 8 rho) * delta, and every ball of radius
rho * delta inside the universe is contained in some cluster.  The greedy
first-fit coloring groups clusters into pairwise-disjoint classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# not called here any more, but perfbench's tracer wraps the kernel under
# every module's name for it
from ._kernels import multisource_dijkstra  # noqa: F401
# unused here too; perfbench's tracer wraps ball under this module's name
from .graph_core import ball  # noqa: F401
from .graph_core import StructuralError, WeightedGraph, as_mask, distance_rows, mask_to_ids, weak_diameters
from .partition_tree import PartitionTree
from .separator import (
    SubtreeView,
    components_after_removal,
    separator_supernodes,
    subtree_width,
)

SCHEMA_VERSION = 1


@dataclass
class Cluster:
    key: tuple[int, int, int]  # (separator X, bag member X', net point p)
    vertices: np.ndarray  # sorted vertex ids
    recursion_depth: int

    def mask(self, n: int) -> np.ndarray:
        m = np.zeros(n, dtype=np.bool_)
        m[self.vertices] = True
        return m


@dataclass
class Cover:
    clusters: list[Cluster]
    rho: float
    delta: float
    color_classes: list[list[int]] | None = None

    def membership_matrix(self, n: int) -> np.ndarray:
        mat = np.zeros((len(self.clusters), n), dtype=np.bool_)
        for i, c in enumerate(self.clusters):
            mat[i, c.vertices] = True
        return mat

    def check_vertex_ids(self, n: int) -> None:
        """Raise StructuralError naming the first cluster that lists a vertex outside 0..n-1."""
        for i, cl in enumerate(self.clusters):
            bad = cl.vertices[(cl.vertices < 0) | (cl.vertices >= n)]
            if bad.size:
                raise StructuralError(f"cluster {i} lists vertex {int(bad[0])} outside 0..{n - 1}")

    def sparsity(self, n: int) -> int:
        """Max over vertices of the number of clusters containing it."""
        if not self.clusters:
            return 0
        counts = np.zeros(n, dtype=np.int64)
        for c in self.clusters:
            counts[c.vertices] += 1
        return int(counts.max())


def cover(t: SubtreeView, active, rho: float, delta: float) -> Cover:
    """Run the recursive construction on subtree ``t`` and active set ``active``."""
    if rho < 1:
        raise StructuralError("rho must be >= 1")
    if delta <= 0:
        raise StructuralError("delta must be positive")
    n = t.metrics.g.vertex_count
    active_mask = as_mask(n, active).copy()
    clusters: list[Cluster] = []
    initial_width = subtree_width(t)
    _cover_rec(t, active_mask, rho, delta, 0, initial_width, clusters)
    return Cover(clusters=clusters, rho=rho, delta=delta)


def _qualifying_supernode(t: SubtreeView, v: int, bound: float) -> int:
    """Minimum-depth member eta with v in dom(eta) and domain distance <= bound.

    Candidates are exactly the members on the ancestor chain of v's own
    supernode, so the minimum is unique.
    """
    tree = t.tree
    chain = []
    cur = int(tree.node_of[v])
    while cur is not None:
        if cur in t.members:
            chain.append(cur)
        cur = tree.supernodes[cur].parent
    for eta in reversed(chain):  # shallowest first
        if t.metrics.dist_to_node(eta)[v] <= bound:
            return eta
    raise StructuralError(f"active vertex {v} has no subtree supernode within distance {bound}")


def _cover_rec(t, active_mask, rho, delta, level, initial_width, out):
    if t.is_empty():
        if active_mask.any():
            v = int(np.flatnonzero(active_mask)[0])
            raise StructuralError(f"active vertex {v} left with an empty subtree")
        return
    if level > initial_width:
        raise StructuralError("recursion exceeded the initial subtree-width")
    tree = t.tree
    width_here = subtree_width(t)
    sep = separator_supernodes(t)
    sep_set = set(sep.supernodes)
    grow_radius = (2.0 + 4.0 * rho) * delta

    for x in sep.supernodes:
        for xp in sorted(t.members.intersection(tree.bags[x])):
            for p in t.metrics.net(xp, delta):
                m = t.metrics.point_ball(xp, p, grow_radius) & tree.domains[x] & active_mask
                if m.any():
                    out.append(Cluster(key=(x, xp, p), vertices=mask_to_ids(m), recursion_depth=level))

    comps = components_after_removal(t, sep_set)
    for comp in comps:
        if subtree_width(comp) > width_here - 1:
            raise StructuralError(
                f"subtree-width not reduced: component rooted at {comp.root} "
                f"has width {subtree_width(comp)} >= {width_here}"
            )

    comp_of = {}
    for i, comp in enumerate(comps):
        for m in comp.members:
            comp_of[m] = i
    comp_active = [np.zeros(active_mask.shape[0], dtype=np.bool_) for _ in comps]
    route_bound = 2.0 * rho * delta
    routed = 0
    for v in np.flatnonzero(active_mask):
        v = int(v)
        eta = _qualifying_supernode(t, v, route_bound)
        if eta in sep_set:
            continue
        comp_active[comp_of[eta]][v] = True
        routed += 1
    # sibling active sets are disjoint: each vertex was routed at most once
    assert sum(int(a.sum()) for a in comp_active) == routed

    for comp, amask in zip(comps, comp_active):
        _cover_rec(comp, amask, rho, delta, level + 1, initial_width, out)


def color_classes(c: Cover, tree: PartitionTree) -> Cover:
    """Greedy first-fit partition of clusters into pairwise-disjoint classes.

    Clusters are visited in nondecreasing depth of their separator X
    (ties by X id, then X' id, then net point id); each joins the lowest-
    index class it does not intersect.
    """
    if not c.clusters:
        c.color_classes = []
        return c
    n = max(int(cl.vertices.max()) for cl in c.clusters if cl.vertices.size) + 1
    order = sorted(
        range(len(c.clusters)),
        key=lambda i: (
            int(tree.depth[c.clusters[i].key[0]]),
            c.clusters[i].key[0],
            c.clusters[i].key[1],
            c.clusters[i].key[2],
        ),
    )
    class_masks: list[np.ndarray] = []
    classes: list[list[int]] = []
    for i in order:
        m = c.clusters[i].mask(n)
        for j, cm in enumerate(class_masks):
            if not np.any(cm & m):
                cm |= m
                classes[j].append(i)
                break
        else:
            class_masks.append(m.copy())
            classes.append([i])
    c.color_classes = classes
    return c


def class_count_bound(rho: float, delta: float, gamma_eff: float, w: int, w_hat: int, kappa: float = 64.0):
    """Reporting surrogate for the color-class count; the true constant is unstated."""
    if gamma_eff <= 0 or gamma_eff == np.inf:
        return None
    return kappa * rho**2 * (delta / gamma_eff) * w * w_hat**2


@dataclass
class CoverReport:
    max_diam: float
    diam_ok: bool
    diam_witness: tuple[int, float] | None  # (cluster index, diameter)
    padding_ok: bool
    padding_witness: int | None  # uncovered-ball center
    s: int
    class_disjoint_ok: bool = True
    class_count: int | None = None
    per_cluster_diam: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.diam_ok and self.padding_ok and self.class_disjoint_ok

    def to_json_obj(self) -> dict:
        return {
            "max_diam": float(self.max_diam),
            "diam_ok": self.diam_ok,
            "diam_witness": list(self.diam_witness) if self.diam_witness else None,
            "padding_ok": self.padding_ok,
            "padding_witness": self.padding_witness,
            "s": self.s,
            "class_disjoint_ok": self.class_disjoint_ok,
            "class_count": self.class_count,
            "passed": self.passed,
        }


def verify_cover(c: Cover, g: WeightedGraph, universe, pad_radius: float, diam_bound: float) -> CoverReport:
    """Exact verification of the three cover conditions.

    (1) every cluster weak diameter <= diam_bound; (2) for every universe
    vertex, some cluster contains its pad_radius-ball in the full graph;
    (3) the max per-vertex membership count s, and disjointness of the
    color classes when present.  Failures carry witnesses.
    """
    n = g.vertex_count
    uni_mask = as_mask(n, universe)

    # (1) weak diameters: one distance row per vertex, shared by its clusters
    diam = weak_diameters(g, [cl.vertices for cl in c.clusters])
    max_diam = max(diam, default=0.0)
    diam_ok = all(d <= diam_bound for d in diam)
    diam_witness = None
    if not diam_ok:
        i = next(i for i, d in enumerate(diam) if d > diam_bound)
        diam_witness = (i, diam[i])

    # (2) padding: the lowest universe vertex whose ball no cluster holding it contains
    mat = c.membership_matrix(n)
    padding_witness = None
    for block_ids, rows in distance_rows(g, mask_to_ids(uni_mask), pad_radius):
        for v, row in zip(block_ids.tolist(), rows):
            holders = np.flatnonzero(mat[:, v])
            if not mat[np.ix_(holders, np.flatnonzero(row <= pad_radius))].all(axis=1).any():
                padding_witness = v
                break
        if padding_witness is not None:
            break
    padding_ok = padding_witness is None

    s = c.sparsity(n)

    class_disjoint_ok = True
    class_count = None
    if c.color_classes is not None:
        class_count = len(c.color_classes)
        for group in c.color_classes:
            seen = np.zeros(n, dtype=np.bool_)
            for i in group:
                m = c.clusters[i].mask(n)
                if np.any(seen & m):
                    class_disjoint_ok = False
                seen |= m

    return CoverReport(
        max_diam=max_diam,
        diam_ok=diam_ok,
        diam_witness=diam_witness,
        padding_ok=padding_ok,
        padding_witness=padding_witness,
        s=s,
        class_disjoint_ok=class_disjoint_ok,
        class_count=class_count,
        per_cluster_diam=diam,
    )


# --- JSON persistence ---


def cover_to_json_obj(c: Cover, stats: dict | None = None) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "params": {"rho": float(c.rho), "delta": float(c.delta)},
        "clusters": [
            {
                "X": int(cl.key[0]),
                "Xp": int(cl.key[1]),
                "p": int(cl.key[2]),
                "depth": int(cl.recursion_depth),
                "vertices": [int(v) for v in cl.vertices],
            }
            for cl in c.clusters
        ],
        "color_classes": c.color_classes,
    }
    if stats is not None:
        obj["stats"] = stats
    return obj


def cover_to_json(c: Cover, stats: dict | None = None) -> str:
    return json.dumps(cover_to_json_obj(c, stats), sort_keys=True, indent=2) + "\n"


def cover_from_json_obj(obj: dict) -> Cover:
    try:
        params = obj["params"]
        entries = obj["clusters"]
    except (TypeError, KeyError):
        raise StructuralError("cover JSON must contain 'params' and 'clusters'") from None
    clusters = [
        Cluster(
            key=(int(e["X"]), int(e["Xp"]), int(e["p"])),
            vertices=np.asarray(sorted(e["vertices"]), dtype=np.int64),
            recursion_depth=int(e.get("depth", 0)),
        )
        for e in entries
    ]
    return Cover(
        clusters=clusters,
        rho=float(params["rho"]),
        delta=float(params["delta"]),
        color_classes=obj.get("color_classes"),
    )


def cover_from_json(text: str) -> Cover:
    return cover_from_json_obj(json.loads(text))
