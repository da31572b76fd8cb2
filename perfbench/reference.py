"""Independent checks of the pipeline's outputs.

Every distance here comes from ``scipy.sparse.csgraph`` and every cover
fact (membership, sparsity, cluster diameters, padding, color classes) is
recounted from the cluster vertex lists, so no check reuses the library's
kernel or verifiers.  Each check returns a list of problems; an empty list
means the output is correct.

Unit and power-of-two edge weights make every path length an exactly
representable float, so diameters and sparsity are compared with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


@dataclass
class CoverFacts:
    """Cover quantities recounted from the cluster vertex lists."""

    membership: np.ndarray  # (clusters, n) bool
    sparsity: int
    diameters: np.ndarray  # per-cluster weak diameter
    problems: list[str]

    @property
    def max_diam(self) -> float:
        return float(self.diameters.max()) if self.diameters.size else 0.0

    @property
    def lam(self) -> float:
        """lambda = 2 + 2 ln s, the constant of the padding bound."""
        return 2.0 + 2.0 * math.log(max(self.sparsity, 1))


class Reference:
    """All-pairs distances of one graph, computed apart from the library."""

    def __init__(self, n: int, edges_u, edges_v, edges_w):
        w = np.asarray(edges_w, dtype=np.float64)
        if np.any(w <= 0):
            # csgraph reads a stored zero as a missing edge
            raise ValueError("reference distances need positive edge weights")
        adj = csr_matrix((w, (np.asarray(edges_u), np.asarray(edges_v))), shape=(n, n))
        self.n = n
        self.dist = shortest_path(adj, method="D", directed=False)

    def cover_facts(self, clusters, color_classes, pad_radius: float, diam_bound: float) -> CoverFacts:
        """Check a cover given as a list of cluster vertex arrays.

        Every vertex lies in some cluster, every cluster's weak diameter is
        at most ``diam_bound``, every ``pad_radius``-ball lies inside some
        cluster, and the color classes partition the clusters into
        pairwise-disjoint groups.
        """
        n, dist = self.n, self.dist
        problems: list[str] = []
        k = len(clusters)
        membership = np.zeros((k, n), dtype=np.bool_)
        diameters = np.zeros(k)
        for i, verts in enumerate(clusters):
            ids = np.asarray(verts)
            if ids.size == 0 or ids.min() < 0 or ids.max() >= n or np.unique(ids).size != ids.size:
                problems.append(f"cluster {i} is empty, out of range or repeats a vertex")
                continue
            membership[i, ids] = True
            diameters[i] = dist[np.ix_(ids, ids)].max()
        if k == 0 or not membership.any(axis=0).all():
            missing = np.flatnonzero(~membership.any(axis=0))
            problems.append(f"vertex {int(missing[0])} lies in no cluster")
        over = np.flatnonzero(diameters > diam_bound)
        if over.size:
            i = int(over[0])
            problems.append(f"cluster {i} has weak diameter {diameters[i]} > {diam_bound}")

        balls = dist <= pad_radius
        # inside[c, v] counts the members of ball(v) that cluster c holds
        inside = membership.astype(np.float32) @ balls.T.astype(np.float32)
        padded = (membership & (inside == balls.sum(axis=1)[None, :])).any(axis=0)
        if not padded.all():
            v = int(np.flatnonzero(~padded)[0])
            problems.append(f"the {pad_radius}-ball around vertex {v} lies in no cluster")

        if color_classes is None:
            problems.append("cover has no color classes")
        else:
            seen = sorted(int(i) for group in color_classes for i in group)
            if seen != list(range(k)):
                problems.append("color classes do not hold every cluster exactly once")
            for j, group in enumerate(color_classes):
                if membership[list(group)].sum(axis=0).max(initial=0) > 1:
                    problems.append(f"color class {j} holds two intersecting clusters")
                    break

        sparsity = int(membership.sum(axis=0).max()) if k else 0
        return CoverFacts(membership, sparsity, diameters, problems)

    def partition_problems(self, facts: CoverFacts, assignment, delta_p: float) -> list[str]:
        """Every part lies inside its assigned cluster and has weak diameter <= delta_p."""
        a = np.asarray(assignment)
        k = facts.membership.shape[0]
        if a.shape != (self.n,) or a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= k:
            return ["assignment is not one cluster index per vertex"]
        problems = []
        outside = ~facts.membership[a, np.arange(self.n)]
        if outside.any():
            v = int(np.flatnonzero(outside)[0])
            problems.append(f"vertex {v} is assigned to cluster {int(a[v])}, which does not contain it")
        widest = self.dist[a[:, None] == a[None, :]].max()
        if widest > delta_p:
            problems.append(f"a part has weak diameter {widest} > {delta_p}")
        return problems

    def part_diameters(self, assignment) -> dict[int, float]:
        a = np.asarray(assignment)
        out = {}
        for label in np.unique(a):
            ids = np.flatnonzero(a == label)
            out[int(label)] = float(self.dist[np.ix_(ids, ids)].max())
        return out

    def verify_problems(self, buffer_report, cover_report, weak_diameters, facts: CoverFacts, assignment) -> list[str]:
        """The library's verifiers pass and agree exactly with the recount."""
        problems = []
        if not buffer_report.passed:
            problems.append("verify_buffered reports a violated decomposition property")
        if not cover_report.passed:
            problems.append("verify_cover reports a violated cover condition")
        if cover_report.max_diam != facts.max_diam:
            problems.append(f"verify_cover max_diam {cover_report.max_diam} != {facts.max_diam}")
        if cover_report.s != facts.sparsity:
            problems.append(f"verify_cover s {cover_report.s} != {facts.sparsity}")
        if list(cover_report.per_cluster_diam) != facts.diameters.tolist():
            problems.append("verify_cover per-cluster diameters differ from the recount")
        if weak_diameters != self.part_diameters(assignment):
            problems.append("weak_diameter of some part differs from the recount")
        return problems


def mc_problems(estimate, facts: CoverFacts, beta: float, gamma: float, trials: int) -> list[str]:
    """No margin or membership violation, and the lower confidence bound
    reaches exp(-4 beta gamma lambda) with lambda from the recounted sparsity."""
    problems = []
    if estimate.trials != trials:
        problems.append(f"estimate ran {estimate.trials} trials, not {trials}")
    if estimate.margin_violations:
        problems.append(f"{estimate.margin_violations} margin violations")
    if estimate.membership_violations:
        problems.append(f"{estimate.membership_violations} membership violations")
    if estimate.lam != facts.lam:
        problems.append(f"estimate lambda {estimate.lam} != {facts.lam}")
    bound = math.exp(-4.0 * beta * gamma * facts.lam)
    if not estimate.min_lcb >= bound:
        problems.append(f"lower confidence bound {estimate.min_lcb} < {bound}")
    return problems
