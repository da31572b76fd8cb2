"""Sampling padded decompositions from a sparse cover.

Given a cover whose clusters have diameter at most ``delta`` and in which
every ball of radius ``delta / beta`` is contained in some cluster, draw
one truncated-exponential shift per cluster and assign every vertex to the
cluster (containing it) that maximizes the potential

    f_C(v) = shift_C * (delta / beta) + boundary_C(v),

where boundary_C(v) is the full-graph distance from v to the complement of
C (+inf when C is the whole vertex set).  It is read only for v in C, and
a shortest path from there leaves C by its last edge, so each cluster is
swept from its rim (the outside vertices adjacent to it) within C plus the
rim: the sweeps cost the clusters, not one graph sweep per cluster.

``boundary_distances`` prepares the cover for sampling as a vertex-major
entry list: for each vertex, its clusters in ascending id with their
boundary distances.  A draw then costs the cover's entries (sum of |C|),
not clusters x vertices: one potential per entry, the best per vertex,
and the lowest cluster id attaining it.  The resulting partition refines
the cover (each part is a subset of its cluster), hence is delta-bounded,
and a ball of radius gamma * delta stays in one part with probability at
least exp(-4 * beta * gamma * lambda), where lambda = 2 + 2 ln s and s is
the cover's measured sparsity.

``estimate_padding`` is the Monte Carlo harness certifying that last
guarantee: it draws independent partitions, tracks per-vertex containment
frequencies with a one-sided 99% binomial lower confidence bound, and on
every trial exactly checks the sufficient margin condition (a winning
potential margin above 2r forces the r-ball into the winner's part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from ._kernels import multisource_dijkstra
from .graph_core import StructuralError, WeightedGraph, distance_rows, incident_edges
from .seeding import derive_rng, derive_seed_sequence
from .sparse_cover import Cover


# --- truncated exponential on [0, 1] ---


def texp_cdf(y, lam: float):
    y = np.clip(y, 0.0, 1.0)
    return (1.0 - np.exp(-lam * y)) / (1.0 - np.exp(-lam))


def texp_mean(lam: float) -> float:
    return 1.0 / lam - math.exp(-lam) / (1.0 - math.exp(-lam))


class TexpSampler:
    """[0,1]-truncated exponential sampler, density lam*e^(-lam*y)/(1-e^(-lam))."""

    def __init__(self, lam: float, rng: np.random.Generator | None = None, seed: int | None = None):
        if lam <= 0:
            raise StructuralError("lambda must be positive")
        if rng is None:
            rng = derive_rng(0 if seed is None else seed, "texp")
        self.lam = float(lam)
        self.rng = rng

    def _inverse_cdf(self, u):
        return -np.log1p(-u * (1.0 - np.exp(-self.lam))) / self.lam

    def sample(self) -> float:
        return float(self._inverse_cdf(self.rng.random()))

    def sample_many(self, k: int) -> np.ndarray:
        return self._inverse_cdf(self.rng.random(k))

    def from_uniform(self, u):
        """Deterministic inverse-CDF map; u = 0 gives 0, u -> 1 gives 1."""
        return self._inverse_cdf(np.asarray(u, dtype=np.float64))


# --- boundary distances ---


@dataclass
class BoundaryDistances:
    """A cover prepared for sampling: vertex-major (cluster, boundary distance) entries.

    Vertex v's entries are ``indptr[v]:indptr[v + 1]``: the ids of the
    clusters containing v, ascending, in ``cluster``, and v's full-graph
    distance to each one's complement in ``value``.
    """

    indptr: np.ndarray  # (n + 1,) int64
    cluster: np.ndarray  # (entries,) int64
    value: np.ndarray  # (entries,) float64
    num_clusters: int

    @property
    def matrix(self) -> np.ndarray:
        """The dense (num_clusters, n) view, zero outside each cluster; built on demand."""
        n = self.indptr.size - 1
        mat = np.zeros((self.num_clusters, n), dtype=np.float64)
        mat[self.cluster, np.repeat(np.arange(n), np.diff(self.indptr))] = self.value
        return mat

    def contains(self, assignment: np.ndarray) -> np.ndarray:
        """Per vertex v: whether cluster ``assignment[v]`` is one of v's clusters.

        Every vertex must have an entry (a covering cover).
        """
        hit = self.cluster == np.repeat(assignment, np.diff(self.indptr))
        return np.logical_or.reduceat(hit, self.indptr[:-1])


def boundary_distances(g: WeightedGraph, c: Cover) -> BoundaryDistances:
    """Distance from each cluster member to the cluster's complement.

    A shortest path from v in C to a vertex outside C stays inside C until
    its last edge, which ends on C's rim: the vertices outside C adjacent
    to C.  So each cluster is swept from its rim, restricted to C plus the
    rim.  This forms the same sums as a full-graph sweep from the
    complement, so the values are equal bit for bit, at the cost of the
    cluster.  C's entries stay +inf when the rim is empty (C = V, or C a
    union of whole components).  The entries, gathered cluster by cluster,
    are put in vertex order by one stable sort, which keeps each vertex's
    clusters ascending.
    """
    n = g.vertex_count
    # the leading empty array keeps an empty cover's concatenation defined
    vertex = np.concatenate([np.zeros(0, dtype=np.int64)] + [cl.vertices for cl in c.clusters])
    sizes = [cl.vertices.size for cl in c.clusters]
    cluster = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    value = np.empty(vertex.size, dtype=np.float64)
    start = 0
    for cl in c.clusters:
        restrict = np.zeros(n, dtype=np.bool_)
        restrict[cl.vertices] = True
        nbrs = g.indices[incident_edges(g, cl.vertices)]
        rim = np.unique(nbrs[~restrict[nbrs]])
        restrict[rim] = True
        dist = multisource_dijkstra(g.indptr, g.indices, g.weights, rim, restrict, np.inf)
        value[start : start + cl.vertices.size] = dist[cl.vertices]
        start += cl.vertices.size
    order = np.argsort(vertex, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertex, minlength=n), out=indptr[1:])
    return BoundaryDistances(
        indptr=indptr, cluster=cluster[order], value=value[order], num_clusters=len(c.clusters)
    )


# --- padded partitions ---


@dataclass
class PaddedPartition:
    assignment: np.ndarray  # per-vertex cluster index
    shifts: np.ndarray  # per-cluster truncated-exponential draw
    beta: float
    delta: float
    lam: float


def _sparsity_lambda(boundary: BoundaryDistances) -> tuple[int, float]:
    """Sparsity s and lambda = 2 + 2 ln s from each vertex's entry count.

    Raises StructuralError if the cover is empty or some vertex lies in
    no cluster (the cover precondition), naming the lowest such vertex.
    """
    if boundary.num_clusters == 0:
        raise StructuralError("cover has no clusters")
    counts = np.diff(boundary.indptr)
    if not counts.all():
        v = int(np.argmin(counts))
        raise StructuralError(f"vertex {v} is covered by no cluster")
    s = int(counts.max())
    return s, 2.0 + 2.0 * math.log(max(s, 1))


def _draw(boundary: BoundaryDistances, lam: float, beta: float, delta: float, seed: int):
    """One partition from a covering prepared cover; the only draw path.

    Returns the partition, each entry's potential and each vertex's best
    potential.  The winner is the lowest cluster id attaining the best, as
    argmax over a vertex's clusters would pick; a C = V cluster's +inf wins.
    """
    sampler = TexpSampler(lam, rng=derive_rng(seed, "padded-shifts"))
    shifts = sampler.sample_many(boundary.num_clusters)
    pot = boundary.value + shifts[boundary.cluster] * (delta / beta)
    starts = boundary.indptr[:-1]
    best = np.maximum.reduceat(pot, starts)
    on_best = pot == np.repeat(best, np.diff(boundary.indptr))
    assignment = np.minimum.reduceat(np.where(on_best, boundary.cluster, boundary.num_clusters), starts)
    pp = PaddedPartition(assignment=assignment, shifts=shifts, beta=beta, delta=delta, lam=lam)
    return pp, pot, best


def sample_padded(
    g: WeightedGraph,
    c: Cover,
    beta: float,
    delta: float,
    seed: int,
    boundary: BoundaryDistances | None = None,
    membership: np.ndarray | None = None,
) -> PaddedPartition:
    """Draw one padded partition; deterministic given the seed.

    ``boundary``, when given, is ``c`` prepared by ``boundary_distances``.
    ``membership`` is ignored (the prepared entries say which clusters hold
    each vertex); it stays accepted for callers that still pass it.  Raises StructuralError if the cover is empty or some
    vertex lies in no cluster (the cover precondition is violated).  Ties
    in the potential are broken toward the lowest cluster index.
    """
    if boundary is None:
        boundary = boundary_distances(g, c)
    _, lam = _sparsity_lambda(boundary)
    return _draw(boundary, lam, beta, delta, seed)[0]


# --- Monte Carlo certification ---


@dataclass
class PaddingEstimate:
    gamma: float
    trials: int
    lam: float
    bound: float  # exp(-4 beta gamma lambda)
    per_vertex_prob: np.ndarray
    per_vertex_lcb: np.ndarray
    min_prob: float
    min_lcb: float
    min_lcb_vertex: int  # lowest id among the vertices with the least lower bound
    max_ball_size: int  # vertices in the largest gamma*delta-ball checked; 1 means a vacuous check
    margin_violations: int = 0
    membership_violations: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.min_lcb >= self.bound
            and self.margin_violations == 0
            and self.membership_violations == 0
        )

    def to_json_obj(self) -> dict:
        return {
            "gamma": self.gamma,
            "trials": self.trials,
            "lambda": self.lam,
            "bound": self.bound,
            "min_pad_prob": self.min_prob,
            "min_lcb": self.min_lcb,
            "min_lcb_vertex": self.min_lcb_vertex,
            "max_ball_size": self.max_ball_size,
            "margin_violations": self.margin_violations,
            "membership_violations": self.membership_violations,
            "pass": self.passed,
        }


def _binomial_lcb(successes: np.ndarray, trials: int, confidence: float = 0.99) -> np.ndarray:
    """One-sided Clopper-Pearson lower bound per entry."""
    k = np.asarray(successes, dtype=np.float64)
    lcb = np.zeros_like(k)
    pos = k > 0
    # the (1 - confidence)-quantile of Beta(k, trials - k + 1)
    lcb[pos] = betaincinv(k[pos], trials - k[pos] + 1, 1.0 - confidence)
    return lcb


def _runner_up(boundary: BoundaryDistances, pp: PaddedPartition, pot: np.ndarray) -> np.ndarray:
    """Per vertex v: the largest potential over all clusters but v's winner, members of v or not.

    A non-member's potential is its shift term plus 0.0, which equals the
    shift term, and a member's is never below its own shift term.  So the
    runner-up is the larger of v's best non-winning entry and the best
    shift term among the clusters other than the winner: the top one, or
    the second when the winner holds the top.
    """
    terms = pp.shifts * (pp.delta / pp.beta)
    top = int(np.argmax(terms))
    outside = np.where(pp.assignment == top, np.delete(terms, top).max(initial=-np.inf), terms[top])
    own = boundary.cluster == np.repeat(pp.assignment, np.diff(boundary.indptr))
    inside = np.maximum.reduceat(np.where(own, -np.inf, pot), boundary.indptr[:-1])
    return np.maximum(inside, outside)


def _ball_csr(g: WeightedGraph, radius: float):
    """Closed ball member lists for every vertex, as a flat CSR structure."""
    n = g.vertex_count
    counts, lists = [], []
    for block_ids, rows in distance_rows(g, np.arange(n), radius):
        row_of, members = np.nonzero(rows <= radius)
        counts.append(np.bincount(row_of, minlength=block_ids.size))
        lists.append(members)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return indptr, np.concatenate(lists)


def estimate_padding(
    g: WeightedGraph,
    c: Cover,
    beta: float,
    delta: float,
    gamma: float,
    trials: int,
    seed: int,
    boundary: BoundaryDistances | None = None,
) -> PaddingEstimate:
    """Empirical padding probabilities over independent sampled partitions.

    The cover ``c`` is fixed; only the shifts resample.  ``boundary``, when
    given, is ``c`` prepared by ``boundary_distances``.  Every trial draws
    through the same path as ``sample_padded`` and reads only the prepared
    entries; the margin check's runner-up stays exact over all clusters
    (``_runner_up``).
    """
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    if gamma < 0 or gamma > 1.0 / (4.0 * beta):
        raise StructuralError("gamma must lie in [0, 1/(4 beta)]")
    n = g.vertex_count
    if boundary is None:
        boundary = boundary_distances(g, c)
    s, lam = _sparsity_lambda(boundary)
    bound = math.exp(-4.0 * beta * gamma * lam)
    r = gamma * delta
    ball_indptr, ball_flat = _ball_csr(g, r)

    successes = np.zeros(n, dtype=np.int64)
    margin_violations = 0
    membership_violations = 0
    for t in range(trials):
        pp, pot, best = _draw(boundary, lam, beta, delta, _trial_seed(seed, t))
        assign = pp.assignment
        if not boundary.contains(assign).all():
            membership_violations += 1

        vals = assign[ball_flat]
        seg_min = np.minimum.reduceat(vals, ball_indptr[:-1])
        seg_max = np.maximum.reduceat(vals, ball_indptr[:-1])
        contained = (seg_min == assign) & (seg_max == assign)
        successes += contained

        # sufficient-margin condition: winner ahead by > 2r forces containment
        with np.errstate(invalid="ignore"):
            margin = best - _runner_up(boundary, pp, pot)
        forced = margin > 2.0 * r
        margin_violations += int(np.count_nonzero(forced & ~contained))

    probs = successes / trials
    lcbs = _binomial_lcb(successes, trials)
    return PaddingEstimate(
        gamma=gamma,
        trials=trials,
        lam=lam,
        bound=bound,
        per_vertex_prob=probs,
        per_vertex_lcb=lcbs,
        min_prob=float(probs.min()),
        min_lcb=float(lcbs.min()),
        min_lcb_vertex=int(np.argmin(lcbs)),
        max_ball_size=int(np.diff(ball_indptr).max()),
        margin_violations=margin_violations,
        membership_violations=membership_violations,
        extra={"sparsity": s},
    )


def _trial_seed(seed: int, trial: int) -> int:
    return int(derive_seed_sequence(seed, "padded-trial", trial).generate_state(1, np.uint64)[0])
