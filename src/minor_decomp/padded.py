"""Sampling padded decompositions from a sparse cover.

Given a cover whose clusters have diameter at most ``delta`` and in which
every ball of radius ``delta / beta`` is contained in some cluster, draw
one truncated-exponential shift per cluster and assign every vertex to the
cluster (containing it) that maximizes the potential

    f_C(v) = shift_C * (delta / beta) + boundary_C(v),

where boundary_C(v) is the full-graph distance from v to the complement of
C (zero outside C, +inf when C is the whole vertex set).  It is read only
for v in C, and a shortest path from there leaves C by its last edge, so
each cluster is swept from its rim (the outside vertices adjacent to it)
within C plus the rim: the sweeps cost the clusters, not one graph sweep
per cluster.  The resulting partition refines the cover (each part is a
subset of its cluster), hence is delta-bounded, and a ball of radius
gamma * delta stays in one part with probability at least
exp(-4 * beta * gamma * lambda), where lambda = 2 + 2 ln s and s is the
cover's measured sparsity.

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
from .graph_core import StructuralError, WeightedGraph, full_mask, incident_edges
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
    """Per (cluster, vertex): full-graph distance to the cluster complement."""

    matrix: np.ndarray  # (num_clusters, n) float64


def boundary_distances(g: WeightedGraph, c: Cover) -> BoundaryDistances:
    """Distance from each cluster member to the cluster's complement.

    A shortest path from v in C to a vertex outside C stays inside C until
    its last edge, which ends on C's rim: the vertices outside C adjacent
    to C.  So each cluster is swept from its rim, restricted to C plus the
    rim.  This forms the same sums as a full-graph sweep from the
    complement, so the values are equal bit for bit, at the cost of the
    cluster.  Entries outside C are 0; C's entries stay +inf when the rim
    is empty (C = V, or C a union of whole components).
    """
    n = g.vertex_count
    mat = np.zeros((len(c.clusters), n), dtype=np.float64)
    for i, cl in enumerate(c.clusters):
        restrict = np.zeros(n, dtype=np.bool_)
        restrict[cl.vertices] = True
        nbrs = g.indices[incident_edges(g, cl.vertices)]
        rim = np.unique(nbrs[~restrict[nbrs]])
        restrict[rim] = True
        dist = multisource_dijkstra(g.indptr, g.indices, g.weights, rim, restrict, np.inf)
        mat[i, cl.vertices] = dist[cl.vertices]
    return BoundaryDistances(matrix=mat)


# --- padded partitions ---


@dataclass
class PaddedPartition:
    assignment: np.ndarray  # per-vertex cluster index
    shifts: np.ndarray  # per-cluster truncated-exponential draw
    beta: float
    delta: float
    lam: float


def potential_matrix(shifts: np.ndarray, boundary: BoundaryDistances, beta: float, delta: float) -> np.ndarray:
    return shifts[:, None] * (delta / beta) + boundary.matrix


def _sparsity_lambda(membership: np.ndarray) -> tuple[int, float]:
    """Sparsity s and lambda = 2 + 2 ln s from one count per vertex.

    Raises StructuralError if the cover is empty or some vertex lies in
    no cluster (the cover precondition), naming the lowest such vertex.
    """
    if membership.shape[0] == 0:
        raise StructuralError("cover has no clusters")
    counts = np.count_nonzero(membership, axis=0)
    if not counts.all():
        v = int(np.argmin(counts))
        raise StructuralError(f"vertex {v} is covered by no cluster")
    s = int(counts.max())
    return s, 2.0 + 2.0 * math.log(max(s, 1))


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

    Raises StructuralError if the cover is empty or some vertex lies in no
    cluster (the cover precondition is violated).  Ties in the potential
    are broken toward the lowest cluster index.
    """
    n = g.vertex_count
    if boundary is None:
        boundary = boundary_distances(g, c)
    if membership is None:
        membership = c.membership_matrix(n)
    _, lam = _sparsity_lambda(membership)

    sampler = TexpSampler(lam, rng=derive_rng(seed, "padded-shifts"))
    shifts = sampler.sample_many(len(c.clusters))
    # one float matrix per draw: the potential, masked in place
    f = boundary.matrix + shifts[:, None] * (delta / beta)
    np.putmask(f, ~membership, -np.inf)
    assignment = np.argmax(f, axis=0).astype(np.int64)
    return PaddedPartition(assignment=assignment, shifts=shifts, beta=beta, delta=delta, lam=lam)


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


def _ball_csr(g: WeightedGraph, radius: float):
    """Closed ball member lists for every vertex, as a flat CSR structure."""
    n = g.vertex_count
    rmask = full_mask(n)
    lists = []
    for v in range(n):
        dist = multisource_dijkstra(
            g.indptr, g.indices, g.weights, np.array([v], dtype=np.int64), rmask, radius
        )
        lists.append(np.flatnonzero(dist <= radius))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(l) for l in lists])
    flat = np.concatenate(lists) if lists else np.zeros(0, dtype=np.int64)
    return indptr, flat


def estimate_padding(
    g: WeightedGraph,
    c: Cover,
    beta: float,
    delta: float,
    gamma: float,
    trials: int,
    seed: int,
    boundary: BoundaryDistances | None = None,
    membership: np.ndarray | None = None,
) -> PaddingEstimate:
    """Empirical padding probabilities over independent sampled partitions.

    The cover ``c`` is fixed; only the shifts resample.  ``boundary`` and
    ``membership``, when given, are ``c``'s, as in ``sample_padded``.
    """
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    if gamma < 0 or gamma > 1.0 / (4.0 * beta):
        raise StructuralError("gamma must lie in [0, 1/(4 beta)]")
    n = g.vertex_count
    if boundary is None:
        boundary = boundary_distances(g, c)
    if membership is None:
        membership = c.membership_matrix(n)
    s, lam = _sparsity_lambda(membership)
    bound = math.exp(-4.0 * beta * gamma * lam)
    r = gamma * delta
    ball_indptr, ball_flat = _ball_csr(g, r)

    successes = np.zeros(n, dtype=np.int64)
    margin_violations = 0
    membership_violations = 0
    k = len(c.clusters)
    for t in range(trials):
        pp = sample_padded(
            g, c, beta, delta, seed=_trial_seed(seed, t), boundary=boundary, membership=membership
        )
        assign = pp.assignment
        if not membership[assign, np.arange(n)].all():
            membership_violations += 1

        vals = assign[ball_flat]
        seg_min = np.minimum.reduceat(vals, ball_indptr[:-1])
        seg_max = np.maximum.reduceat(vals, ball_indptr[:-1])
        contained = (seg_min == assign) & (seg_max == assign)
        successes += contained

        # sufficient-margin condition: winner ahead by > 2r forces containment
        f = potential_matrix(pp.shifts, boundary, beta, delta)
        best = f[assign, np.arange(n)]
        if k == 1:
            second = np.full(n, -np.inf)
        else:
            tmp = f.copy()
            tmp[assign, np.arange(n)] = -np.inf
            second = tmp.max(axis=0)
        with np.errstate(invalid="ignore"):
            margin = best - second
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
        margin_violations=margin_violations,
        membership_violations=membership_violations,
        extra={"sparsity": s},
    )


def _trial_seed(seed: int, trial: int) -> int:
    return int(derive_seed_sequence(seed, "padded-trial", trial).generate_state(1, np.uint64)[0])
