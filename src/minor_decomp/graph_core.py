"""Weighted graphs, restricted shortest paths, balls, and components.

The graph is immutable after construction and stored both as an edge list
and as a CSR adjacency.  Induced subgraphs are expressed as boolean
``restrict`` masks and never copied; the decomposition recursion restricts
the same graph thousands of times, so copying would dominate runtime.

Distances are float64 and all comparisons are exact (closed balls): a
vertex at distance exactly r belongs to ball(., r).

Restricted sweeps go through the ``_kernels`` Dijkstra.  Questions asked
from every vertex of the whole graph (weak diameters, padding balls) read
full-graph distance rows from ``distance_rows`` instead, a block of sources
per ``scipy.sparse.csgraph.dijkstra`` call.

On-disk format (canonical for the whole package): first line ``n m``,
then m lines ``u v w`` with 0-based vertex ids and a decimal weight.
Lines starting with ``#`` are comments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ._kernels import multisource_dijkstra


class StructuralError(ValueError):
    """Input violates a structural precondition (named witness in message)."""


VertexSet = np.ndarray  # boolean membership mask over 0..n-1
DistanceMap = np.ndarray  # float64 distances, +inf means unreachable

# float64 entries per block of distance rows (1 MiB): a rows pass holds
# block x n distances at a time, never n x n
ROWS_BLOCK_ENTRIES = 1 << 17


class WeightedGraph:
    """Immutable undirected graph with nonnegative finite edge weights.

    No self-loops, at most one edge per unordered pair, vertex ids
    0..vertex_count-1.
    """

    __slots__ = ("vertex_count", "edges_u", "edges_v", "edges_w", "indptr", "indices", "weights")

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int, float]]):
        n = int(vertex_count)
        if n <= 0:
            raise StructuralError("graph must have at least one vertex")
        eu = np.asarray([e[0] for e in edges], dtype=np.int64)
        ev = np.asarray([e[1] for e in edges], dtype=np.int64)
        ew = np.asarray([e[2] for e in edges], dtype=np.float64)
        if eu.size:
            if eu.min() < 0 or ev.min() < 0 or eu.max() >= n or ev.max() >= n:
                raise StructuralError("edge endpoint out of range 0..n-1")
            if np.any(eu == ev):
                bad = int(eu[eu == ev][0])
                raise StructuralError(f"self-loop at vertex {bad}")
            if not np.all(np.isfinite(ew)) or np.any(ew < 0):
                raise StructuralError("edge weights must be finite and >= 0")
            lo = np.minimum(eu, ev)
            hi = np.maximum(eu, ev)
            key = lo * n + hi
            if np.unique(key).size != key.size:
                raise StructuralError("duplicate edge for some unordered pair")
        self.vertex_count = n
        self.edges_u = eu
        self.edges_v = ev
        self.edges_w = ew
        self.indptr, self.indices, self.weights = _build_csr(n, eu, ev, ew)
        for arr in (self.edges_u, self.edges_v, self.edges_w, self.indptr, self.indices, self.weights):
            arr.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return int(self.edges_u.size)

    def edges(self) -> Iterable[tuple[int, int, float]]:
        for u, v, w in zip(self.edges_u, self.edges_v, self.edges_w):
            yield int(u), int(v), float(w)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    # --- on-disk edge-list format ---

    @classmethod
    def from_edge_list_text(cls, text: str) -> "WeightedGraph":
        lines = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lines.append((lineno, line))
        if not lines:
            raise StructuralError("empty edge-list input")
        lineno, header = lines[0]
        parts = header.split()
        if len(parts) != 2:
            raise StructuralError(f"line {lineno}: header must be 'n m'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise StructuralError(f"line {lineno}: header must be two integers") from None
        body = lines[1:]
        if len(body) != m:
            raise StructuralError(f"expected {m} edge lines, found {len(body)}")
        edges = []
        for lineno, line in body:
            parts = line.split()
            if len(parts) != 3:
                raise StructuralError(f"line {lineno}: edge must be 'u v w'")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise StructuralError(f"line {lineno}: malformed edge '{line}'") from None
        return cls(n, edges)

    def to_edge_list_text(self) -> str:
        out = [f"{self.vertex_count} {self.edge_count}"]
        for u, v, w in self.edges():
            out.append(f"{u} {v} {w!r}")
        return "\n".join(out) + "\n"

    @classmethod
    def load(cls, path) -> "WeightedGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_edge_list_text(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_edge_list_text())


def _build_csr(n, eu, ev, ew):
    m = eu.size
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, eu, 1)
    np.add.at(deg, ev, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.zeros(2 * m, dtype=np.int64)
    weights = np.zeros(2 * m, dtype=np.float64)
    fill = indptr[:-1].copy()
    for k in range(m):
        u, v, w = eu[k], ev[k], ew[k]
        indices[fill[u]] = v
        weights[fill[u]] = w
        fill[u] += 1
        indices[fill[v]] = u
        weights[fill[v]] = w
        fill[v] += 1
    return indptr, indices, weights


# --- vertex-set helpers ---


def as_mask(n: int, vertices) -> VertexSet:
    """Normalize ids / iterables / masks to a boolean membership mask."""
    if isinstance(vertices, np.ndarray) and vertices.dtype == np.bool_:
        if vertices.shape[0] != n:
            raise StructuralError("mask length does not match vertex count")
        return vertices
    mask = np.zeros(n, dtype=np.bool_)
    ids = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices, dtype=np.int64)
    if ids.size:
        if ids.min() < 0 or ids.max() >= n:
            raise StructuralError("vertex id out of range")
        mask[ids] = True
    return mask


def mask_to_ids(mask: VertexSet) -> np.ndarray:
    return np.flatnonzero(mask).astype(np.int64)


def full_mask(n: int) -> VertexSet:
    return np.ones(n, dtype=np.bool_)


def incident_edges(g: WeightedGraph, ids: np.ndarray) -> np.ndarray:
    """CSR positions of the edges leaving ``ids``, one vertex's range after another.

    ``g.indices`` at these positions gives the neighbors, ``g.weights`` the
    edge weights.
    """
    starts = g.indptr[ids]
    lengths = g.indptr[ids + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(offsets.size, dtype=np.int64) + offsets


# --- queries ---


def shortest_paths(g: WeightedGraph, sources, restrict=None) -> DistanceMap:
    """Multi-source distances inside G[restrict]; +inf outside restrict.

    Empty sources yields an all-inf map (the d(x, empty-set) = inf
    convention), not an error.
    """
    n = g.vertex_count
    rmask = full_mask(n) if restrict is None else as_mask(n, restrict)
    if not rmask.any():
        raise StructuralError("restrict set must be nonempty")
    smask = as_mask(n, sources)
    if np.any(smask & ~rmask):
        bad = int(np.flatnonzero(smask & ~rmask)[0])
        raise StructuralError(f"source {bad} lies outside the restrict set")
    src = mask_to_ids(smask)
    return multisource_dijkstra(g.indptr, g.indices, g.weights, src, rmask, np.inf)


def ball(g: WeightedGraph, center_set, radius: float, restrict=None) -> VertexSet:
    """Closed ball {u in restrict : d_{G[restrict]}(u, centers) <= radius}."""
    if radius < 0:
        raise StructuralError("radius must be >= 0")
    n = g.vertex_count
    rmask = full_mask(n) if restrict is None else as_mask(n, restrict)
    smask = as_mask(n, center_set)
    src = mask_to_ids(smask & rmask)
    if src.size == 0:
        return np.zeros(n, dtype=np.bool_)
    dist = multisource_dijkstra(g.indptr, g.indices, g.weights, src, rmask, float(radius))
    return dist <= radius


def weak_diameter(g: WeightedGraph, cluster) -> float:
    """Max pairwise distance of cluster vertices, measured in the full graph."""
    ids = mask_to_ids(as_mask(g.vertex_count, cluster))
    if ids.size == 0:
        raise StructuralError("cluster must be nonempty")
    return weak_diameters(g, [ids])[0]


def weak_diameters(g: WeightedGraph, groups: Sequence[np.ndarray]) -> list[float]:
    """Weak diameter of each group of vertex ids (0.0 for an empty group or a singleton).

    One distance row per distinct vertex of the groups with two or more
    members; each group takes the max over its own rows and columns.
    """
    groups = [np.asarray(ids, dtype=np.int64) for ids in groups]
    big = [i for i, ids in enumerate(groups) if ids.size >= 2]
    diam = [0.0] * len(groups)
    if not big:
        return diam
    sources = np.unique(np.concatenate([groups[i] for i in big]))
    # each group's rows, as sorted positions in ``sources``
    rows_of = {i: np.searchsorted(sources, np.unique(groups[i])) for i in big}
    start = 0
    for block_ids, rows in distance_rows(g, sources):
        stop = start + block_ids.size
        for i, pos in rows_of.items():
            lo, hi = np.searchsorted(pos, (start, stop))
            if lo < hi:
                d = float(rows[np.ix_(pos[lo:hi] - start, groups[i])].max())
                if d > diam[i]:
                    diam[i] = d
        start = stop
    return diam


def distance_rows(g: WeightedGraph, sources, cutoff: float = np.inf):
    """Yield ``(block_ids, rows)``: full-graph distances from ``sources``, a block at a time.

    ``rows[j, v]`` is the distance from ``block_ids[j]`` to ``v``, +inf when
    it exceeds ``cutoff``; a vertex at distance exactly ``cutoff`` keeps its
    distance.  Blocks follow the order of ``sources`` and hold at most
    ``ROWS_BLOCK_ENTRIES // n`` rows.  The values equal a single-source
    ``multisource_dijkstra`` sweep bit for bit; explicit zero-weight edges
    stay edges at distance 0.
    """
    if cutoff < 0:
        raise StructuralError("cutoff must be >= 0")
    n = g.vertex_count
    sources = np.asarray(sources, dtype=np.int64)
    csr = csr_matrix((g.weights, g.indices, g.indptr), shape=(n, n))
    block = max(1, ROWS_BLOCK_ENTRIES // n)
    for start in range(0, sources.size, block):
        block_ids = sources[start : start + block]
        yield block_ids, dijkstra(csr, directed=True, indices=block_ids, limit=cutoff)


def connected_components(g: WeightedGraph, restrict=None) -> list[np.ndarray]:
    """Components of G[restrict] as sorted id arrays, ordered by smallest member."""
    n = g.vertex_count
    rmask = full_mask(n) if restrict is None else as_mask(n, restrict)
    seen = np.zeros(n, dtype=np.bool_)
    comps = []
    for start in np.flatnonzero(rmask).tolist():
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for e in range(g.indptr[u], g.indptr[u + 1]):
                v = int(g.indices[e])
                if rmask[v] and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(np.array(sorted(comp), dtype=np.int64))
    return comps
