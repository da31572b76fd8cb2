"""Shortest-path kernels shared by every module in the package.

All distance queries in the library reduce to one primitive: multi-source
Dijkstra on a CSR adjacency restricted to a vertex mask, with an optional
distance cutoff.  Induced subgraphs are always expressed through the
``restrict`` mask and never copied, so this kernel is the hot inner loop of
the whole pipeline (domain distances, buffer verification, cluster growth,
boundary distances, diameter sweeps all funnel through it).

Two interchangeable implementations are provided:

* a numba ``@njit`` kernel with an explicit array-based binary heap
  (default when numba is importable), and
* a pure numpy/heapq fallback with identical semantics.

The backend is chosen once at import time from the ``MINOR_DECOMP_BACKEND``
environment variable (``numba`` or ``numpy``); to compare the two, run the
same command under each value.  ``multisource_dijkstra`` also takes a
per-call ``backend`` argument, which the kernel-agreement tests use.

Cutoff semantics: every vertex whose true restricted distance is <= cutoff
gets its exact distance; all other entries are +inf.  Comparisons are exact
(closed balls), no epsilon.
"""

from __future__ import annotations

import heapq
import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

_ENV_FLAG = "MINOR_DECOMP_BACKEND"
_VALID_BACKENDS = ("numba", "numpy")


def _initial_backend() -> str:
    requested = os.environ.get(_ENV_FLAG, "").strip().lower()
    if requested == "numpy":
        return "numpy"
    if requested == "numba":
        if not _HAVE_NUMBA:
            raise RuntimeError(
                f"{_ENV_FLAG}=numba requested but numba is not importable"
            )
        return "numba"
    if requested not in ("", "auto"):
        raise RuntimeError(
            f"unknown {_ENV_FLAG}={requested!r}; expected one of {_VALID_BACKENDS}"
        )
    return "numba" if _HAVE_NUMBA else "numpy"


_backend = _initial_backend()


def get_backend() -> str:
    """Name of the kernel backend currently in use."""
    return _backend


def have_numba() -> bool:
    return _HAVE_NUMBA


def _dijkstra_numpy(indptr, indices, weights, sources, restrict, cutoff):
    """heapq reference implementation; same contract as the numba kernel."""
    n = restrict.shape[0]
    dist = np.full(n, np.inf)
    heap = []
    for s in sources:
        s = int(s)
        if restrict[s] and dist[s] > 0.0:
            dist[s] = 0.0
            heap.append((0.0, s))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > cutoff:
            break
        if d > dist[u]:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            v = int(indices[e])
            if not restrict[v]:
                continue
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if cutoff != np.inf:
        dist[dist > cutoff] = np.inf
    return dist


if _HAVE_NUMBA:

    @njit(cache=True)
    def _dijkstra_numba(indptr, indices, weights, sources, restrict, cutoff):
        n = restrict.shape[0]
        dist = np.full(n, np.inf)
        # binary heap with lazy deletion; one push per successful relaxation,
        # so capacity m + |sources| suffices
        cap = indices.shape[0] + sources.shape[0] + 1
        heap_d = np.empty(cap, np.float64)
        heap_v = np.empty(cap, np.int64)
        size = 0
        for k in range(sources.shape[0]):
            s = sources[k]
            if restrict[s] and dist[s] > 0.0:
                dist[s] = 0.0
                heap_d[size] = 0.0
                heap_v[size] = s
                size += 1
                i = size - 1
                while i > 0:
                    p = (i - 1) >> 1
                    if heap_d[i] < heap_d[p]:
                        heap_d[i], heap_d[p] = heap_d[p], heap_d[i]
                        heap_v[i], heap_v[p] = heap_v[p], heap_v[i]
                        i = p
                    else:
                        break
        while size > 0:
            d = heap_d[0]
            u = heap_v[0]
            size -= 1
            heap_d[0] = heap_d[size]
            heap_v[0] = heap_v[size]
            i = 0
            while True:
                l = 2 * i + 1
                r = l + 1
                m = i
                if l < size and heap_d[l] < heap_d[m]:
                    m = l
                if r < size and heap_d[r] < heap_d[m]:
                    m = r
                if m == i:
                    break
                heap_d[i], heap_d[m] = heap_d[m], heap_d[i]
                heap_v[i], heap_v[m] = heap_v[m], heap_v[i]
                i = m
            if d > cutoff:
                break
            if d > dist[u]:
                continue
            for e in range(indptr[u], indptr[u + 1]):
                v = indices[e]
                if not restrict[v]:
                    continue
                nd = d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    heap_d[size] = nd
                    heap_v[size] = v
                    size += 1
                    i = size - 1
                    while i > 0:
                        p = (i - 1) >> 1
                        if heap_d[i] < heap_d[p]:
                            heap_d[i], heap_d[p] = heap_d[p], heap_d[i]
                            heap_v[i], heap_v[p] = heap_v[p], heap_v[i]
                            i = p
                        else:
                            break
        if cutoff != np.inf:
            for v in range(n):
                if dist[v] > cutoff:
                    dist[v] = np.inf
        return dist


def multisource_dijkstra(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
    restrict: np.ndarray,
    cutoff: float = np.inf,
    backend: str | None = None,
) -> np.ndarray:
    """Exact restricted multi-source shortest paths.

    Entries outside ``restrict`` (and beyond ``cutoff``) are +inf.  Empty
    ``sources`` yields an all-inf map.
    """
    which = _backend if backend is None else backend
    if which == "numba":
        return _dijkstra_numba(indptr, indices, weights, sources, restrict, cutoff)
    return _dijkstra_numpy(indptr, indices, weights, sources, restrict, cutoff)
