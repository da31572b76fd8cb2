"""Spans around the library's layer boundaries, for the traced run.

The tracer replaces module-level names of the library with wrappers that
record one span per call: a name ``<layer>.<function>``, start, end and
the index of the enclosing span.  Functions the library calls from another
module are wrapped where the caller looks them up (``cop_builder`` finds
``connected_components`` in its own namespace), and the restricted
Dijkstra kernel is wrapped under the name each module imports it by, so
every kernel call is seen.  Spans stay in memory and are written out once,
when the run ends.

Per-layer metrics are derived from the spans of one round at a time.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

import numpy as np

KERNEL = "_kernels.multisource_dijkstra"
KERNEL_IMPORTERS = ("graph_core", "cop_builder", "partition_tree", "separator", "sparse_cover", "padded")
LAYERS = ("_kernels", "graph_core", "cop_builder", "partition_tree", "separator", "sparse_cover", "padded")

# (module looked up in, attribute, span name); the span name carries the
# layer that owns the function, which may differ from the caller's module
WRAPPED_FUNCTIONS = (
    ("cop_builder", "build_cop_decomposition", "cop_builder.build_cop_decomposition"),
    ("cop_builder", "connected_components", "graph_core.connected_components"),
    ("cop_builder", "compute_domains_and_bags", "partition_tree.compute_domains_and_bags"),
    ("separator", "subtree_view", "separator.subtree_view"),
    ("sparse_cover", "separator_supernodes", "separator.separator_supernodes"),
    ("sparse_cover", "cover", "sparse_cover.cover"),
    ("sparse_cover", "color_classes", "sparse_cover.color_classes"),
    ("sparse_cover", "verify_cover", "sparse_cover.verify_cover"),
    ("sparse_cover", "ball", "graph_core.ball"),
    ("partition_tree", "verify_buffered", "partition_tree.verify_buffered"),
    ("partition_tree", "shortest_paths", "graph_core.shortest_paths"),
    ("graph_core", "weak_diameter", "graph_core.weak_diameter"),
    ("padded", "boundary_distances", "padded.boundary_distances"),
    ("padded", "sample_padded", "padded.sample_padded"),
    ("padded", "estimate_padding", "padded.estimate_padding"),
    ("padded", "_ball_csr", "padded.ball_csr"),
)
WRAPPED_METHODS = (
    ("separator", "TreeMetrics", "point_ball", "separator.point_ball"),
    ("separator", "TreeMetrics", "dist_to_node", "separator.dist_to_node"),
)

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "kernels.calls": ("count", "lower"),
    "kernels.busy_s": ("s", "lower"),
    "kernels.full_sweep_calls": ("count", "lower"),
    "kernels.bounded_calls": ("count", "lower"),
    "kernels.reach_ratio": ("ratio", "higher"),
    "graph_core.components_calls": ("count", "lower"),
    "graph_core.components_busy_s": ("s", "lower"),
    "graph_core.weak_diameter_busy_s": ("s", "lower"),
    "graph_core.ball_busy_s": ("s", "lower"),
    "cop_builder.build_busy_s": ("s", "lower"),
    "cop_builder.supernodes": ("count", "lower"),
    "partition_tree.domains_bags_busy_s": ("s", "lower"),
    "partition_tree.domain_mask_bytes": ("B", "lower"),
    "partition_tree.verify_buffered_busy_s": ("s", "lower"),
    "separator.select_busy_s": ("s", "lower"),
    "separator.point_ball_busy_s": ("s", "lower"),
    "separator.point_ball_calls": ("count", "lower"),
    "separator.point_ball_hit_ratio": ("ratio", "higher"),
    "separator.dist_to_node_calls": ("count", "lower"),
    "separator.cache_bytes": ("B", "lower"),
    "sparse_cover.cover_busy_s": ("s", "lower"),
    "sparse_cover.clusters": ("count", "lower"),
    "sparse_cover.color_busy_s": ("s", "lower"),
    "sparse_cover.verify_cover_busy_s": ("s", "lower"),
    "padded.boundary_busy_s": ("s", "lower"),
    "padded.boundary_matrix_bytes": ("B", "lower"),
    "padded.sample_busy_s": ("s", "lower"),
    "padded.mc_setup_busy_s": ("s", "lower"),
    "padded.mc_trial_busy_s": ("s", "lower"),
    **{f"{layer.lstrip('_')}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# summed durations of every span with the given name
BUSY = {
    "kernels.busy_s": KERNEL,
    "graph_core.components_busy_s": "graph_core.connected_components",
    "graph_core.weak_diameter_busy_s": "graph_core.weak_diameter",
    "graph_core.ball_busy_s": "graph_core.ball",
    "cop_builder.build_busy_s": "cop_builder.build_cop_decomposition",
    "partition_tree.domains_bags_busy_s": "partition_tree.compute_domains_and_bags",
    "partition_tree.verify_buffered_busy_s": "partition_tree.verify_buffered",
    "separator.select_busy_s": "separator.separator_supernodes",
    "separator.point_ball_busy_s": "separator.point_ball",
    "sparse_cover.cover_busy_s": "sparse_cover.cover",
    "sparse_cover.color_busy_s": "sparse_cover.color_classes",
    "sparse_cover.verify_cover_busy_s": "sparse_cover.verify_cover",
    "padded.boundary_busy_s": "padded.boundary_distances",
}
MC_SETUP = ("padded.boundary_distances", "padded.ball_csr")


class Tracer:
    """In-memory span recorder that patches the library while installed."""

    def __init__(self, vertex_count: int):
        self.n = vertex_count
        # (name, start, end, parent index or -1, finite entries or -1, bounded)
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self.notes: dict[str, float] = {}  # sizes recorded by the benchmark, per round
        self.rounds: list[dict[str, float]] = []

    # --- recording ---

    def span(self, name: str):
        return _Span(self, name)

    def _begin(self) -> tuple[int, int]:
        i = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(i)
        return i, parent

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i, parent = self._begin()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[i] = (name, t0, perf_counter(), parent, -1, False)
                self._open.pop()

        return traced

    def _wrap_kernel(self, fn):
        @functools.wraps(fn)
        def traced(indptr, indices, weights, sources, restrict, cutoff=np.inf, backend=None):
            i, parent = self._begin()
            t0 = perf_counter()
            out = None
            try:
                out = fn(indptr, indices, weights, sources, restrict, cutoff, backend)
                return out
            finally:
                t1 = perf_counter()
                finite = -1 if out is None else int(np.count_nonzero(out < np.inf))
                self.spans[i] = (KERNEL, t0, t1, parent, finite, cutoff != np.inf)
                self._open.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the library functions; ``modules`` maps short names to modules."""
        for mod_name in KERNEL_IMPORTERS:
            mod = modules[mod_name]
            self._patch(mod, "multisource_dijkstra", self._wrap_kernel(mod.multisource_dijkstra))
        for mod_name, attr, name in WRAPPED_FUNCTIONS:
            mod = modules[mod_name]
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name))
        for mod_name, cls_name, attr, name in WRAPPED_METHODS:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), name))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # --- per-round metrics ---

    def close_round(self, first: int) -> None:
        """Derive the per-layer metrics of the spans recorded since ``first``."""
        spans = self.spans[first:]
        child_time = {}
        children_of = {}
        for j, (_name, t0, t1, parent, _f, _b) in enumerate(spans, start=first):
            if parent >= first:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
                children_of.setdefault(parent, []).append(j)

        m = {name: 0.0 for name in BUSY}
        m.update({f"{layer.lstrip('_')}.self_s": 0.0 for layer in LAYERS})
        counts = dict.fromkeys(
            ("graph_core.components_calls", "separator.point_ball_calls",
             "separator.dist_to_node_calls", "kernels.calls", "kernels.full_sweep_calls",
             "kernels.bounded_calls"), 0)
        finite = 0
        misses = 0
        sample_busy = mc_setup = mc_total = 0.0
        by_name = {v: k for k, v in BUSY.items()}
        for j, (name, t0, t1, parent, fin, bounded) in enumerate(spans, start=first):
            dur = t1 - t0
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                m[f"{layer.lstrip('_')}.self_s"] += dur - child_time.get(j, 0.0)
            if name in by_name:
                m[by_name[name]] += dur
            if name == KERNEL:
                counts["kernels.calls"] += 1
                counts["kernels.bounded_calls" if bounded else "kernels.full_sweep_calls"] += 1
                finite += max(fin, 0)
            elif name == "graph_core.connected_components":
                counts["graph_core.components_calls"] += 1
            elif name == "separator.dist_to_node":
                counts["separator.dist_to_node_calls"] += 1
            elif name == "separator.point_ball":
                counts["separator.point_ball_calls"] += 1
                # a call that reaches the kernel missed the ball cache
                misses += any(self.spans[c][0] == KERNEL for c in children_of.get(j, ()))
            elif name == "padded.sample_padded":
                if parent >= 0 and self.spans[parent][0].startswith("bench."):
                    sample_busy += dur
            elif name == "padded.estimate_padding":
                mc_total += dur
                mc_setup += sum(
                    self.spans[c][2] - self.spans[c][1]
                    for c in children_of.get(j, ()) if self.spans[c][0] in MC_SETUP
                )
        m.update(counts)
        calls = counts["kernels.calls"]
        m["kernels.reach_ratio"] = finite / (calls * self.n) if calls else 0.0
        pb = counts["separator.point_ball_calls"]
        m["separator.point_ball_hit_ratio"] = (pb - misses) / pb if pb else 0.0
        m["padded.sample_busy_s"] = sample_busy
        m["padded.mc_setup_busy_s"] = mc_setup
        m["padded.mc_trial_busy_s"] = mc_total - mc_setup
        m["trace.spans"] = len(spans)
        m.update(self.notes)
        self.notes = {}
        self.rounds.append(m)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Median over rounds of every per-layer metric."""
        out = {name: statistics.median(r[name] for r in self.rounds) for name in PER_LAYER if name != "trace.overhead_s"}
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {nm: i for i, nm in enumerate(names)}
        obj = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))


class _Span:
    """A span the benchmark opens around one of its own operations."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.i, self.parent = self.tracer._begin()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.i] = (self.name, self.t0, perf_counter(), self.parent, -1, False)
        self.tracer._open.pop()
        return False
