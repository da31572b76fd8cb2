"""Workloads and the round of pipeline calls the benchmark times.

A round makes the calls ``minor-decomp pipeline --verify full`` makes, in
its order; round r builds its cover with seed ``COVER_SEEDS[r % 2]``:

1. first partition: build_cop_decomposition, subtree_view, cover,
   color_classes, boundary_distances, membership_matrix, sample_padded;
2. further partitions: ``partitions`` sample_padded calls reusing the
   boundary and membership matrices;
3. verification: verify_buffered with the buffer pass, verify_cover, and
   weak_diameter of every part of the first partition;
4. Monte Carlo: one estimate_padding call of ``trials`` trials.

Every output is checked against :mod:`reference` outside the timed
region, and an output that fails a check counts its operation as failed.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

import reference
from minor_decomp import cop_builder, generators, graph_core, padded, partition_tree, separator, sparse_cover

# the modules whose names the traced run wraps
MODULES = {
    "graph_core": graph_core,
    "cop_builder": cop_builder,
    "partition_tree": partition_tree,
    "separator": separator,
    "sparse_cover": sparse_cover,
    "padded": padded,
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    size: int  # vertex count, or the side of a square grid
    weights: str
    delta: float
    rho: float
    partitions: int  # further sample_padded calls per round
    trials: int  # Monte Carlo trials per round


WORKLOADS = {
    w.name: w
    for w in (
        # about one supernode per vertex: per-supernode work, full sweeps, and
        # clusters x vertices matrices large enough to show in peak RSS
        Workload("tree-fine", "tree", 511, "unit", 2.0, 1.0, partitions=30, trials=50),
        # few, long supernodes: the cover's bounded point_ball queries
        Workload("grid-coarse", "grid", 16, "unit", 3.0, 1.0, partitions=200, trials=100),
        # many partitions and a long Monte Carlo run per cover
        Workload("sp-serve", "series_parallel", 200, "geometric", 8.0, 1.0, partitions=200, trials=150),
    )
}

GRAPH_SEED = 1  # generator seed: series-parallel shape and geometric weights
# round r builds its cover with COVER_SEEDS[r % 2]; two covers, so that even
# tree-fine's 3-second rounds repeat each cover about six times in a run
COVER_SEEDS = (1, 2)
SAMPLE, MONTE_CARLO, WARM_UP = 2, 3, 4


def derive(*labels: int) -> int:
    """A 32-bit seed determined by the labels."""
    return int(np.random.SeedSequence(list(labels)).generate_state(1, np.uint32)[0])


class Bench:
    """One workload's graph, parameters, timings and operation counts."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        if w.family == "grid":
            spec = generators.FamilySpec(family="grid", rows=w.size, cols=w.size, weights=w.weights, seed=GRAPH_SEED)
        else:
            spec = generators.FamilySpec(family=w.family, n=w.size, weights=w.weights, seed=GRAPH_SEED)
        self.g = generators.generate(spec)
        self.n = self.g.vertex_count
        self.delta_p = (4.0 + 8.0 * w.rho) * w.delta  # cluster diameter bound
        self.beta = self.delta_p / (w.rho * w.delta)
        self.gamma = 1.0 / (4.0 * self.beta)  # the pipeline's default; ball radius rho*delta/4
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        # per measure, one list of samples per cover seed
        self.times = {
            name: [[] for _ in COVER_SEEDS]
            for name in ("first_partition", "untraced_first_partition", "partitions_rate", "verify", "mc_rate")
        }
        self.sparsities = [None] * len(COVER_SEEDS)

    def summary(self, name: str) -> float:
        """Mean over the cover seeds of each seed's best repeat.

        A repeat does the same work on the same cover (only the seeds of
        its random draws differ), so repeats differ mainly by interference
        from other processes on the machine, which only ever slows them:
        the fastest repeat is the steadiest figure of the work itself.  Every seed weighs the same
        however many rounds it got."""
        best = max if name.endswith("_rate") else min
        return statistics.mean(best(v) for v in self.times[name])

    def warm_up(self) -> None:
        """One untimed, unchecked build: the first in a process runs slower."""
        self.first_partition(derive(self.seed, WARM_UP), derive(self.seed, WARM_UP, 1))

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    @contextmanager
    def untraced(self):
        """Run the body with the library unpatched and no spans recorded."""
        tracer, self.tracer = self.tracer, None
        if tracer is not None:
            tracer.uninstall()
        try:
            yield
        finally:
            if tracer is not None:
                tracer.install(MODULES)
                self.tracer = tracer

    def first_partition(self, cover_seed: int, sample_seed: int):
        g, w = self.g, self.w
        with self.span("bench.first_partition"):
            t0 = time.perf_counter()
            tree = cop_builder.build_cop_decomposition(g, cop_builder.CopConfig(delta=w.delta, seed=cover_seed))
            view = separator.subtree_view(tree, g)
            c = sparse_cover.cover(view, graph_core.full_mask(self.n), w.rho, w.delta)
            sparse_cover.color_classes(c, tree)
            boundary = padded.boundary_distances(g, c)
            membership = c.membership_matrix(self.n)
            pp = padded.sample_padded(
                g, c, self.beta, self.delta_p, seed=sample_seed, boundary=boundary, membership=membership
            )
            elapsed = time.perf_counter() - t0
        return elapsed, (tree, view, c, boundary, membership, pp)

    def count(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {what}: {'; '.join(problems[:3])}", file=sys.stderr)

    def check_first_partition(self, ref, built, sample_seed: int):
        _tree, _view, c, boundary, membership, pp = built
        facts = ref.cover_facts(
            [cl.vertices for cl in c.clusters], c.color_classes, self.w.rho * self.w.delta, self.delta_p
        )
        problems = facts.problems + ref.partition_problems(facts, pp.assignment, self.delta_p)
        again = padded.sample_padded(
            self.g, c, self.beta, self.delta_p, seed=sample_seed, boundary=boundary, membership=membership
        )
        if not np.array_equal(again.assignment, pp.assignment):
            problems.append("the same seed drew a different partition")
        self.count(problems, "first partition")
        return facts

    def round(self, ref, r: int) -> None:
        g, w, n = self.g, self.w, self.n
        which = r % len(COVER_SEEDS)
        cover_seed = COVER_SEEDS[which]
        sample_seed = derive(self.seed, SAMPLE, r, 0)

        if self.tracer is not None:
            # the same build untraced, for the tracing overhead
            with self.untraced():
                elapsed, built = self.first_partition(cover_seed, sample_seed)
                self.times["untraced_first_partition"][which].append(elapsed)
                self.check_first_partition(ref, built, sample_seed)
                del built
            first_span = len(self.tracer.spans)

        elapsed, built = self.first_partition(cover_seed, sample_seed)
        self.times["first_partition"][which].append(elapsed)
        tree, view, c, boundary, membership, pp = built
        # the check redraws a partition: keep that call out of the spans
        with self.untraced():
            facts = self.check_first_partition(ref, built, sample_seed)
        self.sparsities[which] = facts.sparsity
        if self.tracer is not None:
            self.tracer.notes = {
                "cop_builder.supernodes": len(tree.supernodes),
                "partition_tree.domain_mask_bytes": sum(d.nbytes for d in tree.domains),
                # what the cover left in the TreeMetrics caches
                "separator.cache_bytes": sum(
                    a.nbytes
                    for cache in (view.metrics._dist_to_node, view.metrics._point_balls)
                    for a in cache.values()
                ),
                "sparse_cover.clusters": len(c.clusters),
                "padded.boundary_matrix_bytes": boundary.matrix.nbytes,
            }

        seeds = [derive(self.seed, SAMPLE, r, j) for j in range(1, w.partitions + 1)]
        with self.span("bench.partitions"):
            t0 = time.perf_counter()
            drawn = [
                padded.sample_padded(
                    g, c, self.beta, self.delta_p, seed=s, boundary=boundary, membership=membership
                ).assignment
                for s in seeds
            ]
            self.times["partitions_rate"][which].append(w.partitions / (time.perf_counter() - t0))
        for a in drawn:
            self.count(ref.partition_problems(facts, a, self.delta_p), "sampled partition")
        del drawn

        with self.span("bench.verify"):
            t0 = time.perf_counter()
            buffer_report = partition_tree.verify_buffered(tree, g, w.delta, 0.0, n)
            cover_report = sparse_cover.verify_cover(c, g, graph_core.full_mask(n), w.rho * w.delta, self.delta_p)
            weak = {
                int(label): graph_core.weak_diameter(g, np.flatnonzero(pp.assignment == label))
                for label in np.unique(pp.assignment)
            }
            self.times["verify"][which].append(time.perf_counter() - t0)
        self.count(ref.verify_problems(buffer_report, cover_report, weak, facts, pp.assignment), "verification")

        with self.span("bench.mc"):
            t0 = time.perf_counter()
            est = padded.estimate_padding(
                g, c, self.beta, self.delta_p, self.gamma, w.trials, derive(self.seed, MONTE_CARLO, r)
            )
            self.times["mc_rate"][which].append(w.trials / (time.perf_counter() - t0))
        self.count(reference.mc_problems(est, facts, self.beta, self.gamma, w.trials), "Monte Carlo estimate")

        if self.tracer is not None:
            self.tracer.close_round(first_span)
