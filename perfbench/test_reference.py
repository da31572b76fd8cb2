"""Each independent check fails on a deliberately corrupted output.

Run from the repository root:

    python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import rounds  # noqa: E402
from minor_decomp import (  # noqa: E402
    CopConfig,
    WeightedGraph,
    boundary_distances,
    build_cop_decomposition,
    color_classes,
    cover,
    estimate_padding,
    sample_padded,
    subtree_view,
    verify_buffered,
    verify_cover,
    weak_diameter,
)
from minor_decomp.graph_core import full_mask  # noqa: E402

DELTA, RHO = 2.0, 1.0
DELTA_P = (4.0 + 8.0 * RHO) * DELTA
BETA = DELTA_P / (RHO * DELTA)
GAMMA = 1.0 / (4.0 * BETA)
TRIALS = 40


@pytest.fixture(scope="module")
def run():
    # a path with weights 1 and 2: longer than the cluster diameter bound,
    # so a corrupted part can break it
    n = 48
    g = WeightedGraph(n, [(i, i + 1, float(1 + i % 2)) for i in range(n - 1)])
    tree = build_cop_decomposition(g, CopConfig(delta=DELTA, seed=5))
    c = cover(subtree_view(tree, g), full_mask(n), RHO, DELTA)
    color_classes(c, tree)
    pp = sample_padded(g, c, BETA, DELTA_P, seed=9, boundary=boundary_distances(g, c))
    ref = reference.Reference(n, g.edges_u, g.edges_v, g.edges_w)
    clusters = [cl.vertices for cl in c.clusters]
    facts = ref.cover_facts(clusters, c.color_classes, RHO * DELTA, DELTA_P)
    weak = {int(l): weak_diameter(g, np.flatnonzero(pp.assignment == l)) for l in np.unique(pp.assignment)}
    return dict(
        g=g, n=n, tree=tree, cover=c, pp=pp, ref=ref, clusters=clusters, facts=facts, weak=weak,
        buffer_report=verify_buffered(tree, g, DELTA, 0.0, n),
        cover_report=verify_cover(c, g, full_mask(n), RHO * DELTA, DELTA_P),
        estimate=estimate_padding(g, c, BETA, DELTA_P, GAMMA, TRIALS, 11),
    )


def cover_problems(run, clusters=None, classes=None):
    return run["ref"].cover_facts(
        run["clusters"] if clusters is None else clusters,
        run["cover"].color_classes if classes is None else classes,
        RHO * DELTA,
        DELTA_P,
    ).problems


def verify(run, **changes):
    args = dict(buffer_report=run["buffer_report"], cover_report=run["cover_report"], weak_diameters=run["weak"])
    args.update(changes)
    return run["ref"].verify_problems(
        args["buffer_report"], args["cover_report"], args["weak_diameters"], run["facts"], run["pp"].assignment
    )


def test_correct_outputs_pass(run):
    assert run["facts"].problems == []
    assert run["ref"].partition_problems(run["facts"], run["pp"].assignment, DELTA_P) == []
    assert verify(run) == []
    assert reference.mc_problems(run["estimate"], run["facts"], BETA, GAMMA, TRIALS) == []
    assert run["facts"].sparsity == run["cover"].sparsity(run["n"])


def test_reference_distances_are_not_the_kernels(run):
    # path distances in closed form: sum of the weights between the ends
    w = np.array([1 + i % 2 for i in range(run["n"] - 1)], dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(w)])
    assert np.array_equal(run["ref"].dist, np.abs(prefix[:, None] - prefix[None, :]))


def test_vertex_in_no_cluster_fails(run):
    v = 0
    clusters = [ids[ids != v] for ids in run["clusters"]]
    clusters = [ids if ids.size else np.array([1]) for ids in clusters]
    assert any("lies in no cluster" in p for p in cover_problems(run, clusters))


def test_cluster_with_a_vertex_dropped_fails(run):
    # dropping any one vertex of any cluster that pads a ball breaks padding
    # or coverage; try the first cluster whose loss shows
    facts = run["facts"]
    for i, ids in enumerate(run["clusters"]):
        for v in ids:
            clusters = list(run["clusters"])
            clusters[i] = ids[ids != v]
            if clusters[i].size and facts.membership[:, v].sum() == 1:
                assert cover_problems(run, clusters)
                return
    pytest.fail("no vertex lies in exactly one cluster")


def test_cluster_too_wide_fails(run):
    clusters = list(run["clusters"])
    clusters[0] = np.union1d(clusters[0], [0, run["n"] - 1])
    assert any("weak diameter" in p for p in cover_problems(run, clusters))


def test_unpadded_ball_fails(run):
    # shrink every cluster to a single vertex: coverage holds, padding cannot
    clusters = [np.array([v]) for v in range(run["n"])]
    classes = [[i] for i in range(run["n"])]
    problems = cover_problems(run, clusters, classes)
    assert any("-ball around vertex" in p for p in problems)


def test_intersecting_color_class_fails(run):
    m = run["facts"].membership
    classes = [list(g) for g in run["cover"].color_classes]
    i, j = next((a, b) for a in range(len(m)) for b in range(a + 1, len(m)) if (m[a] & m[b]).any())
    for group in classes:
        if j in group:
            group.remove(j)
    next(group for group in classes if i in group).append(j)
    assert any("intersecting" in p for p in cover_problems(run, classes=classes))


def test_color_classes_missing_a_cluster_fails(run):
    classes = [list(g) for g in run["cover"].color_classes]
    classes[0] = classes[0][1:]
    assert any("exactly once" in p for p in cover_problems(run, classes=classes))


def test_vertex_assigned_outside_its_cluster_fails(run):
    m = run["facts"].membership
    a = run["pp"].assignment.copy()
    v = 0
    a[v] = int(np.flatnonzero(~m[:, v])[0])
    assert any("does not contain it" in p for p in run["ref"].partition_problems(run["facts"], a, DELTA_P))


def test_part_too_wide_fails(run):
    a = np.zeros(run["n"], dtype=np.int64)
    problems = run["ref"].partition_problems(run["facts"], a, DELTA_P)
    assert any("a part has weak diameter" in p for p in problems)


def test_malformed_assignment_fails(run):
    a = run["pp"].assignment.copy()
    a[0] = len(run["clusters"])
    assert run["ref"].partition_problems(run["facts"], a, DELTA_P)


def test_verifier_disagreeing_with_the_recount_fails(run):
    rep = run["cover_report"]
    assert verify(run, cover_report=dataclasses.replace(rep, max_diam=rep.max_diam + 1.0))
    assert verify(run, cover_report=dataclasses.replace(rep, s=rep.s + 1))
    assert verify(run, cover_report=dataclasses.replace(rep, per_cluster_diam=[0.0] * len(rep.per_cluster_diam)))
    assert verify(run, cover_report=dataclasses.replace(rep, padding_ok=False))
    assert verify(run, buffer_report=dataclasses.replace(run["buffer_report"], tree_decomposition_ok=False))
    weak = dict(run["weak"])
    label = next(iter(weak))
    weak[label] += 1.0
    assert verify(run, weak_diameters=weak)


def test_bad_monte_carlo_estimate_fails(run):
    est, facts = run["estimate"], run["facts"]
    for change in (
        {"margin_violations": 1},
        {"membership_violations": 1},
        {"min_lcb": 0.0},
        {"lam": facts.lam + 1.0},
        {"trials": TRIALS - 1},
    ):
        assert reference.mc_problems(dataclasses.replace(est, **change), facts, BETA, GAMMA, TRIALS), change


def test_redrawn_partition_must_match(monkeypatch):
    w = rounds.Workload("tiny", "tree", 31, "unit", 2.0, 1.0, partitions=2, trials=5)
    bench = rounds.Bench(w, seed=1)
    ref = reference.Reference(bench.n, bench.g.edges_u, bench.g.edges_v, bench.g.edges_w)
    bench.round(ref, 0)
    assert (bench.attempted, bench.failed) == (w.partitions + 3, 0)

    real = rounds.padded.sample_padded

    def different(*args, **kwargs):
        pp = real(*args, **kwargs)
        pp.assignment = pp.assignment + 1
        return pp

    _elapsed, built = bench.first_partition(rounds.derive(1, 99), 7)
    monkeypatch.setattr(rounds.padded, "sample_padded", different)
    bench.check_first_partition(ref, built, 7)
    assert bench.failed == 1
