"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
check is exact at its stated tolerance and every runtime budget is
asserted, not just reported.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.generators import FamilySpec, declared_forbidden_clique, generate
from minor_decomp.graph_core import full_mask, shortest_paths, weak_diameter
from minor_decomp.oracles import apsp_bruteforce, minor_search
from minor_decomp.padded import TexpSampler, boundary_distances, estimate_padding, sample_padded, texp_cdf, texp_mean
from minor_decomp.partition_tree import verify_buffered
from minor_decomp.separator import (
    components_after_removal,
    separator_supernodes,
    subtree_view,
    subtree_width,
    threateners,
)
from minor_decomp.sparse_cover import color_classes, cover, verify_cover

from util import random_graph


def record(criterion, name, ok, detail=""):
    tail = f" | {detail}" if detail else ""
    line = f"ACCEPTANCE {criterion:>2} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def build_cover(g, delta, rho, seed):
    tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=seed))
    view = subtree_view(tree, g)
    c = cover(view, full_mask(g.vertex_count), rho=rho, delta=delta)
    return tree, view, c


# the decomposition matrix shared by criteria 3 and 4
MATRIX = [
    (FamilySpec(family="grid", rows=5, cols=5), 2.0, (0, 1, 2)),
    (FamilySpec(family="grid", rows=8, cols=8), 2.0, (0, 1)),
    (FamilySpec(family="tree", n=63), 2.0, (0, 1)),
    (FamilySpec(family="series_parallel", n=40, seed=2), 2.0, (0, 1)),
    (FamilySpec(family="outerplanar", n=32), 2.0, (0, 1)),
]


def test_criterion_1_padded_diameter_guarantee():
    rho = 1.0
    families = [
        ("grid", FamilySpec(family="grid", rows=20, cols=20), 3.0),
        ("tree", FamilySpec(family="tree", n=1000), 2.0),
        ("series_parallel", FamilySpec(family="series_parallel", n=500, seed=3), 2.0),
    ]
    details = []
    for name, spec, delta in families:
        t0 = time.monotonic()
        g = generate(spec)
        _tree, _view, c = build_cover(g, delta, rho, seed=5)
        boundary = boundary_distances(g, c)
        beta = (4.0 + 8.0 * rho) / rho
        delta_p = (4.0 + 8.0 * rho) * delta
        worst = 0.0
        for seed in range(3):
            pp = sample_padded(g, c, beta, delta_p, seed=seed, boundary=boundary)
            for label in np.unique(pp.assignment):
                d = weak_diameter(g, np.flatnonzero(pp.assignment == label))
                worst = max(worst, d)
        elapsed = time.monotonic() - t0
        ok = worst <= delta_p and elapsed < 10.0
        details.append(f"{name}: max_diam {worst} <= {delta_p}, {elapsed:.1f}s")
        if not ok:
            record(1, "padded partitions are diameter-bounded", False,
                   "; ".join(details))
    record(1, "padded partitions are diameter-bounded", True, "; ".join(details))


def test_criterion_2_cover_correctness():
    t0 = time.monotonic()
    runs = 0
    for rho in (1.0, 4.0):
        for delta in (2.0, 8.0):
            for seed in range(5):
                g = generate(FamilySpec(family="grid", rows=8, cols=8))
                tree, _view, c = build_cover(g, delta, rho, seed=seed)
                color_classes(c, tree)
                rep = verify_cover(
                    c, g, full_mask(64),
                    pad_radius=rho * delta,
                    diam_bound=(4.0 + 8.0 * rho) * delta,
                )
                assert rep.padding_ok, f"ball uncovered at rho={rho} delta={delta} seed={seed}"
                assert rep.diam_ok, f"diameter breach at rho={rho} delta={delta} seed={seed}"
                assert rep.class_disjoint_ok
                runs += 1
    elapsed = time.monotonic() - t0
    record(2, "sparse partition cover conditions", elapsed < 60.0 and runs == 20,
           f"{runs} runs, {elapsed:.1f}s")


def _walk_separator_recursion(view):
    """Yield (subtree, separator set, components) over the full recursion."""
    stack = [view]
    while stack:
        t = stack.pop()
        if t.is_empty():
            continue
        sep = separator_supernodes(t)
        comps = components_after_removal(t, set(sep.supernodes))
        yield t, sep, comps
        stack.extend(comps)


def test_criterion_3_subtree_width_reduction():
    executions = 0
    failures = 0
    for spec, delta, seeds in MATRIX:
        g = generate(spec)
        for seed in seeds:
            tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=seed))
            view = subtree_view(tree, g)
            for t, _sep, comps in _walk_separator_recursion(view):
                executions += 1
                w = subtree_width(t)
                for comp in comps:
                    if subtree_width(comp) > w - 1:
                        failures += 1
    record(3, "subtree-width drops by one per level", failures == 0,
           f"{executions} executions, {failures} failures")


def test_criterion_4_threatener_bound():
    checked = 0
    degenerate = 0
    for spec, delta, seeds in MATRIX:
        g = generate(spec)
        for seed in seeds:
            tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=seed))
            rep = verify_buffered(tree, g, delta, 0.0, g.vertex_count)
            gamma_eff = rep.gamma_eff
            view = subtree_view(tree, g)
            sep = separator_supernodes(view)
            for alpha in (1.0, 2.0, 4.0):
                bound = None if gamma_eff in (0.0, np.inf) else 2 * alpha * delta / gamma_eff + 2
                for v in range(g.vertex_count):
                    x_v = threateners(v, sep, view, alpha, delta)
                    if bound is None:
                        degenerate += 1
                        chain = len(tree.ancestors_of(int(tree.node_of[v]), proper=False))
                        assert len(x_v) <= chain
                    else:
                        checked += 1
                        assert len(x_v) <= bound, (
                            f"|X[v]|={len(x_v)} > {bound} at v={v}, alpha={alpha}, "
                            f"gamma_eff={gamma_eff}, spec={spec}"
                        )
    record(4, "threatener count within 2*alpha*delta/gamma + 2", True,
           f"{checked} bounded checks, {degenerate} degenerate (gamma_eff=inf)")


@pytest.fixture(scope="module")
def grid_monte_carlo():
    """Criterion 5/9 shared run: 8x8 grid, delta=8, rho=1, 10^4 trials per gamma."""
    rho, delta = 1.0, 8.0
    g = generate(FamilySpec(family="grid", rows=8, cols=8))
    tree, _view, c = build_cover(g, delta, rho, seed=5)
    pad_radius = rho * delta
    diam_bound = (4.0 + 8.0 * rho) * delta
    rep = verify_cover(c, g, full_mask(64), pad_radius, diam_bound)
    assert rep.passed
    beta = diam_bound / pad_radius  # the cover's verified padding
    t0 = time.monotonic()
    estimates = []
    for frac in (16.0, 8.0, 4.0):
        gamma = 1.0 / (frac * beta)
        est = estimate_padding(g, c, beta, diam_bound, gamma, trials=10_000, seed=42)
        estimates.append((frac, est))
    elapsed = time.monotonic() - t0
    return {"estimates": estimates, "elapsed": elapsed, "s": rep.s, "beta": beta}


def test_criterion_5_padding_probability(grid_monte_carlo):
    details = []
    ok = grid_monte_carlo["elapsed"] < 300.0
    for frac, est in grid_monte_carlo["estimates"]:
        details.append(
            f"gamma=1/({frac:.0f}b): lcb {est.min_lcb:.4f} >= bound {est.bound:.5f}"
        )
        ok &= est.min_lcb >= est.bound
    details.append(f"{grid_monte_carlo['elapsed']:.0f}s, s={grid_monte_carlo['s']}")
    record(5, "Monte Carlo padding probability", ok, "; ".join(details))


def test_criterion_6_texp_sampler():
    ok = True
    details = []
    for lam in (0.5, 2.0, 10.0):
        sampler = TexpSampler(lam, seed=7)
        draws = np.sort(sampler.sample_many(10**6))
        n = draws.size
        analytic = texp_cdf(draws, lam)
        sup = max(
            np.abs(np.arange(1, n + 1) / n - analytic).max(),
            np.abs(np.arange(0, n) / n - analytic).max(),
        )
        mean_err = abs(draws.mean() - texp_mean(lam))
        ok &= sup <= 0.01 and mean_err <= 1e-3
        details.append(f"lam={lam}: sup={sup:.4f}, mean_err={mean_err:.5f}")
    record(6, "truncated exponential sampler", ok, "; ".join(details))


def test_criterion_7_structural_bag_bound():
    cases = [
        ("tree", FamilySpec(family="tree", n=63), 2),
        ("outerplanar", FamilySpec(family="outerplanar", n=32), 3),
        ("series_parallel", FamilySpec(family="series_parallel", n=40, seed=2), 3),
        ("grid", FamilySpec(family="grid", rows=6, cols=6), 4),
    ]
    details = []
    for name, spec, bound in cases:
        g = generate(spec)
        worst = 0
        for seed in range(50):
            tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=seed))
            worst = max(worst, max(len(b) for b in tree.bags))
        assert worst <= bound, f"{name}: max bag {worst} > {bound}"
        details.append(f"{name}: max bag {worst} <= {bound}")
    record(7, "bag sizes respect the minor bound", True, "; ".join(details))


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        g = random_graph(n, float(rng.uniform(0.1, 0.7)), rng)
        oracle = apsp_bruteforce(g)
        for s in range(n):
            assert np.array_equal(shortest_paths(g, [s]), oracle[s])
    specs = [
        FamilySpec(family="grid", rows=3, cols=4),
        FamilySpec(family="tree", n=12),
        FamilySpec(family="series_parallel", n=12, seed=1),
        FamilySpec(family="outerplanar", n=12),
        FamilySpec(family="complete", n=5),
    ]
    for spec in specs:
        g = generate(spec)
        forbidden = declared_forbidden_clique(spec)
        assert minor_search(g, forbidden) is False
        assert minor_search(g, forbidden - 1) is True
    record(8, "production distances equal brute force; minors confirmed", True,
           "200 graphs x all sources; 5 families")


def test_criterion_9_margin_check(grid_monte_carlo):
    total_viol = 0
    total_membership = 0
    for _frac, est in grid_monte_carlo["estimates"]:
        total_viol += est.margin_violations
        total_membership += est.membership_violations
    record(9, "winning-margin containment (exact, every trial)",
           total_viol == 0 and total_membership == 0,
           f"{total_viol} margin violations, {total_membership} membership violations "
           f"over 30000 trials")


def test_criterion_10_pipeline_determinism(tmp_path):
    g_path = tmp_path / "grid.el"
    gen = subprocess.run(
        [sys.executable, "-m", "minor_decomp.cli", "generate", "--family", "grid",
         "--rows", "6", "--cols", "6", "--out", str(g_path)],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0
    args = [sys.executable, "-m", "minor_decomp.cli", "pipeline",
            "--input", str(g_path), "--delta", "2", "--rho", "1", "--seed", "7",
            "--verify", "full", "--trials", "150"]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    ra.pop("timestamp")
    rb.pop("timestamp")
    identical = json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    record(10, "byte-identical reports modulo timestamp", identical,
           "two full-verify pipeline runs, seed 7")
