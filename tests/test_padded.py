import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from minor_decomp import padded as padded_mod
from minor_decomp._kernels import multisource_dijkstra
from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.graph_core import StructuralError, WeightedGraph, full_mask, shortest_paths
from minor_decomp.oracles import apsp_bruteforce
from minor_decomp.padded import (
    TexpSampler,
    boundary_distances,
    estimate_padding,
    sample_padded,
    texp_cdf,
    texp_mean,
)
from minor_decomp.separator import subtree_view
from minor_decomp.sparse_cover import Cluster, Cover, cover

from util import grid_graph, path_graph, random_graph


def make_cover(cluster_vertex_lists, rho=1.0, delta=1.0):
    clusters = [
        Cluster(key=(0, 0, i), vertices=np.asarray(sorted(ids), dtype=np.int64), recursion_depth=0)
        for i, ids in enumerate(cluster_vertex_lists)
    ]
    return Cover(clusters=clusters, rho=rho, delta=delta)


class TestTexp:
    def test_inverse_cdf_endpoints(self):
        s = TexpSampler(2.0, seed=0)
        assert s.from_uniform(0.0) == 0.0
        assert s.from_uniform(1.0 - 1e-16) == pytest.approx(1.0, abs=1e-12)

    def test_mean_matches_numeric_integration(self):
        # oracle: integrate y * g(y) for the stated density
        for lam in (0.5, 2.0, 10.0):
            dens = lambda y: lam * math.exp(-lam * y) / (1.0 - math.exp(-lam))
            numeric, err = quad(lambda y: y * dens(y), 0.0, 1.0)
            assert abs(texp_mean(lam) - numeric) < 1e-10

    def test_empirical_mean_lambda_two(self):
        s = TexpSampler(2.0, seed=123)
        draws = s.sample_many(10**6)
        assert abs(texp_mean(2.0) - 0.34348) < 1e-4  # frozen closed form
        assert abs(draws.mean() - texp_mean(2.0)) < 1e-3

    def test_cdf_sup_deviation(self):
        for lam in (0.5, 2.0, 10.0):
            s = TexpSampler(lam, seed=7)
            draws = np.sort(s.sample_many(10**6))
            n = draws.size
            analytic = texp_cdf(draws, lam)
            empirical_hi = np.arange(1, n + 1) / n
            empirical_lo = np.arange(0, n) / n
            sup = max(np.abs(empirical_hi - analytic).max(),
                      np.abs(empirical_lo - analytic).max())
            assert sup <= 0.01
            assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(StructuralError):
            TexpSampler(0.0, seed=1)


class TestBoundaryDistances:
    def test_unit_path_two_vertex_cluster(self):
        g = path_graph(3)
        c = make_cover([[0, 1]])
        bd = boundary_distances(g, c)
        assert bd.matrix[0].tolist() == [2.0, 1.0, 0.0]

    def test_outside_cluster_zero(self):
        g = path_graph(4)
        c = make_cover([[1, 2]])
        bd = boundary_distances(g, c)
        assert bd.matrix[0, 0] == 0.0
        assert bd.matrix[0, 3] == 0.0

    def test_full_cluster_infinite(self):
        g = path_graph(3)
        c = make_cover([[0, 1, 2]])
        bd = boundary_distances(g, c)
        assert np.all(bd.matrix[0] == np.inf)

    def test_lipschitz_over_random_edges(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 1000:
            g = random_graph(12, 0.3, rng)
            ids = rng.permutation(12)[:5]
            c = make_cover([sorted(int(v) for v in ids)])
            bd = boundary_distances(g, c)
            for u, v, w in g.edges():
                assert abs(bd.matrix[0, u] - bd.matrix[0, v]) <= w
                checked += 1

    @staticmethod
    def _by_definition(g, c):
        """Full-graph sweep from each cluster's complement, zero outside it."""
        n = g.vertex_count
        mat = np.zeros((len(c.clusters), n))
        for i, cl in enumerate(c.clusters):
            outside = np.ones(n, dtype=np.bool_)
            outside[cl.vertices] = False
            mat[i, cl.vertices] = shortest_paths(g, np.flatnonzero(outside))[cl.vertices]
        return mat

    @staticmethod
    def _float_weight_graph(n, p, rng, offset=0):
        """Random connected graph on offset..offset+n-1, weights in [0.1, 3)."""
        order = offset + rng.permutation(n)
        edges = {(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])}
        for u in range(offset, offset + n):
            for v in range(u + 1, offset + n):
                if rng.random() < p:
                    edges.add((u, v))
        return [(int(u), int(v), float(rng.uniform(0.1, 3.0))) for u, v in sorted(edges)]

    def test_equals_full_sweep_from_complement(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = WeightedGraph(n, self._float_weight_graph(n, 0.15, rng))
            lists = [list(range(n)), [int(rng.integers(n))], [int(rng.integers(n))]]
            for _ in range(6):
                size = int(rng.integers(1, n + 1))
                lists.append(sorted(int(v) for v in rng.permutation(n)[:size]))
            c = make_cover(lists)
            assert boundary_distances(g, c).matrix.tobytes() == self._by_definition(g, c).tobytes()

    def test_equals_full_sweep_on_disconnected_graph(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            edges = self._float_weight_graph(a, 0.2, rng) + self._float_weight_graph(b, 0.2, rng, offset=a)
            g = WeightedGraph(a + b, edges)
            part = [int(v) for v in a + rng.permutation(b)[: int(rng.integers(1, b))]]
            lists = [list(range(a)), list(range(a, a + b)), sorted(list(range(a)) + part), sorted(part)]
            c = make_cover(lists)
            got = boundary_distances(g, c).matrix
            assert got.tobytes() == self._by_definition(g, c).tobytes()
            # a whole component has an empty rim: its entries stay +inf
            assert np.all(got[0, :a] == np.inf) and np.all(got[1, a:] == np.inf)

    def test_sweeps_restricted_to_cluster_and_rim(self, monkeypatch):
        g = WeightedGraph(127, [((v - 1) // 2, v, 1.0) for v in range(1, 127)])
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        c = cover(subtree_view(tree, g), full_mask(127), rho=1.0, delta=2.0)
        seen = []
        kernel = padded_mod.multisource_dijkstra

        def spy(indptr, indices, weights, sources, restrict, cutoff):
            seen.append(restrict.copy())
            return kernel(indptr, indices, weights, sources, restrict, cutoff)

        monkeypatch.setattr(padded_mod, "multisource_dijkstra", spy)
        boundary_distances(g, c)
        assert len(seen) == len(c.clusters)
        for cl, restrict in zip(c.clusters, seen):
            inside = set(int(v) for v in cl.vertices)
            rim = {v for u in inside for v in map(int, g.neighbors(u)) if v not in inside}
            assert set(np.flatnonzero(restrict).tolist()) == inside | rim


class TestSamplePadded:
    def test_single_cluster_everything(self):
        g = path_graph(3)
        c = make_cover([[0, 1, 2]])
        pp = sample_padded(g, c, beta=1.0, delta=2.0, seed=0)
        assert np.all(pp.assignment == 0)
        assert pp.lam == 2.0  # s = 1

    def test_partition_refines_cover(self):
        rho, delta = 1.0, 2.0
        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=11))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(36), rho=rho, delta=delta)
        beta = (4 + 8 * rho) / rho
        mat = c.membership_matrix(36)
        for seed in range(5):
            pp = sample_padded(g, c, beta, (4 + 8 * rho) * delta, seed=seed)
            assert mat[pp.assignment, np.arange(36)].all()

    def test_uncovered_vertex_rejected(self):
        g = path_graph(3)
        c = make_cover([[0, 1]])
        with pytest.raises(StructuralError, match="vertex 2"):
            sample_padded(g, c, beta=1.0, delta=2.0, seed=0)

    def test_path9_matches_bruteforce_argmax(self):
        # overlapping 4-balls on the 9-path; reproduce the assignment with
        # an independent evaluation of the potential over all (v, C)
        g = path_graph(9)
        delta_p = 8.0
        beta = 2.0
        centers = [0, 2, 4, 6, 8]
        oracle_d = apsp_bruteforce(g)
        clusters = [sorted(np.flatnonzero(oracle_d[c] <= 4.0).tolist()) for c in centers]
        c = make_cover(clusters)
        pp = sample_padded(g, c, beta=beta, delta=delta_p, seed=42)

        expect = []
        for v in range(9):
            best_val, best_idx = None, None
            for i, ids in enumerate(clusters):
                if v in ids:
                    boundary = min(
                        (oracle_d[v, u] for u in range(9) if u not in ids),
                        default=math.inf,
                    )
                else:
                    boundary = 0.0
                f = pp.shifts[i] * delta_p / beta + boundary
                if best_val is None or f > best_val:
                    best_val, best_idx = f, i
            expect.append(best_idx)
        assert pp.assignment.tolist() == expect

    def test_determinism(self):
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(16), rho=1.0, delta=2.0)
        a = sample_padded(g, c, 12.0, 24.0, seed=5)
        b = sample_padded(g, c, 12.0, 24.0, seed=5)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.shifts, b.shifts)


class TestEstimatePadding:
    def test_gamma_zero_probability_one(self):
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(16), rho=1.0, delta=2.0)
        est = estimate_padding(g, c, beta=12.0, delta=24.0, gamma=0.0, trials=50, seed=3)
        assert est.min_prob == 1.0
        assert est.margin_violations == 0

    def test_single_cluster_probability_one(self):
        g = path_graph(5)
        c = make_cover([[0, 1, 2, 3, 4]])
        est = estimate_padding(g, c, beta=1.0, delta=4.0, gamma=0.25, trials=50, seed=3)
        assert est.min_prob == 1.0
        assert est.passed

    def test_sparsity_read_from_membership(self, monkeypatch):
        # lambda and the coverage check come from the membership matrix the
        # caller passes, so no draw walks the cluster list again
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        c = cover(subtree_view(tree, g), full_mask(16), rho=1.0, delta=2.0)
        s = c.sparsity(16)
        m = c.membership_matrix(16)

        def recount(self, n):
            raise AssertionError("Cover.sparsity called")

        monkeypatch.setattr(Cover, "sparsity", recount)
        pp = sample_padded(g, c, 12.0, 24.0, seed=5, membership=m)
        assert pp.lam == pytest.approx(2.0 + 2.0 * math.log(max(s, 1)))
        est = estimate_padding(g, c, beta=12.0, delta=24.0, gamma=0.0, trials=5, seed=3)
        assert est.extra["sparsity"] == s

    def test_gamma_out_of_range_rejected(self):
        g = path_graph(5)
        c = make_cover([[0, 1, 2, 3, 4]])
        with pytest.raises(StructuralError):
            estimate_padding(g, c, beta=1.0, delta=4.0, gamma=0.3, trials=10, seed=0)

    def test_grid_bound_and_margin_checks(self):
        rho, delta = 1.0, 2.0
        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=11))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(36), rho=rho, delta=delta)
        beta = (4 + 8 * rho) / rho
        delta_p = (4 + 8 * rho) * delta
        est = estimate_padding(g, c, beta, delta_p, gamma=1 / (4 * beta), trials=400, seed=21)
        assert est.margin_violations == 0
        assert est.membership_violations == 0
        assert est.min_lcb >= est.bound


    def test_report_names_least_lcb_vertex_and_largest_ball(self):
        g = grid_graph(6, 6)
        # radius-3 balls around eight centres: no cluster is the whole grid,
        # so padding frequencies differ between vertices
        c = make_cover([np.flatnonzero(shortest_paths(g, [v]) <= 3.0) for v in (0, 3, 5, 14, 21, 30, 33, 35)])
        # radius gamma * delta = 1: a grid ball holds up to 5 vertices
        est = estimate_padding(g, c, beta=3.0, delta=12.0, gamma=1 / 12, trials=40, seed=21)
        assert est.max_ball_size == 5
        v = est.min_lcb_vertex
        assert est.per_vertex_lcb[v] == est.min_lcb
        assert np.all(est.per_vertex_lcb[:v] > est.min_lcb)
        assert v > 0
        obj = est.to_json_obj()
        assert (obj["min_lcb_vertex"], obj["max_ball_size"]) == (v, 5)
        # radius 0.5 on unit weights: single-vertex balls, a vacuous check in
        # which every vertex is padded and vertex 0 is the lowest tied id
        est = estimate_padding(g, c, beta=3.0, delta=12.0, gamma=1 / 24, trials=40, seed=21)
        assert est.max_ball_size == 1
        assert est.min_prob == 1.0 and est.min_lcb_vertex == 0


class TestBallCsr:
    """The ball lists against their definition: one bounded kernel sweep per vertex."""

    @staticmethod
    def _by_definition(g, radius):
        n = g.vertex_count
        lists = [
            np.flatnonzero(
                multisource_dijkstra(
                    g.indptr, g.indices, g.weights, np.array([v], dtype=np.int64), full_mask(n), radius
                )
                <= radius
            )
            for v in range(n)
        ]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(l) for l in lists])
        return indptr, np.concatenate(lists)

    def _assert_pinned(self, g, radius):
        got = padded_mod._ball_csr(g, radius)
        expect = self._by_definition(g, radius)
        assert [a.dtype for a in got] == [a.dtype for a in expect]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]

    @pytest.mark.parametrize("rows_per_block", [1, 4, None])
    def test_equals_definition(self, monkeypatch, rows_per_block):
        import minor_decomp.graph_core as gc

        rng = np.random.default_rng(17)
        # float weights with zeros, a disconnected graph, and a unit grid whose
        # balls have many vertices exactly on the radius
        graphs = [
            WeightedGraph(12, [(i, i + 1, 0.0 if i % 4 == 0 else float(rng.uniform(0.1, 2.0))) for i in range(11)]),
            WeightedGraph(9, [(0, 1, 0.5), (1, 2, 0.25), (3, 4, 0.0), (5, 6, 1.0), (6, 7, 1.0)]),
            random_graph(25, 0.15, rng),
            grid_graph(6, 6),
        ]
        for g in graphs:
            if rows_per_block is not None:
                monkeypatch.setattr(gc, "ROWS_BLOCK_ENTRIES", rows_per_block * g.vertex_count)
            for radius in (0.0, 0.5, 1.0, 2.0, 3.5):
                self._assert_pinned(g, radius)


class TestBinomialLcb:
    def test_equals_beta_quantile_bit_for_bit(self):
        from scipy.stats import beta as beta_dist

        for trials in range(1, 401):
            k = np.arange(1, trials + 1, dtype=np.float64)
            got = padded_mod._binomial_lcb(k, trials)
            # the same quantile the library forms, 1 - 0.99 (not the literal 0.01)
            expect = beta_dist.ppf(1.0 - 0.99, k, trials - k + 1)
            assert got.tobytes() == expect.tobytes(), trials

    def test_no_success_gives_zero(self):
        assert padded_mod._binomial_lcb(np.array([0, 0]), 50).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("trials", [1, 2, 7, 50, 400, 10000])
    def test_all_successes_give_closed_form(self, trials):
        # P(all trials succeed) = p**trials, so the 99% bound solves p**trials = 0.01
        got = float(padded_mod._binomial_lcb(np.array([trials]), trials)[0])
        assert got == pytest.approx(0.01 ** (1.0 / trials), rel=1e-12)

    def test_import_leaves_scipy_stats_unloaded(self):
        res = subprocess.run(
            [sys.executable, "-c", "import sys, minor_decomp; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"
