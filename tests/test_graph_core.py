import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minor_decomp.graph_core import (
    StructuralError,
    WeightedGraph,
    as_mask,
    ball,
    connected_components,
    full_mask,
    mask_to_ids,
    shortest_paths,
    weak_diameter,
    weak_diameters,
)
from minor_decomp.oracles import apsp_bruteforce

from util import cycle_graph, grid_graph, path_graph, random_graph


def ids(mask):
    return sorted(mask_to_ids(mask).tolist())


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(StructuralError, match="self-loop"):
            WeightedGraph(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(StructuralError, match="duplicate"):
            WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(StructuralError):
            WeightedGraph(2, [(0, 1, -1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(StructuralError):
            WeightedGraph(2, [(0, 2, 1.0)])

    def test_edge_list_round_trip(self):
        g = random_graph(9, 0.3, np.random.default_rng(0))
        text = g.to_edge_list_text()
        g2 = WeightedGraph.from_edge_list_text(text)
        assert g2.vertex_count == g.vertex_count
        assert list(g2.edges()) == list(g.edges())

    def test_edge_list_comments_and_errors(self):
        g = WeightedGraph.from_edge_list_text("# a comment\n2 1\n0 1 1.5\n")
        assert g.edge_count == 1
        with pytest.raises(StructuralError, match="line"):
            WeightedGraph.from_edge_list_text("2 1\n0 1\n")


class TestShortestPaths:
    def test_unit_path(self):
        g = path_graph(3)
        d = shortest_paths(g, [0])
        assert d.tolist() == [0.0, 1.0, 2.0]

    def test_restriction_disconnects(self):
        g = path_graph(3)
        d = shortest_paths(g, [0], restrict=[0, 2])
        assert d[0] == 0.0
        assert d[2] == np.inf

    def test_grid_corner_to_corner(self):
        # frozen from the brute-force matrix on the 9-vertex grid
        g = grid_graph(3, 3)
        oracle = apsp_bruteforce(g)
        assert oracle[0, 8] == 4.0
        d = shortest_paths(g, [0])
        assert d[8] == 4.0
        assert np.array_equal(d, oracle[0])

    def test_empty_sources_all_inf(self):
        g = path_graph(3)
        d = shortest_paths(g, [])
        assert np.all(d == np.inf)

    def test_source_outside_restrict_rejected(self):
        g = path_graph(3)
        with pytest.raises(StructuralError):
            shortest_paths(g, [0], restrict=[1, 2])

    def test_matches_bruteforce_on_random_configurations(self):
        # 100 (graph, sources, restrict) configurations on <= 8 vertices
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = random_graph(n, 0.4, rng)
            member = rng.random(n) < 0.7
            member[int(rng.integers(0, n))] = True
            restrict_ids = np.flatnonzero(member)
            src = restrict_ids[rng.random(restrict_ids.size) < 0.5]
            if src.size == 0:
                src = restrict_ids[:1]
            sub = g_induced(g, restrict_ids)
            oracle = apsp_bruteforce(sub)
            lookup = {int(v): i for i, v in enumerate(restrict_ids)}
            d = shortest_paths(g, src.tolist(), restrict=restrict_ids.tolist())
            for v in range(n):
                if v not in lookup:
                    assert d[v] == np.inf
                else:
                    expect = min(oracle[lookup[v], lookup[int(s)]] for s in src)
                    assert d[v] == expect

    def test_backends_agree(self):
        from minor_decomp import _kernels

        if not _kernels.have_numba():
            pytest.skip("numba unavailable")
        g = random_graph(30, 0.2, np.random.default_rng(3))
        src = np.array([0, 7], dtype=np.int64)
        rmask = full_mask(30)
        a = _kernels.multisource_dijkstra(g.indptr, g.indices, g.weights, src, rmask, np.inf, backend="numba")
        b = _kernels.multisource_dijkstra(g.indptr, g.indices, g.weights, src, rmask, np.inf, backend="numpy")
        assert np.array_equal(a, b)


def g_induced(g, keep_ids):
    """Independent induced-subgraph builder for the oracle comparison."""
    lookup = {int(v): i for i, v in enumerate(keep_ids)}
    edges = []
    for u, v, w in g.edges():
        if u in lookup and v in lookup:
            edges.append((lookup[u], lookup[v], w))
    return WeightedGraph(len(keep_ids), edges)


class TestBall:
    def test_zero_radius(self):
        g = path_graph(3)
        assert ids(ball(g, [1], 0.0)) == [1]

    def test_unit_path_radius_one(self):
        g = path_graph(3)
        assert ids(ball(g, [1], 1.0)) == [0, 1, 2]

    def test_five_cycle(self):
        # brute force on C5: every vertex within distance 2 of v0
        g = cycle_graph(5)
        oracle = apsp_bruteforce(g)
        expect = sorted(np.flatnonzero(oracle[0] <= 2.0).tolist())
        assert expect == [0, 1, 2, 3, 4]
        assert ids(ball(g, [0], 2.0)) == expect

    def test_empty_center(self):
        g = path_graph(3)
        assert ids(ball(g, [], 5.0)) == []

    @given(st.integers(0, 2**32 - 1), st.floats(0, 4), st.floats(0, 4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_monotone_in_radius(self, seed, r1, r2):
        rng = np.random.default_rng(seed)
        g = random_graph(8, 0.3, rng)
        lo, hi = min(r1, r2), max(r1, r2)
        small = ball(g, [0], lo)
        big = ball(g, [0], hi)
        assert not np.any(small & ~big)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_ball_weak_diameter_at_most_2r(self, seed, r):
        rng = np.random.default_rng(seed)
        g = random_graph(8, 0.4, rng)
        b = ball(g, [0], r)
        assert weak_diameter(g, b) <= 2 * r


class TestWeakDiameter:
    def test_singleton(self):
        g = path_graph(3)
        assert weak_diameter(g, [1]) == 0.0

    def test_path_endpoints(self):
        g = path_graph(3)
        assert weak_diameter(g, [0, 2]) == 2.0

    def test_grid_row(self):
        g = grid_graph(4, 4)
        assert weak_diameter(g, [0, 1, 2, 3]) == 3.0

    def test_disconnected_is_inf(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert weak_diameter(g, [0, 3]) == np.inf


class TestWeakDiameters:
    @staticmethod
    def _by_definition(g, ids):
        """Max over the rows of single-source sweeps from each member."""
        return max((float(shortest_paths(g, [u])[ids].max()) for u in ids), default=0.0)

    @staticmethod
    def _float_graph(n, p, rng, components=1):
        """Random graph with weights in [0.1, 3), some set to 0.

        With ``components`` > 1 it is that many disjoint random paths.
        """
        cuts = np.sort(rng.choice(np.arange(1, n), size=components - 1, replace=False))
        edges = set()
        for part in np.split(rng.permutation(n), cuts):
            edges |= {(min(a, b), max(a, b)) for a, b in zip(part[:-1].tolist(), part[1:].tolist())}
        if components == 1:
            edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        weights = [0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 3.0)) for _ in edges]
        return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(sorted(edges), weights)])

    def test_equals_definition_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(2, 30))
            components = 1 if trial % 3 else int(rng.integers(1, min(n, 4) + 1))
            g = self._float_graph(n, 0.15, rng, components)
            groups = [np.arange(n), np.array([int(rng.integers(n))]), np.zeros(0, dtype=np.int64)]
            for _ in range(6):
                size = int(rng.integers(1, n + 1))
                groups.append(np.sort(rng.choice(n, size=size, replace=False)))
            got = weak_diameters(g, groups)
            assert got == [self._by_definition(g, ids) for ids in groups]
            if components > 1:
                assert got[0] == np.inf

    def test_empty_group_and_singleton_are_zero(self):
        g = path_graph(4)
        assert weak_diameters(g, [[], [2], [0, 3]]) == [0.0, 0.0, 3.0]

    def test_one_sweep_per_distinct_vertex(self, monkeypatch):
        import minor_decomp.graph_core as gc

        swept = []
        kernel = gc.multisource_dijkstra

        def counted(indptr, indices, weights, sources, restrict, cutoff=np.inf, backend=None):
            swept.extend(sources.tolist())
            return kernel(indptr, indices, weights, sources, restrict, cutoff, backend)

        monkeypatch.setattr(gc, "multisource_dijkstra", counted)
        g = grid_graph(4, 4)
        # overlapping groups; vertex 15 only in a singleton, so never swept
        groups = [[0, 1, 2, 5], [1, 2, 6], [2, 5, 6, 9], [15]]
        assert weak_diameters(g, groups) == [2.0, 2.0, 3.0, 0.0]
        assert sorted(swept) == [0, 1, 2, 5, 6, 9]


class TestComponents:
    def test_empty_restrict(self):
        g = path_graph(3)
        assert connected_components(g, []) == []

    def test_connected_whole(self):
        g = grid_graph(3, 3)
        comps = connected_components(g)
        assert len(comps) == 1 and comps[0].size == 9

    def test_restriction_splits(self):
        g = path_graph(3)
        comps = connected_components(g, [0, 2])
        assert [c.tolist() for c in comps] == [[0], [2]]

    def test_deterministic_order_by_smallest(self):
        g = WeightedGraph(6, [(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)])
        comps = connected_components(g)
        assert [c.tolist() for c in comps] == [[0, 3], [1, 4], [2, 5]]


class TestMasks:
    def test_as_mask_round_trip(self):
        m = as_mask(5, [0, 3])
        assert ids(m) == [0, 3]
        assert as_mask(5, m) is m

    def test_as_mask_range_check(self):
        with pytest.raises(StructuralError):
            as_mask(3, [5])
