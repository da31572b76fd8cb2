import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minor_decomp._kernels import multisource_dijkstra
from minor_decomp.graph_core import (
    StructuralError,
    WeightedGraph,
    as_mask,
    ball,
    connected_components,
    distance_rows,
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

    def test_groups_spanning_blocks(self, monkeypatch):
        import minor_decomp.graph_core as gc

        rng = np.random.default_rng(5)
        for trial in range(12):
            n = int(rng.integers(4, 25))
            g = self._float_graph(n, 0.2, rng, 1 if trial % 2 else 2)
            groups = [np.arange(n)] + [
                np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)) for _ in range(5)
            ]
            expect = [self._by_definition(g, ids) for ids in groups]
            for rows_per_block in (1, 2, 3, n):
                monkeypatch.setattr(gc, "ROWS_BLOCK_ENTRIES", rows_per_block * n)
                assert weak_diameters(g, groups) == expect

    def test_one_row_per_distinct_vertex(self, monkeypatch):
        import minor_decomp.graph_core as gc

        requested = []
        rows = gc.distance_rows

        def counted(g, sources, cutoff=np.inf):
            requested.extend(np.asarray(sources).tolist())
            return rows(g, sources, cutoff)

        def no_sweep(*args, **kwargs):
            raise AssertionError("multisource_dijkstra called")

        monkeypatch.setattr(gc, "distance_rows", counted)
        monkeypatch.setattr(gc, "multisource_dijkstra", no_sweep)
        g = grid_graph(4, 4)
        # overlapping groups; vertex 15 only in a singleton, so it gets no row
        groups = [[0, 1, 2, 5], [1, 2, 6], [2, 5, 6, 9], [15]]
        assert weak_diameters(g, groups) == [2.0, 2.0, 3.0, 0.0]
        assert requested == [0, 1, 2, 5, 6, 9]


class TestDistanceRows:
    """The rows pass against its definition: one kernel sweep per source."""

    @staticmethod
    def _kernel_rows(g, sources, cutoff=np.inf):
        rmask = full_mask(g.vertex_count)
        return [
            multisource_dijkstra(g.indptr, g.indices, g.weights, np.array([v], dtype=np.int64), rmask, cutoff)
            for v in sources
        ]

    def _assert_pinned(self, g, sources, cutoff=np.inf):
        got_ids, got_rows = [], []
        for block_ids, rows in distance_rows(g, sources, cutoff):
            assert rows.shape == (block_ids.size, g.vertex_count)
            got_ids.extend(block_ids.tolist())
            got_rows.extend(rows)
        assert got_ids == list(sources)
        expect = self._kernel_rows(g, sources, cutoff)
        assert [r.tobytes() for r in got_rows] == [r.tobytes() for r in expect]
        return got_rows

    def test_float_and_zero_weights(self):
        rng = np.random.default_rng(31)
        zero_edges = 0
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = TestWeakDiameters._float_graph(n, 0.2, rng)
            zero_edges += int(np.count_nonzero(g.weights == 0.0))
            for cutoff in (np.inf, 0.0, 1.0, float(rng.uniform(0.5, 4.0))):
                self._assert_pinned(g, list(range(n)), cutoff)
        assert zero_edges > 0

    def test_zero_weight_edge_stays_an_edge(self):
        g = WeightedGraph(4, [(0, 1, 0.0), (1, 2, 1.5)])
        rows = self._assert_pinned(g, [0, 1, 2, 3], 0.0)
        assert rows[0].tolist() == [0.0, 0.0, np.inf, np.inf]

    def test_disconnected_graph(self):
        rng = np.random.default_rng(8)
        g = TestWeakDiameters._float_graph(30, 0.0, rng, components=4)
        for cutoff in (np.inf, 2.0):
            rows = self._assert_pinned(g, list(range(30)), cutoff)
            assert all(np.isinf(r).any() for r in rows)

    def test_exact_ties_at_cutoff_stay_in(self):
        g = grid_graph(6, 6)
        rows = self._assert_pinned(g, list(range(36)), 2.0)
        # every vertex has neighbours at distance exactly 2 on the unit grid
        assert all(np.count_nonzero(r == 2.0) > 0 for r in rows)
        assert all(np.count_nonzero((r > 2.0) & (r < np.inf)) == 0 for r in rows)

    def test_several_blocks_in_source_order(self, monkeypatch):
        import minor_decomp.graph_core as gc

        rng = np.random.default_rng(2)
        g = TestWeakDiameters._float_graph(20, 0.2, rng)
        sources = [7, 0, 19, 3, 3, 12, 5]
        monkeypatch.setattr(gc, "ROWS_BLOCK_ENTRIES", 3 * 20)
        sizes = [block_ids.size for block_ids, _rows in distance_rows(g, sources)]
        assert sizes == [3, 3, 1]
        self._assert_pinned(g, sources)
        self._assert_pinned(g, sources, 1.5)

    def test_empty_sources_and_negative_cutoff(self):
        g = path_graph(3)
        assert list(distance_rows(g, [])) == []
        with pytest.raises(StructuralError):
            list(distance_rows(g, [0], -1.0))


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
