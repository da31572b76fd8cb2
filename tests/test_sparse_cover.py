import numpy as np
import pytest

from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.graph_core import StructuralError, WeightedGraph, full_mask, shortest_paths
from minor_decomp.partition_tree import verify_buffered
from minor_decomp.separator import subtree_view
from minor_decomp.sparse_cover import (
    Cluster,
    Cover,
    class_count_bound,
    color_classes,
    cover,
    cover_from_json,
    cover_to_json,
    verify_cover,
)

from util import grid_graph, manual_tree, path_graph


def make_cluster(ids, key=(0, 0, 0), depth=0):
    return Cluster(key=key, vertices=np.asarray(sorted(ids), dtype=np.int64), recursion_depth=depth)


class TestCoverConstruction:
    def test_empty_tree_empty_active(self):
        g = path_graph(2)
        tree = manual_tree(g, [[0, 1]], [None])
        view = subtree_view(tree, g, members=[])
        c = cover(view, [], rho=1.0, delta=1.0)
        assert c.clusters == []

    def test_empty_tree_nonempty_active_rejected(self):
        g = path_graph(2)
        tree = manual_tree(g, [[0, 1]], [None])
        view = subtree_view(tree, g, members=[])
        with pytest.raises(StructuralError):
            cover(view, [0], rho=1.0, delta=1.0)

    def test_single_supernode_path_swallowed(self):
        # one recursion level; the (2+4)*2 = 12 ball around any net point
        # swallows the 3-vertex path
        g = path_graph(3)
        tree = manual_tree(
            g, [[0, 1, 2]], [None],
            skeleton_roots=[0], skeleton_edges=[[(0, 1), (1, 2)]],
        )
        view = subtree_view(tree, g)
        c = cover(view, full_mask(3), rho=1.0, delta=2.0)
        assert len(c.clusters) == 1
        assert c.clusters[0].vertices.tolist() == [0, 1, 2]
        assert c.clusters[0].key[0] == 0

    def test_rho_below_one_rejected(self):
        g = path_graph(3)
        tree = manual_tree(g, [[0, 1, 2]], [None])
        view = subtree_view(tree, g)
        with pytest.raises(StructuralError):
            cover(view, full_mask(3), rho=0.5, delta=1.0)

    def test_grid_cover_verifies(self):
        rho, delta = 1.0, 2.0
        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=11))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(36), rho=rho, delta=delta)
        rep = verify_cover(c, g, full_mask(36), pad_radius=rho * delta,
                           diam_bound=(4 + 8 * rho) * delta)
        assert rep.diam_ok and rep.padding_ok
        assert rep.s >= 1

    def test_containment_chain_and_universe(self):
        g = grid_graph(5, 5)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=4))
        view = subtree_view(tree, g)
        universe = np.zeros(25, dtype=np.bool_)
        universe[:20] = True
        c = cover(view, universe, rho=1.0, delta=2.0)
        for cl in c.clusters:
            assert universe[cl.vertices].all()
            assert cl.vertices.size > 0  # empty clusters are dropped

    def test_cluster_keys_unique(self):
        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=11))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(36), rho=1.0, delta=2.0)
        keys = [cl.key for cl in c.clusters]
        assert len(keys) == len(set(keys))

    def test_recursion_depth_bounded_by_width(self):
        from minor_decomp.separator import subtree_width

        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=1.5, seed=9))
        view = subtree_view(tree, g)
        width = subtree_width(view)
        c = cover(view, full_mask(36), rho=1.0, delta=1.5)
        assert max(cl.recursion_depth for cl in c.clusters) <= width


class TestColorClasses:
    def test_disjoint_clusters_single_class(self):
        g = path_graph(4)
        tree = manual_tree(g, [[0, 1, 2, 3]], [None])
        c = Cover(clusters=[make_cluster([0, 1], key=(0, 0, 0)),
                            make_cluster([2, 3], key=(0, 0, 2))],
                  rho=1.0, delta=1.0)
        color_classes(c, tree)
        assert len(c.color_classes) == 1

    def test_overlapping_clusters_two_classes(self):
        g = path_graph(4)
        tree = manual_tree(g, [[0, 1, 2, 3]], [None])
        c = Cover(clusters=[make_cluster([0, 1, 2], key=(0, 0, 0)),
                            make_cluster([2, 3], key=(0, 0, 2))],
                  rho=1.0, delta=1.0)
        color_classes(c, tree)
        assert len(c.color_classes) == 2

    def test_classes_disjoint_and_reported_bound(self):
        rho, delta = 1.0, 2.0
        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=11))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(36), rho=rho, delta=delta)
        color_classes(c, tree)
        rep = verify_cover(c, g, full_mask(36), rho * delta, (4 + 8 * rho) * delta)
        assert rep.class_disjoint_ok
        buf = verify_buffered(tree, g, delta, 0.0, 36)
        bound = class_count_bound(rho, delta, buf.gamma_eff, buf.max_bag_size,
                                  buf.max_bag_size)
        # reporting surrogate only: the constant is a choice, not a guarantee
        print(f"class count {rep.class_count} vs surrogate bound {bound}")
        assert rep.class_count >= 1

    def test_sparsity_at_most_class_count(self):
        g = grid_graph(6, 6)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=11))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(36), rho=1.0, delta=2.0)
        color_classes(c, tree)
        assert c.sparsity(36) <= len(c.color_classes)


class TestVerifyCover:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_per_cluster_diam_equals_definition_on_grid_cover(self, weighted):
        g = grid_graph(6, 6)
        if weighted:
            rng = np.random.default_rng(4)
            g = WeightedGraph(36, [(u, v, float(rng.uniform(0.1, 3.0))) for u, v, _ in g.edges()])
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=7))
        c = cover(subtree_view(tree, g), full_mask(36), rho=1.0, delta=2.0)
        rep = verify_cover(c, g, full_mask(36), pad_radius=2.0, diam_bound=12.0)
        expect = [
            max(float(shortest_paths(g, [u])[cl.vertices].max()) for u in cl.vertices)
            for cl in c.clusters
        ]
        assert len(c.clusters) > 1
        assert rep.per_cluster_diam == expect
        assert rep.max_diam == max(expect)

    def test_whole_universe_cluster(self):
        g = path_graph(3)
        c = Cover(clusters=[make_cluster([0, 1, 2])], rho=1.0, delta=2.0)
        rep = verify_cover(c, g, full_mask(3), pad_radius=2.0, diam_bound=2.0)
        assert rep.passed and rep.s == 1

    def test_empty_cover_fails_with_witness(self):
        g = path_graph(3)
        c = Cover(clusters=[], rho=1.0, delta=2.0)
        rep = verify_cover(c, g, full_mask(3), pad_radius=1.0, diam_bound=2.0)
        assert not rep.padding_ok
        assert rep.padding_witness == 0

    def test_diameter_violation_witnessed(self):
        g = path_graph(5)
        c = Cover(clusters=[make_cluster([0, 4])], rho=1.0, delta=1.0)
        rep = verify_cover(c, g, [0, 4], pad_radius=0.0, diam_bound=3.0)
        assert not rep.diam_ok
        assert rep.diam_witness == (0, 4.0)

    def test_ball_taken_in_full_graph(self):
        # vertex 2 lies outside the universe, but the radius-2 ball around 0
        # reaches it through the full graph, and {0, 1} does not hold it
        g = path_graph(3)
        c = Cover(clusters=[make_cluster([0, 1])], rho=1.0, delta=2.0)
        rep = verify_cover(c, g, [0, 1], pad_radius=2.0, diam_bound=2.0)
        assert not rep.padding_ok
        assert rep.padding_witness == 0

    @pytest.mark.parametrize("rows_per_block", [1, 3, 36])
    def test_padding_witness_equals_definition(self, monkeypatch, rows_per_block):
        import minor_decomp.graph_core as gc

        monkeypatch.setattr(gc, "ROWS_BLOCK_ENTRIES", rows_per_block * 36)
        g = grid_graph(6, 6)
        # radius-2 balls around a few centres, and a singleton per vertex
        vertex_lists = [np.flatnonzero(shortest_paths(g, [v]) <= 2.0) for v in (0, 14, 21, 35, 8, 27)]
        vertex_lists += [[v] for v in range(36)]
        c = Cover(clusters=[make_cluster(ids, key=(0, 0, i)) for i, ids in enumerate(vertex_lists)],
                  rho=1.0, delta=1.0)
        mat = c.membership_matrix(36)

        def uncovered(v, radius):
            # no cluster holding v holds the closed ball around v
            bmask = shortest_paths(g, [v]) <= radius
            return not any(not np.any(bmask & ~mat[i]) for i in np.flatnonzero(mat[:, v]))

        witnesses = []
        for universe in (full_mask(36), np.arange(36) % 2 == 1, np.arange(36) >= 20):
            # unit weights put many vertices exactly on each radius
            for radius in (0.0, 1.0, 2.0, 3.0):
                expect = next((v for v in np.flatnonzero(universe).tolist() if uncovered(v, radius)), None)
                rep = verify_cover(c, g, universe, pad_radius=radius, diam_bound=12.0)
                assert rep.padding_witness == expect
                assert rep.padding_ok == (expect is None)
                witnesses.append(expect)
        assert len(set(witnesses)) >= 5


class TestJson:
    def test_round_trip(self):
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=2))
        view = subtree_view(tree, g)
        c = cover(view, full_mask(16), rho=1.0, delta=2.0)
        color_classes(c, tree)
        text = cover_to_json(c, stats={"s": c.sparsity(16)})
        c2 = cover_from_json(text)
        assert [cl.key for cl in c2.clusters] == [cl.key for cl in c.clusters]
        assert [cl.vertices.tolist() for cl in c2.clusters] == [
            cl.vertices.tolist() for cl in c.clusters
        ]
        assert c2.color_classes == c.color_classes
