import itertools
import json

import numpy as np
import pytest

from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.graph_core import StructuralError, WeightedGraph
from minor_decomp.partition_tree import (
    SkeletonTree,
    compute_domains_and_bags,
    delta_net,
    domain_distances,
    tree_from_json,
    tree_to_json,
    verify_buffered,
    verify_net,
    verify_tree_decomposition,
)

from minor_decomp.oracles import apsp_bruteforce
from minor_decomp.separator import TreeMetrics

from util import g_induced, grid_graph, manual_tree, path_graph


class TestDomainsAndBags:
    def test_single_supernode(self):
        g = path_graph(3)
        tree = manual_tree(g, [[0, 1, 2]], [None])
        assert tree.domains[0].all()
        assert tree.bags == [(0,)]

    def test_two_supernode_path(self):
        g = path_graph(3)
        tree = manual_tree(g, [[0, 1], [2]], [None, 0])
        assert tree.bags[1] == (0, 1)
        assert sorted(np.flatnonzero(tree.domains[1]).tolist()) == [2]

    def test_three_row_grid_chain(self):
        # bottom row touches only the middle row, so its bag excludes the root
        g = grid_graph(3, 3)
        rows = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        tree = manual_tree(g, rows, [None, 0, 1])
        assert tree.bags[2] == (1, 2)
        assert tree.bags[1] == (0, 1)

    def test_non_partition_named_vertex(self):
        g = path_graph(3)
        with pytest.raises(StructuralError, match="vertex 2"):
            manual_tree(g, [[0, 1]], [None])
        with pytest.raises(StructuralError, match="vertex 1"):
            manual_tree(g, [[0, 1], [1, 2]], [None, 0])

    def test_ancestor_queries(self):
        g = path_graph(4)
        tree = manual_tree(g, [[0], [1], [2], [3]], [None, 0, 1, 2])
        assert tree.is_ancestor(0, 3)
        assert not tree.is_ancestor(3, 0)
        assert tree.ancestors_of(3) == [2, 1, 0]

    def test_bag_ancestor_observation(self):
        # if x is in bag(b) and eta lies between x and b, then x is in bag(eta)
        rng = np.random.default_rng(5)
        for seed in range(6):
            g = grid_graph(4, 4)
            tree = build_cop_decomposition(g, CopConfig(delta=1.5, seed=seed))
            for b in range(len(tree.supernodes)):
                for x in tree.bags[b]:
                    if x == b:
                        continue
                    eta = tree.supernodes[b].parent
                    while eta is not None and eta != x:
                        assert x in tree.bags[eta]
                        eta = tree.supernodes[eta].parent

    def test_subtree_nodes_by_definition(self):
        # the node and every node whose ancestor chain reaches it, ascending;
        # in the hand-built tree, preorder (0, 1, 3, 4, 2) is not ascending
        trees = [
            manual_tree(path_graph(5), [[0], [1], [2], [3], [4]], [None, 0, 0, 1, 1]),
            build_cop_decomposition(grid_graph(6, 6), CopConfig(delta=1.0, seed=4)),
        ]
        for tree in trees:
            for node in range(len(tree)):
                expect = [d for d in range(len(tree)) if d == node or node in tree.ancestors_of(d)]
                assert tree.subtree_nodes(node) == expect
        assert trees[0].subtree_nodes(0) == [0, 1, 2, 3, 4]

    def test_partition_property_on_built_trees(self):
        g = grid_graph(5, 5)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        counts = np.zeros(25, dtype=int)
        for sn in tree.supernodes:
            counts[sn.vertices] += 1
        assert (counts == 1).all()


class TestVerifyBuffered:
    def test_single_supernode_trivial(self):
        g = path_graph(3)
        tree = manual_tree(
            g, [[0, 1, 2]], [None],
            skeleton_roots=[0], skeleton_edges=[[(0, 1), (1, 2)]],
        )
        rep = verify_buffered(tree, g, delta=2.0, gamma=1.0, w=3)
        assert rep.passed
        assert rep.gamma_eff == np.inf  # no ancestor pairs at all

    def test_adjacent_child_buffer_vacuous(self):
        g = path_graph(3)
        tree = manual_tree(g, [[0, 1], [2]], [None, 0])
        rep = verify_buffered(tree, g, delta=1.0, gamma=5.0, w=3)
        assert rep.gamma_eff == np.inf  # the only ancestor is in the bag
        assert not rep.violations

    def test_hand_built_gamma_three(self):
        # unit path 0-1-2-3-4-5; supernode 2 = {4,5} has non-adjacent
        # ancestor 0 = {0,1}; min_{v in {4,5}} d(v, {0,1}) = d(4,1) = 3
        g = path_graph(6)
        tree = manual_tree(
            g,
            [[0, 1], [2, 3], [4, 5]],
            [None, 0, 1],
            skeleton_roots=[0, 2, 4],
            skeleton_edges=[[], [], []],
        )
        rep = verify_buffered(tree, g, delta=1.0, gamma=1.0, w=6)
        assert rep.gamma_eff == 3.0
        assert rep.passed
        rep2 = verify_buffered(tree, g, delta=1.0, gamma=3.5, w=6)
        assert rep2.violations == [(2, 0, 4, 3.0)]

    def test_radius_violation_reported(self):
        g = path_graph(4)
        tree = manual_tree(g, [[0, 1, 2, 3]], [None])  # skeleton = {0}
        rep = verify_buffered(tree, g, delta=1.0, gamma=0.0, w=4)
        assert not rep.passed
        assert rep.max_radius == 3.0
        assert rep.radius_violations[0][0] == 0

    def test_leaf_bound_violation(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        tree = manual_tree(
            g, [[0, 1, 2, 3]], [None],
            skeleton_roots=[0], skeleton_edges=[[(0, 1), (0, 2), (0, 3)]],
        )
        rep = verify_buffered(tree, g, delta=1.0, gamma=0.0, w=2)
        assert rep.max_skeleton_leaves == 3
        assert any("leaves" in msg for _, msg in rep.skeleton_violations)

    def test_non_sssp_skeleton_detected(self):
        # skeleton path 0-1-2 has length 2 to reach 2, but dom distance is 1
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        tree = manual_tree(
            g, [[0, 1, 2]], [None],
            skeleton_roots=[0], skeleton_edges=[[(0, 1), (1, 2)]],
        )
        rep = verify_buffered(tree, g, delta=2.0, gamma=0.0, w=3)
        assert any("length" in msg for _, msg in rep.skeleton_violations)

    def test_skip_buffer(self):
        g = path_graph(6)
        tree = manual_tree(g, [[0, 1], [2, 3], [4, 5]], [None, 0, 1])
        rep = verify_buffered(tree, g, delta=1.0, gamma=1.0, w=6, skip_buffer=True)
        assert not rep.buffer_checked
        assert rep.gamma_eff == np.inf


class TestDomainDistances:
    def test_equals_floyd_inside_domain(self):
        # one sweep serves the buffer pass and TreeMetrics.dist_to_node
        rng = np.random.default_rng(6)
        g = grid_graph(5, 5)
        weights = rng.uniform(0.1, 3.0, g.edge_count)
        weights[3] = 0.0
        g = WeightedGraph(25, [(u, v, float(w)) for (u, v, _), w in zip(g.edges(), weights)])
        tree = build_cop_decomposition(g, CopConfig(delta=1.5, seed=4))
        metrics = TreeMetrics(tree, g)
        assert len(tree) > 3
        for node in range(len(tree)):
            dom = tree.domain_ids(node)
            d = apsp_bruteforce(g_induced(g, dom))
            src = np.searchsorted(dom, tree.supernodes[node].vertices)
            expect = np.full(25, np.inf)
            expect[dom] = d[src].min(axis=0)
            got = domain_distances(tree, g, node)
            np.testing.assert_allclose(got, expect, rtol=1e-12)
            assert np.isinf(got[~tree.domains[node]]).all()
            assert metrics.dist_to_node(node).tobytes() == got.tobytes()
            assert metrics.dist_to_node(node) is metrics.dist_to_node(node)


class TestTreeDecomposition:
    def test_single_supernode_valid(self):
        g = path_graph(3)
        tree = manual_tree(g, [[0, 1, 2]], [None])
        ok, witness = verify_tree_decomposition(tree, g)
        assert ok and witness is None

    def test_star_leaves(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        tree = manual_tree(g, [[0], [1], [2], [3]], [None, 0, 0, 0])
        ok, _ = verify_tree_decomposition(tree, g)
        assert ok
        for leaf in (1, 2, 3):
            assert tree.bags[leaf] == (0, leaf)

    def test_corrupted_parent_breaks_connectivity(self):
        # recompute structure after moving supernode 2 under the root, but
        # keep the stale bags: supernode 1's bag occurrences {1, 2} are now
        # disconnected in the new tree shape
        g = path_graph(5)
        groups = [[0], [1], [2], [3], [4]]
        valid = manual_tree(g, groups, [None, 0, 1, 2, 3])
        stale_bags = list(valid.bags)
        mutated = manual_tree(g, groups, [None, 0, 0, 2, 3])
        mutated.bags = stale_bags
        ok, witness = verify_tree_decomposition(mutated, g)
        assert not ok
        assert witness["kind"] == "bag_subtree_disconnected"

    def test_edge_coverage_violation(self):
        # moving supernode 2 under the root makes supernodes 1 and 2
        # incomparable, so edge (1,2) is covered by no bag
        g = path_graph(5)
        mutated = manual_tree(g, [[0], [1], [2], [3], [4]], [None, 0, 0, 2, 3])
        ok, witness = verify_tree_decomposition(mutated, g)
        assert not ok
        assert witness["kind"] == "edge_not_covered"
        assert witness["edge"] == [1, 2]
        # two uncovered edges, (1,2) and (3,4): supernodes 1 and 2 hang
        # apart under the root, and so do 3 (under 2) and 4; the witness
        # is the one listed first in the edge list, not the lower ids
        g = WeightedGraph(6, [(0, 1, 1.0), (3, 4, 1.0), (2, 3, 1.0), (4, 5, 1.0), (1, 2, 1.0)])
        mutated = manual_tree(g, [[0], [1], [2], [3], [4], [5]], [None, 0, 0, 2, 0, 4])
        ok, witness = verify_tree_decomposition(mutated, g)
        assert not ok
        assert witness == {"kind": "edge_not_covered", "edge": [3, 4]}


def all_valid_nets(skeleton, g, delta):
    """Enumeration oracle: every subset satisfying both net conditions."""
    verts = skeleton.vertices()
    valid = []
    for r in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            if not verify_net(skeleton, g, delta, list(sub)):
                valid.append(set(sub))
    return valid


class TestDeltaNet:
    def test_single_vertex(self):
        g = path_graph(1)
        skel = SkeletonTree(root=0, edges=[])
        assert delta_net(skel, g, 2.0) == [0]

    def test_path_of_six(self):
        g = path_graph(6)
        skel = SkeletonTree(root=0, edges=[(i, i + 1) for i in range(5)])
        net = delta_net(skel, g, 2.0)
        assert net == [0, 3]
        assert verify_net(skel, g, 2.0, net) == []
        assert set(net) in all_valid_nets(skel, g, 2.0)

    def test_star_radius_three(self):
        g = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
        skel = SkeletonTree(root=0, edges=[(0, i) for i in range(1, 5)])
        assert delta_net(skel, g, 3.0) == [0]

    def test_net_conditions_on_built_trees(self):
        g = grid_graph(5, 5)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=3))
        for sn in tree.supernodes:
            net = delta_net(sn.skeleton, g, 2.0)
            assert sn.skeleton.root in net
            assert verify_net(sn.skeleton, g, 2.0, net) == []

    def test_net_sparsity_soft_surrogate(self):
        # soft check: net points within alpha*delta of any domain vertex,
        # counted against 2*(alpha+1)*w; reported, not asserted (the
        # constant behind the bound is unstated)
        delta = 2.0
        g = grid_graph(5, 5)
        tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=3))
        rep = verify_buffered(tree, g, delta, 0.0, 25)
        w = rep.max_bag_size
        from minor_decomp.separator import TreeMetrics

        metrics = TreeMetrics(tree, g)
        worst = 0.0
        for sn in tree.supernodes:
            net = metrics.net(sn.id, delta)
            point_dists = np.stack([shortest_in_domain(metrics, sn.id, p) for p in net])
            dom = np.flatnonzero(tree.domains[sn.id])
            for alpha in (1, 2, 4):
                counts = (point_dists[:, dom] <= alpha * delta).sum(axis=0)
                ratio = counts.max() / (2 * (alpha + 1) * w)
                worst = max(worst, float(ratio))
        print(f"net sparsity surrogate: worst count/bound ratio = {worst:.2f}")
        assert np.isfinite(worst)


def shortest_in_domain(metrics, node, p):
    from minor_decomp._kernels import multisource_dijkstra

    g = metrics.g
    return multisource_dijkstra(
        g.indptr, g.indices, g.weights, np.array([p], dtype=np.int64),
        metrics.tree.domains[node], np.inf,
    )


class TestJson:
    def test_round_trip_byte_stable(self):
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=7))
        text = tree_to_json(tree)
        tree2 = tree_from_json(text)
        compute_domains_and_bags(tree2, g)
        assert tree_to_json(tree2) == text
        assert tree2.bags == tree.bags

    def test_rejects_bad_ids(self):
        with pytest.raises(StructuralError):
            tree_from_json(json.dumps({"supernodes": [{"id": 1, "parent": None,
                                                       "vertices": [0],
                                                       "skeleton": {"root": 0, "edges": []}}]}))
