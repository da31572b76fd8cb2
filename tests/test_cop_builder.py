import numpy as np
import pytest

from minor_decomp import cop_builder
from minor_decomp.cop_builder import CopConfig, build_cop_decomposition, build_with_gamma_search
from minor_decomp.generators import FamilySpec, generate
from minor_decomp.graph_core import StructuralError, WeightedGraph, connected_components
from minor_decomp.padded import TexpSampler
from minor_decomp.partition_tree import PartitionTree, SkeletonTree, Supernode, tree_to_json, verify_buffered
from minor_decomp.seeding import derive_rng

from util import g_induced, grid_graph, path_graph


class TestBuild:
    def test_single_vertex(self):
        g = path_graph(1)
        tree = build_cop_decomposition(g, CopConfig(delta=1.0, seed=0))
        assert len(tree) == 1
        sn = tree.supernodes[0]
        assert sn.vertices.tolist() == [0]
        assert sn.skeleton.root == 0 and sn.skeleton.edges == []
        assert sn.skeleton.leaf_count == 0

    def test_path_swallowed_by_large_radius(self):
        # seed 0 draws a first radius of ~2.92 >= 2, covering the whole path
        g = path_graph(3)
        cfg = CopConfig(delta=3.0, seed=0)
        sampler = TexpSampler(2.0 + 2.0 * np.log(3), rng=derive_rng(0, "cop-radius"))
        assert cfg.delta * sampler.sample() >= 2.0
        tree = build_cop_decomposition(g, cfg)
        assert len(tree) == 1
        assert tree.supernodes[0].vertices.tolist() == [0, 1, 2]

    def test_grid_fixed_seed_properties(self):
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=7))
        assert len(tree) > 1
        rep = verify_buffered(tree, g, delta=2.0, gamma=0.0, w=g.vertex_count)
        assert rep.passed
        assert rep.max_radius <= 2.0
        # planar graphs are K5-minor-free, so bags stay within r - 1 = 4
        assert rep.max_bag_size <= 4

    def test_rejects_disconnected(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(StructuralError, match="connected"):
            build_cop_decomposition(g, CopConfig(delta=1.0, seed=0))

    def test_one_components_call_per_build(self, monkeypatch):
        # the connectivity check is the only labeling pass; each supernode's
        # component comes from its root sweep, so the build stays linear
        calls = []
        orig = cop_builder.connected_components

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(cop_builder, "connected_components", counting)
        g = generate(FamilySpec(family="tree", n=127, weights="unit", seed=1))
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        assert len(tree) > 1
        assert len(calls) == 1
        # a build inside a universe makes the same single call
        calls.clear()
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1), universe=np.arange(63))
        assert len(tree) > 1
        assert len(calls) == 1

    def test_determinism_byte_for_byte(self):
        g = grid_graph(5, 5)
        a = build_cop_decomposition(g, CopConfig(delta=2.0, seed=13))
        b = build_cop_decomposition(g, CopConfig(delta=2.0, seed=13))
        assert tree_to_json(a) == tree_to_json(b)
        assert [sn.radius for sn in a.supernodes] == [sn.radius for sn in b.supernodes]
        # a different seed draws different radii (the partitions may still
        # coincide when radii fall in the same unit-length bucket)
        c = build_cop_decomposition(g, CopConfig(delta=2.0, seed=14))
        assert [sn.radius for sn in c.supernodes] != [sn.radius for sn in a.supernodes]

    def test_radius_and_skeleton_invariants(self):
        from minor_decomp.graph_core import shortest_paths

        for seed in range(5):
            g = grid_graph(5, 5)
            tree = build_cop_decomposition(g, CopConfig(delta=2.5, seed=seed))
            rep = verify_buffered(tree, g, delta=2.5, gamma=0.0, w=g.vertex_count)
            assert rep.passed
            for sn in tree.supernodes:
                assert sn.radius <= 2.5
                assert sn.skeleton.leaf_count <= max(len(tree.bags[sn.id]) - 1, 0)
                # every member sits within the recorded grow radius of the
                # skeleton, measured inside the supernode itself
                own = np.zeros(25, dtype=np.bool_)
                own[sn.vertices] = True
                dist = shortest_paths(g, sn.skeleton.vertices(), restrict=own)
                assert dist[sn.vertices].max() <= sn.radius

    def test_family_bag_bounds(self):
        # K_r-minor-free families keep bag sizes within r - 1
        cases = [
            (FamilySpec(family="tree", n=31), 2),
            (FamilySpec(family="outerplanar", n=20), 3),
            (FamilySpec(family="series_parallel", n=24, seed=2), 3),
            (FamilySpec(family="grid", rows=5, cols=5), 4),
        ]
        for spec, bound in cases:
            g = generate(spec)
            for seed in range(5):
                tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=seed))
                assert max(len(b) for b in tree.bags) <= bound


def random_disconnected(rng) -> WeightedGraph:
    """Random components with float weights in [0.1, 3), one zero-weight
    edge and two isolated vertices, vertex ids interleaved by a permutation."""
    sizes = [int(rng.integers(2, 14)) for _ in range(3)] + [1, 1]
    edges, offset = [], 0
    for size in sizes:
        for v in range(1, size):
            edges.append((offset + int(rng.integers(0, v)), offset + v))  # spanning tree
        for u in range(size):
            for v in range(u + 1, size):
                if (offset + u, offset + v) not in edges and rng.random() < 0.25:
                    edges.append((offset + u, offset + v))
        offset += size
    weights = rng.uniform(0.1, 3.0, len(edges))
    weights[int(rng.integers(0, len(edges)))] = 0.0
    relabel = rng.permutation(offset)
    return WeightedGraph(offset, [(int(relabel[u]), int(relabel[v]), float(w)) for (u, v), w in zip(edges, weights)])


def relabelled(tree: PartitionTree, ids: np.ndarray) -> PartitionTree:
    """A tree built on a copy of G[ids] (vertex i standing for ids[i]) in the ids of G."""
    return PartitionTree(
        [
            Supernode(
                id=sn.id,
                vertices=np.sort(ids[sn.vertices]),
                skeleton=SkeletonTree(
                    root=int(ids[sn.skeleton.root]),
                    edges=sorted((int(ids[u]), int(ids[v])) for u, v in sn.skeleton.edges),
                ),
                parent=sn.parent,
                creation_index=sn.creation_index,
                radius=sn.radius,
            )
            for sn in tree.supernodes
        ],
        root=tree.root,
    )


class TestUniverse:
    def test_in_place_equals_induced_copy(self):
        # each component built in place inside its mask equals, bit for bit,
        # the build on a copy of the component relabelled to the ids of G
        rng = np.random.default_rng(2024)
        for _ in range(12):
            g = random_disconnected(rng)
            comps = connected_components(g)
            assert len(comps) >= 5
            for comp in comps:
                universe = np.zeros(g.vertex_count, dtype=np.bool_)
                universe[comp] = True
                sub = g_induced(g, comp)
                for seed in range(3):
                    cfg = CopConfig(delta=float(rng.uniform(0.5, 4.0)), seed=seed)
                    tree = build_cop_decomposition(g, cfg, universe)
                    sub_tree = build_cop_decomposition(sub, cfg)
                    ref = relabelled(sub_tree, comp)
                    assert tree_to_json(tree) == tree_to_json(ref)
                    assert [sn.radius for sn in tree.supernodes] == [sn.radius for sn in ref.supernodes]
                    assert tree.bags == sub_tree.bags
                    assert np.array_equal(tree.domains[tree.root], universe)

    def test_gamma_search_in_place_equals_induced_copy(self):
        rng = np.random.default_rng(7)
        g = random_disconnected(rng)
        for comp in connected_components(g):
            cfg = CopConfig(delta=1.5, seed=3, max_gamma_retries=4)
            tree, rep = build_with_gamma_search(g, 1.5, 0.5, cfg, universe=comp)
            sub_tree, sub_rep = build_with_gamma_search(g_induced(g, comp), 1.5, 0.5, cfg)
            assert tree_to_json(tree) == tree_to_json(relabelled(sub_tree, comp))
            assert rep.gamma_eff == sub_rep.gamma_eff
            assert rep.target_not_met == sub_rep.target_not_met

    def test_rejects_disconnected_universe(self):
        g = WeightedGraph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 0.5)])
        with pytest.raises(StructuralError, match="connected"):
            build_cop_decomposition(g, CopConfig(delta=1.0, seed=0), universe=[0, 1, 2])
        with pytest.raises(StructuralError, match="connected"):
            build_cop_decomposition(g, CopConfig(delta=1.0, seed=0), universe=[])
        # a connected universe inside a disconnected graph builds
        tree = build_cop_decomposition(g, CopConfig(delta=1.0, seed=0), universe=[2, 3, 4])
        assert sorted(int(v) for sn in tree.supernodes for v in sn.vertices) == [2, 3, 4]


class TestGammaSearch:
    def test_target_zero_first_attempt(self):
        g = grid_graph(4, 4)
        cfg = CopConfig(delta=2.0, seed=3, max_gamma_retries=5)
        tree, rep = build_with_gamma_search(g, 2.0, 0.0, cfg)
        assert not rep.target_not_met
        assert rep.gamma_eff >= 0.0

    def test_tree_family_meets_quarter_delta(self):
        # on trees, non-adjacent ancestors sit at distance >= 2; a target of
        # delta/4 should be met quickly across seeds
        delta = 2.0
        g = generate(FamilySpec(family="tree", n=31))
        hits = 0
        for seed in range(20):
            cfg = CopConfig(delta=delta, seed=seed, max_gamma_retries=4)
            _tree, rep = build_with_gamma_search(g, delta, delta / 4.0, cfg)
            hits += not rep.target_not_met
        assert hits == 20

    def test_k5_records_gamma(self):
        g = generate(FamilySpec(family="complete", n=5))
        cfg = CopConfig(delta=1.0, seed=0, max_gamma_retries=3)
        tree, rep = build_with_gamma_search(g, 1.0, 0.0, cfg)
        assert not rep.target_not_met
        counts = np.zeros(5, dtype=int)
        for sn in tree.supernodes:
            counts[sn.vertices] += 1
        assert (counts == 1).all()
        # every ancestor of every supernode is adjacent on K5, so the buffer
        # condition is vacuous and gamma_eff degenerates to +inf
        assert rep.gamma_eff == np.inf

    def test_unreachable_target_flagged(self):
        g = grid_graph(4, 4)
        cfg = CopConfig(delta=2.0, seed=3, max_gamma_retries=3)
        tree, rep = build_with_gamma_search(g, 2.0, 1e9, cfg)
        assert rep.target_not_met
        assert rep.gamma_eff < 1e9
