import numpy as np
import pytest

from minor_decomp import cop_builder
from minor_decomp.cop_builder import CopConfig, build_cop_decomposition, build_with_gamma_search
from minor_decomp.generators import FamilySpec, generate
from minor_decomp.graph_core import StructuralError, WeightedGraph
from minor_decomp.padded import TexpSampler
from minor_decomp.partition_tree import tree_to_json, verify_buffered
from minor_decomp.seeding import derive_rng

from util import grid_graph, path_graph


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
