import numpy as np
import pytest

from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.graph_core import StructuralError, WeightedGraph
from minor_decomp.partition_tree import PartitionTree, verify_buffered
from minor_decomp.separator import (
    components_after_removal,
    separator_supernodes,
    subtree_view,
    subtree_width,
    threateners,
)

from util import grid_graph, manual_tree, path_graph


def old_separator_supernodes(t):
    """The selection as first written: rescan every unmarked member after
    each pick.  Kept here as the definition the ordered pass must equal."""
    if t.is_empty():
        return [], {}
    tree = t.tree
    depth = tree.depth
    members_sorted = sorted(t.members)
    unmarked = set(t.members)
    selected, marked_by = [], {}
    while unmarked:
        x = min(unmarked, key=lambda m: (depth[m], m))
        selected.append(x)
        m_set = set(tree.bags[x]) & t.members
        for eta in members_sorted:
            if eta in unmarked and tree.is_ancestor(x, eta) and m_set.intersection(tree.bags[eta]):
                unmarked.discard(eta)
                marked_by[eta] = x
    return selected, marked_by


def old_components_after_removal(t, separators):
    """Components as first written: climb to the topmost remaining ancestor,
    with path compression.  Returns [(root, sorted members)] by root id."""
    remaining = t.members - set(separators)
    tree = t.tree
    top = {}

    def find_top(node):
        chain = []
        cur = node
        while cur not in top:
            chain.append(cur)
            p = tree.supernodes[cur].parent
            if p is None or p not in remaining:
                top[cur] = cur
                break
            cur = p
        root = top[cur]
        for c in chain:
            top[c] = root
        return root

    groups = {}
    for node in remaining:
        groups.setdefault(find_top(node), set()).add(node)
    return [(r, sorted(groups[r])) for r in sorted(groups)]


def recursion_views(view):
    """Every subtree view the cover recursion visits, the full view first."""
    out, stack = [], [view]
    while stack:
        t = stack.pop()
        out.append(t)
        if not t.is_empty():
            sep = separator_supernodes(t)
            stack.extend(components_after_removal(t, sep.supernodes))
    return out


def random_connected(rng, n) -> WeightedGraph:
    """Random connected graph: float weights in [0.1, 3), one zero-weight edge."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 3.0 / n:
                edges.append((u, v))
    weights = rng.uniform(0.1, 3.0, len(edges))
    weights[int(rng.integers(0, len(edges)))] = 0.0
    relabel = rng.permutation(n)
    return WeightedGraph(n, [(int(relabel[u]), int(relabel[v]), float(w)) for (u, v), w in zip(edges, weights)])


def binary_singletons(n):
    """Heap-ordered binary tree of n unit edges, one supernode per vertex."""
    parents = [None] + [(v - 1) // 2 for v in range(1, n)]
    g = WeightedGraph(n, [(p, v, 1.0) for v, p in enumerate(parents) if p is not None])
    return g, manual_tree(g, [[v] for v in range(n)], parents)


def shuffled_ids(tree, g, rng):
    """The same tree with its supernode ids permuted, so that a child's id
    can be smaller than its parent's (the builder numbers parents first)."""
    new_id = rng.permutation(len(tree.supernodes))
    old_of = np.argsort(new_id)
    supernodes = [tree.supernodes[int(i)] for i in old_of]
    parents = [None if sn.parent is None else int(new_id[sn.parent]) for sn in supernodes]
    return manual_tree(
        g,
        [sn.vertices for sn in supernodes],
        parents,
        [sn.skeleton.root for sn in supernodes],
        [sn.skeleton.edges for sn in supernodes],
    )


def singleton_chain(k):
    """Path graph with one supernode per vertex, chained root -> leaf."""
    g = path_graph(k)
    tree = manual_tree(g, [[i] for i in range(k)], [None] + list(range(k - 1)))
    return g, tree


class TestSeparatorSelection:
    def test_single_node(self):
        g = path_graph(1)
        tree = manual_tree(g, [[0]], [None])
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert sep.supernodes == [0]
        assert sep.marking_trace == {0: 0}

    def test_empty_subtree(self):
        g = path_graph(2)
        tree = manual_tree(g, [[0, 1]], [None])
        view = subtree_view(tree, g, members=[])
        sep = separator_supernodes(view)
        assert sep.supernodes == [] and sep.marking_trace == {}

    def test_chain_all_adjacent_to_root(self):
        # every bag on a 3-vertex chain with groups {0},{1,2}... contains the
        # root, so the root's selection marks everything
        g = path_graph(5)
        tree = manual_tree(g, [[0, 1], [2, 3], [4]], [None, 0, 1])
        # bag(1) = {0,1}; bag(2) = {1,2}: node 2 is NOT adjacent to the root
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert sep.supernodes[0] == view.root

    def test_root_bag_chain_marks_all(self):
        # star: all leaves adjacent to the center; one separator suffices
        g = grid_graph(1, 4)
        tree = manual_tree(g, [[0, 1, 2, 3]], [None])
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert sep.supernodes == [0]

    def test_singleton_chain_alternates(self):
        # bags on the chain are {i-1, i}; selecting the root marks node 1,
        # the next unmarked minimum-depth node is 2, and so on
        g, tree = singleton_chain(8)
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert sep.supernodes == [0, 2, 4, 6]
        assert sep.marking_trace == {0: 0, 1: 0, 2: 2, 3: 2, 4: 4, 5: 4, 6: 6, 7: 6}

    def test_depth2_node_outside_roots_bag_selected_second(self):
        g, tree = singleton_chain(8)
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert tree.depth[sep.supernodes[1]] == 2
        assert 0 not in tree.bags[sep.supernodes[1]]

    def test_selection_depth_nondecreasing(self):
        for seed in range(4):
            g = grid_graph(5, 5)
            tree = build_cop_decomposition(g, CopConfig(delta=1.5, seed=seed))
            view = subtree_view(tree, g)
            sep = separator_supernodes(view)
            depths = [tree.depth[x] for x in sep.supernodes]
            assert depths == sorted(depths)
            assert set(sep.marking_trace) == view.members

    def test_termination_bound(self):
        g = grid_graph(4, 4)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=0))
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert len(sep.supernodes) <= len(view.members)


class TestOrderedPassEqualsDefinition:
    """Selection and component split pinned to the rescanning algorithms."""

    @staticmethod
    def assert_matches_definition(view):
        views = recursion_views(view)
        for t in views:
            sep = separator_supernodes(t)
            selected, marked_by = old_separator_supernodes(t)
            assert sep.supernodes == selected
            assert list(sep.marking_trace.items()) == list(marked_by.items())
            comps = components_after_removal(t, sep.supernodes)
            assert [(c.root, sorted(c.members)) for c in comps] == old_components_after_removal(t, selected)
        return views

    def test_built_trees_on_random_graphs(self):
        rng = np.random.default_rng(10)
        deep = 0
        for trial in range(12):
            g = random_connected(rng, int(rng.integers(8, 60)))
            cfg = CopConfig(delta=float(rng.uniform(0.3, 3.0)), seed=trial)
            built = build_cop_decomposition(g, cfg)
            for tree in (built, shuffled_ids(built, g, rng)):
                views = self.assert_matches_definition(subtree_view(tree, g))
                deep += sum(1 for t in views if t.root not in (None, tree.root))
        assert deep > 0  # sub-views below the root were checked too

    def test_singleton_chains(self):
        for k in range(1, 10):
            g, tree = singleton_chain(k)
            self.assert_matches_definition(subtree_view(tree, g))

    def test_binary_singletons(self):
        g, tree = binary_singletons(63)
        self.assert_matches_definition(subtree_view(tree, g))

    def test_no_ancestor_queries(self, monkeypatch):
        # the selection reads preorder slices of the tree, never pairwise
        # ancestor questions
        g, tree = binary_singletons(511)
        view = subtree_view(tree, g)
        expect = old_separator_supernodes(view)

        def refuse(self, a, b):
            raise AssertionError("is_ancestor called")

        monkeypatch.setattr(PartitionTree, "is_ancestor", refuse)
        sep = separator_supernodes(view)
        assert (sep.supernodes, sep.marking_trace) == expect
        recursion_views(view)


class TestSubtreeWidth:
    def test_empty_is_zero(self):
        g = path_graph(2)
        tree = manual_tree(g, [[0, 1]], [None])
        assert subtree_width(subtree_view(tree, g, members=[])) == 0

    def test_single_node_is_one(self):
        g = path_graph(2)
        tree = manual_tree(g, [[0, 1]], [None])
        assert subtree_width(subtree_view(tree, g)) == 1

    def test_grid_tree_within_planar_bound(self):
        g = grid_graph(5, 5)
        tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=1))
        view = subtree_view(tree, g)
        assert subtree_width(view) <= 4
        assert subtree_width(view) == max(len(b) for b in tree.bags)

    def test_reduction_after_removal(self):
        for seed in range(6):
            g = grid_graph(5, 5)
            tree = build_cop_decomposition(g, CopConfig(delta=1.5, seed=seed))
            view = subtree_view(tree, g)
            stack = [view]
            while stack:
                t = stack.pop()
                if t.is_empty():
                    continue
                w = subtree_width(t)
                sep = separator_supernodes(t)
                for comp in components_after_removal(t, set(sep.supernodes)):
                    assert subtree_width(comp) <= w - 1
                    stack.append(comp)

    def test_invalid_members_rejected(self):
        g, tree = singleton_chain(4)
        with pytest.raises(StructuralError, match="connected"):
            subtree_view(tree, g, members=[0, 2])


class TestThreateners:
    def test_root_vertex_alpha_one(self):
        g = path_graph(3)
        tree = manual_tree(g, [[0, 1, 2]], [None])
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        assert threateners(0, sep, view, alpha=1.0, delta=1.0) == [0]

    def test_distance_filter(self):
        g, tree = singleton_chain(8)
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        # vertex 7 lies in dom(0), dom(2), dom(4), dom(6); with alpha*delta
        # = 1 only separator 6 has a bag member within reach
        assert threateners(7, sep, view, alpha=1.0, delta=1.0) == [6]
        # below the nearest separator distance the list is empty
        assert threateners(7, sep, view, alpha=1.0, delta=0.5) == []

    def test_alpha_below_one_rejected(self):
        g, tree = singleton_chain(4)
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        with pytest.raises(StructuralError):
            threateners(0, sep, view, alpha=0.5, delta=1.0)

    def test_grid_bound_against_gamma_eff(self):
        # |X[v]| <= 2 alpha delta / gamma_eff + 2 whenever gamma_eff > 0
        delta = 2.0
        g = grid_graph(5, 5)
        for seed in range(4):
            tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=seed))
            rep = verify_buffered(tree, g, delta, 0.0, g.vertex_count)
            view = subtree_view(tree, g)
            sep = separator_supernodes(view)
            gamma_eff = rep.gamma_eff
            for alpha in (1.0, 2.0, 4.0):
                for v in range(g.vertex_count):
                    x_v = threateners(v, sep, view, alpha, delta)
                    if gamma_eff == np.inf:
                        chain_len = len(tree.ancestors_of(int(tree.node_of[v]), proper=False))
                        assert len(x_v) <= chain_len
                    else:
                        assert gamma_eff > 0
                        assert len(x_v) <= 2 * alpha * delta / gamma_eff + 2

    def test_threateners_brute_force_oracle(self):
        # re-derive the membership conditions directly from distance maps
        from minor_decomp._kernels import multisource_dijkstra

        delta = 2.0
        g = grid_graph(5, 5)
        tree = build_cop_decomposition(g, CopConfig(delta=delta, seed=2))
        view = subtree_view(tree, g)
        sep = separator_supernodes(view)
        alpha = 2.0
        for v in range(g.vertex_count):
            expect = []
            for x in sep.supernodes:
                if not tree.domains[x][v]:
                    continue
                ok = False
                for xp in tree.bags[x]:
                    if xp not in view.members:
                        continue
                    dist = multisource_dijkstra(
                        g.indptr, g.indices, g.weights,
                        np.asarray(tree.supernodes[xp].vertices, dtype=np.int64),
                        tree.domains[xp], np.inf,
                    )
                    if dist[v] <= alpha * delta:
                        ok = True
                        break
                if ok:
                    expect.append(x)
            assert threateners(v, sep, view, alpha, delta) == expect
