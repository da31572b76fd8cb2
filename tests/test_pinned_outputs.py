"""Pin the builder, cover and sampler outputs to digests of known-good runs.

Every choice in the pipeline is resolved by smallest vertex id or a derived
seed, so a build is a pure function of (graph, config) and a refactor of
any layer must leave these SHA-256 digests unchanged.
"""

import hashlib

import numpy as np
import pytest

from minor_decomp.cli import _build_cover_for_graph, _dump_json
from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.generators import FamilySpec, generate
from minor_decomp.graph_core import WeightedGraph, full_mask
from minor_decomp.padded import sample_padded
from minor_decomp.partition_tree import tree_to_json
from minor_decomp.separator import subtree_view
from minor_decomp.sparse_cover import cover, cover_to_json_obj

DELTA, RHO = 2.0, 1.0
DELTA_P = (4.0 + 8.0 * RHO) * DELTA
BETA = DELTA_P / (RHO * DELTA)

SPECS = {
    "tree": dict(family="tree", n=63),
    "grid": dict(family="grid", rows=8, cols=8),
    "series_parallel": dict(family="series_parallel", n=40),
    "outerplanar": dict(family="outerplanar", n=32),
}

# (family, seed) -> (tree_to_json, cluster vertex lists, five sample_padded assignments)
DIGESTS = {
    ("tree", 1): (
        "1fe0107a82708ab1a183d115d014c1acc77ca5be72403457308ae57a91efe2a6",
        "72c0ca821207ce1ee644985a534d0411bd8901cad2f8dba7100b384b081d3fe0",
        "1c71ec6b184ef378eafadf86f731339eca87693678f565d78b071e0bcbebaae7",
    ),
    ("tree", 2): (
        "0d2d524b69e876cef861cba525b345a5db384ffdcf701e8c4e94ee61e289d1ed",
        "72c0ca821207ce1ee644985a534d0411bd8901cad2f8dba7100b384b081d3fe0",
        "1c71ec6b184ef378eafadf86f731339eca87693678f565d78b071e0bcbebaae7",
    ),
    ("grid", 1): (
        "7803e03e0cfdb8b28b11d1b4d8ab4aa7a40f04080985e402ab828d8847bcffdf",
        "c5c985b21ac653c0aa2704c4d1d5e7d29a94f246dc2b926d54246ecc699fff21",
        "5f11cddef00be034f055fa4b9f7b211f183f3adfd7d54abbc638b8f5e6e0bc5e",
    ),
    ("grid", 2): (
        "7803e03e0cfdb8b28b11d1b4d8ab4aa7a40f04080985e402ab828d8847bcffdf",
        "c5c985b21ac653c0aa2704c4d1d5e7d29a94f246dc2b926d54246ecc699fff21",
        "5f11cddef00be034f055fa4b9f7b211f183f3adfd7d54abbc638b8f5e6e0bc5e",
    ),
    ("series_parallel", 1): (
        "584e9b903f542f51c5b504121a8c731fb68acd8799ac73956a5eb4d115a60b04",
        "5c0894acad58feb388774507a1ca6cdd6ae73b4dd21fad46fadb4c5bbabbc83e",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
    ),
    ("series_parallel", 2): (
        "1230ea6907c45787b2e25a8edb1803d7382931fceb2ca50f06fcadda98acd87a",
        "4b7f14695eddcbba6bd79db4fbdf03aa7c89f1fe30b32cb9caf91632ef01f3b9",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
    ),
    ("outerplanar", 1): (
        "81eef2ada9cd53ce40185ddcedde39ae94afbf72f205c4bb565b99477839bb87",
        "bcc9bcfc670935c6018dc26a74956a373b655f8930dd55ab074d816d7d233780",
        "bfe492baf731a0dbf6e1e050f5bc3fe8c1b049383194dcdf82f023bfa409f462",
    ),
    ("outerplanar", 2): (
        "0bb05903b2fa9b7c535f622600ab8d412930b11470f5602bc96e203f5b03d680",
        "bcc9bcfc670935c6018dc26a74956a373b655f8930dd55ab074d816d7d233780",
        "bfe492baf731a0dbf6e1e050f5bc3fe8c1b049383194dcdf82f023bfa409f462",
    ),
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def pipeline_digests(family: str, seed: int) -> tuple[str, str, str]:
    g = generate(FamilySpec(weights="unit", seed=seed, **SPECS[family]))
    tree = build_cop_decomposition(g, CopConfig(delta=DELTA, seed=seed))
    c = cover(subtree_view(tree, g), full_mask(g.vertex_count), RHO, DELTA)
    draws = [sample_padded(g, c, BETA, DELTA_P, seed=s).assignment for s in range(5)]
    return (
        _sha([tree_to_json(tree).encode()]),
        _sha([np.asarray(cl.vertices, dtype=np.int64).tobytes() for cl in c.clusters]),
        _sha([np.asarray(a, dtype=np.int64).tobytes() for a in draws]),
    )


@pytest.mark.parametrize("family,seed", sorted(DIGESTS))
def test_outputs_match_pinned_digests(family, seed):
    assert pipeline_digests(family, seed) == DIGESTS[(family, seed)]


# seed -> (every component's tree_to_json, merged cover JSON, five
# sample_padded assignments) for the disconnected input below, recorded
# when components were still built on relabelled induced copies
MULTI_DIGESTS = {
    1: (
        "d04a9463abb3f46a5477472cbef78fcb8e05131df3cfdf603dbc1625c70cd2e4",
        "bc9805c69ffba2ee55f4c31e85ad32dbf7c93ae58052bdf0f1f88ac0581a482c",
        "c8b8673d992e60af7f476187fca43c90cbc0a61afd2328623405a4465ccd66ba",
    ),
    2: (
        "998f2b8104e573d622d9284da45dd9ad4925409698a7d90d323eb3ab6d49a762",
        "90795152a53b86dd75e5929f006f58385d3825e31ef8c2131158781f3bd28fc3",
        "c4d851fe7c7e968518c4e97430f154753c84e4328d1baefe6189a3c8c78b80cb",
    ),
}


def disconnected_graph(seed: int) -> WeightedGraph:
    """A 6x6 grid, a geometric-weight tree (n=40), a series-parallel graph
    (n=30) and two isolated vertices, ids interleaved by a permutation."""
    parts = [
        generate(FamilySpec(family="grid", rows=6, cols=6, weights="unit", seed=seed)),
        generate(FamilySpec(family="tree", n=40, weights="geometric", seed=seed)),
        generate(FamilySpec(family="series_parallel", n=30, weights="uniform", seed=seed)),
    ]
    n = sum(p.vertex_count for p in parts) + 2
    relabel = np.random.default_rng(seed).permutation(n)
    edges, offset = [], 0
    for p in parts:
        edges += [(int(relabel[offset + u]), int(relabel[offset + v]), w) for u, v, w in p.edges()]
        offset += p.vertex_count
    return WeightedGraph(n, edges)


@pytest.mark.parametrize("seed", sorted(MULTI_DIGESTS))
def test_components_match_pinned_digests(seed):
    g = disconnected_graph(seed)
    trees, _views, merged = _build_cover_for_graph(g, DELTA, RHO, seed)
    assert len(trees) == 5
    draws = [sample_padded(g, merged, BETA, DELTA_P, seed=s).assignment for s in range(5)]
    assert (
        _sha([tree_to_json(t).encode() for t in trees]),
        _sha([_dump_json(cover_to_json_obj(merged)).encode()]),
        _sha([np.asarray(a, dtype=np.int64).tobytes() for a in draws]),
    ) == MULTI_DIGESTS[seed]
