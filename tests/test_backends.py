"""The numba kernel and the numpy fallback must be interchangeable."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from minor_decomp import _kernels

from util import random_graph

needs_numba = pytest.mark.skipif(not _kernels.have_numba(), reason="numba unavailable")


@needs_numba
def test_kernel_agreement_restrict_and_cutoff():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(3, 25))
        g = random_graph(n, 0.3, rng)
        restrict = rng.random(n) < 0.8
        srcs = np.flatnonzero(restrict)
        if srcs.size == 0:
            continue
        sources = srcs[: max(1, srcs.size // 3)].astype(np.int64)
        cutoff = float(rng.choice([np.inf, 1.0, 2.5]))
        a = _kernels.multisource_dijkstra(
            g.indptr, g.indices, g.weights, sources, restrict, cutoff, backend="numba"
        )
        b = _kernels.multisource_dijkstra(
            g.indptr, g.indices, g.weights, sources, restrict, cutoff, backend="numpy"
        )
        assert np.array_equal(a, b)


# builds a tree, a cover and a sample on a 6x6 grid and prints them as JSON;
# unit weights make every distance an integer, so both backends must print
# the same thing
PIPELINE_SNIPPET = """
import json
from minor_decomp.cop_builder import CopConfig, build_cop_decomposition
from minor_decomp.graph_core import full_mask
from minor_decomp.padded import sample_padded
from minor_decomp.partition_tree import tree_to_json
from minor_decomp.separator import subtree_view
from minor_decomp.sparse_cover import cover
from util import grid_graph

g = grid_graph(6, 6)
tree = build_cop_decomposition(g, CopConfig(delta=2.0, seed=7))
c = cover(subtree_view(tree, g), full_mask(36), rho=1.0, delta=2.0)
pp = sample_padded(g, c, 12.0, 24.0, seed=3)
print(json.dumps([
    tree_to_json(tree),
    [list(cl.key) for cl in c.clusters],
    [cl.vertices.tolist() for cl in c.clusters],
    pp.assignment.tolist(),
]))
"""


@needs_numba
def test_pipeline_outputs_identical_across_backends():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    path = os.pathsep.join(p for p in (src_dir, tests_dir, os.environ.get("PYTHONPATH")) if p)
    outputs = {}
    for backend in ("numba", "numpy"):
        env = dict(os.environ, MINOR_DECOMP_BACKEND=backend, PYTHONPATH=path)
        res = subprocess.run(
            [sys.executable, "-c", PIPELINE_SNIPPET], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        outputs[backend] = json.loads(res.stdout)
    assert outputs["numba"] == outputs["numpy"]


def test_env_flag_selects_numpy():
    env = dict(os.environ, MINOR_DECOMP_BACKEND="numpy")
    res = subprocess.run(
        [sys.executable, "-m", "minor_decomp.cli", "pipeline", "--family", "grid",
         "--rows", "4", "--cols", "4", "--delta", "2", "--rho", "1", "--seed", "1",
         "--verify", "structural"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["config"]["backend"] == "numpy"


def test_env_flag_rejects_unknown():
    env = dict(os.environ, MINOR_DECOMP_BACKEND="cuda")
    res = subprocess.run(
        [sys.executable, "-c", "import minor_decomp"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode != 0
    assert "MINOR_DECOMP_BACKEND" in res.stderr
