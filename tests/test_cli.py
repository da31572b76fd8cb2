import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "minor_decomp.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "grid.el"
    res = run_cli("generate", "--family", "grid", "--rows", "5", "--cols", "5",
                  "--out", str(path))
    assert res.returncode == 0
    return path


class TestGenerate:
    def test_writes_edge_list(self, tmp_path):
        out = tmp_path / "g.el"
        res = run_cli("generate", "--family", "tree", "--n", "7", "--out", str(out))
        assert res.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header == "7 6"

    def test_stdout_default(self):
        res = run_cli("generate", "--family", "grid", "--rows", "2", "--cols", "2")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "4 4"

    def test_unknown_family_usage_error(self):
        res = run_cli("generate", "--family", "moebius")
        assert res.returncode == 2


class TestDecomposeSeparate:
    def test_decompose_and_verify(self, grid_file, tmp_path):
        tree_out = tmp_path / "tree.json"
        res = run_cli("decompose", "--input", str(grid_file), "--delta", "2",
                      "--seed", "3", "--out", str(tree_out))
        assert res.returncode == 0
        obj = json.loads(tree_out.read_text())
        assert obj["schema_version"] == 1
        res = run_cli("verify", "--kind", "tree", "--graph", str(grid_file),
                      "--input", str(tree_out), "--delta", "2")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["passed"] is True

    def test_gamma_target_on_tree_family(self, tmp_path):
        g = tmp_path / "t.el"
        run_cli("generate", "--family", "tree", "--n", "31", "--out", str(g))
        res = run_cli("decompose", "--input", str(g), "--delta", "2",
                      "--gamma-target", "0.5", "--gamma-retries", "4",
                      "--seed", "1", "--out", str(tmp_path / "tt.json"))
        assert res.returncode == 0

    def test_separate_reports_width_drop(self, grid_file, tmp_path):
        tree_out = tmp_path / "tree.json"
        run_cli("decompose", "--input", str(grid_file), "--delta", "2",
                "--seed", "3", "--out", str(tree_out))
        res = run_cli("separate", "--graph", str(grid_file), "--input", str(tree_out))
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        before = obj["subtree_width_before"]
        assert all(c["subtree_width_after"] <= before - 1 for c in obj["components"])

    def test_malformed_graph_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 1\n")
        res = run_cli("decompose", "--input", str(bad), "--delta", "2")
        assert res.returncode == 3
        assert "line" in res.stderr


class TestCoverPadded:
    def test_cover_single_vertex(self, tmp_path):
        g = tmp_path / "one.el"
        g.write_text("1 0\n")
        res = run_cli("cover", "--input", str(g), "--delta", "2", "--rho", "1")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["stats"]["s"] == 1
        assert len(obj["clusters"]) == 1

    def test_cover_then_padded(self, grid_file, tmp_path):
        cov = tmp_path / "cover.json"
        res = run_cli("cover", "--input", str(grid_file), "--delta", "2",
                      "--rho", "1", "--seed", "3", "--out", str(cov))
        assert res.returncode == 0
        res = run_cli("padded", "--graph", str(grid_file), "--cover", str(cov),
                      "--trials", "50", "--seed", "4")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["stats"]["pass"] is True
        assert len(obj["partition"]) == 25

    def test_epsilon_maps_to_rho(self, grid_file):
        res = run_cli("cover", "--input", str(grid_file), "--delta", "2",
                      "--epsilon", "4", "--seed", "3")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["params"]["rho"] == 1.0  # rho = 4 / epsilon

    @pytest.mark.parametrize("labels", [4, 17])
    def test_verify_padded_rejects_wrong_length(self, tmp_path, labels):
        g = tmp_path / "g4.el"
        run_cli("generate", "--family", "grid", "--rows", "4", "--cols", "4", "--out", str(g))
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"partition": list(range(labels)), "params": {"delta": 1.0}}))
        res = run_cli("verify", "--kind", "padded", "--graph", str(g), "--input", str(part))
        assert res.returncode == 3
        assert f"{labels} labels" in res.stderr and "16 vertices" in res.stderr

    def test_verify_padded_reports_true_max_diam(self, grid_file, tmp_path):
        # on the 5x5 grid, part 0 = {0, 2} (diameter 2) is the first to break
        # the bound and part 4 = {4, 24} (diameter 4) is the widest
        labels = list(range(25))
        labels[2], labels[24] = 0, 4
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"partition": labels, "params": {"delta": 1.0}}))
        res = run_cli("verify", "--kind", "padded", "--graph", str(grid_file), "--input", str(part))
        assert res.returncode == 1
        rep = json.loads(res.stdout)
        assert rep["witness"] == {"cluster": 0, "diameter": 2.0, "bound": 1.0}
        assert rep["max_diam"] == 4.0

    def test_corrupted_cover_fails_verify(self, grid_file, tmp_path):
        cov = tmp_path / "cover.json"
        run_cli("cover", "--input", str(grid_file), "--delta", "2", "--rho", "1",
                "--seed", "3", "--out", str(cov))
        obj = json.loads(cov.read_text())
        # drop every cluster containing vertex 0 so its ball is uncovered
        obj["clusters"] = [c for c in obj["clusters"] if 0 not in c["vertices"]]
        obj["color_classes"] = None
        cov.write_text(json.dumps(obj))
        res = run_cli("verify", "--kind", "cover", "--graph", str(grid_file),
                      "--input", str(cov))
        assert res.returncode == 1
        rep = json.loads(res.stdout)
        assert rep["passed"] is False
        assert rep["padding_witness"] is not None


class TestPipeline:
    def test_pipe_from_generate(self):
        gen = run_cli("generate", "--family", "grid", "--rows", "6", "--cols", "6")
        res = run_cli("pipeline", "--delta", "2", "--rho", "1", "--seed", "7",
                      "--verify", "full", "--trials", "100", stdin=gen.stdout)
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["verification"]["passed"] is True
        assert rep["stats"]["s"] >= 1

    def test_missing_delta_usage_error(self):
        res = run_cli("pipeline", "--rho", "1", stdin="1 0\n")
        assert res.returncode == 2

    def test_rho_epsilon_exclusive(self):
        res = run_cli("pipeline", "--delta", "2", "--rho", "1", "--epsilon", "1",
                      stdin="1 0\n")
        assert res.returncode == 2

    def test_determinism_modulo_timestamp(self, grid_file):
        args = ("pipeline", "--input", str(grid_file), "--delta", "2", "--rho", "1",
                "--seed", "11", "--verify", "full", "--trials", "60")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        del ra["timestamp"], rb["timestamp"]
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_one_boundary_build_per_run(self, monkeypatch, capsys):
        from minor_decomp import cli, padded

        calls = []
        build = padded.boundary_distances

        def counted(g, c):
            calls.append(len(c.clusters))
            return build(g, c)

        monkeypatch.setattr(cli, "boundary_distances", counted)
        monkeypatch.setattr(padded, "boundary_distances", counted)
        code = cli.main(["pipeline", "--family", "grid", "--rows", "6", "--cols", "6",
                         "--delta", "2", "--rho", "1", "--seed", "7", "--verify", "full",
                         "--trials", "40"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
        assert len(calls) == 1

    def test_seed_env_fallback(self, grid_file):
        import os
        import subprocess as sp

        env = dict(os.environ, MINOR_DECOMP_SEED="99")
        res = sp.run(CLI + ["pipeline", "--input", str(grid_file), "--delta", "2",
                            "--rho", "1", "--verify", "off"],
                     capture_output=True, text=True, env=env)
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["config"]["seed"] == 99

    def test_disconnected_input_runs_per_component(self, tmp_path):
        g = tmp_path / "two.el"
        g.write_text("6 4\n0 1 1.0\n1 2 1.0\n3 4 1.0\n4 5 1.0\n")
        res = run_cli("pipeline", "--input", str(g), "--delta", "2", "--rho", "1",
                      "--seed", "0", "--verify", "full", "--trials", "40")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["graph"]["components"] == 2


class TestRemovedSubcommands:
    @pytest.mark.parametrize("command", ["bench", "oracle"])
    def test_usage_error(self, command):
        res = run_cli(command, "--help")
        assert res.returncode == 2
        assert "invalid choice" in res.stderr
