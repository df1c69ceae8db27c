"""Tests for the experiment harness CLI."""

import numpy as np
import pytest

from fracvisco.cli import (RunConfig, _load_config, _orders,
                           cmd_convergence_space, cmd_convergence_time, main)
from fracvisco.mesh import MeshKind


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestRunConfig:
    def test_eps_rules(self):
        assert RunConfig().eps_for(0.1) == pytest.approx(0.01)
        assert RunConfig(eps_rule="fixed:1e-6").eps_for(0.1) == 1e-6
        with pytest.raises(ValueError):
            RunConfig(eps_rule="bogus").eps_for(0.1)

    def test_material_carries_alpha(self):
        mat = RunConfig(tau_sigma=0.25).material(0.3)
        assert mat.alpha == 0.3
        assert mat.tau_sigma == 0.25


class TestOrders:
    def test_halving_gives_order_one(self):
        orders = _orders([0.4, 0.2, 0.1])
        assert orders[0] is None
        assert orders[1] == pytest.approx(1.0)
        assert orders[2] == pytest.approx(1.0)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[material]\nrho = 2.0\ntau_sigma = 0.25\n"
                        "[run]\nproblem = ex62\nmesh = tri\n"
                        "alphas = 0.3,0.8\nn_steps = 4,8\nmesh_n = 12\n"
                        "eps_rule = fixed:1e-4\n")
        values = _load_config(path)
        assert values["rho"] == 2.0
        assert values["tau_sigma"] == 0.25
        assert values["problem"] == "ex62"
        assert values["mesh_kind"] is MeshKind.TRIANGULAR
        assert values["alphas"] == (0.3, 0.8)
        assert values["n_steps_list"] == (4, 8)
        assert values["mesh_n"] == 12
        assert values["eps_rule"] == "fixed:1e-4"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            _load_config(tmp_path / "nope.ini")

    def test_flag_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nmesh = tri\nmesh_n = 4\nn_steps = 2\n")
        code = main(["single-run", "--config", str(path), "--mesh", "quad",
                     "--n", "4", "--n-steps", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "fast n=4 N=2" in capsys.readouterr().out


class TestSubcommands:
    def test_convergence_space_csv(self, tmp_path):
        cfg = RunConfig(spatial_ns=(4, 8), alphas=(0.5,),
                        out_dir=tmp_path / "out")
        reports = cmd_convergence_space(cfg)
        assert len(reports) == 1
        header, rows = read_csv(tmp_path / "out" / "convergence_space.csv")
        assert header == ["mesh_kind", "alpha", "n", "h_over_sqrt2", "dt",
                          "error", "order"]
        assert len(rows) == 2
        assert rows[0][-1] == ""          # no order at the first level
        assert float(rows[1][-1]) > 1.0   # refinement reduces the error

    def test_convergence_space_dt_is_the_step_used(self, tmp_path):
        # T n^2 = 4.8 rounds to 5 steps: dt = 0.3 / 5, not 1 / n^2
        cfg = RunConfig(spatial_ns=(4,), alphas=(0.5,), final_time=0.3,
                        out_dir=tmp_path / "out")
        cmd_convergence_space(cfg)
        _, rows = read_csv(tmp_path / "out" / "convergence_space.csv")
        assert rows[0][4] == f"{0.3 / 5:.5e}"

    def test_convergence_time_csv(self, tmp_path):
        cfg = RunConfig(n_steps_list=(4, 8), mesh_n=8, alphas=(0.5,),
                        out_dir=tmp_path / "out")
        cmd_convergence_time(cfg)
        header, rows = read_csv(tmp_path / "out" / "convergence_time.csv")
        assert header == ["mesh_kind", "alpha", "n", "n_steps", "dt",
                          "error", "order"]
        assert [r[3] for r in rows] == ["4", "8"]

    def test_convergence_space_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = RunConfig(spatial_ns=(4, 8), alphas=(0.5,),
                            out_dir=tmp_path / sub)
            cmd_convergence_space(cfg)
            outs.append((tmp_path / sub / "convergence_space.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bench_outputs(self, tmp_path, capsys):
        code = main(["bench", "--mesh-n", "6", "--steps", "4,8",
                     "--scheme", "both", "--eps-rule", "fixed:1e-4",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        header, rows = read_csv(tmp_path / "out" / "bench.csv")
        assert header[0] == "scheme"
        assert len(rows) == 4             # 2 schemes x 2 step counts
        assert {r[0] for r in rows} == {"fast", "direct"}
        assert (tmp_path / "out" / "bench_time.svg").exists()
        assert (tmp_path / "out" / "bench_memory.svg").exists()
        svg = (tmp_path / "out" / "bench_memory.svg").read_text()
        assert svg.startswith("<svg")

    def test_soe_table_output(self, tmp_path, capsys):
        code = main(["soe-table", "--alpha", "0.5", "--eps", "1e-3",
                     "--t-min", "1e-2", "--t-max", "2.0",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "certified <=" in out
        tables = list((tmp_path / "out").glob("soe_alpha*.txt"))
        assert len(tables) == 1
        data = np.loadtxt(tables[0])
        assert data.shape[1] == 2
        assert np.all(data > 0)

    def test_single_run_exit_zero(self, tmp_path, capsys):
        code = main(["single-run", "--n", "4", "--n-steps", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "error=" in out
        assert "lag_dev=" in out
        assert "setup=" in out


class TestExitCodes:
    def test_invalid_alpha_soe(self):
        assert main(["soe-table", "--alpha", "1.5", "--eps", "1e-3"]) == 1

    def test_invalid_eps_rule(self, tmp_path):
        assert main(["single-run", "--eps-rule", "nope", "--n", "4",
                     "--n-steps", "2", "--out", str(tmp_path)]) == 1

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 1

    def test_missing_config(self, tmp_path):
        assert main(["single-run", "--config", str(tmp_path / "nope.ini"),
                     "--n", "4", "--n-steps", "2"]) == 1
