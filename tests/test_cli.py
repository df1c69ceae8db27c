"""Tests for the experiment harness CLI."""

import argparse
import contextlib
import inspect
import io
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvisco.cli import (_KEYS, RunConfig, _build_parser, _load_config,
                           _orders, cmd_convergence, main)
from fracvisco.fem import Material
from fracvisco.mesh import MeshKind
from fracvisco.soe import PANEL_RATIO
from fracvisco.stepper import run


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestRunConfig:
    def test_eps_rules(self):
        assert RunConfig().eps_for(0.1) == pytest.approx(0.01)
        assert RunConfig(eps_rule="fixed:1e-6").eps_for(0.1) == 1e-6
        for rule in ("bogus", "fixed:abc", "fixed:2", "fixed:0", "fixed:nan"):
            with pytest.raises(ValueError, match=f"^eps_rule .*'{rule}'$"):
                RunConfig(eps_rule=rule).eps_for(0.1)

    def test_material_carries_alpha(self):
        mat = RunConfig(tau_sigma=0.25).material(0.3)
        assert mat.alpha == 0.3
        assert mat.tau_sigma == 0.25

    def test_defaults_are_written_once(self):
        assert RunConfig().material(0.5) == Material()
        # q is a constant, not a setting: RunConfig carries it for callers
        # that read it, as run's default
        assert RunConfig().q == PANEL_RATIO
        assert "q" not in {f.name for f in fields(RunConfig)}
        assert inspect.signature(run).parameters["q"].default == PANEL_RATIO

    def test_one_name_per_setting(self):
        # each config key is the RunConfig field it sets, and each flag of
        # an experiment subcommand sets the field of its run key
        names = {f.name for f in fields(RunConfig)}
        assert set(_KEYS["run"]) | set(_KEYS["material"]) <= names
        assert set(_KEYS["material"]) == {
            f.name for f in fields(Material)} - {"alpha"}
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("convergence-space", "convergence-time", "bench",
                        "single-run"):
            own = {"help", "config"} | ({"n", "steps"}
                                        if command == "single-run" else set())
            dests = {a.dest for a in sub.choices[command]._actions}
            assert dests - own <= set(_KEYS["run"]), command


class TestOrders:
    def test_halving_gives_order_one(self):
        orders = _orders([4, 8, 16], [0.4, 0.2, 0.1])
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
        assert values["mesh"] is MeshKind.TRIANGULAR
        assert values["alphas"] == (0.3, 0.8)
        assert values["n_steps"] == (4, 8)
        assert values["mesh_n"] == 12
        assert values["eps_rule"] == "fixed:1e-4"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            _load_config(tmp_path / "nope.ini")

    def test_shipped_example_loads(self):
        path = Path(__file__).resolve().parent.parent / "scripts" / \
            "config_example.ini"
        cfg = RunConfig(**_load_config(path))
        assert cfg.alphas == (0.3, 0.5, 0.8)
        assert cfg.out == Path("out/example")
        assert cfg.material(0.5) == Material()
        assert cfg.eps_for(0.1) == pytest.approx(0.01)

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
                        out=tmp_path / "out")
        reports = cmd_convergence(cfg, space=True)
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
                        out=tmp_path / "out")
        cmd_convergence(cfg, space=True)
        _, rows = read_csv(tmp_path / "out" / "convergence_space.csv")
        assert rows[0][4] == f"{0.3 / 5:.5e}"

    def test_convergence_time_csv(self, tmp_path):
        cfg = RunConfig(n_steps=(4, 8), mesh_n=8, alphas=(0.5,),
                        out=tmp_path / "out")
        cmd_convergence(cfg, space=False)
        header, rows = read_csv(tmp_path / "out" / "convergence_time.csv")
        assert header == ["mesh_kind", "alpha", "n", "n_steps", "dt",
                          "error", "order"]
        assert [r[3] for r in rows] == ["4", "8"]

    def test_convergence_time_order_uses_the_level_ratio(self, tmp_path):
        # N = 5 -> 15 triples the step count, so the order is log base 3
        cfg = RunConfig(n_steps=(5, 15), mesh_n=4, alphas=(0.5,),
                        out=tmp_path / "out")
        cmd_convergence(cfg, space=False)
        _, rows = read_csv(tmp_path / "out" / "convergence_time.csv")
        e1, e2 = float(rows[0][5]), float(rows[1][5])
        assert float(rows[1][6]) == pytest.approx(
            np.log(e1 / e2) / np.log(3.0), rel=1e-4)

    def test_convergence_space_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = RunConfig(spatial_ns=(4, 8), alphas=(0.5,),
                            out=tmp_path / sub)
            cmd_convergence(cfg, space=True)
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

    def test_soe_table_names_carry_every_digit_of_eps(self, tmp_path):
        out = tmp_path / "out"
        for eps in ("1.5e-3", "2e-3", "1e-6"):
            assert main(["soe-table", "--alpha", "0.5", "--eps", eps,
                         "--t-min", "1e-2", "--t-max", "2.0",
                         "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("soe_alpha*.txt"))
        assert names == ["soe_alpha0.5_eps1.5e-03.txt",
                         "soe_alpha0.5_eps1e-06.txt",
                         "soe_alpha0.5_eps2e-03.txt"]
        # the two close tolerances keep their own tables
        loose = np.loadtxt(out / "soe_alpha0.5_eps2e-03.txt")
        tight = np.loadtxt(out / "soe_alpha0.5_eps1.5e-03.txt")
        assert len(tight) > len(loose)

    def test_single_run_exit_zero(self, tmp_path, capsys):
        code = main(["single-run", "--n", "4", "--n-steps", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "error=" in out
        assert "lag_dev=" in out
        assert "setup=" in out

    def test_single_run_at_a_step_of_ten(self, tmp_path, capsys):
        # dt = 10, where dt/10 alone reaches build_soe's eps < 1 bound
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nfinal_time = 10\n")
        assert main(["single-run", "--config", str(cfg), "--n", "3",
                     "--n-steps", "1", "--out", str(tmp_path)]) == 0
        assert "fast n=3 N=1 alpha=0.5 error=" in capsys.readouterr().out


class TestExitCodes:
    def test_invalid_alpha_soe(self):
        assert main(["soe-table", "--alpha", "1.5", "--eps", "1e-3"]) == 1

    @pytest.mark.parametrize("q", ["1", "1e308", "nan", "inf"])
    def test_bad_q_soe(self, q, tmp_path, capsys):
        # the panel ratio is soe.PANEL_RATIO, not a flag: any --q is refused
        with pytest.raises(SystemExit) as exc:
            main(["soe-table", "--alpha", "0.5", "--eps", "1e-3",
                  "--q", q, "--out", str(tmp_path)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.endswith(f"\nerror: unrecognized arguments: --q {q}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, config", [
        (["soe-table", "--alpha", "0.5", "--eps", "1e-3", "--t-min", "1e-310",
          "--t-max", "2"], None),
        (["single-run", "--n", "2", "--n-steps", "1"],
         "[run]\nfinal_time = 1e-310\n"),
    ], ids=["soe-table", "single-run"])
    def test_range_past_dbl_max(self, argv, config, tmp_path, capsys):
        # t_max / t_min / eps overflows to inf, so build_soe's first guess
        # of K takes its cap.  The table certifies; the run's eps = dt/10 =
        # 1e-311 exhausts the node budget
        if config is not None:
            (tmp_path / "cfg.ini").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.ini")]
        code = main(argv + ["--out", str(tmp_path)])
        out, err = capsys.readouterr()
        if config is None:
            assert code == 0 and "N_exp=" in out and not err
        else:
            assert code == 2
            assert re.fullmatch(r"numerical failure: \d+ panels x J = \d+ "
                                r"exceeds 4096 nodes before certification at "
                                r"eps = 1e-311\n", err)

    def test_invalid_eps_rule(self, tmp_path):
        assert main(["single-run", "--eps-rule", "nope", "--n", "4",
                     "--n-steps", "2", "--out", str(tmp_path)]) == 1
        # also where the scheme would not read it
        assert main(["single-run", "--eps-rule", "fixed:2", "--n", "4",
                     "--n-steps", "2", "--scheme", "direct",
                     "--out", str(tmp_path)]) == 1

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 1

    def test_malformed_flag_is_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence-time", "--mesh-n", "4", "--steps", "4.5"])
        assert exc.value.code == 1
        assert ("argument --steps: invalid comma-separated int value: '4.5'"
                in capsys.readouterr().err)

    def test_missing_config(self, tmp_path):
        assert main(["single-run", "--config", str(tmp_path / "nope.ini"),
                     "--n", "4", "--n-steps", "2"]) == 1

    def test_ladder_flags_refused_by_single_run(self):
        # single-run takes --n and --n-steps, not the ladders' flags
        with pytest.raises(SystemExit) as exc:
            main(["single-run", "--mesh-n", "8", "--steps", "99", "--n", "4",
                  "--n-steps", "2"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flags", [["--steps", "5,10"], ["--mesh-n", "3"]],
                             ids=["steps", "mesh-n"])
    def test_ladder_flags_refused_by_convergence_space(self, flags,
                                                       tmp_path):
        # the spatial ladder takes its meshes from spatial_ns and its step
        # counts from dt = h^2/2, so it would ignore these flags; a tiny
        # ladder, so a command that wrongly runs finishes quickly
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nspatial_ns = 4\n")
        with pytest.raises(SystemExit) as exc:
            main(["convergence-space", *flags, "--config", str(cfg),
                  "--out", str(tmp_path)])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["convergence-space", "--scheme", "both"],
        ["convergence-time", "--scheme", "both", "--mesh-n", "4",
         "--steps", "2"],
        ["single-run", "--scheme", "both", "--n", "4", "--n-steps", "2"],
        ["convergence-time", "--mesh-n", "4", "--steps", "0,4"],
        ["bench", "--mesh-n", "4", "--steps", "0"],
        ["single-run", "--n", "4", "--n-steps", "0"],
        ["single-run", "--n", "1", "--n-steps", "2"],
        ["single-run", "--alpha", "0.3", "--alpha", "0.8", "--n", "4",
         "--n-steps", "2"],
        ["bench", "--alpha", "0.3", "--alpha", "0.8", "--mesh-n", "4",
         "--steps", "2"],
    ], ids=["space-both", "time-both", "single-both", "time-zero-steps",
            "bench-zero-steps", "single-zero-steps", "single-n1",
            "single-two-alphas", "bench-two-alphas"])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        # a tiny ladder, so a command that wrongly runs finishes quickly
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nspatial_ns = 4\n")
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, config, ladder", [
        (["convergence-time", "--mesh-n", "2", "--steps", "3,3"], "",
         "(3, 3) repeats the level 3"),
        (["convergence-time", "--mesh-n", "2", "--steps", "5,3,5"], "",
         "(5, 3, 5) repeats the level 5"),
        (["convergence-space"], "[run]\nspatial_ns = 4,4\n",
         "(4, 4) repeats the level 4"),
    ], ids=["time", "time-apart", "space"])
    def test_repeated_ladder_level_is_refused(self, argv, config, ladder,
                                              tmp_path, capsys, monkeypatch):
        # a repeated level would make the order column divide by log2(1)
        # after every level was solved; it is refused before any solve
        monkeypatch.setattr("fracvisco.cli._solve", None)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(config)
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: the ladder {ladder}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_underflowing_rates_fail_the_fast_scheme_only(self, capsys):
        # at alpha = 0.02 the built sum's rates x^(-1/alpha) underflow to 0
        # on its widest panels, where the gain 0/0 is undefined; the direct
        # lag weights give such a rate its exact gain b_j dt
        argv = ["single-run", "--n", "4", "--n-steps", "256",
                "--alpha", "0.02"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: \d+ rates of the "
                            r"exponential sum underflow to 0 at "
                            r"alpha = 0\.02\n", err)
        assert main(argv + ["--scheme", "direct"]) == 0
        assert "direct n=4 N=256 alpha=0.02 error=" in capsys.readouterr().out

    @pytest.mark.parametrize("text, named", [
        ("[run]\nalpha = 0.3\n", "unknown key 'alpha' in section [run]"),
        ("[material]\nrhoo = 2.0\n",
         "unknown key 'rhoo' in section [material]"),
        ("[materials]\nrho = 2.0\n", "unknown section [materials]"),
        ("[DEFAULT]\nrho = 2.0\n", "unknown section [DEFAULT]"),
        ("[run]\nfinal_time = 0\n", "final_time 0.0"),
        ("[run]\nfinal_time = -1\n", "final_time -1.0"),
        ("[run]\nfinal_time = inf\n", "final_time inf"),
        ("[run]\nfinal_time = 800\n",
         "times[1] = 800 is past the closed form's range t <= log(DBL_MAX) "
         "= 709.783"),
        ("[material]\nrho = nan\n", "rho must be finite, got nan"),
        ("[material]\ntau_sigma = nan\n", "tau_sigma must be finite, got nan"),
        ("[material]\nrho = inf\n", "rho must be finite, got inf"),
        ("[material]\ntau_sigma = inf\n", "tau_sigma must be finite, got inf"),
        ("[run]\nq = 1\n", "unknown key 'q' in section [run]"),
        ("[run]\nq = 10\n", "unknown key 'q' in section [run]"),
        ("[run]\nspatial_ns = 4.5\n",
         "cfg.ini: [run] spatial_ns = '4.5' is malformed"),
        ("[run]\nmesh = hex\n", "cfg.ini: [run] mesh = 'hex' is malformed"),
        ("[material]\nrho = abc\n",
         "cfg.ini: [material] rho = 'abc' is malformed"),
    ], ids=["run-key", "material-key", "section", "default-section",
            "final-time-zero", "final-time-negative", "final-time-inf",
            "final-time-800",
            "rho-nan", "tau-sigma-nan", "rho-inf", "tau-sigma-inf", "q-one",
            "q-ten", "spatial-ns-float", "mesh-unknown", "rho-text"])
    def test_bad_config_is_a_usage_error(self, text, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        code = main(["single-run", "--config", str(cfg), "--n", "4",
                     "--n-steps", "2", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


class TestLadderTables:
    """The printed tables: label, header, then per level its h/sqrt(2) or
    dt, error and observed order, agreeing with the CSV written with them."""

    HEADER = "level      h or dt        error   order"
    ROW = re.compile(r"^ {4}(\d) ( \d\.\d{5}e-\d\d) ( \d\.\d{5}e-\d\d) (.{7})$")

    def check(self, out, label, csv_path, resolutions):
        lines = out.splitlines()
        assert lines[:2] == [label, self.HEADER]
        _, rows = read_csv(csv_path)
        assert len(lines) == 2 + len(rows) == 2 + len(resolutions)
        for level, (line, row, res) in enumerate(
                zip(lines[2:], rows, resolutions), start=1):
            m = self.ROW.match(line)
            assert m, line
            assert m[1] == str(level)
            assert m[2] == f"{res:12.5e}"
            assert m[3] == f"{float(row[5]):12.5e}"
            if level == 1:
                assert m[4] == "     --" and row[6] == ""
            else:
                assert m[4] == f"{float(m[4]):7.2f}"
                assert float(m[4]) == pytest.approx(float(row[6]), abs=5e-3)

    def test_convergence_space_table(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nspatial_ns = 4,8\n")
        code = main(["convergence-space", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        self.check(capsys.readouterr().out, "spatial ex61 quad alpha=0.5",
                   tmp_path / "convergence_space.csv", [0.25, 0.125])

    def test_convergence_time_table(self, tmp_path, capsys):
        code = main(["convergence-time", "--mesh", "tri", "--mesh-n", "4",
                     "--steps", "2,4", "--alpha", "0.3",
                     "--out", str(tmp_path)])
        assert code == 0
        self.check(capsys.readouterr().out, "temporal ex61 tri alpha=0.3",
                   tmp_path / "convergence_time.csv", [0.5, 0.25])


#: the name an error line must carry when the test made that input invalid
NAMED = {"n": r"--n\b(?!-)", "n_steps": "--n-steps", "alpha": "alpha",
         "scheme": "scheme", "eps_rule": "eps_rule",
         "final_time": "final_time", "t_min": "t_min", "t_max": "t_max",
         "eps": "eps", **{key: key for key in _KEYS["material"]}}
#: a value per input, invalid for it
INVALID = {"n": st.sampled_from([1, 0, -3]),
           "n_steps": st.sampled_from([0, -1]),
           "alpha": st.sampled_from([0.0, 1.5, -0.5, float("nan")]),
           "scheme": st.just("both"),
           "eps_rule": st.sampled_from(["bogus", "fixed:abc", "fixed:2",
                                        "fixed:0"]),
           "final_time": st.sampled_from([0.0, -1.0, float("inf")]),
           "t_min": st.sampled_from([0.0, -1.0, float("nan")]),
           "t_max": st.sampled_from([float("inf"), float("nan")]),
           "eps": st.sampled_from([0.0, 1.0, 2.0, float("nan")]),
           **{key: st.sampled_from([float("nan"), float("inf")])
              for key in _KEYS["material"]}}
ALPHA = st.one_of(st.sampled_from([1.0, 0.999, 0.005]), st.floats(0.05, 1.0))
SINGLE_RUN = st.fixed_dictionaries({
    "n": st.integers(2, 3), "n_steps": st.integers(1, 8), "alpha": ALPHA,
    "scheme": st.sampled_from(["fast", "direct"]),
    "eps_rule": st.sampled_from(["dt-over-10", "fixed:1e-12", "fixed:0.5"]),
    "final_time": st.one_of(st.sampled_from([1e-310, 700.0]),
                            st.floats(1e-310, 700.0)),
    **{key: st.one_of(st.none(), st.sampled_from([1e-300, 1e300]),
                      st.floats(1e-300, 1e300))
       for key in _KEYS["material"]}})
SOE_TABLE = st.fixed_dictionaries({
    "alpha": ALPHA,
    "eps": st.one_of(st.sampled_from([1e-12, 0.5, 5e-324]),
                     st.floats(1e-12, 0.5)),
    "t_min": st.one_of(st.sampled_from([5e-324, 1e-310, 1.0]),
                       st.floats(1e-310, 1.0)),
    "t_max": st.one_of(st.sampled_from([2.0, 1e300]),
                       st.floats(2.0, 1e300))})


def _invalid(inputs, data):
    """inputs with, in about a third of the draws, one input made invalid;
    the key made invalid or None."""
    key = data.draw(st.one_of(st.none(), st.none(),
                              st.sampled_from(list(inputs))))
    if key is not None:
        inputs = {**inputs, key: data.draw(INVALID[key])}
    return inputs, key


class TestCliInputs:
    """main over single-run's and soe-table's inputs, extremes included
    (100 and 60 examples, about 6 s): exit 0, exit 1 with one ``error:`` line
    that names the input made invalid, or exit 2 with one ``numerical
    failure:`` line; never an uncaught exception."""

    @staticmethod
    def check(argv, invalid):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:    # argparse's usage error
                code = exc.code
        lines = err.getvalue().splitlines()
        if invalid is not None:
            assert code == 1, (argv, code, lines)
        if code == 1:
            errors = [ln for ln in lines if ln.startswith("error: ")]
            assert len(errors) == 1, (argv, lines)
            if invalid is not None:
                assert re.search(NAMED[invalid], errors[0]), (argv, errors)
        elif code == 2:
            assert len(lines) == 1, (argv, lines)
            assert lines[0].startswith("numerical failure: "), (argv, lines)
        else:
            assert code == 0, (argv, code, lines)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(SINGLE_RUN, st.data())
    def test_single_run(self, tmp_path_factory, inputs, data):
        inputs, invalid = _invalid(inputs, data)
        config = "".join(
            f"{key} = {inputs[key]!r}\n" for key in _KEYS["material"]
            if inputs[key] is not None)
        path = tmp_path_factory.mktemp("cli") / "cfg.ini"
        path.write_text(f"[run]\nfinal_time = {inputs['final_time']!r}\n"
                        f"[material]\n{config}")
        self.check(["single-run", "--config", str(path),
                    "--n", str(inputs["n"]),
                    "--n-steps", str(inputs["n_steps"]),
                    "--alpha", repr(inputs["alpha"]),
                    "--scheme", inputs["scheme"],
                    "--eps-rule", inputs["eps_rule"],
                    "--out", str(path.parent)], invalid)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(SOE_TABLE, st.data())
    def test_soe_table(self, tmp_path_factory, inputs, data):
        inputs, invalid = _invalid(inputs, data)
        self.check(["soe-table", *(arg for key, value in inputs.items()
                                   for arg in ("--" + key.replace("_", "-"),
                                               repr(value))),
                    "--out", str(tmp_path_factory.mktemp("cli"))], invalid)
