"""The solver names the benchmark harness (perfbench/workloads.py) calls and
traces, so that a change to ``src`` cannot leave every traced run failing."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from fracvisco import fem, mesh, mlf, problems, soe, stepper
from fracvisco.cli import RunConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = (mesh, fem, problems, mlf, soe, stepper)


def _traced() -> set:
    return {(module.__name__, name) for module in MODULES
            for name, value in vars(module).items()
            if hasattr(value, "__wrapped__")}


def test_tracer_patches_every_name_it_traces_and_restores_them():
    before, tracer = _traced(), Tracer()
    try:
        workloads.install_tracing(tracer, [])
        assert len(_traced() - before) == 19
    finally:
        tracer.unpatch()
    assert _traced() == before


def test_run_takes_the_harness_arguments():
    params = inspect.signature(stepper.run).parameters
    assert {"dofs", "eps", "q", "pre", "conv_values"} <= params.keys()


def test_run_config_gives_the_harness_settings():
    cfg = RunConfig()
    assert (cfg.problem, cfg.final_time) == ("ex61", 1.0)
    assert cfg.tau_sigma > 0 and cfg.q > 0
    mat = cfg.material(0.3)
    assert isinstance(mat, fem.Material) and mat.alpha == 0.3
    assert cfg.eps_for(0.1) == pytest.approx(0.01)


def test_run_result_exposes_what_the_harness_records():
    cfg = RunConfig()
    res = stepper.run(problems.get_problem(cfg.problem, cfg.material(0.5)),
                      mesh.build_mesh("quad", 2), stepper.Scheme("fast"), 4)
    assert res.coeffs.shape == (2,) and res.n_steps == 4
    assert res.n_exp > 0 and res.peak_history_bytes > 0
    t = res.timings
    assert 0 < t.wall_history + t.wall_solve <= t.wall_total


def test_harness_self_test_passes():
    # a tiny traced pass of every workload through the harness's own gates
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
