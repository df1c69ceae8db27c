"""One benchmark run's passes, in a fresh process so its peak RSS is its own.

    python3 perfbench/workloads.py --workload W --seed S --seconds T \\
        --trace 0|1 --size full|tiny

Repeats the workload's pass (every run it defines, in the order the seed
picks) until T seconds have elapsed, one pass at a time, with the fixed
reference work of ``reference.py`` timed between passes.  Pass 0 is a
warm-up: its runs are checked but its times are not reported.  Under
``--trace 1`` the passes after it alternate between untraced and traced.
Prints one JSON object on its last stdout line: the software record and,
per pass, its wall and setup time, the reference work's time next to it
(``ref_s``), the process's peak RSS so far, one
record per solver run, the runs that failed and why, and, for a traced
pass, the per-layer table and the spans.

The solver is called exactly as the ``fracvisco`` CLI subcommands call it:
``RunConfig`` defaults (problem ex61, eps = dt/10, q = 10, T = 1), one mesh
and dof map per group of runs, ``stepper.run`` and ``problems.exact_error``.
``spatial-fast`` lets ``run`` compute loads and I(t) itself, as
``convergence-space`` does; ``temporal-ladder`` precomputes the loads once per
mesh, as ``convergence-time`` does; ``direct-long`` precomputes the loads and
the I(t) table, as ``bench`` does.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fracvisco import fem, mesh, mlf, problems, soe, stepper  # noqa: E402
from fracvisco.cli import RunConfig  # noqa: E402
from fracvisco.errors import FracViscoError  # noqa: E402

from reference import Reference  # noqa: E402
from spans import Tracer  # noqa: E402
from spec import Run, check, shuffled_plan  # noqa: E402

CFG = RunConfig()
LAYERS = ("mesh", "fem", "problems", "mlf", "soe", "stepper")
# MemoryState per step: h *= decay (read + write), gain * v (write of a
# temporary), h += temporary (two reads + write), h.sum(axis=0) (read):
# seven transfers of the N_exp x n_dofs block.
FAST_BLOCK_TRANSFERS = 7


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def software() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def install_tracing(tracer: Tracer, built: list) -> None:
    """Wrap each layer's public functions where the harness or run() calls
    them.  built collects (soe, t_min, t_max) for the certify probe."""
    def soe_note(out, args, kwargs):
        built.append((out, kwargs["t_min"], kwargs["t_max"]))
        return {"n_exp": out.n_exp, "eps_certified": out.eps_certified}

    p = tracer.patch
    p([mesh], "build_mesh", "mesh.build_mesh")
    p([fem], "build_dof_map", "fem.build_dof_map")
    for name in ("a_form_matrix", "assemble_mass", "b_form_matrix",
                 "ritz_project"):
        p([stepper], name, f"fem.{name}")
    p([problems], "l2_error", "fem.l2_error")
    p([problems], "get_problem", "problems.get_problem")
    p([problems, stepper], "precompute_loads", "problems.precompute_loads")
    p([problems, stepper], "conv_factor_grid", "problems.conv_factor_grid",
      lambda out, a, k: {"points": len(out)})
    p([problems], "exact_error", "problems.exact_error")
    p([mlf], "ml_integral", "mlf.ml_integral")
    p([stepper], "kernel_antiderivative", "mlf.kernel_antiderivative")
    p([stepper], "build_soe", "soe.build_soe", soe_note)
    p([stepper], "direct_weights", "stepper.direct_weights")
    p([stepper], "TimeStepSystem", "stepper.TimeStepSystem",
      lambda out, a, k: {"lhs_nnz": int(out.lhs.nnz)})
    p([stepper], "run", "stepper.run")


def history_bytes_moved(run: Run, n_exp: int, n_dofs: int) -> int:
    """Bytes the history phase reads and writes, computed from array sizes."""
    if run.scheme == "fast":
        return FAST_BLOCK_TRANSFERS * n_exp * n_dofs * 8 * run.n_steps
    # direct: step n reads the n rows v^0..v^{n-1} of the history
    return run.n_steps * (run.n_steps + 1) // 2 * n_dofs * 8


def execute(workload: str, groups: list[list[Run]], tracer: Tracer) -> dict:
    """Run every group of the pass; return timings, records and failures.

    Spans are recorded only while the tracer's patches are installed;
    tracer.run names the run each span belongs to."""
    records: list[dict] = []
    failed: dict[str, str] = {}
    errors: dict[Run, float] = {}
    setup = 0.0
    t_pass = time.perf_counter()
    for group in groups:
        first = group[0]       # a group shares mesh, alpha and loads
        tracer.run = f"{first.kind}-n{first.n}"
        t0 = time.perf_counter()
        msh = mesh.build_mesh(first.kind, first.n)
        dofs = fem.build_dof_map(msh)
        problem = problems.get_problem(CFG.problem, CFG.material(first.alpha),
                                       final_time=CFG.final_time)
        pre = conv = None
        if workload != "spatial-fast":
            pre = problems.precompute_loads(msh, dofs, problem)
        if workload == "direct-long":
            dt = CFG.final_time / first.n_steps
            conv = problems.conv_factor_grid(
                first.alpha, CFG.tau_sigma,
                dt * np.arange(1, first.n_steps + 1))
        setup += time.perf_counter() - t0
        for run in group:
            tracer.run = run.key
            dt = CFG.final_time / run.n_steps
            try:
                t0 = time.perf_counter()
                res = stepper.run(problem, msh, stepper.Scheme(run.scheme),
                                  run.n_steps, dofs=dofs, eps=CFG.eps_for(dt),
                                  q=CFG.q, pre=pre, conv_values=conv)
                run_s = time.perf_counter() - t0
                err = problems.exact_error(msh, dofs, res.coeffs, problem,
                                           CFG.final_time)
            except FracViscoError as exc:
                failed[run.key] = f"{type(exc).__name__}: {exc}"
                continue
            t = res.timings
            setup += run_s - t.wall_total
            errors[run] = err
            records.append({
                "key": run.key, "n_dofs": dofs.n_dofs, "n_steps": res.n_steps,
                "n_exp": res.n_exp, "error": err, "run_s": run_s,
                "loop_s": t.wall_total, "history_s": t.wall_history,
                "solve_s": t.wall_solve,
                "history_bytes": res.peak_history_bytes,
                "history_bytes_moved": history_bytes_moved(run, res.n_exp,
                                                           dofs.n_dofs)})
    wall = time.perf_counter() - t_pass
    for key, reason in check(workload, errors).items():
        failed.setdefault(key, reason)
    return {"wall_s": wall, "setup_s": setup, "records": records,
            "failed": failed}


def certify_probe(tracer: Tracer, built: list) -> None:
    """The separate certify_soe call: the mlf.ml_integral reference cost of
    each SOE the pass built, run after the pass's wall clock stopped."""
    for i, (approx, t_min, t_max) in enumerate(built):
        tracer.run = f"certify-{i}"
        span = tracer.begin("soe.certify_soe")
        soe.certify_soe(approx, t_min, t_max)
        tracer.end(span)


def layer_table(tracer: Tracer, out: dict, n_pass_spans: int) -> dict:
    """Per-layer metrics of one traced pass; layer self times cover the
    pass's first n_pass_spans spans, i.e. not the certify probe."""
    recs = out["records"]
    total = tracer.totals

    def attr_values(name: str, attr: str) -> list:
        return [s.attrs[attr] for s in tracer.spans if s.name == name]

    run_s = sum(r["run_s"] for r in recs)
    loop = sum(r["loop_s"] for r in recs)
    hist = sum(r["history_s"] for r in recs)
    solve = sum(r["solve_s"] for r in recs)
    moved = sum(r["history_bytes_moved"] for r in recs)
    table = {
        "mesh.build_s": total(("mesh.build_mesh",)),
        "fem.dofmap_s": total(("fem.build_dof_map",)),
        "fem.assemble_s": total(("fem.a_form_matrix", "fem.assemble_mass",
                                 "fem.b_form_matrix")),
        "fem.ritz_s": total(("fem.ritz_project",)),
        "fem.l2_error_s": total(("fem.l2_error",)),
        "fem.n_dofs": max((r["n_dofs"] for r in recs), default=0),
        "fem.lhs_nnz": max(attr_values("stepper.TimeStepSystem", "lhs_nnz"),
                           default=0),
        "problems.loads_s": total(("problems.precompute_loads",)),
        "problems.conv_table_s": total(("problems.conv_factor_grid",)),
        "problems.conv_points": sum(attr_values("problems.conv_factor_grid",
                                                "points")),
        "mlf.antiderivative_s": total(("mlf.kernel_antiderivative",)),
        "soe.build_s": total(("soe.build_soe",)),
        "soe.certify_s": total(("soe.certify_soe",)),
        "soe.n_exp": max(attr_values("soe.build_soe", "n_exp"), default=0),
        "soe.eps_certified": max(attr_values("soe.build_soe",
                                             "eps_certified"), default=0.0),
        "stepper.run_s": total(("stepper.run",)),
        "stepper.run_setup_s": run_s - loop,
        "stepper.history_s": hist,
        "stepper.solve_s": solve,
        "stepper.loop_other_s": loop - hist - solve,
        "stepper.n_steps": sum(r["n_steps"] for r in recs),
        "stepper.history_bytes": max((r["history_bytes"] for r in recs),
                                     default=0),
        "stepper.history_bytes_moved": moved,
        "stepper.history_gbs_computed": moved / hist / 1e9 if hist > 0 else 0.0,
        "trace.wall_s": out["wall_s"],
    }
    selfs = tracer.self_times(n_pass_spans)
    for layer in LAYERS:
        table[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return table


def accounting_gap(tracer: Tracer, out: dict) -> float:
    """|run_setup + history + solve + loop_other - stepper.run spans|, worst
    run; the four parts sum to the harness's own timing of each run."""
    spans = {s.run: s.duration for s in tracer.spans if s.name == "stepper.run"}
    return max((abs(r["run_s"] - spans[r["key"]]) for r in out["records"]),
               default=0.0)


def one_pass(workload: str, seed: int, index: int, traced: bool,
             size: str) -> dict:
    """Run every group of the pass once, traced or not."""
    groups = shuffled_plan(workload, seed, index, size)
    tracer = Tracer()
    built: list = []
    if traced:
        install_tracing(tracer, built)
    try:
        out = execute(workload, groups, tracer)
        n_pass_spans = len(tracer.spans)
        certify_probe(tracer, built)
    finally:
        tracer.unpatch()
    out.update({
        "workload": workload, "pass_index": index, "traced": traced,
        "warmup": index == 0, "order": [r.key for g in groups for r in g],
        "attempted": sum(len(g) for g in groups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6})
    if traced:
        out["layers"] = layer_table(tracer, out, n_pass_spans)
        out["accounting_gap_s"] = accounting_gap(tracer, out)
        out["spans"] = tracer.export()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    # pass 0 warms up; then at least one untraced pass, and one traced pass
    # under --trace, however short the run.  The reference work runs before
    # and after every pass; a pass's ref_s is the mean of the two.
    min_passes = 3 if args.trace else 2
    passes: list[dict] = []
    ref = Reference()
    start = time.perf_counter()
    ref_before = ref.run()
    while (len(passes) < min_passes
           or time.perf_counter() - start < args.seconds):
        index = len(passes)
        traced = bool(args.trace) and index > 0 and index % 2 == 0
        out = one_pass(args.workload, args.seed, index, traced, args.size)
        ref_after = ref.run()
        out["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        passes.append(out)
    print(json.dumps({"software": software(), "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
