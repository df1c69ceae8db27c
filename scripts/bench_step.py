#!/usr/bin/env python3
"""Per-step history and solve timings and benchmark pairs for BENCH_step.json.

    python3 scripts/bench_step.py --label change
    python3 scripts/bench_step.py --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_step.py --pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload spatial-fast --seeds 501-510

The first two forms time the fast scheme's step loop for the benchmark's
spatial-fast runs (ex61, quad n = 16, N = 256, alpha = 0.3, 0.5 and 0.8,
eps = dt / 10) and for the fast half of acceptance criterion 6 (ex61,
quad n = 64, alpha = 0.5, N = 2000 and 4000, eps = 1e-6), with the source
tree given by ``--src`` (default: this repository's ``src``) and one BLAS
thread.  Each case records ``wall_history``, ``wall_solve`` and
``wall_total`` of ``stepper.run`` divided by N (the median of 3 runs in
this process), N_exp and n_dofs.  The step's right-hand-side product of
[M/dt  B  P] with (v, w, f_n), load included, is in ``wall_solve``; the
gather of (v, w, f_n) is in ``wall_history``.  Each case also times
perfbench's reference work before and after its samples (``reference_s``)
and gives the per-step medians in reference seconds as well (``*_ref_s``),
as ``bench_history.py`` does.  The record also holds the machine and is
merged into the output file under ``records[label]``.

The third form is ``scripts/bench_history.py --pairs``: it runs
``perfbench/run.py`` in two checkouts, alternating which goes first, and
merges the pairs under ``perfbench_pairs[workload]``.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

from bench_history import ReferenceClock, bench_main, machine

#: (mesh n, N, alpha, eps; None is the run's default dt / 10)
CASES = ((16, 256, 0.3, None), (16, 256, 0.5, None), (16, 256, 0.8, None),
         (64, 2000, 0.5, 1e-6), (64, 4000, 0.5, 1e-6))
REPEATS = 3
PHASES = ("wall_history", "wall_solve", "wall_total")


def step_record(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from fracvisco import stepper
    from fracvisco.fem import Material, build_dof_map
    from fracvisco.mesh import build_mesh
    from fracvisco.problems import get_problem, precompute_loads

    clock = ReferenceClock()
    cases = []
    for n, n_steps, alpha, eps in CASES:
        mesh = build_mesh("quad", n)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61", Material(alpha=alpha))
        pre = precompute_loads(mesh, dofs, prob)
        runs, ref_time = clock.around(lambda: [
            stepper.run(prob, mesh, stepper.Scheme.FAST, n_steps, dofs=dofs,
                        eps=eps, pre=pre) for _ in range(REPEATS)])
        case = {"mesh": "quad", "n": n, "n_steps": n_steps, "alpha": alpha,
                "eps": eps, "n_dofs": dofs.n_dofs, "n_exp": runs[0].n_exp,
                "reference_s": ref_time}
        for phase in PHASES:
            per_step = [getattr(r.timings, phase) / n_steps for r in runs]
            case[phase + "_s"] = statistics.median(per_step)
            case[phase + "_samples_s"] = per_step
            case[phase + "_ref_s"] = (case[phase + "_s"] * clock.ref_s
                                      / ref_time)
        cases.append(case)
        print(f"quad n={n} N={n_steps} alpha={alpha}: per step history "
              f"{case['wall_history_ref_s'] * 1e6:.1f}, solve "
              f"{case['wall_solve_ref_s'] * 1e6:.1f}, loop "
              f"{case['wall_total_ref_s'] * 1e6:.1f} reference us",
              file=sys.stderr)
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": machine(), "cases": cases}


def main() -> None:
    bench_main(__doc__, step_record, "BENCH_step.json", "spatial-fast",
               "501-510")


if __name__ == "__main__":
    main()
