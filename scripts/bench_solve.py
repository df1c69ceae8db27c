#!/usr/bin/env python3
"""SPD factor, run setup and solve timings and benchmark pairs for
BENCH_band_solve.json.

    python3 scripts/bench_solve.py --label change
    python3 scripts/bench_solve.py --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_solve.py --pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload temporal-ladder --seeds 501-510

The first two forms time ``fem.spd_solver`` on the backward-Euler matrix
M/dt + A at dt = 0.5/n^2, for quad and tri meshes at n = 16, 32, 64 and 128,
with the source tree given by ``--src`` (default: this repository's
``src``) and one BLAS thread.  Each case records the factor time (the
``spd_solver`` call), the time of ``stepper.TimeStepSystem(pre, dt)``, the
run's whole operator setup (M/dt + A, its factor and the right-hand-side
operator [M/dt  B  P], for the ex61 bundle ``pre`` of the mesh), and the
time of one solve and of one 3-column solve: each the median of 3 samples,
a sample the mean of as many calls as fill SAMPLE_S seconds.  It also
records n_dofs, the half-bandwidth and the entries the band factor stores,
(bandwidth + 1) * n_dofs.  Each case also times perfbench's reference work
before and after its samples (``reference_s``) and gives the four medians
in reference seconds as well (``*_ref_s``), as ``bench_history.py`` does.
The record also holds the machine and is merged into the output file under
``records[label]``.

The third form is ``scripts/bench_history.py --pairs``: it runs
``perfbench/run.py`` in two checkouts, alternating which goes first, and
merges the pairs under ``perfbench_pairs[workload]``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

from bench_history import ReferenceClock, bench_main, machine

CASES = tuple((kind, n) for n in (16, 32, 64, 128) for kind in ("quad", "tri"))
REPEATS = 3
SAMPLE_S = 0.05  # least wall time of one sample


def median_time(fn, reps: int = 1) -> float:
    """Median over REPEATS samples of the mean time of ``reps`` calls."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def reps_for(fn) -> int:
    """Calls of fn, after one warm-up call, that fill SAMPLE_S seconds."""
    t0 = time.perf_counter()
    fn()
    return max(1, round(SAMPLE_S / (time.perf_counter() - t0)))


def solve_record(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy.sparse as sp
    from fracvisco.fem import (Material, a_form_matrix, assemble_mass,
                               build_dof_map, spd_solver)
    from fracvisco.mesh import build_mesh
    from fracvisco.problems import get_problem, precompute_loads
    from fracvisco.stepper import TimeStepSystem

    rng = np.random.default_rng(0)
    clock = ReferenceClock()
    problem = get_problem("ex61")
    cases = []
    for kind, n in CASES:
        mesh = build_mesh(kind, n)
        dofs = build_dof_map(mesh)
        dt = 0.5 / n ** 2
        lhs = (assemble_mass(mesh, dofs) / dt
               + a_form_matrix(mesh, dofs, Material())).tocsr()
        pre = precompute_loads(mesh, dofs, problem)
        upper = sp.triu(lhs, format="coo")
        bw = int((upper.col - upper.row).max())
        solve = spd_solver(lhs)
        rhs = rng.standard_normal(dofs.n_dofs)
        rhs3 = rng.standard_normal((dofs.n_dofs, 3))
        timed = (lambda: spd_solver(lhs), lambda: TimeStepSystem(pre, dt),
                 lambda: solve(rhs), lambda: solve(rhs3))
        counts = [reps_for(fn) for fn in timed]
        (factor_s, system_s, solve_s, solve3_s), ref_time = clock.around(
            lambda: [median_time(fn, reps) for fn, reps in zip(timed, counts)])
        scale = clock.ref_s / ref_time
        cases.append({"mesh": kind, "n": n, "n_dofs": dofs.n_dofs,
                      "half_bandwidth": bw,
                      "factor": "band",
                      "factor_entries": (bw + 1) * dofs.n_dofs,
                      "factor_s": factor_s, "system_s": system_s,
                      "solve_s": solve_s, "solve_3rhs_s": solve3_s,
                      "reference_s": ref_time,
                      "factor_ref_s": factor_s * scale,
                      "system_ref_s": system_s * scale,
                      "solve_ref_s": solve_s * scale,
                      "solve_3rhs_ref_s": solve3_s * scale})
        print(f"{kind} n={n}: factor {1e3 * factor_s:.2f} ms, system "
              f"{1e3 * system_s:.2f} ms, solve "
              f"{1e6 * solve_s:.1f} us, 3-rhs {1e6 * solve3_s:.1f} us",
              file=sys.stderr)
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "dt": "0.5 / n^2", "repeats": REPEATS, "machine": machine(),
            "cases": cases}


def main() -> None:
    bench_main(__doc__, solve_record, "BENCH_band_solve.json",
               "temporal-ladder", "501-510")


if __name__ == "__main__":
    main()
