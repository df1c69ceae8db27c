#!/usr/bin/env python3
"""SOE certification reference timings and benchmark pairs for BENCH_certify.json.

    python3 scripts/bench_certify.py --label change
    python3 scripts/bench_certify.py --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_certify.py --pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload direct-long --seeds 701-710

The first two forms time the reference values that certify a run's SOE, on
the grid ``stepper.run``'s ``build_soe`` call certifies on (CERTIFY_SAMPLES
log-spaced points on [dt / (10 tau), T / tau], tau = 0.5, T = 1) for the
benchmark workloads' runs: alpha = 0.3, 0.5 and 0.8 at N = 256
(spatial-fast) and alpha = 0.5 at N = 5, 10, 20 and 40 (temporal-ladder).
Each case records the time of one pass of the scalar ``mlf.kernel_beta``
over the grid, of one ``soe.engine_kernel`` call and of the run's
``build_soe`` call (eps = dt / 10, q = 10), each the median of 3 samples,
a sample the mean of as many calls as fill ``bench_solve.SAMPLE_S``
seconds, and the largest difference of the two references.
The source tree is given by ``--src`` (default: this repository's ``src``)
and BLAS runs on one thread.  Each case also times perfbench's reference
work before and after its samples (``reference_s``) and gives the medians
in reference seconds as well (``*_ref_s``), as ``bench_history.py`` does.
The record's ``tables`` time the engine's two per-run tables the same way:
the I(t) table of ``problems.conv_factor_grid`` (``conv_table_s``) and the
direct lag weights of ``stepper.direct_weights`` (``antiderivative_s``, the
key older records used when the weights were differences of the kernel
antiderivative, kept so records still compare), at the cases' sizes and
at N = 1500, alpha = 0.5 (direct-long).  The record also holds the machine
and is merged into the output file under ``records[label]``.

The third form is ``scripts/bench_history.py --pairs``: it runs
``perfbench/run.py`` in two checkouts, alternating which goes first, and
merges the pairs under ``perfbench_pairs[workload]``.  Its default is
direct-long, the workload whose setup is mostly these tables.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from bench_history import ReferenceClock, bench_main, machine
from bench_solve import SAMPLE_S, median_time, reps_for

CASES = ((0.3, 256), (0.5, 256), (0.8, 256),
         (0.5, 5), (0.5, 10), (0.5, 20), (0.5, 40))
TABLE_CASES = CASES + ((0.5, 1500),)
TAU_SIGMA, FINAL_TIME = 0.5, 1.0


def timed(fns: dict) -> dict:
    """name -> median_time of each function, a sample the mean of as many
    calls as fill SAMPLE_S seconds (counted by reps_for before sampling)."""
    counts = {name: reps_for(fn) for name, fn in fns.items()}
    return {name: median_time(fn, counts[name]) for name, fn in fns.items()}


def table_record(clock) -> list[dict]:
    """Median times of the I(t) table and the direct lag weights."""
    import numpy as np
    from fracvisco import problems, stepper
    from fracvisco.fem import Material

    tables = []
    for alpha, n_steps in TABLE_CASES:
        dt = FINAL_TIME / n_steps
        times = dt * np.arange(1, n_steps + 1)
        mat = Material(alpha=alpha, tau_sigma=TAU_SIGMA)
        medians, ref_time = clock.around(lambda: timed({
            "conv_table_s": lambda: problems.conv_factor_grid(
                alpha, TAU_SIGMA, times),
            "antiderivative_s": lambda: stepper.direct_weights(
                mat, dt, n_steps)}))
        case = {"alpha": alpha, "n_steps": n_steps, **medians,
                "reference_s": ref_time}
        for name in ("conv_table_s", "antiderivative_s"):
            case[name[:-2] + "_ref_s"] = case[name] * clock.ref_s / ref_time
        tables.append(case)
        print(f"alpha={alpha} N={n_steps}: I(t) table "
              f"{case['conv_table_s'] * 1e3:.2f} ms, lag weights "
              f"{case['antiderivative_s'] * 1e3:.2f} ms", file=sys.stderr)
    return tables


def certify_record(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy as np
    from fracvisco import mlf, soe

    clock = ReferenceClock()
    cases = []
    for alpha, n_steps in CASES:
        dt = FINAL_TIME / n_steps
        t_min, t_max = dt / (10.0 * TAU_SIGMA), FINAL_TIME / TAU_SIGMA
        grid = np.geomspace(t_min, t_max, soe.CERTIFY_SAMPLES)

        def by_mlf():
            return np.array([mlf.kernel_beta(alpha, 1.0, float(t))
                             for t in grid])

        medians, ref_time = clock.around(lambda: timed({
            "mlf_s": by_mlf,
            "engine_s": lambda: soe.engine_kernel(alpha, grid),
            "build_soe_s": lambda: soe.build_soe(
                alpha, dt / 10.0, 10.0, t_min, t_max)}))
        case = {"alpha": alpha, "n_steps": n_steps, "t_min": t_min,
                "t_max": t_max, **medians, "reference_s": ref_time,
                "max_abs_diff": float(np.abs(soe.engine_kernel(alpha, grid)
                                             - by_mlf()).max())}
        for name in ("mlf_s", "engine_s", "build_soe_s"):
            case[name[:-2] + "_ref_s"] = case[name] * clock.ref_s / ref_time
        cases.append(case)
        print(f"alpha={alpha} N={n_steps}: mlf {case['mlf_s'] * 1e3:.1f} ms, "
              f"engine {case['engine_s'] * 1e3:.1f} ms, build_soe "
              f"{case['build_soe_s'] * 1e3:.1f} ms", file=sys.stderr)
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "samples": soe.CERTIFY_SAMPLES, "sample_s": SAMPLE_S,
            "machine": machine(),
            "cases": cases, "tables": table_record(clock)}


def main() -> None:
    bench_main(__doc__, certify_record, "BENCH_certify.json",
               "direct-long", "701-710")


if __name__ == "__main__":
    main()
