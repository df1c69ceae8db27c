#!/usr/bin/env python3
"""Layer timings of solver runs, and benchmark pairs, for BENCH_layers.json.

    python3 scripts/bench_layers.py --label "$(git rev-parse --short HEAD)"
    python3 scripts/bench_layers.py --label NAME --src OTHER_CHECKOUT/src
    python3 scripts/bench_layers.py --pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload spatial-fast --seeds 501-510

The first two forms time each row of CASES, a layer of an ex61 run (eps None
is the run's dt / 10), against the tree ``--src`` with one BLAS thread, and
store the record, with the tree's commit and the machine, in
``records[label]``.  Its first row, ``import``, runs ``import fracvisco.cli``
from that tree in a fresh interpreter per sample: ``import_s`` is the
import's wall time, ``maxrss_mb`` the median of the interpreters' peak RSS
(ru_maxrss, in perfbench's MB) and ``loaded`` which of SCIPY_SUBPACKAGES it
loaded.  Each time ``X_s`` is the median of its layer's REPEATS
samples (``X_samples_s``), and ``X_ref_s`` the median of the samples in
perfbench's reference seconds: the reference work runs before the row and
after each sample (``reference_samples_s``, median ``reference_s``), and a
sample is scaled by REF_S over the mean of the two runs next to it, so a
slow stretch of the host that spans some samples slows their reference
runs too.  Rows carry the COUNTERS that explain their time, null where the
layer has none.

The third form runs ``perfbench/run.py`` in two checkouts, alternating which
goes first, and stores each pair's end-to-end metrics, their quartiles and
the change's wins in ``perfbench_pairs[workload]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_S, FINAL_TIME = 0.05, 1.0  # SAMPLE_S: least sample time
# samples per row: 3 left the sub-millisecond kernel tables of certify and
# tables about 45 % apart between two records of one tree
REPEATS = {"import": 5, "certify": 15, "tables": 15, "system": 7,
           "per_mesh": 7, "fast_loop": 3, "direct_loop": 3}
COUNTERS = ("n_dofs", "n_exp", "half_bandwidth", "factor_entries")
Case = namedtuple("Case", "layer mesh n alpha n_steps eps", defaults=(None,))
SCIPY_SUBPACKAGES = ("scipy.optimize", "scipy.integrate", "scipy.spatial",
                     "scipy.fft")
# argv: the src tree, then the subpackages to look for in sys.modules
IMPORT_SCRIPT = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import fracvisco.cli
import_s = time.perf_counter() - t0
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "import_s": import_s, "maxrss_mb": maxrss * 1024 / 1e6,
    "loaded": [name for name in sys.argv[2:] if name in sys.modules]}))
"""

# The fast runs of spatial-fast (N = 256) and temporal-ladder (N = 5 ... 40);
# the tables also at direct-long's N = 1500, the system rows at dt = 0.5/n^2.
RUNS = ((0.3, 256), (0.5, 256), (0.8, 256),
        (0.5, 5), (0.5, 10), (0.5, 20), (0.5, 40))
CASES = (
    Case("import", None, None, None, None),
    *(Case("certify", None, None, a, steps) for a, steps in RUNS),
    *(Case("tables", None, None, a, steps)
      for a, steps in (*RUNS, (0.5, 1500))),
    *(Case("system", kind, n, 0.5, 2 * n * n)
      for n in (16, 32, 64, 128) for kind in ("quad", "tri")),
    # spatial-fast, temporal-ladder and criterion 1's top rung
    *(Case("per_mesh", kind, n, 0.5, steps) for kind, n, steps in (
        ("quad", 16, 256), ("quad", 32, 40), ("tri", 32, 40),
        ("quad", 64, 4096))),
    # spatial-fast and criterion 6: the fast, then the direct runs
    *(Case("fast_loop", "quad", 16, a, 256) for a in (0.3, 0.5, 0.8)),
    Case("fast_loop", "quad", 64, 0.5, 2000, 1e-6),
    Case("fast_loop", "quad", 64, 0.5, 4000, 1e-6),
    # direct-long and criterion 6
    *(Case("direct_loop", "quad", n, 0.5, steps)
      for n, steps in ((16, 1500), (64, 2000), (64, 4000))),
)


def machine() -> dict:
    import numpy
    import scipy
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def commit(src: Path) -> str | None:
    """HEAD of the checkout holding src, +dirty when src has uncommitted
    changes; None outside a checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        dirty = git("status", "--porcelain", "--", ".")
        return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def mean_time(fn, reps: int = 1) -> float:
    """Mean wall time of reps calls of fn."""
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def calls(fns: dict):
    """A sample of each callable: its mean time over as many calls as fill
    SAMPLE_S seconds, counted after one warm-up call."""
    reps = {name: max(1, round(SAMPLE_S / mean_time(fn)))
            for name, fn in fns.items()}
    return lambda: {name: mean_time(fn, reps[name])
                    for name, fn in fns.items()}


def layer(case: Case):
    """The case's layer: its sample and the row's fields other than times."""
    if case.layer == "import":  # of the tree layer_record imported
        src = Path(fem.__file__).resolve().parent.parent
        info = {"maxrss_samples_mb": []}

        def fresh_import() -> dict:
            out = json.loads(subprocess.run(
                [sys.executable, "-c", IMPORT_SCRIPT, str(src),
                 *SCIPY_SUBPACKAGES], capture_output=True, text=True,
                check=True).stdout)
            info["maxrss_samples_mb"].append(out["maxrss_mb"])
            info["maxrss_mb"] = statistics.median(info["maxrss_samples_mb"])
            info["loaded"] = out["loaded"]
            return {"import_s": out["import_s"]}
        return fresh_import, info
    dt, mat = FINAL_TIME / case.n_steps, fem.Material(alpha=case.alpha)
    if case.layer == "certify":  # on the grid the run's sum is certified on
        t_min, t_max = dt / (10 * mat.tau_sigma), FINAL_TIME / mat.tau_sigma
        grid = np.geomspace(t_min, t_max, soe.CERTIFY_SAMPLES)
        build = functools.partial(soe.build_soe, case.alpha,
                                  case.eps or dt / 10, soe.PANEL_RATIO,
                                  t_min, t_max)
        return calls({"engine_s": lambda: soe.engine_kernel(case.alpha, grid),
                      "build_soe_s": build}), {
            "t_min": t_min, "t_max": t_max, "n_exp": build().n_exp}
    if case.layer == "tables":
        times = dt * np.arange(1, case.n_steps + 1)
        return calls({
            "conv_table_s": lambda: problems.conv_factor_grid(
                case.alpha, mat.tau_sigma, times),
            "lag_weights_s": lambda: stepper.direct_weights(
                mat, dt, case.n_steps)}), {}
    msh = mesh.build_mesh(case.mesh, case.n)
    dofs = fem.build_dof_map(msh)
    prob = problems.get_problem("ex61", mat, final_time=FINAL_TIME)
    pre = problems.precompute_loads(msh, dofs, prob)
    n, (bw, ((slots, values), a_band)) = dofs.n_dofs, pre.band
    counts = {"n_dofs": n, "half_bandwidth": bw,
              "factor_entries": (bw + 1) * n}
    if case.layer == "system":  # the factor as TimeStepSystem scales it
        solve = stepper.TimeStepSystem(pre, dt).solve
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(n)
        rhs3 = rng.standard_normal((n, 3))
        return calls({"factor_s": lambda: fem.band_solver(
                          n, bw, [(slots, values * (1 / dt)), a_band]),
                      "system_s": lambda: stepper.TimeStepSystem(pre, dt),
                      "solve_s": lambda: solve(rhs),
                      "solve_3rhs_s": lambda: solve(rhs3)}), counts
    if case.layer == "per_mesh":  # the calls precompute_loads makes
        forms = [("values", np.eye(2)), ("strains", mat.a_tensor),
                 ("strains", mat.b_tensor)]
        return calls({
            "assembly_s": lambda: fem._matrices(msh, dofs, forms),
            "ritz_s": lambda: fem.band_solver(n, bw, [a_band])(pre.p_a),
            "loads_s": lambda: problems.precompute_loads(msh, dofs, prob),
            "error_s": lambda: problems.exact_error(msh, dofs, pre.v0, prob,
                                                    FINAL_TIME)}), counts

    def sample() -> dict:  # fast_loop or direct_loop; n_exp is the run's
        res = stepper.run(prob, msh, case.layer.split("_")[0], case.n_steps,
                          dofs=dofs, eps=case.eps, pre=pre)
        counts["n_exp"] = res.n_exp
        return {f"{p}_s": getattr(res.timings, p) / case.n_steps
                for p in ("wall_history", "wall_solve", "wall_total")}
    return sample, counts


def layer_record(src: Path, cases: tuple = CASES) -> dict:
    """Time each case's layer against the tree src."""
    global np, fem, mesh, problems, soe, stepper
    sys.path.insert(0, str(src))
    sys.path.append(str(ROOT / "perfbench"))
    import numpy as np
    from fracvisco import fem, mesh, problems, soe, stepper
    from reference import REF_S, Reference
    ref = Reference()
    rows, refs = [], [ref.run()]
    for case in cases:
        sample, info = layer(case)
        samples, refs = [], refs[-1:]
        for _ in range(REPEATS[case.layer]):
            samples.append(sample())
            refs.append(ref.run())
        row = {**case._asdict(), **dict.fromkeys(COUNTERS), **info,
               "reference_s": statistics.median(refs),
               "reference_samples_s": refs}
        for key in samples[0]:
            row[key] = statistics.median(s[key] for s in samples)
            row[key[:-2] + "_ref_s"] = statistics.median(
                s[key] * REF_S * 2 / (r0 + r1)
                for s, r0, r1 in zip(samples, refs, refs[1:]))
            row[key[:-2] + "_samples_s"] = [s[key] for s in samples]
        rows.append(row)
        print(" ".join(map(str, case)) + ": " + ", ".join(
            f"{key[:-6]} {value * 1e3:.3f}" for key, value in row.items()
            if key.endswith("_ref_s")) + " reference ms", file=sys.stderr)
    return {"commit": commit(src), "machine": machine(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "repeats": REPEATS, "sample_s": SAMPLE_S,
            "samples": soe.CERTIFY_SAMPLES,
            "history_block": stepper.HISTORY_BLOCK, "rows": rows}


def perfbench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its metric values, attempted and failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{name: m["value"] for name, m in out["metrics"].items()},
            "attempted": out["attempted"], "failed": out["failed"]}


def pairs_record(parent: Path, change: Path, workload: str,
                 seeds: list[int], seconds: int) -> dict:
    pairs = []
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)][::-1 if i % 2 else 1]
        pair = {"seed": seed, "first": order[0][0]}
        for label, checkout in order:
            pair[label] = perfbench(checkout, workload, seed, seconds)
        pairs.append(pair)
        print(f"{workload} seed {seed}: wall_s parent "
              f"{pair['parent']['wall_s']:.4f} change "
              f"{pair['change']['wall_s']:.4f}", file=sys.stderr)
    summary = {}
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "end_to_end"]:
        name, better = metric["name"], metric["better"]
        par, chg = ([p[side][name] for p in pairs]
                    for side in ("parent", "change"))
        sign = 1.0 if better == "lower" else -1.0
        summary[name] = {
            "better": better, "parent_quartiles": quartiles(par),
            "change_quartiles": quartiles(chg),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
            "pairs": len(pairs)}
    failed = sum(p[s]["failed"] for p in pairs for s in ("parent", "change"))
    return {"seconds": seconds, "machine": machine(), "failed_runs": failed,
            "summary": summary, "pairs": pairs}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="record name: the timed tree's commit")
    mode.add_argument("--pairs", nargs=2, type=Path,
                      metavar=("PARENT", "CHANGE"))
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--workload", default="spatial-fast")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("501-510"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = ap.parse_args()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.label is not None:
        for lib in ("OPENBLAS", "OMP", "MKL"):  # before numpy loads
            os.environ[lib + "_NUM_THREADS"] = "1"
        data.setdefault("records", {})[args.label] = layer_record(args.src)
    else:
        data.setdefault("perfbench_pairs", {})[args.workload] = pairs_record(
            *args.pairs, args.workload, args.seeds, args.seconds)
    args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
