#!/usr/bin/env python3
"""Direct-history timings and benchmark pairs for BENCH_direct_history.json.

    python3 scripts/bench_history.py --label change
    python3 scripts/bench_history.py --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_history.py --pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload direct-long --seeds 401-410

The first two forms time the direct scheme's history (``wall_history``, the
median of 3 runs in this process) on quad n = 16 at N = 1500 (the
benchmark's direct-long run) and on quad n = 64 at N = 2000 and 4000 (the
direct half of acceptance criterion 6), with the source tree given by
``--src`` (default: this repository's ``src``) and one BLAS thread.  Raw
seconds swing with the load of a shared host, so each case also times
perfbench's fixed reference work (``perfbench/reference.py``) before and
after its samples and records the median in reference seconds as well,
raw * REF_S / (mean reference time).  The record also holds n_dofs, the
stepper's HISTORY_BLOCK and the machine, and is merged into the output
file under ``records[label]``.

The third form runs ``perfbench/run.py`` in two checkouts, alternating which
goes first, one pair per seed, and merges each side's end-to-end metrics per
pair, their medians and quartiles, and the change's wins under
``perfbench_pairs[workload]``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ((16, 1500), (64, 2000), (64, 4000))
REPEATS = 3
BETTER = {"wall_s": "lower", "setup_s": "lower", "dof_steps_per_s": "higher",
          "peak_rss_mb": "lower", "history_mb": "lower",
          "l2_error_ratio": "lower"}


def one_blas_thread() -> None:
    """Pin BLAS and LAPACK to one thread; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


class ReferenceClock:
    """perfbench's reference work, run before and after a case: ``around``
    returns the case's result and the mean reference time next to it; raw
    seconds * ref_s / that time are reference seconds."""

    def __init__(self) -> None:
        sys.path.append(str(ROOT / "perfbench"))
        from reference import REF_S, Reference
        self.ref_s, self.work = REF_S, Reference()

    def around(self, measure):
        before = self.work.run()
        out = measure()
        return out, (before + self.work.run()) / 2


def machine() -> dict:
    import numpy
    import scipy
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def history_record(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from fracvisco import stepper
    from fracvisco.fem import build_dof_map
    from fracvisco.mesh import build_mesh
    from fracvisco.problems import get_problem, precompute_loads

    prob = get_problem("ex61")
    clock = ReferenceClock()
    cases = []
    for n, n_steps in CASES:
        mesh = build_mesh("quad", n)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, prob)
        samples, ref_time = clock.around(lambda: [
            stepper.run(prob, mesh, stepper.Scheme.DIRECT, n_steps,
                        dofs=dofs, pre=pre).timings.wall_history
            for _ in range(REPEATS)])
        median = statistics.median(samples)
        median_ref = median * clock.ref_s / ref_time
        cases.append({"mesh": "quad", "n": n, "n_steps": n_steps,
                      "n_dofs": dofs.n_dofs, "wall_history_s": median,
                      "samples_s": samples, "reference_s": ref_time,
                      "wall_history_ref_s": median_ref})
        print(f"quad n={n} N={n_steps}: wall_history median {median:.3f} s, "
              f"{median_ref:.3f} reference s", file=sys.stderr)
    return {"history_block": stepper.HISTORY_BLOCK,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": machine(), "cases": cases}


def perfbench(checkout: Path, workload: str, seed: int,
              seconds: int) -> dict:
    """One untraced benchmark run: its metric values, attempted and failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    rec = {name: m["value"] for name, m in out["metrics"].items()}
    rec.update(attempted=out["attempted"], failed=out["failed"])
    return rec


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def pairs_record(parent: Path, change: Path, workload: str,
                 seeds: list[int], seconds: int) -> dict:
    pairs = []
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for label, checkout in order:
            pair[label] = perfbench(checkout, workload, seed, seconds)
        pairs.append(pair)
        print(f"{workload} seed {seed}: wall_s parent "
              f"{pair['parent']['wall_s']:.4f} change "
              f"{pair['change']['wall_s']:.4f}", file=sys.stderr)
    summary = {}
    for name, better in BETTER.items():
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        summary[name] = {
            "better": better,
            "parent_quartiles": quartiles(par) if len(par) > 1 else par,
            "change_quartiles": quartiles(chg) if len(chg) > 1 else chg,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
            "pairs": len(pairs)}
    failed = sum(p[s]["failed"] for p in pairs for s in ("parent", "change"))
    return {"seconds": seconds, "machine": machine(), "failed_runs": failed,
            "summary": summary, "pairs": pairs}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_main(doc: str, record, out: str, workload: str, seeds: str) -> None:
    """Command line of the bench_*.py scripts: ``--label`` merges
    record(src), timed with one BLAS thread, under ``records[label]`` of the
    output file; ``--pairs`` merges the perfbench pairs of the workload under
    ``perfbench_pairs[workload]``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", help="record name, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--pairs", nargs=2, type=Path,
                    metavar=("PARENT", "CHANGE"))
    ap.add_argument("--workload", default=workload)
    ap.add_argument("--seeds", type=seed_list, default=seed_list(seeds))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, default=ROOT / out)
    args = ap.parse_args()
    if (args.label is None) == (args.pairs is None):
        ap.error("give exactly one of --label and --pairs")

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.label is not None:
        one_blas_thread()
        data.setdefault("records", {})[args.label] = record(args.src)
    else:
        data.setdefault("perfbench_pairs", {})[args.workload] = pairs_record(
            *args.pairs, args.workload, args.seeds, args.seconds)
    args.out.write_text(json.dumps(data, indent=1) + "\n")


def main() -> None:
    bench_main(__doc__, history_record, "BENCH_direct_history.json",
               "direct-long", "401-410")


if __name__ == "__main__":
    main()
