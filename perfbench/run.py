"""fracvisco benchmark: three solver workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload spatial-fast|temporal-ladder|direct-long \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  A run executes in one fresh process
(``workloads.py``) with one BLAS thread, which repeats the workload's pass
(every run it defines, see ``spec.py``) one at a time (closed loop, one
client) until ``--seconds`` have elapsed; its first pass is a warm-up and is
not timed.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, each the median over the traced passes; the median
traced wall time minus the median untraced one is the tracing overhead
(``trace.overhead_s``).  Spans of the traced passes are written to
``perfbench/out/trace-<workload>-seed<N>.json`` at exit.

Times and rates are medians over the passes of the run, memory and accuracy
the worst pass.  Every time is in reference seconds (see ``reference.py``):
the measured time scaled by the speed of the host next to the pass, as the
fixed reference work timed before and after it shows.  On a shared host
co-tenants change a vCPU's speed by up to 2x, for seconds or for minutes;
the scaling takes out most of that, and the median over the dozen or more
short passes of a run most of the rest.  The report prints the measured
wall time and the reference work's time beside the scaled values.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
machine record and a readable report.  ``attempted`` and ``failed`` count
solver runs: a run fails when it raises a ``FracViscoError`` or fails the
correctness gate of ``spec.check``.

End-to-end metrics, per pass (PICK says how a run reports them):
  wall_s           wall time of the pass: every solver call the CLI would
                   make, up to and including each run's final-time error
  setup_s          the part of wall_s before each run's first time step:
                   run() minus its timings.wall_total, plus the mesh, dof
                   map, load and I(t) calls the harness makes around run()
  dof_steps_per_s  sum of n_dofs * n_steps over sum of timings.wall_total
  peak_rss_mb      high-water RSS of the run's process up to the pass
  history_mb       largest peak_history_bytes of the pass
  l2_error_ratio   largest final-time L2 error over its pinned value
Printed as well: failed_runs (failed / attempted runs) and l2_error_drift
(largest |error / pinned - 1|); both read 0 when the code is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from reference import REF_S  # noqa: E402

BLAS_THREADS = 1          # steadiest on a shared machine; at most nproc
RUN_BUDGET_S = 170.0      # a run must end within 180 s
ACCOUNTING_TOL_S = 1e-3   # stepper parts vs stepper.run span, per run
L3_BANDWIDTH_FACTOR = 4   # a working set must exceed 4x L3 to claim bandwidth
PICK = {"wall_s": statistics.median, "setup_s": statistics.median,
        "dof_steps_per_s": statistics.median, "peak_rss_mb": max,
        "history_mb": max, "l2_error_ratio": max}


def machine_record(software: dict) -> dict:
    """Hardware, software and source revision the numbers come from."""
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                level = (idx / "level").read_text().strip()
                rec[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    rec.update(software)
    rec["commit"] = commit_hash()
    return rec


def commit_hash() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_bytes(size: str) -> int:
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> list[dict]:
    """The passes of one run, made in a fresh process; a crash or timeout
    fails every run of a single pseudo-pass."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--size", size]
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_BUDGET_S)
        if proc.returncode == 0:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            for p in out["passes"]:
                p["software"] = out["software"]
            return out["passes"]
        reason = f"run process exited with code {proc.returncode}"
        sys.stderr.write(proc.stderr[-4000:])
    except subprocess.TimeoutExpired:
        reason = f"run process killed after {RUN_BUDGET_S:.0f} s"
    keys = [r.key for g in spec.plan(workload, size) for r in g]
    return [{"crashed": reason, "traced": False, "warmup": False,
             "attempted": len(keys), "failed": {k: reason for k in keys},
             "records": []}]


def speed(p: dict) -> float:
    """Reference seconds per measured second during pass p."""
    return REF_S / p["ref_s"]


def pass_metrics(p: dict, pins: dict[str, float]) -> dict[str, float]:
    recs = p["records"]
    loop = sum(r["loop_s"] for r in recs) * speed(p)
    return {
        "wall_s": p["wall_s"] * speed(p),
        "setup_s": p["setup_s"] * speed(p),
        "dof_steps_per_s": (sum(r["n_dofs"] * r["n_steps"] for r in recs)
                            / loop if loop > 0 else 0.0),
        "peak_rss_mb": p["peak_rss_mb"],
        "history_mb": max((r["history_bytes"] for r in recs), default=0) / 1e6,
        "l2_error_ratio": max((r["error"] / pins[r["key"]] for r in recs
                               if r["key"] in pins), default=0.0),
    }


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer table of traced pass p, times (names ending in _s) in
    reference seconds, the history rate per reference second."""
    out = {}
    for name, value in p["layers"].items():
        if name.endswith("_s"):
            value *= speed(p)
        elif name == "stepper.history_gbs_computed":
            value /= speed(p)
        out[name] = value
    return out


def summarize(workload: str, passes: list[dict], trace: bool,
              bench: dict, pins: dict[str, float] | None = None
              ) -> tuple[dict, list[str]]:
    """The result object and the report lines for a list of passes."""
    pins = spec.PINNED if pins is None else pins
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    lines = []
    ok = [p for p in passes if "crashed" not in p]
    timed = [p for p in ok if not p["warmup"]]
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    correct = failed == 0 and len(ok) == len(passes)
    for p in passes:
        for key, reason in p["failed"].items():
            lines.append(f"FAILED pass {p.get('pass_index', '?')} {key}: "
                         f"{reason}")
    if not plain or (trace and not traced):
        return {}, lines + ["no complete pass to report"]

    rows = [pass_metrics(p, pins) for p in plain]
    e2e = {k: pick([r[k] for r in rows]) for k, pick in PICK.items()}
    drift = max((abs(r["error"] / pins[r["key"]] - 1.0) for p in ok
                 for r in p["records"] if r["key"] in pins), default=0.0)
    lines.append(f"{workload}: {len(plain)} plain + {len(traced)} traced "
                 f"passes after a warm-up; reported value (quartiles of the "
                 f"plain passes)")
    for name, value in e2e.items():
        q = quartiles([r[name] for r in rows])
        lines.append(f"  {name:<18} {value:14.6g} {units.get(name, ''):<6}"
                     f" ({q[0]:.6g} .. {q[2]:.6g})")
    raw = statistics.median(p["wall_s"] for p in plain)
    ref = quartiles([p["ref_s"] for p in plain])
    lines.append(f"  measured wall_s {raw:.6g} s; reference work "
                 f"{ref[1]:.4g} s ({ref[0]:.4g} .. {ref[2]:.4g}), "
                 f"{REF_S:g} s at the reference speed")
    lines.append(f"  {'failed_runs':<18} {failed:>7d}/{attempted:<6d} runs")
    lines.append(f"  {'l2_error_drift':<18} {drift:14.6g} (gate "
                 f"{spec.PIN_RTOL:g})")
    metrics = e2e

    if trace:
        tables = [layer_metrics(p) for p in traced]
        layers = {k: statistics.median(t[k] for t in tables)
                  for k in tables[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        gap = max(p["accounting_gap_s"] for p in traced)
        if gap > ACCOUNTING_TOL_S:
            correct = False
            lines.append(f"FAILED stepper accounting: parts differ from the "
                         f"stepper.run span by {gap:.3g} s")
        lines.append(f"per-layer metrics, median of {len(traced)} "
                     f"traced passes (stepper parts vs stepper.run span: "
                     f"{gap:.2e} s)")
        for name, value in layers.items():
            lines.append(f"  {name:<30} {value:14.6g} {units.get(name, '')}")
        overhead = layers["trace.overhead_s"] / e2e["wall_s"]
        lines.append(f"  trace overhead {overhead:+.2%} of untraced wall_s")
        metrics = layers
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in names}}
    return result, lines


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def working_set_lines(passes: list[dict], machine: dict) -> list[str]:
    """The largest history working set next to the L3 size."""
    hist = max((r["history_bytes"] for p in passes for r in p["records"]),
               default=0)
    l3 = machine.get("L3")
    if not l3:
        return [f"history working set {hist / 1e6:.1f} MB; L3 size unknown"]
    ratio = hist / cache_bytes(l3)
    verdict = (f"under {L3_BANDWIDTH_FACTOR}x L3, so history_gbs_computed "
               f"is not a memory-bandwidth figure"
               if ratio < L3_BANDWIDTH_FACTOR else
               f"at least {L3_BANDWIDTH_FACTOR}x L3")
    return [f"history working set {hist / 1e6:.1f} MB = {ratio:.2f}x L3 "
            f"({l3}): {verdict}"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fracvisco" / "__init__.py").is_file():
        print("perfbench: solver sources src/fracvisco not found under "
              f"{ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    software = next((p["software"] for p in passes if "software" in p), {})
    machine = machine_record(software)
    print("machine " + json.dumps(machine))
    result, lines = summarize(args.workload, passes, bool(args.trace), bench)
    lines += working_set_lines(passes, machine)
    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "machine": machine, "workload": args.workload, "seed": args.seed,
            "passes": passes}))
        lines.append(f"spans written to {out.relative_to(ROOT)}")
    print("\n".join(lines))
    if not result:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
