#!/usr/bin/env python3
"""Check that two source trees give the same outputs, byte for byte.

    python3 scripts/same_outputs.py PARENT_SRC [CHANGE_SRC]

CHANGE_SRC defaults to this checkout's ``src``.  Each case runs once per
tree in a fresh interpreter, with PYTHONPATH set to the tree and a
temporary output directory.  Its stdout and every file it writes are
compared byte for byte, with these exceptions, which are timings:

- bench.csv's wall_total, wall_history and wall_solve columns are dropped;
- bench's ``hist=...s`` and single-run's ``wall=...s`` and ``setup=...s``
  stdout fields are masked;
- bench_time.svg, which plots wall_history, is not compared.

The cases are the CLI ladders, bench, single-run (fast, direct, alpha = 1
and a [material] config), soe-table (the default range at alpha = 0.5,
and alpha = 0.8, eps = 1e-4 on [1e-3, 5]), the final
L2 errors (printed with repr, so bit for bit) of the full-size runs of each
benchmark workload, taken from ``perfbench/spec.py``'s ``plan`` and run the
way ``perfbench/workloads.py`` runs them, and the kernel engine's tables at
those runs' sizes: the I(t) table, the direct lag weights and the kernel on
the grid that certifies the run's SOE, every entry printed with repr, and
the exponential sums of the fast runs among them: each built sum's nodes,
weights and eps_certified, its compressed sum's nodes, weights and
lag_deviation, and the lag weights theta_1..theta_N of both, by repr,
and the per-mesh bundle of ``problems.precompute_loads`` on quad and tri
meshes at n = 6 under the default material and a non-default one: M, A and
B (dense, row-major) and p_mass, p_a, p_b and v0, by repr, the step
system ``stepper.TimeStepSystem`` of those bundles (default material) at
dt = 0.1 and 1/3: its ``rhs_mat``'s indptr, indices and data and its solve
of a fixed vector, by repr, and the
meshes of ``mesh.build_mesh`` (quad and tri, n = 2, 3 and 6): vertices,
cells and boundary_vertex, by repr.
These six kinds of case print one ``label<TAB>repr`` line per table,
the label ending in the table's name.
Prints one IDENTICAL or DIFFERENT line per case; a DIFFERENT case of those
kinds also gets the largest change of each table name (``error`` for the
pinned errors, ``I``, ``w`` and ``beta`` for the engine tables,
``built.nodes`` ... ``compressed.theta`` for the sums, ``M`` ... ``v0`` for
the bundle, ``indptr``, ``indices``, ``data`` and ``solve`` for the step
system, ``vertices`` ... ``boundary_vertex`` for the meshes),
max |after - before| / max |before| over each table, so that
roundoff in an entry near cancellation, or an entry that moves off 0, reads
as roundoff of the table (a table that was all zeros is scaled by
max |after|), and names every table whose length changed (a node count of a
sum).
Exits 1 on any difference or failed run.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIMING_COLUMNS = ("wall_total", "wall_history", "wall_solve")
#: argv placeholder -> the text of the config file it names
CONFIGS = {"CONFIG": "[run]\nspatial_ns = 4,8,16\nalphas = 0.3,0.8\n",
           "MATERIAL": "[material]\nrho = 2.0\ntau_sigma = 0.25\n"
                       "tau_eps = 0.5\nmu_d = 0.5\n"}

CLI = "import sys\nfrom fracvisco.cli import main\nsys.exit(main(sys.argv[1:]))"

# The runs of one workload, called as perfbench/workloads.py calls them.
PINNED_RUNS = """\
import sys
import numpy as np
from fracvisco import fem, mesh, problems, stepper
from fracvisco.cli import RunConfig
sys.path.insert(0, sys.argv[1])
from spec import plan
workload, cfg = sys.argv[2], RunConfig()
for group in plan(workload):
    first = group[0]
    msh = mesh.build_mesh(first.kind, first.n)
    dofs = fem.build_dof_map(msh)
    problem = problems.get_problem(cfg.problem, cfg.material(first.alpha),
                                   final_time=cfg.final_time)
    pre = conv = None
    if workload != "spatial-fast":
        pre = problems.precompute_loads(msh, dofs, problem)
    if workload == "direct-long":
        dt = cfg.final_time / first.n_steps
        conv = problems.conv_factor_grid(
            first.alpha, cfg.tau_sigma, dt * np.arange(1, first.n_steps + 1))
    for run in group:
        dt = cfg.final_time / run.n_steps
        res = stepper.run(problem, msh, stepper.Scheme(run.scheme),
                          run.n_steps, dofs=dofs, eps=cfg.eps_for(dt),
                          q=cfg.q, pre=pre, conv_values=conv)
        err = problems.exact_error(msh, dofs, res.coeffs, problem,
                                   cfg.final_time)
        print(f"{run.key} error", repr(err), sep="\t")
"""

# The engine tables of every distinct (alpha, N) of the workloads' runs.
ENGINE_TABLES = """\
import sys
import numpy as np
from fracvisco import problems, soe, stepper
from fracvisco.cli import RunConfig
sys.path.insert(0, sys.argv[1])
from spec import plan
cfg, seen = RunConfig(), set()
for workload in ("spatial-fast", "temporal-ladder", "direct-long"):
    for run in (run for group in plan(workload) for run in group):
        if (run.alpha, run.n_steps) in seen:
            continue
        seen.add((run.alpha, run.n_steps))
        mat, dt = cfg.material(run.alpha), cfg.final_time / run.n_steps
        tau = mat.tau_sigma
        grid = np.geomspace(dt / (10.0 * tau), cfg.final_time / tau,
                            soe.CERTIFY_SAMPLES)
        tables = {
            "I": problems.conv_factor_grid(
                run.alpha, tau, dt * np.arange(1, run.n_steps + 1)),
            "w": stepper.direct_weights(mat, dt, run.n_steps),
            "beta": soe.engine_kernel(run.alpha, grid)}
        for name, table in tables.items():
            print(f"a={run.alpha} N={run.n_steps} {name}",
                  repr(table.tolist()), sep="\t")
"""

# The sums of every distinct (alpha, N) of the fast workloads' runs, built
# and compressed as stepper.run builds them.
SOE_SUMS = """\
import sys
from fracvisco import soe
from fracvisco.cli import RunConfig
sys.path.insert(0, sys.argv[1])
from spec import plan
cfg, seen = RunConfig(), set()
for workload in ("spatial-fast", "temporal-ladder"):
    for run in (run for group in plan(workload) for run in group):
        if run.scheme != "fast" or (run.alpha, run.n_steps) in seen:
            continue
        seen.add((run.alpha, run.n_steps))
        dt, tau = (cfg.final_time / run.n_steps,
                   cfg.material(run.alpha).tau_sigma)
        built = soe.build_soe(run.alpha, cfg.eps_for(dt), cfg.q,
                              t_min=dt / (10.0 * tau),
                              t_max=cfg.final_time / tau)
        small = soe.compress_soe(built, dt, tau, run.n_steps)
        for name, approx, figure in (
                ("built", built, ("eps_certified", built.eps_certified)),
                ("compressed", small, ("lag_deviation", small.lag_deviation))):
            theta = soe.theta_weights(approx, dt, tau, run.n_steps)
            for part, value in (("nodes", approx.nodes.tolist()),
                                ("weights", approx.weights.tolist()), figure,
                                ("theta", theta.tolist())):
                print(f"a={run.alpha} N={run.n_steps} {name}.{part}",
                      repr(value), sep="\t")
"""

# The per-mesh operators of precompute_loads, under two materials.
BUNDLE_OPERATORS = """\
from fracvisco import fem, mesh, problems
materials = {"default": fem.Material(),
             "other": fem.Material(rho=2.5, tau_sigma=0.25, alpha=0.3,
                                   mu_c=1.5, mu_d=0.5)}
for kind, name in (("quad", "ex61"), ("tri", "ex62")):
    msh = mesh.build_mesh(kind, 6)
    dofs = fem.build_dof_map(msh)
    for label, mat in materials.items():
        pre = problems.precompute_loads(msh, dofs,
                                        problems.get_problem(name, mat))
        tables = {"M": pre.mass.toarray(), "A": pre.a_mat.toarray(),
                  "B": pre.b_mat.toarray(), "p_mass": pre.p_mass,
                  "p_a": pre.p_a, "p_b": pre.p_b, "v0": pre.v0}
        for table, value in tables.items():
            print(f"{kind} {name} {label} {table}",
                  repr(value.ravel().tolist()), sep="\t")
"""

# The backward-Euler system of the bundle at two steps: rhs_mat and a solve.
STEP_SYSTEM = """\
import numpy as np
from fracvisco import fem, mesh, problems, stepper
for kind, name in (("quad", "ex61"), ("tri", "ex62")):
    msh = mesh.build_mesh(kind, 6)
    dofs = fem.build_dof_map(msh)
    pre = problems.precompute_loads(msh, dofs, problems.get_problem(name))
    for dt in (0.1, 1 / 3):
        system = stepper.TimeStepSystem(pre, dt)
        tables = {f: getattr(system.rhs_mat, f) for f in
                  ("indptr", "indices", "data")}
        tables["solve"] = system.solve(np.cos(np.arange(dofs.n_dofs)))
        for table, value in tables.items():
            print(f"{kind} {name} dt={dt!r} {table}", repr(value.tolist()),
                  sep="\t")
"""

# The meshes themselves: every vertex, cell and boundary flag.
MESHES = """\
from fracvisco import mesh
for kind in ("quad", "tri"):
    for n in (2, 3, 6):
        msh = mesh.build_mesh(kind, n)
        for table in ("vertices", "cells", "boundary_vertex"):
            print(f"{kind} n={n} {table}",
                  repr(getattr(msh, table).ravel().tolist()), sep="\t")
"""

# name -> (python source, its argv; OUT and the CONFIGS keys are filled
# per run)
CASES = {
    "convergence-time quad": (CLI, [
        "convergence-time", "--mesh", "quad", "--mesh-n", "16",
        "--steps", "5,10,20,40", "--out", "OUT"]),
    "convergence-time tri ex62": (CLI, [
        "convergence-time", "--mesh", "tri", "--mesh-n", "8",
        "--steps", "5,10", "--alpha", "0.3", "--alpha", "0.8",
        "--problem", "ex62", "--out", "OUT"]),
    "convergence-time quad direct": (CLI, [
        "convergence-time", "--mesh", "quad", "--mesh-n", "8",
        "--steps", "5,10", "--scheme", "direct", "--out", "OUT"]),
    "convergence-space quad": (CLI, [
        "convergence-space", "--config", "CONFIG", "--mesh", "quad",
        "--out", "OUT"]),
    "convergence-space tri direct": (CLI, [
        "convergence-space", "--config", "CONFIG", "--mesh", "tri",
        "--scheme", "direct", "--out", "OUT"]),
    "bench both": (CLI, [
        "bench", "--scheme", "both", "--mesh-n", "8", "--steps", "50,100",
        "--eps-rule", "fixed:1e-6", "--out", "OUT"]),
    "single-run fast": (CLI, [
        "single-run", "--n", "8", "--n-steps", "32", "--alpha", "0.3"]),
    "single-run material": (CLI, [
        "single-run", "--config", "MATERIAL", "--n", "8", "--n-steps", "16"]),
    "single-run alpha 1": (CLI, [
        "single-run", "--n", "8", "--n-steps", "32", "--alpha", "1.0"]),
    "single-run direct": (CLI, [
        "single-run", "--scheme", "direct", "--alpha", "0.8", "--n", "8",
        "--n-steps", "32"]),
    "soe-table": (CLI, [
        "soe-table", "--alpha", "0.5", "--eps", "1e-6", "--out", "OUT"]),
    "soe-table alpha 0.8": (CLI, [
        "soe-table", "--alpha", "0.8", "--eps", "1e-4", "--t-min", "1e-3",
        "--t-max", "5", "--out", "OUT"]),
    **{f"pinned {w}": (PINNED_RUNS, [str(ROOT / "perfbench"), w])
       for w in ("spatial-fast", "temporal-ladder", "direct-long")},
    "engine tables": (ENGINE_TABLES, [str(ROOT / "perfbench")]),
    "SOE sums": (SOE_SUMS, [str(ROOT / "perfbench")]),
    "bundle operators": (BUNDLE_OPERATORS, []),
    "step system": (STEP_SYSTEM, []),
    "mesh": (MESHES, []),
}
#: the case sources that print label<TAB>repr tables
TABULAR = (PINNED_RUNS, ENGINE_TABLES, SOE_SUMS, BUNDLE_OPERATORS,
           STEP_SYSTEM, MESHES)


def _without_timings(name: str, data: bytes) -> bytes:
    if name != "bench.csv":
        return data
    rows = [line.split(",") for line in data.decode().splitlines()]
    keep = [i for i, col in enumerate(rows[0]) if col not in TIMING_COLUMNS]
    return "".join(",".join(row[i] for i in keep) + "\n"
                   for row in rows).encode()


def run_case(src: Path, source: str, argv: list[str]) -> dict[str, bytes]:
    """stdout and the output files of one case run against the tree src."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for key, text in CONFIGS.items():
            (work / f"{key}.ini").write_text(text, encoding="utf-8")
        args = [str(work / "out") if a == "OUT" else
                str(work / f"{a}.ini") if a in CONFIGS else a
                for a in argv]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", source, *args], cwd=work,
                              env=env, capture_output=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode} against {src}:\n"
                               f"{proc.stderr.decode()[-2000:]}")
        outputs = {"stdout": re.sub(rb"(hist|wall|setup)=\S+", rb"\1=*",
                                    proc.stdout)}
        for path in sorted((work / "out").rglob("*")):
            if path.is_file() and path.name != "bench_time.svg":
                outputs[path.name] = _without_timings(path.name,
                                                      path.read_bytes())
    return outputs


def _tables(out: bytes) -> dict[str, np.ndarray]:
    """label -> values of a case's ``label<TAB>repr`` lines."""
    tables = {}
    for line in out.decode().splitlines():
        label, value = line.split("\t")
        value = ast.literal_eval(value)
        tables[label] = np.array([] if value is None else value, dtype=float)
    return tables


def _drift(before: bytes, after: bytes) -> list[str]:
    """max |after - before| / max |before| of each table, the largest per
    table name (a label's last word), and each label whose table changed
    length."""
    old, new = _tables(before), _tables(after)
    worst, resized = {}, []
    for label in sorted(old.keys() | new.keys()):
        was, now = old.get(label, np.array([])), new.get(label, np.array([]))
        name = label.rsplit(" ", 1)[-1]
        if was.size != now.size:
            resized.append(f"{label} {was.size} -> {now.size} entries")
            continue
        change = float(np.abs(now - was).max(initial=0.0))
        scale = np.abs(was).max(initial=0.0) or np.abs(now).max(initial=0.0)
        worst[name] = max(worst.get(name, 0.0),
                          change / scale if change else 0.0)
    return ["max |after - before| / max |before|: " + ", ".join(
        f"{name} {value:.2e}" for name, value in worst.items())] + resized


def check_tree(src: Path) -> None:
    """Fail unless PYTHONPATH=src imports fracvisco from src itself."""
    proc = subprocess.run(
        [sys.executable, "-c", "import fracvisco; print(fracvisco.__file__)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    if not Path(proc.stdout.strip()).resolve().is_relative_to(src):
        raise SystemExit(f"PYTHONPATH={src} imports {proc.stdout.strip()}")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: same_outputs.py PARENT_SRC [CHANGE_SRC]", file=sys.stderr)
        return 2
    trees = [Path(argv[0]).resolve(),
             Path(argv[1] if len(argv) > 1 else ROOT / "src").resolve()]
    for src in trees:
        check_tree(src)
    same = True
    for name, (source, args) in CASES.items():
        try:
            before, after = (run_case(src, source, args) for src in trees)
        except RuntimeError as exc:
            print(f"FAILED     {name}: {exc}", flush=True)
            same = False
            continue
        diff = sorted(k for k in before.keys() | after.keys()
                      if before.get(k) != after.get(k))
        if diff and source in TABULAR:
            diff += _drift(before["stdout"], after["stdout"])
        print(f"{'IDENTICAL' if not diff else 'DIFFERENT':10s} {name}"
              + (f" ({', '.join(diff)})" if diff else ""), flush=True)
        same = same and not diff
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
