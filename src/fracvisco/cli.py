"""Experiment harness: convergence ladders, benchmarks, and SOE tables.

Subcommands:
  convergence-space   spatial ladder with dt = h^2/2 (error vs mesh size)
  convergence-time    temporal ladder at fixed mesh (error vs step size)
  bench               fast-vs-direct wall time / memory sweep over step counts
  soe-table           build, certify, and print an exponential-sum table
  single-run          one solve; prints the final-time error and timings

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
Config files are flat INI ([material] / [run] sections); CLI flags override
file values.  CSV output is UTF-8, comma-separated, scientific notation with
6 significant digits; timing columns are excluded from determinism claims.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import FracViscoError
from .fem import Material, build_dof_map
from .mesh import MeshKind, build_mesh
from .problems import conv_factor_grid, exact_error, get_problem, precompute_loads
from .soe import PANEL_RATIO, build_soe, default_eps, write_table
from .stepper import Scheme, run

SPATIAL_LADDER = (4, 8, 16, 32, 64)
TEMPORAL_LADDER = (5, 10, 20, 40, 80)


@dataclass(frozen=True)
class RunConfig:
    """Experiment configuration; defaults reproduce the reference tables."""

    problem: str = "ex61"
    mesh: MeshKind = MeshKind.QUADRILATERAL
    alphas: tuple[float, ...] = (0.5,)
    spatial_ns: tuple[int, ...] = SPATIAL_LADDER
    n_steps: tuple[int, ...] = TEMPORAL_LADDER
    mesh_n: int = 64                  # fixed mesh for temporal/bench runs
    scheme: str = "fast"              # fast | direct | both
    eps_rule: str = "dt-over-10"      # or "fixed:<value>"
    final_time: float = 1.0
    rho: float = Material.rho
    tau_sigma: float = Material.tau_sigma
    tau_eps: float = Material.tau_eps
    mu_c: float = Material.mu_c
    lambda_c: float = Material.lambda_c
    mu_d: float = Material.mu_d
    lambda_d: float = Material.lambda_d
    out: Path = field(default_factory=lambda: Path("out"))
    #: the SOE panel ratio, a constant: not a field, key or flag
    q = PANEL_RATIO

    def material(self, alpha: float) -> Material:
        return Material(alpha=alpha, **{key: getattr(self, key)
                                        for key in _KEYS["material"]})

    def eps_for(self, dt: float) -> float:
        if self.eps_rule == "dt-over-10":
            return default_eps(dt)
        kind, _, text = self.eps_rule.partition(":")
        try:
            eps = float(text)
        except ValueError:
            eps = math.nan
        if kind != "fixed" or not 0.0 < eps < 1.0:
            raise ValueError(f"eps_rule must be dt-over-10 or fixed:<eps>, "
                             f"0 < eps < 1, got {self.eps_rule!r}")
        return eps


def _orders(levels: list[int], errors: list[float]) -> list[float | None]:
    """Observed order between consecutive levels (cells per side or step
    counts): log(e_prev / e_cur) / log(k_cur / k_prev)."""
    return [None] + [math.log2(e0 / e1) / math.log2(k1 / k0) for k0, k1, e0, e1
                     in zip(levels, levels[1:], errors, errors[1:])]


def _fmt(x: float) -> str:
    return f"{x:.5e}"


def _ladder_table(label: str, resolutions: list[float], errors: list[float],
                  orders: list[float | None]) -> str:
    """The printed ladder: label, header, then per level its h/sqrt(2) or
    dt, error and observed order ("--" on the first)."""
    lines = [label, f"{'level':>5} {'h or dt':>12} {'error':>12} {'order':>7}"]
    for level, (res, err, order) in enumerate(zip(resolutions, errors, orders)):
        order_text = "     --" if order is None else f"{order:7.2f}"
        lines.append(f"{level + 1:5d} {res:12.5e} {err:12.5e} {order_text}")
    return "\n".join(lines)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# minimal self-contained SVG log-log plots

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_loglog(path: Path, title: str, xlabel: str, ylabel: str,
                series: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    width, height, margin = 640, 480, 70
    xs = np.concatenate([s[1] for s in series]).astype(float)
    ys = np.concatenate([s[2] for s in series]).astype(float)
    lx0, lx1 = math.log10(xs.min()), math.log10(xs.max())
    ly0, ly1 = math.log10(ys.min()), math.log10(ys.max())
    lx1 += 1e-9 if lx1 == lx0 else 0.0
    ly1 += 1e-9 if ly1 == ly0 else 0.0

    def px(v: float) -> float:
        return margin + (math.log10(v) - lx0) / (lx1 - lx0) * (width - 2 * margin)

    def py(v: float) -> float:
        return height - margin - (math.log10(v) - ly0) / (ly1 - ly0) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width/2}" y="25" text-anchor="middle" font-size="16">{title}</text>',
             f'<text x="{width/2}" y="{height-15}" text-anchor="middle" font-size="13">{xlabel} (log)</text>',
             f'<text x="20" y="{height/2}" text-anchor="middle" font-size="13" '
             f'transform="rotate(-90 20 {height/2})">{ylabel} (log)</text>',
             f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
             f'height="{height-2*margin}" fill="none" stroke="black"/>']
    for d in range(math.floor(lx0), math.ceil(lx1) + 1):
        if lx0 <= d <= lx1:
            x = px(10.0 ** d)
            parts.append(f'<line x1="{x:.1f}" y1="{margin}" x2="{x:.1f}" '
                         f'y2="{height-margin}" stroke="#ddd"/>')
            parts.append(f'<text x="{x:.1f}" y="{height-margin+18}" '
                         f'text-anchor="middle" font-size="11">1e{d}</text>')
    for d in range(math.floor(ly0), math.ceil(ly1) + 1):
        if ly0 <= d <= ly1:
            y = py(10.0 ** d)
            parts.append(f'<line x1="{margin}" y1="{y:.1f}" x2="{width-margin}" '
                         f'y2="{y:.1f}" stroke="#ddd"/>')
            parts.append(f'<text x="{margin-8}" y="{y:.1f}" text-anchor="end" '
                         f'font-size="11">1e{d}</text>')
    for i, (name, sx, sy) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(a):.1f},{py(b):.1f}" for a, b in zip(sx, sy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for a, b in zip(sx, sy):
            parts.append(f'<circle cx="{px(a):.1f}" cy="{py(b):.1f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width-margin-10}" y="{margin+18+16*i}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts), encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands

def _mesh(cfg: RunConfig, n: int):
    """The cfg.mesh mesh of n cells per side and its dof map."""
    mesh = build_mesh(cfg.mesh, n)
    return mesh, build_dof_map(mesh)


def _problem(cfg: RunConfig, alpha: float):
    return get_problem(cfg.problem, cfg.material(alpha),
                       final_time=cfg.final_time)


def _solve(cfg: RunConfig, problem, mesh, dofs, scheme: str, n_steps: int,
           pre=None, conv=None) -> dict:
    """One run and its record: the final-time L2 error, the run's timings
    and its history counters."""
    res = run(problem, mesh, scheme, n_steps, dofs=dofs,
              eps=cfg.eps_for(cfg.final_time / n_steps), pre=pre,
              conv_values=conv)
    return {"scheme": Scheme(scheme).value, "n": mesh.n, "n_steps": n_steps,
            "alpha": problem.material.alpha,
            "error": exact_error(mesh, dofs, res.coeffs, problem,
                                 cfg.final_time),
            **asdict(res.timings),
            "peak_history_bytes": res.peak_history_bytes, "n_exp": res.n_exp,
            "lag_deviation": (None if res.soe is None
                              else res.soe.lag_deviation)}


def cmd_convergence(cfg: RunConfig, space: bool) -> list[str]:
    """The spatial ladder (each mesh of spatial_ns at dt = h^2/2) or the
    temporal one (each step count of n_steps on the mesh_n mesh): one
    printed table per alpha, and one CSV of all of them."""
    levels = ([(n, max(1, round(cfg.final_time * n * n)))
               for n in cfg.spatial_ns] if space
              else [(cfg.mesh_n, n_steps) for n_steps in cfg.n_steps])
    label, name, column = (("spatial", "space", "h_over_sqrt2") if space
                           else ("temporal", "time", "n_steps"))
    meshes = {n: _mesh(cfg, n) for n, _ in levels}
    tables = []
    rows_csv: list[list[str]] = []
    for alpha in cfg.alphas:
        problem = _problem(cfg, alpha)
        pres = {n: precompute_loads(*md, problem) for n, md in meshes.items()}
        errors = [_solve(cfg, problem, *meshes[n], cfg.scheme, n_steps,
                         pre=pres[n])["error"] for n, n_steps in levels]
        orders = _orders([n if space else n_steps for n, n_steps in levels],
                         errors)
        tables.append(_ladder_table(
            f"{label} {cfg.problem} {cfg.mesh.value} alpha={alpha}",
            [1.0 / n if space else cfg.final_time / n_steps
             for n, n_steps in levels], errors, orders))
        for (n, n_steps), e, o in zip(levels, errors, orders):
            rows_csv.append([cfg.mesh.value, _fmt(alpha), str(n),
                             _fmt(1.0 / n) if space else str(n_steps),
                             _fmt(cfg.final_time / n_steps), _fmt(e),
                             _fmt(o) if o is not None else ""])
    _write_csv(cfg.out / f"convergence_{name}.csv",
               ["mesh_kind", "alpha", "n", column, "dt", "error", "order"],
               rows_csv)
    return tables


_BENCH_COLUMNS = ("scheme", "n", "n_steps", "alpha", "error", "wall_total",
                  "wall_history", "wall_solve", "peak_history_bytes", "n_exp")


def cmd_bench(cfg: RunConfig) -> list[dict]:
    """Fast-vs-direct sweep at fixed mesh; serial, one discarded warmup."""
    problem = _problem(cfg, cfg.alphas[0])
    mesh, dofs = _mesh(cfg, cfg.mesh_n)
    pre = precompute_loads(mesh, dofs, problem)
    schemes = list(Scheme) if cfg.scheme == "both" else [Scheme(cfg.scheme)]
    _solve(cfg, problem, mesh, dofs, schemes[0], min(cfg.n_steps),
           pre=pre)

    records = []
    for n_steps in cfg.n_steps:
        dt = cfg.final_time / n_steps
        conv = conv_factor_grid(problem.material.alpha, cfg.tau_sigma,
                                dt * np.arange(1, n_steps + 1))
        records += [_solve(cfg, problem, mesh, dofs, scheme, n_steps,
                           pre=pre, conv=conv) for scheme in schemes]
    _write_csv(cfg.out / "bench.csv", list(_BENCH_COLUMNS),
               [[_fmt(r[c]) if isinstance(r[c], float) else str(r[c])
                 for c in _BENCH_COLUMNS] for r in records])
    for quantity, fname, ylab in (("wall_history", "bench_time.svg", "history wall time [s]"),
                                  ("peak_history_bytes", "bench_memory.svg", "history memory [bytes]")):
        series = []
        for scheme in schemes:
            pts = [(r["n_steps"], r[quantity]) for r in records
                   if r["scheme"] == scheme.value and r[quantity] > 0]
            if pts:
                series.append((scheme.value, np.array([p[0] for p in pts]),
                               np.array([p[1] for p in pts])))
        if series:
            _svg_loglog(cfg.out / fname,
                        f"history cost vs step count ({quantity})",
                        "number of time steps", ylab, series)
    return records


def cmd_soe_table(alpha: float, eps: float, t_min: float, t_max: float,
                  out_dir: Path) -> str:
    soe = build_soe(alpha, eps, PANEL_RATIO, t_min=t_min, t_max=t_max)
    out_dir.mkdir(parents=True, exist_ok=True)
    eps_name = np.format_float_scientific(eps, trim="-")
    table_path = out_dir / f"soe_alpha{alpha}_eps{eps_name}.txt"
    write_table(soe, table_path)
    report = (f"alpha={alpha} q={PANEL_RATIO} target={eps:.3e} "
              f"range=[{t_min:.3e}, {t_max:.3e}] N_exp={soe.n_exp} "
              f"certified <= {soe.eps_certified:.3e}")
    (out_dir / "soe_report.txt").write_text(report + "\n", encoding="utf-8")
    return report


def cmd_single_run(cfg: RunConfig, n: int, n_steps: int) -> dict:
    return _solve(cfg, _problem(cfg, cfg.alphas[0]), *_mesh(cfg, n),
                  cfg.scheme, n_steps)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _tuple_of(kind):
    """Parser of comma-separated text, or of an appending flag's list."""
    def parse(val):
        return tuple(map(kind, val.split(",") if isinstance(val, str) else val))
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's message
    return parse


#: config-file section -> key -> parser of its text; each key is the
#: RunConfig field it sets, and the run keys are also the flag dests
_KEYS = {"run": {"problem": str, "mesh": MeshKind, "alphas": _tuple_of(float),
                 "spatial_ns": _tuple_of(int), "n_steps": _tuple_of(int),
                 "mesh_n": int, "scheme": str, "eps_rule": str,
                 "final_time": float, "out": Path},
         "material": {f.name: float for f in fields(Material)
                      if f.name != "alpha"}}


def _load_config(path: Path) -> dict:
    """RunConfig fields of the file; unknown sections and keys are refused."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"config file {path} not found or unreadable")
    values = {}
    for section in parser.sections() + ["DEFAULT"] * bool(parser.defaults()):
        if section not in _KEYS:
            raise ValueError(f"config file {path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise ValueError(f"config file {path}: unknown key {key!r} "
                                 f"in section [{section}]")
            try:
                values[key] = _KEYS[section][key](text)
            except ValueError as exc:
                raise ValueError(f"config file {path}: [{section}] {key} = "
                                 f"{text!r} is malformed: {exc}") from None
    return values


def _build_parser() -> _Parser:
    p = _Parser(prog="fracvisco",
                description="fractional viscoelastic wave solver harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=Path)
        sp.add_argument("--problem", choices=("ex61", "ex62"))
        sp.add_argument("--mesh", choices=("tri", "quad"))
        sp.add_argument("--alpha", type=float, action="append", dest="alphas",
                        metavar="ALPHA")
        sp.add_argument("--out", type=Path)
        sp.add_argument("--scheme", choices=("fast", "direct", "both"))
        sp.add_argument("--eps-rule", help="dt-over-10 or fixed:<value>")

    common(sub.add_parser("convergence-space"))
    for name in ("convergence-time", "bench"):
        ladder_p = sub.add_parser(name)
        common(ladder_p)
        ladder_p.add_argument("--mesh-n", type=int)
        ladder_p.add_argument("--steps", dest="n_steps", metavar="STEPS",
                              type=_KEYS["run"]["n_steps"],
                              help="comma-separated step counts")

    soe_p = sub.add_parser("soe-table")
    soe_p.add_argument("--alpha", type=float, required=True)
    soe_p.add_argument("--eps", type=float, required=True)
    soe_p.add_argument("--t-min", type=float, default=1e-4)
    soe_p.add_argument("--t-max", type=float, default=2.0)
    soe_p.add_argument("--out", type=Path, default=Path("out"))

    run_p = sub.add_parser("single-run")
    common(run_p)
    run_p.add_argument("--n", type=int, default=16)
    run_p.add_argument("--n-steps", type=int, default=64, dest="steps",
                       metavar="N_STEPS")
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        values.update(_load_config(args.config))
    flags = {key: getattr(args, key, None) for key in _KEYS["run"]}
    values.update({key: _KEYS["run"][key](given)
                   for key, given in flags.items() if given is not None})
    cfg = RunConfig(**values)
    cfg.eps_for(1.0)   # validate the eps rule early
    schemes = ("fast", "direct") + (("both",) if args.command == "bench" else ())
    if cfg.scheme not in schemes:
        raise ValueError(f"{args.command} takes scheme {' or '.join(schemes)}, "
                         f"not {cfg.scheme!r}")
    if args.command in ("bench", "single-run") and len(cfg.alphas) > 1:
        raise ValueError(f"{args.command} takes one alpha, got {cfg.alphas}")
    steps, meshes, names = (
        ((args.steps,), (args.n,), ("--n-steps", "--n"))
        if args.command == "single-run" else
        (cfg.n_steps, cfg.spatial_ns + (cfg.mesh_n,),
         ("n_steps", "spatial_ns and mesh_n")))
    if min(steps) < 1 or min(meshes) < 2 or not 0.0 < cfg.final_time < math.inf:
        raise ValueError(f"{names[0]} must be >= 1, {names[1]} >= 2 and "
                         f"0 < final_time < inf, got {steps}, {meshes} and "
                         f"final_time {cfg.final_time}")
    ladder = cfg.spatial_ns if args.command == "convergence-space" else steps
    again = [k for i, k in enumerate(ladder) if k in ladder[:i]]
    if args.command.startswith("convergence-") and again:
        raise ValueError(f"the ladder {ladder} repeats the level {again[0]}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "soe-table":
            print(cmd_soe_table(args.alpha, args.eps, args.t_min, args.t_max,
                                args.out))
            return 0
        cfg = _config_from_args(args)
        if args.command.startswith("convergence-"):
            space = args.command == "convergence-space"
            print("\n".join(cmd_convergence(cfg, space)))
        elif args.command == "bench":
            for rec in cmd_bench(cfg):
                print(f"{rec['scheme']:6s} N={rec['n_steps']:6d} "
                      f"err={rec['error']:.5e} hist={rec['wall_history']:.3f}s "
                      f"mem={rec['peak_history_bytes']}B n_exp={rec['n_exp']}")
        elif args.command == "single-run":
            rec = cmd_single_run(cfg, args.n, args.steps)
            lag_dev = ("" if rec["lag_deviation"] is None
                       else f" lag_dev={rec['lag_deviation']:.1e}")
            print(f"{rec['scheme']} n={rec['n']} N={rec['n_steps']} "
                  f"alpha={rec['alpha']} error={rec['error']:.5e} "
                  f"wall={rec['wall_setup'] + rec['wall_total']:.3f}s "
                  f"setup={rec['wall_setup']:.3f}s n_exp={rec['n_exp']}"
                  + lag_dev)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FracViscoError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
