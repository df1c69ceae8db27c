"""Workload definitions, pinned outputs and the correctness gate.

This module is standard-library only, so the parent process of the
benchmark (``run.py``) can plan passes and check results without importing
numpy or the solver.

Inputs are deterministic: every run's mesh, step count, alpha and scheme is
fixed below.  The ``--seed`` argument only shuffles the order of the runs
within a pass (and, for ``temporal-ladder``, the order of the two meshes).

Why each workload exists, which layer it loads and which it bypasses
(shares of a pass measured on a 2-core Xeon, one BLAS thread, at the sizes
below).  Each workload is rescaled from the size the paper's criteria run
so that a pass takes about two seconds and a 30-second run holds a dozen
passes or more; see ``run.py`` for why many short passes are needed.

``spatial-fast``
    Criterion-1 regime: quad mesh, fast (SOE) scheme, dt = h^2/2,
    eps = dt/10, n = 16 (N = 256 steps, 450 dofs, rescaled from the
    criterion's n = 32 and 64), alpha in {0.3, 0.5, 0.8}.  Many cheap
    steps: about 20 % of the loop is the ``MemoryState`` history update
    (N_exp up to 144) and the rest is warm Jacobi-CG.  About half of the
    pass is per-run setup: the I(t) table (``problems.conv_factor_grid``,
    about a quarter of the pass, growing with alpha) and the SOE build
    (about a fifth).  n = 16 has published reference errors, so the output
    is checked against the paper's table.
    Loads: ``stepper`` history and solve, ``problems`` kernel table, ``soe``.
    Bypasses: the direct lag weights (``mlf.kernel_antiderivative``).

``temporal-ladder``
    Criterion-2/3 regime: n = 32 mesh (1,922 dofs), fast scheme,
    N in {5, 10, 20, 40}, alpha = 0.5, on both quad and P1-triangle meshes
    (rescaled from the criterion's n = 64 and N up to 80; at n = 32 the
    spatial error would bend the observed order between N = 40 and 80
    below 0.8).  Loads are precomputed once per mesh, as
    ``cmd_convergence_time`` does.  Few steps on a large mesh with large dt:
    the loop is mostly cold, high-iteration CG (over a third of the pass),
    and about half of the pass is per-run setup: the SOE build with a
    coarse eps (about 30 %), assembly and Ritz projection (about 12 %).
    History is about 5 %.  The only workload that runs triangles; an SOE
    change shows here in setup only, a factor-once solve change shows here.
    Loads: ``stepper`` solve, ``fem`` assembly and Ritz, ``soe`` build.
    Bypasses: the direct lag weights, and nearly all of the history.

``direct-long``
    Fast/direct sweep, direct half only: quad, n = 16 (450 dofs), direct
    scheme, N = 1500 (rescaled from 8000), alpha = 0.5, loads and I(t)
    precomputed as ``cmd_bench`` does.  Long horizon on a small mesh.
    About 45 % of the pass goes to kernel tables (the I(t) quadratures and
    the ``kernel_antiderivative`` lag weights), about 15 % to the O(N^2)
    history gemv over a 5.4 MB history and most of the rest to CG.  Never
    touches the SOE or ``MemoryState``: an SOE change must show no change
    here, a kernel-engine change shows here.
    Loads: ``problems`` and ``mlf`` kernel tables, ``stepper`` history.
    Bypasses: ``soe`` entirely.

The temporal reference constants of acceptance criteria 2 and 3 are NOT
gated here: those criteria stay red in the test suite, where the gap is
documented.  ``temporal-ladder`` is gated on observed orders and on the
errors pinned from this code instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("spatial-fast", "temporal-ladder", "direct-long")

# Published square-mesh spatial errors (dt = h^2/2), copied from acceptance
# criterion 1 (REF_SPATIAL in tests/test_acceptance.py), indexed by n.
PUBLISHED_SPATIAL = {
    0.3: {4: 1.82e-2, 8: 4.58e-3, 16: 1.18e-3, 32: 2.86e-4, 64: 5.74e-5},
    0.5: {4: 1.88e-2, 8: 4.73e-3, 16: 1.22e-3, 32: 3.07e-4, 64: 7.57e-5},
    0.8: {4: 1.96e-2, 8: 4.98e-3, 16: 1.27e-3, 32: 3.19e-4, 64: 7.91e-5},
}
PUBLISHED_RTOL = 0.15      # criterion 1's value tolerance
ORDER_TARGET, ORDER_TOL = 1.0, 0.2
# A run's final-time L2 error must match its pinned value to 0.5 %, i.e. to
# about three significant digits; optimisations that change rounding, the
# solve path or the SOE within its certified eps stay far inside this.
PIN_RTOL = 5e-3


@dataclass(frozen=True)
class Run:
    """One solver run of a workload."""

    kind: str        # "quad" or "tri"
    n: int           # cells per side
    n_steps: int
    alpha: float
    scheme: str      # "fast" or "direct"

    @property
    def key(self) -> str:
        return (f"{self.kind}-n{self.n}-N{self.n_steps}-a{self.alpha:g}"
                f"-{self.scheme}")


# Run sizes.  "full" is what the benchmark measures; "tiny" keeps each
# workload's shape at toy sizes for the harness self-test.
SIZES = {
    "full": {
        "spatial-fast": {"n": 16, "alphas": (0.3, 0.5, 0.8)},
        "temporal-ladder": {"n": 32, "steps": (5, 10, 20, 40)},
        "direct-long": {"n": 16, "n_steps": 1500},
    },
    "tiny": {
        "spatial-fast": {"n": 8, "alphas": (0.3, 0.5, 0.8)},
        "temporal-ladder": {"n": 16, "steps": (2, 4, 8)},
        "direct-long": {"n": 4, "n_steps": 200},
    },
}

# Final-time L2 errors of every run, pinned from the solver as it stood when
# the benchmark was defined (CG rel_tol 1e-10, eps = dt/10, q = 10).
PINNED = {
    "quad-n16-N256-a0.3-fast": 0.0011931914280399738,
    "quad-n16-N256-a0.5-fast": 0.0012182461305496595,
    "quad-n16-N256-a0.8-fast": 0.0012740152826359716,
    "quad-n32-N5-a0.5-fast": 0.012197988382454934,
    "quad-n32-N10-a0.5-fast": 0.005942970484981028,
    "quad-n32-N20-a0.5-fast": 0.0030213604139869067,
    "quad-n32-N40-a0.5-fast": 0.001600530267372335,
    "tri-n32-N5-a0.5-fast": 0.0123494881188964,
    "tri-n32-N10-a0.5-fast": 0.006105367711864471,
    "tri-n32-N20-a0.5-fast": 0.003192130216559443,
    "tri-n32-N40-a0.5-fast": 0.0017804878157089332,
    "quad-n16-N1500-a0.5-direct": 0.001084067327079695,
    # tiny (self-test) runs
    "quad-n8-N64-a0.3-fast": 0.0047284450048129265,
    "quad-n8-N64-a0.5-fast": 0.004912641609286582,
    "quad-n8-N64-a0.8-fast": 0.005189932808570508,
    "quad-n16-N2-a0.5-fast": 0.035055023408283224,
    "quad-n16-N4-a0.5-fast": 0.01618287712405991,
    "quad-n16-N8-a0.5-fast": 0.008133662597317185,
    "tri-n16-N2-a0.5-fast": 0.03553811936422562,
    "tri-n16-N4-a0.5-fast": 0.01678549007357542,
    "tri-n16-N8-a0.5-fast": 0.008805631215575961,
    "quad-n4-N200-a0.5-direct": 0.016646018505304946,
}


def plan(workload: str, size: str = "full") -> list[list[Run]]:
    """Runs of one pass, grouped by mesh (one group shares mesh and loads)."""
    p = SIZES[size][workload]
    if workload == "spatial-fast":
        return [[Run("quad", p["n"], p["n"] * p["n"], a, "fast")]
                for a in p["alphas"]]
    if workload == "temporal-ladder":
        return [[Run(kind, p["n"], s, 0.5, "fast") for s in p["steps"]]
                for kind in ("quad", "tri")]
    if workload == "direct-long":
        return [[Run("quad", p["n"], p["n_steps"], 0.5, "direct")]]
    raise ValueError(f"unknown workload {workload!r}")


def shuffled_plan(workload: str, seed: int, pass_index: int,
                  size: str = "full") -> list[list[Run]]:
    """The pass's runs in the order the seed picks; the runs themselves
    never depend on the seed."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    groups = [list(g) for g in plan(workload, size)]
    rng.shuffle(groups)
    for group in groups:
        rng.shuffle(group)
    return groups


def check(workload: str, errors: dict[Run, float],
          pins: dict[str, float] | None = None) -> dict[str, str]:
    """Correctness gate for one pass.

    errors maps each run that completed to its final-time L2 error.
    Returns run key -> reason for each run that fails the gate.
    """
    pins = PINNED if pins is None else pins
    bad: dict[str, str] = {}
    for run, err in errors.items():
        if not (math.isfinite(err) and err > 0.0):
            bad[run.key] = f"error {err!r} is not a positive number"
            continue
        pin = pins.get(run.key)
        if pin is None:
            bad[run.key] = "no pinned error for this run"
        elif abs(err / pin - 1.0) > PIN_RTOL:
            bad[run.key] = (f"error {err:.6e} differs from pinned {pin:.6e} "
                            f"by more than {PIN_RTOL:.1%}")
        if workload == "spatial-fast":
            ref = PUBLISHED_SPATIAL[run.alpha].get(run.n)
            if ref is not None and abs(err / ref - 1.0) > PUBLISHED_RTOL:
                bad[run.key] = (f"error {err:.3e} is not within "
                                f"{PUBLISHED_RTOL:.0%} of published {ref:.3e}")
    if workload == "temporal-ladder":
        for kind in sorted({r.kind for r in errors}):
            ladder = sorted((r for r in errors if r.kind == kind),
                            key=lambda r: r.n_steps)
            for coarse, fine in zip(ladder, ladder[1:]):
                if not all(math.isfinite(errors[r]) and errors[r] > 0.0
                           for r in (coarse, fine)):
                    continue
                order = (math.log(errors[coarse] / errors[fine])
                         / math.log(fine.n_steps / coarse.n_steps))
                if abs(order - ORDER_TARGET) > ORDER_TOL:
                    reason = (f"observed order {order:.3f} between N = "
                              f"{coarse.n_steps} and {fine.n_steps} is "
                              f"outside {ORDER_TARGET} +- {ORDER_TOL}")
                    for r in ladder:
                        bad.setdefault(r.key, reason)
    return bad
