"""Fixed reference work: the yardstick for the host's speed during a run.

On a shared host the speed of a vCPU changes by up to 2x within seconds,
as co-tenants come and go, and a whole benchmark run can fall in a slow or
a fast stretch.  The benchmark therefore times this fixed work right before
and after every pass and reports the pass's times in *reference seconds*:

    t_ref = t_measured * REF_S / (time of Reference.run() next to the pass)

The reference work does not call the solver, so a change to the solver
moves reference seconds in the same proportion as measured seconds, while a
change in the host's speed moves both the pass and the reference and
cancels out.  Its mix follows the solver's: about a third interpreted
Python loop, a third small-vector numpy calls, a third Jacobi-preconditioned
CG on a sparse 5-point Laplacian.  On a 2-vCPU Xeon (Sapphire Rapids) KVM
guest, ten 30-second runs of each workload spread 0.05-0.08 (quartile
distance over median) in reference seconds, against 0.18-0.23 for the
measured wall time of the same runs.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Median time of one Reference.run() on the 2-vCPU Xeon (Sapphire Rapids,
# KVM) host the benchmark was defined on, one BLAS thread.  Any constant
# would do: it only sets the unit, so that reference seconds read close to
# that host's measured seconds.
REF_S = 0.19

PY_ITERS = 500_000
SMALL_ITERS = 14_000
SMALL_LEN = 450          # dofs of the n = 16 quad mesh
CG_GRID = 32             # 1,024 unknowns
CG_SOLVES, CG_ITERS = 12, 150


class Reference:
    """The reference work, with its inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = CG_GRID * CG_GRID
        off1, offm = -np.ones(m - 1), -np.ones(m - CG_GRID)
        self.lap = sp.diags([4.0001 * np.ones(m), off1, off1, offm, offm],
                            [0, 1, -1, CG_GRID, -CG_GRID]).tocsr()
        self.dinv = 1.0 / self.lap.diagonal()
        self.rhs = rng.random(m)
        self.x = rng.random(SMALL_LEN)
        self.y = rng.random(SMALL_LEN)

    def python_loop(self) -> int:
        acc = 0
        for i in range(PY_ITERS):
            acc += i * i % 7
        return acc

    def small_numpy(self) -> float:
        x, y, s = self.x, self.y, 0.0
        for _ in range(SMALL_ITERS):
            z = x * 0.5 + y
            s = z @ x
            y = z / (s + 1.0)
        return s

    def pcg(self) -> float:
        """CG_SOLVES fresh solves of CG_ITERS iterations each, so the
        residual never underflows."""
        a, dinv = self.lap, self.dinv
        for _ in range(CG_SOLVES):
            x = np.zeros_like(self.rhs)
            r = self.rhs.copy()
            z = dinv * r
            p = z.copy()
            rz = r @ z
            for _ in range(CG_ITERS):
                q = a @ p
                step = rz / (p @ q)
                x += step * p
                r -= step * q
                z = dinv * r
                rz_new = r @ z
                p = z + (rz_new / rz) * p
                rz = rz_new
        return float(x[0])

    def run(self) -> float:
        """Seconds one pass of the reference work takes now."""
        t0 = time.perf_counter()
        self.python_loop()
        self.small_numpy()
        self.pcg()
        return time.perf_counter() - t0
