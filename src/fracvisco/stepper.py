"""Backward-Euler time stepping for the velocity-form viscoelastic equation.

Each step solves (M/dt + A) v^n = [M/dt  B  P] (v^{n-1}, w, f_n), w the lag
sum of v^0..v^{n-1}, P = [p_mass  p_a  p_b] the load vectors and f_n the
step's load factors, with one sparse product for the right-hand side and the
band Cholesky factor of :func:`fracvisco.fem.band_solver`, built once per run.
The paper's two history treatments are provided:

- fast: sum-of-exponentials memory variables, one recursion per exponential
  (O(N_exp) work and storage per step).  The run builds a sum certified
  pointwise by build_soe and compresses it by compress_soe to the few
  exponentials that reproduce its N lag weights (5-9x fewer at dt = h^2/2);
- direct: lag weights w_{n,i} = w_{n-i}, the kernel's integral over one
  step (O(n) work per step, N stored dof-vectors; the accuracy baseline).
  Each history's one call per step, ``advance(v^{n-1})``, returns w, so one
  step loop serves both.

The kernel tables I(t_n) and w_l come from the vectorised kernel engine of
:mod:`fracvisco.soe`; the run tabulates the load factors f_n = (g'(t_n),
g(t_n), -I(t_n)) once.  A run whose N-sized arrays exceed the available
physical memory raises BudgetExceeded up front.

The matrices, [M  B  P], M's and A's band slots, the load vectors and the
Ritz datum do not depend on dt: they come from the per-mesh bundle of
:func:`fracvisco.problems.precompute_loads`, which callers sweeping N on one
mesh build once and pass as ``pre``; a bundle built for another problem, mesh,
material or dof count raises ValueError.  A run builds only what depends on
dt: [M/dt  B  P] and the factor of M/dt + A (once per run), the I(t) and
load-factor tables, the SOE and its compression, and the history storage.  A
step whose velocity is not finite raises SolveFailure naming the step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.linalg import toeplitz

from .errors import SolveFailure, require_memory
from .fem import DofMap, Material, band_solver, build_dof_map
# unused here; perfbench's tracer patches these names in this module
from .fem import (a_form_matrix, assemble_mass, b_form_matrix,  # noqa: F401
                  ritz_project)
from .mesh import Mesh
from .mlf import kernel_antiderivative  # noqa: F401
from .problems import (LoadPrecomputation, ManufacturedProblem,
                       conv_factor_grid, load_factors, precompute_loads)
from .soe import (PANEL_RATIO, MemoryState, SoeApprox, build_soe,
                  compress_soe, default_eps, direct_weights)

HISTORY_BLOCK = 32  # steps per block GEMM of the direct history


class Scheme(str, Enum):
    FAST = "fast"
    DIRECT = "direct"


@dataclass
class Timings:
    """wall_setup: time before the first step (kernel tables, SOE, factor and
    the per-mesh bundle if not passed); wall_total: the step loop, of which
    wall_history (lag sum w and gather of (v^{n-1}, w, f_n); direct's also
    stores v^{n-1}) and wall_solve (the right-hand-side product and band
    solve)."""

    wall_setup: float = 0.0
    wall_total: float = 0.0
    wall_history: float = 0.0
    wall_solve: float = 0.0


@dataclass
class RunResult:
    """soe is the exponential sum the run stepped with (None for direct)."""

    coeffs: np.ndarray
    timings: Timings
    peak_history_bytes: int
    soe: SoeApprox | None
    n_steps: int

    @property
    def n_exp(self) -> int:
        return 0 if self.soe is None else self.soe.n_exp


class DirectHistory:
    """advance(v^{n-1}) stores it and returns the direct lag sum sum_{i<n}
    w_{n-i} v^i (weights[l-1] = w_l), as soe.MemoryState's does.  It is
    taken in blocks of HISTORY_BLOCK steps: at a block's first step n, one
    GEMM applies the block's Toeplitz slice of lag weights to v^0..v^{n-1}
    for every step of the block, and each step adds only its own rows since
    the block began.  The work is still O(n) per step, but most of it runs
    at matrix-matrix speed instead of streaming the history every step."""

    def __init__(self, weights: np.ndarray, n_dofs: int):
        self.w = weights
        # w_rev[N - n + i] weighs v^i; contiguous to stay on the BLAS path
        self.w_rev = weights[::-1].copy()
        self.h = np.zeros((weights.size, n_dofs))
        self.n = 0

    def advance(self, v_prev: np.ndarray) -> np.ndarray:
        self.h[self.n] = v_prev
        self.n += 1
        n, n_max = self.n, self.w.size
        k = (n - 1) % HISTORY_BLOCK
        if k == 0:
            self.start = n
            # row k holds the lags n + k - i of v^0..v^{n-1}
            self.far = toeplitz(self.w[n - 1:n - 1 + HISTORY_BLOCK],
                                self.w[n - 1::-1]) @ self.h[:n]
        near = self.w_rev[n_max - n + self.start:] @ self.h[self.start:n]
        return self.far[k] + near

    @property
    def nbytes(self) -> int:
        return self.h.nbytes


class TimeStepSystem:
    """``solve`` applies the band Cholesky factor of M/dt + A, its band
    filled from the bundle pre's slots of M and A, and ``rhs_mat`` =
    [M/dt  B  P] on the bundle's indices takes a step's M v/dt + B w + P f
    in one product with (v, w, f).  M is scaled by * (1 / dt), as scipy's
    M / dt is, so both are bit for bit those of the assembled matrices."""

    def __init__(self, pre: LoadPrecomputation, dt: float):
        self.pre, self.dt, unit = pre, dt, pre.rhs_unit
        data = unit.data.copy()
        data[pre.mass_pos] *= 1 / dt
        self.rhs_mat = sp.csr_matrix((data, unit.indices, unit.indptr),
                                     shape=unit.shape)
        bw, ((slots, values), a_band) = pre.band
        self.solve = band_solver(unit.shape[0], bw,
                                 [(slots, values * (1 / dt)), a_band])

    @property
    def lhs(self) -> sp.csr_matrix:
        """M/dt + A (CSR), formed on access; the run reads only its band."""
        return (self.pre.mass / self.dt + self.pre.a_mat).tocsr()


def _check_memory(scheme: Scheme, n_steps: int, n_dofs: int) -> None:
    """Refuse a run whose N-sized arrays (direct history; times, I(t),
    three load-factor and lag-weight tables) exceed the available physical
    memory.  Direct also counts the block temporaries, the HISTORY_BLOCK x N
    weight slice and the HISTORY_BLOCK x n_dofs block sums."""
    need = 8 * n_steps * 6
    if scheme is Scheme.DIRECT:
        need += 8 * (n_steps * n_dofs + HISTORY_BLOCK * (n_steps + n_dofs))
    require_memory(need, f"{scheme.value} run with N = {n_steps} steps and "
                   f"n_dofs = {n_dofs} (history and kernel tables)")


def run(problem: ManufacturedProblem, mesh: Mesh, scheme: Scheme,
        n_steps: int, dofs: DofMap | None = None, eps: float | None = None,
        q: float = PANEL_RATIO, pre: LoadPrecomputation | None = None,
        conv_values: np.ndarray | None = None) -> RunResult:
    """Execute a full run and return the final-time coefficients.

    eps, the fast scheme's SOE tolerance, defaults to default_eps(dt); the
    sum built to it is compressed to the run's lag weights.  pre is the
    per-mesh bundle of precompute_loads for this mesh, dofs and problem,
    built here when not given; a bundle built for another problem, mesh, material or
    dof count raises ValueError.  conv_values may carry the kernel
    convolution factors I(t_n) for n = 1..n_steps if already tabulated; a
    table of another length raises ValueError.
    """
    t_setup = time.perf_counter()
    scheme = Scheme(scheme)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if conv_values is not None and conv_values.shape != (n_steps,):
        raise ValueError(f"conv_values has shape {conv_values.shape}; a run "
                         f"of N = {n_steps} steps needs ({n_steps},)")
    mat = problem.material
    if dofs is None:
        dofs = build_dof_map(mesh)
    _check_memory(scheme, n_steps, dofs.n_dofs)
    if pre is None:
        pre = precompute_loads(mesh, dofs, problem)
    else:
        built = (pre.problem, *pre.mesh, pre.material, pre.mass.shape[0])
        wanted = (problem.name, mesh.kind.value, mesh.n, mat, dofs.n_dofs)
        if built != wanted:
            raise ValueError("the per-mesh bundle was built for {} on the {} "
                             "n={} mesh with {}, {} dofs; this run has {} on "
                             "the {} n={} mesh with {}, {} dofs".format(
                                 *built, *wanted))
    v = pre.v0
    timings = Timings()
    if n_steps == 0:
        return RunResult(coeffs=v.copy(), timings=timings,
                         peak_history_bytes=0, soe=None, n_steps=0)

    dt = problem.final_time / n_steps
    system = TimeStepSystem(pre, dt)
    times = dt * np.arange(1, n_steps + 1)
    if conv_values is None:
        conv_values = conv_factor_grid(mat.alpha, mat.tau_sigma, times)
    factors = load_factors(times, conv_values)

    soe: SoeApprox | None = None
    if scheme is Scheme.FAST:
        target = eps if eps is not None else default_eps(dt)
        t_min = dt / (10.0 * mat.tau_sigma)
        t_max = problem.final_time / mat.tau_sigma
        if not 0.0 < t_min < t_max < np.inf:
            raise ValueError(
                f"final_time = {problem.final_time:g}, n_steps = {n_steps} "
                f"and tau_sigma = {mat.tau_sigma:g} give the kernel range "
                f"[{t_min:g}, {t_max:g}]; the fast scheme needs 0 < "
                f"dt/(10 tau_sigma) < final_time/tau_sigma < inf")
        # by keyword: perfbench's tracer reads t_min and t_max by name
        soe = compress_soe(build_soe(mat.alpha, target, q, t_min=t_min,
                                     t_max=t_max), dt, mat.tau_sigma, n_steps)
        hist = MemoryState(soe, dt, mat.tau_sigma, dofs.n_dofs)
    else:
        hist = DirectHistory(direct_weights(mat, dt, n_steps), dofs.n_dofs)

    t_start = time.perf_counter()
    timings.wall_setup = t_start - t_setup
    for n in range(1, n_steps + 1):
        h0 = time.perf_counter()
        stacked = np.concatenate((v, hist.advance(v), factors[n - 1]))
        h1 = time.perf_counter()
        v = system.solve(system.rhs_mat @ stacked)
        h2 = time.perf_counter()
        if not np.isfinite(v).all():
            raise SolveFailure(f"step {n} of N = {n_steps}: the velocity is "
                               f"not finite (n_dofs = {dofs.n_dofs})")
        timings.wall_history += h1 - h0
        timings.wall_solve += h2 - h1
    timings.wall_total = time.perf_counter() - t_start
    return RunResult(coeffs=v, timings=timings,
                     peak_history_bytes=hist.nbytes, soe=soe, n_steps=n_steps)
