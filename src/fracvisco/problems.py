"""Manufactured test problems with separable exact solutions.

Both built-in problems have exact velocity v(x, t) = g(t) V(x) with
g(t) = e^{-t} and V vanishing on the boundary of the unit square.  Because
the solution separates, the weak-form load at t is P (g'(t), g(t), -I(t))
with P = [p_mass  p_a  p_b] three fixed dof vectors and
I(t) = int_0^t beta(t - s) e^{-s} ds the kernel convolution factor, so a
step's load is three columns of its right-hand-side product rather than a
fresh quadrature; :func:`load_factors` tabulates the factors of a run.

:func:`precompute_loads` gathers everything a run needs that depends on the
mesh and the problem but not on the time step: those three vectors, the
matrices A, M and B, the Ritz initial datum, and the step system's dt-free
parts, so that a run only scales M by 1/dt, fills its band and factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .fem import (DofMap, Material, _matrices, band_slots, band_solver,
                  elastic_load, l2_error, mass_load)
from .mesh import Mesh
from .soe import exp_convolution


# ---------------------------------------------------------------------------
# exact fields

def _field_ex61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = np.sin(np.pi * x) * np.sin(np.pi * y)
    return np.stack([s, s], axis=-1)


def _grad_ex61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    dx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    dy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    g = np.empty(np.broadcast(x, y).shape + (2, 2))
    g[..., 0, 0] = dx
    g[..., 0, 1] = dy
    g[..., 1, 0] = dx
    g[..., 1, 1] = dy
    return g


def _p(x: np.ndarray) -> np.ndarray:
    return x ** 4 - 2.0 * x ** 3 + x ** 2


def _dp(x: np.ndarray) -> np.ndarray:
    return 4.0 * x ** 3 - 6.0 * x ** 2 + 2.0 * x


def _ddp(x: np.ndarray) -> np.ndarray:
    return 12.0 * x ** 2 - 12.0 * x + 2.0


def _field_ex62(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.stack([_p(x) * _dp(y), _p(y) * _dp(x)], axis=-1)


def _grad_ex62(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    g = np.empty(np.broadcast(x, y).shape + (2, 2))
    g[..., 0, 0] = _dp(x) * _dp(y)
    g[..., 0, 1] = _p(x) * _ddp(y)
    g[..., 1, 0] = _p(y) * _ddp(x)
    g[..., 1, 1] = _dp(y) * _dp(x)
    return g


@dataclass(frozen=True)
class ManufacturedProblem:
    """Separable exact solution v(x, t) = g(t) V(x), g(t) = e^{-t}."""

    name: str
    spatial_value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    spatial_gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    material: Material = field(default_factory=Material)
    final_time: float = 1.0

    @staticmethod
    def g(t: float) -> float:
        return math.exp(-t)

    def exact_at(self, t: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        gt = self.g(t)
        return lambda x, y: gt * np.asarray(self.spatial_value(x, y))


_PROBLEMS = {
    "ex61": (_field_ex61, _grad_ex61),
    "ex62": (_field_ex62, _grad_ex62),
}


def get_problem(name: str, material: Material | None = None,
                final_time: float = 1.0) -> ManufacturedProblem:
    key = name.lower()
    if key not in _PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(_PROBLEMS)}")
    value, grad = _PROBLEMS[key]
    return ManufacturedProblem(name=key, spatial_value=value,
                               spatial_gradient=grad,
                               material=material or Material(),
                               final_time=final_time)


# ---------------------------------------------------------------------------
# load precomputation and factors

@dataclass(frozen=True)
class LoadPrecomputation:
    """The per-mesh operators of a run: the three fixed vectors of the
    separable weak-form load, the matrices A, M and B, the Ritz datum, the
    step system's dt-free parts, and the problem name, mesh (kind, n) and
    material they were built for."""

    p_mass: np.ndarray   # <V, phi_i>
    p_a: np.ndarray      # a(V, phi_i)
    p_b: np.ndarray      # b(V, phi_i)
    a_mat: sp.csr_matrix
    mass: sp.csr_matrix
    b_mat: sp.csr_matrix
    v0: np.ndarray       # Ritz projection of V: A v0 = p_a
    material: Material
    problem: str
    mesh: tuple[str, int]
    rhs_unit: sp.csr_matrix  # [M  B  P], P = [p_mass  p_a  p_b]
    mass_pos: np.ndarray     # where rhs_unit.data holds M's entries
    band: tuple[int, list]   # fem.band_slots(M, A)


def precompute_loads(mesh: Mesh, dofs: DofMap,
                     problem: ManufacturedProblem) -> LoadPrecomputation:
    """Assemble what a run on this mesh needs independently of dt.

    Each elastic form is integrated once, on its own tensor, M, A and B are
    built on one neighbour table, and the Ritz datum solves A's band for p_a.
    """
    mat, grad = problem.material, problem.spatial_gradient
    mass, a_mat, b_mat = _matrices(mesh, dofs, [
        ("values", np.eye(2)), ("strains", mat.a_tensor),
        ("strains", mat.b_tensor)])
    p_mass = mass_load(mesh, dofs, problem.spatial_value)
    p_a = elastic_load(mesh, dofs, grad, mat.a_tensor)
    p_b = elastic_load(mesh, dofs, grad, mat.b_tensor)
    # all-CSR blocks keep hstack on scipy's CSR path
    unit = sp.hstack([mass, b_mat, sp.csr_matrix(np.column_stack(
        (p_mass, p_a, p_b)))], format="csr")
    bw, (_, a_band) = band = band_slots(mass, a_mat)
    return LoadPrecomputation(
        p_mass=p_mass, p_a=p_a, p_b=p_b, a_mat=a_mat, mass=mass, b_mat=b_mat,
        v0=band_solver(dofs.n_dofs, bw, [a_band])(p_a), material=mat,
        problem=problem.name, mesh=(mesh.kind.value, mesh.n), rhs_unit=unit,
        mass_pos=np.flatnonzero(unit.indices < dofs.n_dofs), band=band)


def conv_factor_grid(alpha: float, tau_sigma: float,
                     times: np.ndarray) -> np.ndarray:
    """I(t) = int_0^t E_alpha(-((t-s)/tau_sigma)^alpha) e^{-s} ds on a grid,
    by the kernel engine's :func:`fracvisco.soe.exp_convolution`, which
    closes each exponential's time integral in exprel form, as its
    direct_weights does for the direct lag weights; tabulated once per run."""
    return exp_convolution(alpha, tau_sigma, times)


def load_factors(times: np.ndarray, conv_values: np.ndarray) -> np.ndarray:
    """The (N, 3) table of load factors (g'(t_n), g(t_n), -I(t_n)): row n
    times [p_mass  p_a  p_b] is the weak-form load at t_n.

    conv_values is I(t_n), the run's table of :func:`conv_factor_grid`;
    g = e^{-t} gives g' = -g.
    """
    g = np.exp(-times)
    return np.column_stack((-g, g, -conv_values))


def exact_error(mesh: Mesh, dofs: DofMap, coeffs: np.ndarray,
                problem: ManufacturedProblem, t: float) -> float:
    """L2 distance between the FE coefficients and the exact field at time t."""
    return l2_error(mesh, dofs, coeffs, problem.exact_at(t))
