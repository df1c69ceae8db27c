"""Vector-valued P1/Q1 finite element machinery on structured meshes.

Degrees of freedom are the two displacement components at interior vertices
(homogeneous Dirichlet data is eliminated, keeping system matrices SPD);
local dof 2a+i is component i of local vertex a.  Because the meshes are
uniform, every cell of a given class (lower triangle, upper triangle, or
square) is a translate of a representative cell, so element matrices are
computed once per class and scattered.

Assembled matrices are scipy CSR; the mass matrix and the a-form matrix are
SPD, the b-form matrix is symmetric but may be indefinite or zero.  Interior
vertices are numbered row-major, so every matrix has half-bandwidth 2n + 1
in dof order, and SPD systems are solved by a LAPACK band Cholesky factor
(:func:`spd_solver`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import SolveFailure, require_memory
from .mesh import Mesh, MeshKind


@dataclass(frozen=True)
class Material:
    """Density, relaxation/retardation times, and Lame pairs for both tensors."""

    rho: float = 1.0
    tau_sigma: float = 0.5
    tau_eps: float = 1.0
    alpha: float = 0.5
    mu_c: float = 1.0
    lambda_c: float = 1.0
    mu_d: float = 1.0
    lambda_d: float = 2.0

    def __post_init__(self) -> None:
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if self.tau_sigma <= 0.0:
            raise ValueError("tau_sigma must be positive (constitutive conversion)")
        if self.tau_eps < 0.0:
            raise ValueError("tau_eps must be nonnegative")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        for mu, lam, name in ((self.mu_c, self.lambda_c, "C"),
                              (self.mu_d, self.lambda_d, "D")):
            if mu <= 0.0 or 2.0 * lam + 2.0 * mu <= 0.0:
                raise ValueError(f"tensor {name} is not SPD on symmetric matrices")

    @property
    def ratio_alpha(self) -> float:
        """(tau_eps / tau_sigma)**alpha, the b-form coupling factor."""
        return (self.tau_eps / self.tau_sigma) ** self.alpha


@dataclass(frozen=True)
class DofMap:
    """Vertex -> interior dof index (-1 on Dirichlet vertices)."""

    vertex_dof: np.ndarray
    n_dofs: int


def build_dof_map(mesh: Mesh, dirichlet: bool = True) -> DofMap:
    nv = mesh.vertices.shape[0]
    vdof = np.full(nv, -1, dtype=int)
    free = ~mesh.boundary_vertex if dirichlet else np.ones(nv, dtype=bool)
    vdof[free] = np.arange(free.sum())
    return DofMap(vertex_dof=vdof, n_dofs=2 * int(free.sum()))


# ---------------------------------------------------------------------------
# quadrature + per-class basis tables

_TRI_DEG2 = (np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]),
             np.full(3, 1.0 / 6.0))

_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
_TRI_DEG4 = (np.array([[_A1, _A1], [1 - 2 * _A1, _A1], [_A1, 1 - 2 * _A1],
                       [_A2, _A2], [1 - 2 * _A2, _A2], [_A2, 1 - 2 * _A2]]),
             np.array([_W1, _W1, _W1, _W2, _W2, _W2]) / 2.0)


def _gauss01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def _quad_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss01(npts)
    xi, eta = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([xi.ravel(), eta.ravel()])
    ww = np.outer(w, w).ravel()
    return pts, ww


class _CellClass:
    """Basis values/gradients at quadrature points for one translate class.

    offsets: physical quadrature positions relative to local vertex 0;
    weights: physical measures (|det J| folded in); grads: physical basis
    gradients, constant across the class.
    """

    def __init__(self, corners: np.ndarray, ref_pts: np.ndarray,
                 ref_w: np.ndarray, simplex: bool):
        k = corners.shape[0]
        if simplex:
            jac = np.column_stack([corners[1] - corners[0],
                                   corners[2] - corners[0]])
            det = abs(np.linalg.det(jac))
            lam = np.column_stack([1.0 - ref_pts.sum(axis=1), ref_pts])
            self.basis = lam                                    # (nq, 3)
            ref_grad = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            phys_grad = ref_grad @ np.linalg.inv(jac)           # (3, 2)
            self.grads = np.broadcast_to(phys_grad, (ref_pts.shape[0], k, 2)).copy()
            self.offsets = ref_pts @ jac.T                      # relative to corner 0
            self.weights = ref_w * det
        else:
            s = corners[1, 0] - corners[0, 0]  # axis-aligned square side
            xi, eta = ref_pts[:, 0], ref_pts[:, 1]
            self.basis = np.column_stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                                          xi * eta, (1 - xi) * eta])
            gx = np.column_stack([-(1 - eta), (1 - eta), eta, -eta]) / s
            gy = np.column_stack([-(1 - xi), -xi, xi, (1 - xi)]) / s
            self.grads = np.stack([gx, gy], axis=-1)            # (nq, 4, 2)
            self.offsets = ref_pts * s
            self.weights = ref_w * s * s


def _classes(mesh: Mesh, order4: bool) -> list[tuple[np.ndarray, _CellClass]]:
    """(cell index array, class table) pairs covering all cells."""
    s = mesh.spacing
    if mesh.kind is MeshKind.TRIANGULAR:
        pts, w = _TRI_DEG4 if order4 else _TRI_DEG2
        lower = np.array([[0.0, 0.0], [s, 0.0], [s, s]])
        upper = np.array([[0.0, 0.0], [s, s], [0.0, s]])
        ids = np.arange(mesh.cells.shape[0])
        return [(ids[0::2], _CellClass(lower, pts, w, True)),
                (ids[1::2], _CellClass(upper, pts, w, True))]
    pts, w = _quad_rule(3 if order4 else 2)
    square = np.array([[0.0, 0.0], [s, 0.0], [s, s], [0.0, s]])
    return [(np.arange(mesh.cells.shape[0]), _CellClass(square, pts, w, False))]


def _element_dofs(mesh: Mesh, dofs: DofMap, cell_ids: np.ndarray) -> np.ndarray:
    """(n_cells, 2k) interleaved global dofs, -1 for eliminated entries."""
    vd = dofs.vertex_dof[mesh.cells[cell_ids]]      # (nc, k)
    ed = np.empty((vd.shape[0], 2 * vd.shape[1]), dtype=int)
    ed[:, 0::2] = np.where(vd >= 0, 2 * vd, -1)
    ed[:, 1::2] = np.where(vd >= 0, 2 * vd + 1, -1)
    return ed


def _scatter_matrix(mesh: Mesh, dofs: DofMap, emat_of_class) -> sp.csr_matrix:
    rows, cols, data = [], [], []
    for cell_ids, cls in _classes(mesh, order4=False):
        emat = emat_of_class(cls)                   # (2k, 2k)
        ed = _element_dofs(mesh, dofs, cell_ids)
        nc, m = ed.shape
        r = np.repeat(ed, m, axis=1).ravel()
        c = np.tile(ed, (1, m)).ravel()
        d = np.broadcast_to(emat.ravel(), (nc, m * m)).ravel()
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        data.append(d[keep])
    mat = sp.coo_matrix((np.concatenate(data),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(dofs.n_dofs, dofs.n_dofs)).tocsr()
    mat.sum_duplicates()
    return mat


def _mass_emat(cls: _CellClass) -> np.ndarray:
    k = cls.basis.shape[1]
    m_scalar = np.einsum("q,qa,qb->ab", cls.weights, cls.basis, cls.basis)
    emat = np.zeros((2 * k, 2 * k))
    emat[0::2, 0::2] = m_scalar
    emat[1::2, 1::2] = m_scalar
    return emat


def _elastic_emat(cls: _CellClass, mu: float, lam: float, scale: float) -> np.ndarray:
    k = cls.grads.shape[1]
    emat = np.zeros((2 * k, 2 * k))
    for q, w in enumerate(cls.weights):
        g = cls.grads[q]                            # (k, 2)
        dot = g @ g.T                               # (k, k)
        for i in range(2):
            for j in range(2):
                blk = lam * np.outer(g[:, i], g[:, j]) \
                    + mu * np.outer(g[:, j], g[:, i])
                if i == j:
                    blk = blk + mu * dot
                emat[i::2, j::2] += w * blk
    return scale * emat


def assemble_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Vector mass matrix M_ij = int phi_i . phi_j (exact quadrature)."""
    return _scatter_matrix(mesh, dofs, _mass_emat)


def assemble_elastic(mesh: Mesh, dofs: DofMap, mu: float, lam: float,
                     scale: float = 1.0) -> sp.csr_matrix:
    """Elasticity form scale * int [2 mu eps(u):eps(v) + lam div u div v]."""
    return _scatter_matrix(mesh, dofs,
                           lambda cls: _elastic_emat(cls, mu, lam, scale))


def a_form_matrix(mesh: Mesh, dofs: DofMap, mat: Material) -> sp.csr_matrix:
    """SPD matrix of the a-form (density-scaled C tensor)."""
    return assemble_elastic(mesh, dofs, mat.mu_c, mat.lambda_c, 1.0 / mat.rho)


def b_form_matrix(mesh: Mesh, dofs: DofMap, mat: Material,
                  a_mat: sp.csr_matrix) -> sp.csr_matrix:
    """Matrix of the b-form, (C - (tau_eps/tau_sigma)^alpha D) / rho, from
    the a-form matrix a_mat = C / rho."""
    kd = assemble_elastic(mesh, dofs, mat.mu_d, mat.lambda_d, 1.0)
    return (a_mat - (mat.ratio_alpha / mat.rho) * kd).tocsr()


# ---------------------------------------------------------------------------
# right-hand sides and error norms: one walk over the order-4 quadrature
# points, one integrand each; eliminated dofs (-1) use an extra last slot

def _order4_points(mesh: Mesh, dofs: DofMap):
    """Yield (element dofs, class, q, weight, (n_cells, 2) physical points)
    for every order-4 quadrature point q of every cell class."""
    for cell_ids, cls in _classes(mesh, order4=True):
        ed = _element_dofs(mesh, dofs, cell_ids)
        origins = mesh.vertices[mesh.cells[cell_ids, 0]]
        for q, w in enumerate(cls.weights):
            yield ed, cls, q, w, origins + cls.offsets[q]


def mass_load(mesh: Mesh, dofs: DofMap, value_fn) -> np.ndarray:
    """Vector with entries <V, phi_i> for an analytic field V(x, y)."""
    p = np.zeros(dofs.n_dofs + 1)
    for ed, cls, q, w, xq in _order4_points(mesh, dofs):
        vals = np.asarray(value_fn(xq[:, 0], xq[:, 1]))    # (nc, 2)
        contrib = w * np.einsum("a,ci->cai", cls.basis[q], vals)
        np.add.at(p, ed.ravel(), contrib.ravel())
    return p[:-1]


def elastic_load(mesh: Mesh, dofs: DofMap, grad_fn, mu: float, lam: float,
                 scale: float = 1.0) -> np.ndarray:
    """Vector with entries scale * [2 mu eps(V):eps(phi_i) + lam div V div phi_i].

    grad_fn(x, y) returns G with G[..., k, l] = d V_k / d x_l.
    """
    p = np.zeros(dofs.n_dofs + 1)
    for ed, cls, q, w, xq in _order4_points(mesh, dofs):
        g_v = np.asarray(grad_fn(xq[:, 0], xq[:, 1]))     # (nc, 2, 2)
        sym = g_v + np.swapaxes(g_v, -1, -2)
        div = np.trace(g_v, axis1=-2, axis2=-1)
        gb = cls.grads[q]                                 # (k, 2)
        # component i of the (a, i) entry: mu*(sym @ g_a)_i + lam*div*g_a_i
        contrib = (mu * np.einsum("cil,al->cai", sym, gb)
                   + lam * np.einsum("c,ai->cai", div, gb))
        np.add.at(p, ed.ravel(), ((w * scale) * contrib).ravel())
    return p[:-1]


def l2_error(mesh: Mesh, dofs: DofMap, coeffs: np.ndarray, exact) -> float:
    """L2 norm of (FE field - exact) with the order-4 element rules."""
    total = 0.0
    padded = np.append(coeffs, 0.0)
    for ed, cls, q, w, xq in _order4_points(mesh, dofs):
        vals = padded[ed]                                   # (nc, 2k)
        uh = np.stack([vals[:, 0::2] @ cls.basis[q],
                       vals[:, 1::2] @ cls.basis[q]], axis=-1)
        diff = uh - np.asarray(exact(xq[:, 0], xq[:, 1]))
        total += w * float(np.sum(diff * diff))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# linear algebra

def spd_solver(mat: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the SPD matrix once (LAPACK band Cholesky, dpbtrf) and return
    its solve (dpbtrs).

    The band is the matrix's own half-bandwidth: 2n + 1 on the uniform
    (n+1)^2 meshes with row-major vertices and two components per vertex.
    Only the upper triangle is read, so a matrix that is not symmetric to
    1e-12 of its largest entry raises ValueError; a band that does not fit
    in the available physical memory raises BudgetExceeded before it is
    allocated; a factor that is not positive definite raises SolveFailure
    naming the size and the leading minor."""
    n = mat.shape[0]
    scale = abs(mat).max()
    asym = abs(mat - mat.T).max()
    if asym > 1e-12 * scale:
        raise ValueError(f"spd_solver needs a symmetric matrix: the {n}-dof "
                         f"matrix has |mat - mat^T| = {asym:.3e} against "
                         f"max|mat| = {scale:.3e}")
    upper = sp.triu(mat, format="coo")
    bw = int((upper.col - upper.row).max(initial=0))
    require_memory(8 * (bw + 1) * n, f"the band factor of the {n}-dof system "
                   f"(half-bandwidth {bw})")
    ab = np.zeros((bw + 1, n), order="F")
    ab[bw + upper.row - upper.col, upper.col] = upper.data
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info > 0:
        raise SolveFailure(f"factorisation of the {n}-dof system failed: the "
                           f"leading minor of order {info} is not positive "
                           f"definite")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return dpbtrs(factor, rhs)[0]

    return solve


def ritz_project(mesh: Mesh, dofs: DofMap, a_matrix: sp.csr_matrix,
                 mat: Material, exact_grad) -> np.ndarray:
    """a-orthogonal projection of an analytic field onto the FE space.

    The right-hand side a(V, phi_i) is integrated elementwise from the
    analytic gradient, so only exact_grad is needed.
    """
    rhs = elastic_load(mesh, dofs, exact_grad, mat.mu_c, mat.lambda_c,
                       1.0 / mat.rho)
    return spd_solver(a_matrix)(rhs)
