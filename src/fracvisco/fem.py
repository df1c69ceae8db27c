"""Vector-valued P1/Q1 finite element machinery on structured meshes.

Degrees of freedom are the two displacement components at interior vertices
(homogeneous Dirichlet data is eliminated, keeping system matrices SPD);
local dof 2a+i is component i of local vertex a.  Because the meshes are
uniform, every cell of a given class (lower triangle, upper triangle, or
square) is a translate of a representative cell, so its operator tables are
computed once per class.  Each cell kind has one quadrature rule, exact for
every P1/Q1 matrix: degree 4 on triangles, 3 x 3 Gauss on squares.  At its
points the tables hold the basis fields (``values``) and their Voigt strains
(``strains``).  Every matrix is sum_q w_q B^T D B and every load sum_q w_q
(D f)^T B, with B one table and D the form's tensor: the identity (mass) or
the material's ``a_tensor`` or ``b_tensor``.  Matrices are built by stencil:
vertices with the same incident cells share one row per component, each
entry the correctly rounded sum (math.fsum) of all its quadrature terms,
written into CSR from the vertex's neighbour dofs without exact zeros.
Loads scatter cell by cell, eliminated dofs into a dropped extra slot.

M and the a-form matrix are SPD, the b-form matrix is symmetric but may be
indefinite or zero.  Interior vertices are numbered row-major, so every
matrix has half-bandwidth 2n + 1 in dof order, and SPD systems are solved by
a LAPACK band Cholesky factor (:func:`band_solver`) filled at the slots
:func:`band_slots` reads from the CSR arrays, so M/dt + A is never formed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import SolveFailure, require_memory
from .mesh import CORNERS, Mesh


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
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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

    @property
    def a_tensor(self) -> np.ndarray:
        """Voigt tensor C / rho of the a-form."""
        return (1.0 / self.rho) * _elastic_tensor(self.mu_c, self.lambda_c)

    @property
    def b_tensor(self) -> np.ndarray:
        """Voigt tensor (C - ratio_alpha D) / rho of the b-form."""
        return (_elastic_tensor(self.mu_c, self.lambda_c) - self.ratio_alpha
                * _elastic_tensor(self.mu_d, self.lambda_d)) / self.rho


@dataclass(frozen=True)
class DofMap:
    """Vertex -> interior dof index (-1 on Dirichlet vertices)."""

    vertex_dof: np.ndarray
    n_dofs: int


def build_dof_map(mesh: Mesh) -> DofMap:
    free = ~mesh.boundary_vertex
    vdof = np.full(free.shape[0], -1, dtype=int)
    vdof[free] = np.arange(free.sum())
    return DofMap(vertex_dof=vdof, n_dofs=2 * int(free.sum()))


# ---------------------------------------------------------------------------
# one quadrature rule per cell kind + per-class operator tables

_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
_TRI_RULE = (np.array([[_A1, _A1], [1 - 2 * _A1, _A1], [_A1, 1 - 2 * _A1],
                       [_A2, _A2], [1 - 2 * _A2, _A2], [_A2, 1 - 2 * _A2]]),
             np.array([_W1, _W1, _W1, _W2, _W2, _W2]) / 2.0)


def _gauss_square() -> tuple[np.ndarray, np.ndarray]:
    """3 x 3 Gauss rule on the unit square."""
    x, w = np.polynomial.legendre.leggauss(3)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    return np.array([[a, b] for a in x for b in x]), np.outer(w, w).ravel()


_SQUARE_RULE = _gauss_square()


class _CellClass:
    """Operator tables at the quadrature points of one translate class.

    corners: local vertex offsets (x, y) in cell spacings; offsets: physical
    quadrature positions relative to local vertex 0; weights: physical
    measures (|det J| folded in); values[q] (2, 2k): the fields of the 2k
    vector basis functions; strains[q] (3, 2k): their Voigt strains (e_xx,
    e_yy, 2 e_xy).
    """

    def __init__(self, corners: tuple, s: float):
        self.corners = corners
        pts, w = _TRI_RULE if len(corners) == 3 else _SQUARE_RULE
        if len(corners) == 3:
            xy = s * np.array(corners, dtype=float)
            jac = np.column_stack([xy[1] - xy[0], xy[2] - xy[0]])
            basis = np.column_stack([1.0 - pts.sum(axis=1), pts])   # (nq, 3)
            ref_grad = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            gx, gy = (ref_grad @ np.linalg.inv(jac)).T              # (3,) each
            self.offsets = pts @ jac.T
            self.weights = w * abs(np.linalg.det(jac))
        else:  # the axis-aligned square of side s
            xi, eta = pts[:, 0], pts[:, 1]
            basis = np.column_stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                                     xi * eta, (1 - xi) * eta])
            gx = np.column_stack([-(1 - eta), (1 - eta), eta, -eta]) / s
            gy = np.column_stack([-(1 - xi), -xi, xi, (1 - xi)]) / s
            self.offsets = pts * s
            self.weights = w * s * s
        nq, k = basis.shape
        self.values = np.zeros((nq, 2, 2 * k))
        self.values[:, 0, 0::2] = self.values[:, 1, 1::2] = basis
        self.strains = np.zeros((nq, 3, 2 * k))
        self.strains[:, 0, 0::2] = self.strains[:, 2, 1::2] = gx
        self.strains[:, 1, 1::2] = self.strains[:, 2, 0::2] = gy


def _classes(mesh: Mesh, dofs: DofMap):
    """Yield (class tables, (n_cells, 2k) interleaved element dofs,
    (n_cells, nq, 2) physical quadrature points) per translate class.
    Eliminated dofs point at the extra slot n_dofs."""
    corners = CORNERS[mesh.kind]
    for m, c in enumerate(corners):
        cls, cells = _CellClass(c, mesh.spacing), mesh.cells[m::len(corners)]
        vd = dofs.vertex_dof[cells][..., None]                      # (nc, k, 1)
        ed = np.where(vd >= 0, 2 * vd + np.arange(2), dofs.n_dofs)
        origins = mesh.vertices[cells[:, 0]]
        yield cls, ed.reshape(len(cells), -1), origins[:, None] + cls.offsets


def _elastic_tensor(mu: float, lam: float) -> np.ndarray:
    """Voigt matrix of 2 mu eps:eps + lam (div)^2 on (e_xx, e_yy, 2 e_xy)."""
    return np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0],
                     [0.0, 0.0, mu]])


def _stencil(classes: list, kinds: np.ndarray, table: str,
             tensor: np.ndarray) -> np.ndarray:
    """(9, 36) entries [kind, (c, t, c2)] coupling component c of a vertex
    of that kind with component c2 of its neighbour t = 3 (dy + 1) + dx + 1:
    the math.fsum of the terms w_q (B_q^T D B_q)_ij of every cell the two
    share.  A kind is 3 ky + kx, k = 0 on the low edge of its axis, 2 on the
    high edge and 1 inside; kinds not listed are left 0."""
    terms = [np.einsum("q,qri,rs,qsj->ijq", cls.weights, getattr(cls, table),
                       tensor, getattr(cls, table)) for cls in classes]
    out = np.zeros((9, 2, 9, 2))
    for kind in kinds.tolist():
        ky, kx = divmod(kind, 3)
        blocks = defaultdict(list)   # t -> (2, 2, nq) term blocks
        for cls, prod in zip(classes, terms):
            for a, (ax, ay) in enumerate(cls.corners):
                # a low-edge vertex is no cell's corner 1, a high-edge one
                # no cell's corner 0
                if kx == 2 - 2 * ax or ky == 2 - 2 * ay:
                    continue
                for b, (bx, by) in enumerate(cls.corners):
                    blocks[3 * (by - ay + 1) + bx - ax + 1].append(
                        prod[2 * a:2 * a + 2, 2 * b:2 * b + 2])
        for t, block in blocks.items():
            rows = np.concatenate(block, axis=-1).reshape(4, -1).tolist()
            out[kind, :, t] = np.reshape([math.fsum(r) for r in rows], (2, 2))
    return out.reshape(9, 36)


def _matrices(mesh: Mesh, dofs: DofMap, forms) -> list[sp.csr_matrix]:
    """The matrix sum over cells of sum_q w_q B_q^T D B_q of each (table,
    tensor) form, B the class's table ("values" or "strains"), by stencil:
    row 2p + c holds the nonzero entries of dof vertex p's stencil against
    its neighbours with dofs, in their row-major order (column order when
    vertex dofs increase with vertex number, as build_dof_map's do)."""
    n, vdof = mesh.n, dofs.vertex_dof
    owner = np.empty(dofs.n_dofs // 2, dtype=int)   # dof vertex -> vertex
    owner[vdof[vdof >= 0]] = np.flatnonzero(vdof >= 0)
    j, i = np.divmod(owner, n + 1)
    kind = 3 * (np.minimum(j, 1) + (j == n)) + np.minimum(i, 1) + (i == n)
    # int32 holds 2 n_dofs on any mesh whose tables below fit in memory
    grid = np.full((n + 3, n + 3), -1, dtype=np.int32)
    grid[1:-1, 1:-1] = vdof.reshape(n + 1, n + 1)
    nbr = sliding_window_view(grid, (3, 3)).reshape(-1, 9)[owner]  # -1: none
    # the 36 candidates [c, t, c2] of each row vertex: column, has a dof
    cols = np.tile(np.repeat(2 * nbr, 2, axis=1)
                   + np.tile(np.arange(2, dtype=np.int32), 9), 2).ravel()
    has_dof = np.tile(np.repeat(nbr >= 0, 2, axis=1), 2).ravel()
    row_ends = np.arange(0, cols.size + 1, 18)
    classes = [_CellClass(c, mesh.spacing) for c in CORNERS[mesh.kind]]
    kinds, mats = np.unique(kind), []
    for table, tensor in forms:
        data = _stencil(classes, kinds, table, tensor)[kind].ravel()
        keep = np.flatnonzero(has_dof & (data != 0.0))
        mats.append(sp.csr_matrix(
            (data[keep], cols[keep], np.searchsorted(keep, row_ends)),
            shape=(dofs.n_dofs, dofs.n_dofs)))
    return mats


def _matrix(mesh: Mesh, dofs: DofMap, table: str,
            tensor: np.ndarray) -> sp.csr_matrix:
    """The matrix of one (table, tensor) form, as :func:`_matrices`."""
    return _matrices(mesh, dofs, [(table, tensor)])[0]


def _load(mesh: Mesh, dofs: DofMap, table: str, tensor: np.ndarray,
          field) -> np.ndarray:
    """Vector with entries int (D f) . B phi_i for an analytic f(x, y), with
    B phi_i the basis function's row of `table` ("values" or "strains")."""
    p = np.zeros(dofs.n_dofs + 1)
    for cls, ed, xq in _classes(mesh, dofs):
        f = np.asarray(field(xq[..., 0], xq[..., 1])) @ tensor   # (nc, nq, r)
        # optimize=True's pick on every mesh but n = 2, without its search
        contrib = np.einsum("q,cqr,qrj->cj", cls.weights, f, getattr(
            cls, table), optimize=["einsum_path", (0, 2), (0, 1)])
        p += np.bincount(ed.ravel(), contrib.ravel(), minlength=p.size)
    return p[:-1]


def assemble_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Vector mass matrix M_ij = int phi_i . phi_j (exact quadrature)."""
    return _matrix(mesh, dofs, "values", np.eye(2))


def a_form_matrix(mesh: Mesh, dofs: DofMap, mat: Material) -> sp.csr_matrix:
    """SPD matrix of the a-form, tensor C / rho."""
    return _matrix(mesh, dofs, "strains", mat.a_tensor)


def b_form_matrix(mesh: Mesh, dofs: DofMap, mat: Material) -> sp.csr_matrix:
    """Matrix of the b-form, tensor (C - (tau_eps/tau_sigma)^alpha D) / rho."""
    return _matrix(mesh, dofs, "strains", mat.b_tensor)


def mass_load(mesh: Mesh, dofs: DofMap, value_fn) -> np.ndarray:
    """Vector with entries <V, phi_i> for an analytic field V(x, y)."""
    return _load(mesh, dofs, "values", np.eye(2), value_fn)


def elastic_load(mesh: Mesh, dofs: DofMap, grad_fn,
                 tensor: np.ndarray) -> np.ndarray:
    """Vector with entries int (D eps(V)) . eps(phi_i), D the Voigt tensor.

    grad_fn(x, y) returns G with G[..., k, l] = d V_k / d x_l.
    """
    def strain(x, y):
        g = np.asarray(grad_fn(x, y))
        return np.stack([g[..., 0, 0], g[..., 1, 1],
                         g[..., 0, 1] + g[..., 1, 0]], axis=-1)

    return _load(mesh, dofs, "strains", tensor, strain)


def l2_error(mesh: Mesh, dofs: DofMap, coeffs: np.ndarray, exact) -> float:
    """L2 norm of (FE field - exact) with the element quadrature rules."""
    total = 0.0
    padded = np.append(coeffs, 0.0)
    for cls, ed, xq in _classes(mesh, dofs):
        diff = (np.einsum("qij,cj->cqi", cls.values, padded[ed], optimize=True)
                - np.asarray(exact(xq[..., 0], xq[..., 1])))
        total += float(np.sum(cls.weights[:, None] * diff * diff))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# linear algebra

def band_slots(*mats: sp.spmatrix) -> tuple[int, list]:
    """bw, the largest half-bandwidth of the symmetric n x n mats, and per
    matrix the flat slots of its upper entries in a C-ordered (n, bw + 1)
    band, whose transpose is LAPACK's upper band, with their values.

    The CSR arrays are read as they are, or canonicalised on a copy.  A
    matrix not symmetric to 1e-12 of its largest entry raises ValueError; a
    band that does not fit in the physical memory, BudgetExceeded."""
    upper_entries = []
    for mat in mats:
        mat = sp.csr_matrix(mat)            # shares the caller's arrays
        if not mat.has_canonical_format:
            mat = mat.copy()
            mat.sum_duplicates()
        n = mat.shape[0]
        scale = np.abs(mat.data).max(initial=0.0)
        # a symmetric pattern lines the transpose's entries up with mat's
        tr = mat.T.tocsr()
        if (np.array_equal(tr.indptr, mat.indptr)
                and np.array_equal(tr.indices, mat.indices)):
            asym = np.abs(mat.data - tr.data).max(initial=0.0)
        else:
            asym = abs(mat - mat.T).max()
        if asym > 1e-12 * scale:
            raise ValueError(f"spd_solver needs a symmetric matrix: the "
                             f"{n}-dof matrix has |mat - mat^T| = {asym:.3e} "
                             f"against max|mat| = {scale:.3e}")
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        upper = mat.indices >= rows
        upper_entries.append((rows[upper], mat.indices[upper].astype(np.intp),
                              mat.data[upper]))
    bw = max(int((c - r).max(initial=0)) for r, c, _ in upper_entries)
    require_memory(8 * (bw + 1) * n, f"the band factor of the {n}-dof system "
                   f"(half-bandwidth {bw})")
    # entry (r, c), r <= c, is LAPACK's ab[bw + r - c, c], i.e. [c, bw + r - c]
    return bw, [((c + 1) * bw + r, v) for r, c, v in upper_entries]


def band_solver(n: int, bw: int, parts) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the SPD matrix whose band is the sum of the (slots, values)
    parts of :func:`band_slots` once (dpbtrf) and return its solve (dpbtrs);
    a factor not positive definite raises SolveFailure naming the minor."""
    band = np.zeros(n * (bw + 1))
    for slots, values in parts:
        band[slots] += values
    factor, info = dpbtrf(band.reshape(n, bw + 1).T, overwrite_ab=1)
    if info > 0:
        raise SolveFailure(f"factorisation of the {n}-dof system failed: the "
                           f"leading minor of order {info} is not positive "
                           f"definite")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return dpbtrs(factor, rhs)[0]

    return solve


def spd_solver(mat: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The band Cholesky solve of the SPD matrix mat, by :func:`band_slots`
    at its own half-bandwidth and then :func:`band_solver`."""
    return band_solver(mat.shape[0], *band_slots(mat))


def ritz_project(mesh: Mesh, dofs: DofMap, a_matrix: sp.csr_matrix,
                 mat: Material, exact_grad) -> np.ndarray:
    """a-orthogonal projection of an analytic field onto the FE space.

    The right-hand side a(V, phi_i) is integrated elementwise from the
    analytic gradient, so only exact_grad is needed.
    """
    rhs = elastic_load(mesh, dofs, exact_grad, mat.a_tensor)
    return spd_solver(a_matrix)(rhs)
