"""The sparse operators built the plain way: the test oracle for
``fem.spd_solver``'s band, ``fem._matrix`` and ``TimeStepSystem.rhs_mat``.

Each oracle takes the long route through scipy's generic helpers, which
the package avoids for speed: the band from ``sp.triu`` in COO form, the
symmetry gap from ``abs(mat - mat.T)``, the assembled matrix cell by cell,
gathering every quadrature term of every (row, col) entry into a dict and
taking one ``math.fsum`` per entry, so each entry is the correctly rounded
sum of its terms (what ``fem``'s stencil build claims, without its
stencils), and the right-hand-side operator from ``sp.hstack`` with the
load vectors as a dense block.  The fast paths must reproduce these bit
for bit.
"""

import math
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from fracvisco.fem import _classes


def band(mat) -> np.ndarray:
    """LAPACK upper band storage of the canonical matrix's upper triangle,
    of its own half-bandwidth."""
    n = mat.shape[0]
    upper = sp.triu(mat, format="coo")
    bw = int((upper.col - upper.row).max(initial=0))
    ab = np.zeros((bw + 1, n), order="F")
    ab[bw + upper.row - upper.col, upper.col] = upper.data
    return ab


def symmetry_message(mat) -> str:
    """The ValueError text spd_solver gives a matrix that is not symmetric
    to 1e-12 of its largest entry."""
    return (f"spd_solver needs a symmetric matrix: the {mat.shape[0]}-dof "
            f"matrix has |mat - mat^T| = {abs(mat - mat.T).max():.3e} "
            f"against max|mat| = {abs(mat).max():.3e}")


def matrix(mesh, dofs, table: str, tensor: np.ndarray) -> sp.csr_matrix:
    """sum over cells of sum_q w_q B_q^T D B_q, each entry the math.fsum of
    all its terms over all cells, entries that sum to 0 stored."""
    n = dofs.n_dofs
    terms = defaultdict(list)
    for cls, ed, _ in _classes(mesh, dofs):
        b = getattr(cls, table)
        prod = np.einsum("q,qri,rs,qsj->ijq", cls.weights, b, tensor,
                         b).tolist()
        for cell in ed.tolist():
            for i, row in enumerate(cell):
                for j, col in enumerate(cell):
                    if row < n and col < n:
                        terms[row, col] += prod[i][j]
    rows, cols = np.array(list(terms), dtype=int).reshape(-1, 2).T
    data = [math.fsum(values) for values in terms.values()]
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def rhs_mat(pre, dt: float) -> sp.csr_matrix:
    """[M/dt  B  P] with P = [p_mass  p_a  p_b] a dense block."""
    return sp.hstack([pre.mass / dt, pre.b_mat,
                      np.column_stack((pre.p_mass, pre.p_a, pre.p_b))],
                     format="csr")


def same_csr(a, b) -> bool:
    """Equal shape, indptr, indices and data."""
    return (a.shape == b.shape
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("indptr", "indices", "data")))
