"""Structured triangular and square meshes of the unit square.

Vertices are laid out row-major on a uniform (n+1) x (n+1) grid.  Triangles
come from splitting every grid square along its lower-left-to-upper-right
diagonal (uniform direction, so the layout is deterministic).  The mesh
parameter h is the cell diagonal sqrt(2)/n; the convergence tables report
h/sqrt(2) = 1/n, the cell spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSize


class MeshKind(str, Enum):
    TRIANGULAR = "tri"
    QUADRILATERAL = "quad"


@dataclass(frozen=True)
class Mesh:
    kind: MeshKind
    n: int
    vertices: np.ndarray      # (n_vertices, 2)
    cells: np.ndarray         # (n_cells, 3 or 4), counterclockwise
    boundary_vertex: np.ndarray  # bool mask

    @property
    def spacing(self) -> float:
        return 1.0 / self.n


def build_mesh(kind: MeshKind | str, n: int) -> Mesh:
    """Uniform mesh of [0,1]^2 with n cells per side."""
    kind = MeshKind(kind)
    if n < 2:
        raise InvalidSize(f"need n >= 2 cells per side, got {n}")

    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i: int | np.ndarray, j: int | np.ndarray) -> np.ndarray:
        # column i (x), row j (y), row-major
        return j * (n + 1) + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = vid(ii, jj)
    v10 = vid(ii + 1, jj)
    v11 = vid(ii + 1, jj + 1)
    v01 = vid(ii, jj + 1)

    if kind is MeshKind.QUADRILATERAL:
        cells = np.column_stack([v00, v10, v11, v01])
    else:
        lower = np.column_stack([v00, v10, v11])
        upper = np.column_stack([v00, v11, v01])
        cells = np.empty((2 * n * n, 3), dtype=int)
        cells[0::2] = lower
        cells[1::2] = upper

    x, y = vertices[:, 0], vertices[:, 1]
    boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    return Mesh(kind=kind, n=n, vertices=vertices, cells=cells,
                boundary_vertex=boundary)

