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


#: each cell class's corners, as (x, y) offsets in cell spacings from the
#: square's lower-left vertex, counterclockwise.  With k classes, row
#: k s + m of ``cells`` is square s's class-m cell (squares row-major).
CORNERS = {MeshKind.QUADRILATERAL: (((0, 0), (1, 0), (1, 1), (0, 1)),),
           MeshKind.TRIANGULAR: (((0, 0), (1, 0), (1, 1)),
                                 ((0, 0), (1, 1), (0, 1)))}


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

    grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # [row j, col i]
    corners = [grid[dy:dy + n, dx:dx + n]
               for cls in CORNERS[kind] for dx, dy in cls]
    cells = np.stack(corners, axis=-1).reshape(-1, len(CORNERS[kind][0]))

    x, y = vertices[:, 0], vertices[:, 1]
    boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    return Mesh(kind=kind, n=n, vertices=vertices, cells=cells,
                boundary_vertex=boundary)

