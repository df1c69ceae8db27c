"""Solver for the velocity-form fractional viscoelastic wave equation.

Finite element discretization (P1 triangles / Q1 squares) of the
integro-differential velocity equation with a Mittag-Leffler relaxation
kernel, stepped by backward Euler with either a sum-of-exponentials
compressed history (fast) or exact product-quadrature weights (direct).
The package namespace holds the entry points of a run; everything else is
imported from its module (``fracvisco.mlf``, ``fracvisco.soe``, ...).
"""

from .errors import (BudgetExceeded, FracViscoError, InvalidSize,
                     NonConvergence, QuadratureFailure, SolveFailure)
from .fem import Material
from .mesh import MeshKind, build_mesh
from .problems import exact_error, get_problem
from .soe import build_soe
from .stepper import RunResult, Scheme, run

__all__ = [
    "BudgetExceeded", "FracViscoError", "InvalidSize", "NonConvergence",
    "QuadratureFailure", "SolveFailure", "Material", "MeshKind", "build_mesh",
    "exact_error", "get_problem", "build_soe", "RunResult", "Scheme", "run",
]

__version__ = "0.1.0"
