"""Exception types shared across the solver."""


class FracViscoError(Exception):
    """Base class for all solver errors."""


class NonConvergence(FracViscoError):
    """A series evaluation exceeded its term budget."""


class QuadratureFailure(FracViscoError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BudgetExceeded(FracViscoError):
    """An SOE build hit its node budget, or a run would exceed memory."""


class SolveFailure(FracViscoError):
    """Iterative linear solve stagnated or hit its iteration cap."""


class InvalidSize(FracViscoError):
    """Mesh resolution is too small."""
