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
    """A sparse factorisation was singular, or a time step produced a
    non-finite velocity."""


class InvalidSize(FracViscoError):
    """Mesh resolution is too small."""
