"""Exception types shared across the solver, and its memory guard."""

import os


class FracViscoError(Exception):
    """Base class for all solver errors."""


class NonConvergence(FracViscoError):
    """A series evaluation exceeded its term budget."""


class QuadratureFailure(FracViscoError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BudgetExceeded(FracViscoError):
    """An SOE build hit its node budget, or a run or a band factor would
    exceed the available memory."""


class SolveFailure(FracViscoError):
    """A factorisation was not positive definite, or a time step produced a
    non-finite velocity."""


class InvalidSize(FracViscoError):
    """Mesh resolution is too small."""


def require_memory(need: int, what: str) -> None:
    """Raise BudgetExceeded when ``need`` bytes exceed the available
    physical memory; a platform that cannot report it is not checked."""
    try:
        avail = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return
    if need > avail:
        raise BudgetExceeded(f"{what} needs {need} bytes; {avail} bytes of "
                             f"physical memory are available")
