"""Reference evaluation of Mittag-Leffler functions and the relaxation kernel.

The relaxation kernel of the velocity-form viscoelastic equation is

    beta(t) = E_alpha(-(t / tau_sigma)**alpha),    0 < alpha < 1,

where E_alpha is the one-parameter Mittag-Leffler function.  Everything in
this module is evaluated without any exponential-sum compression, so it is
the test oracle for the kernel engine (``soe.exp_convolution``,
``soe.direct_weights``, ``soe.engine_kernel``) and the SOE it certifies; no
run path calls it.

Two evaluation routes are provided and cross-checked in the tests:

* a truncated power series (small arguments), and
* an adaptive quadrature of the completely-monotone integral representation

      E_alpha(-t**alpha) = int_0^inf f(x, t, alpha) dx,
      f(x, t, alpha) = sin(a*pi)/(a*pi) * exp(-t * x**(-1/a))
                       / (x**2 + 2*x*cos(a*pi) + 1),

  which is bounded at both endpoints once split at x = 1.

alpha = 1 is permitted only as a test/oracle path (plain exponential kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import NonConvergence, QuadratureFailure

#: Largest |z| handled by the power series before switching to quadrature.
SERIES_RADIUS = 1.0
MAX_TERMS = 200
QUAD_ABS_TOL = 1e-12
QUAD_LIMIT = 10_000


@dataclass(frozen=True)
class MlParams:
    """Parameters (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def ml_series(params: MlParams, z: float) -> float:
    """Evaluate E_{alpha,beta}(z) = sum_j z^j / Gamma(j*alpha + beta) by series.

    Terms are accumulated until the running term drops below 1e-16 times the
    partial sum (with a 1e-300 absolute floor).  Raises :class:`NonConvergence`
    if MAX_TERMS is reached first, which signals |z| is too large for this
    path.
    """
    if abs(z) > max(SERIES_RADIUS, 5.0):
        # Alternating-series cancellation destroys double precision well
        # before the series itself stops converging.
        raise NonConvergence(f"|z| = {abs(z):g} too large for series path")
    total = 0.0
    term_z = 1.0  # z**j
    for j in range(MAX_TERMS):
        term = term_z / math.gamma(j * params.alpha + params.beta)
        total += term
        if abs(term) <= 1e-16 * abs(total) + 1e-300:
            return total
        term_z *= z
    raise NonConvergence(f"series for E_{{{params.alpha},{params.beta}}}({z}) "
                         f"did not converge in {MAX_TERMS} terms")


def _x_integrand(x: float, t: float, alpha: float) -> float:
    # Integrand of the substituted representation; bounded on (0, inf) for t > 0.
    c = math.cos(alpha * math.pi)
    if x == 0.0:
        return 0.0
    return (math.sin(alpha * math.pi) / (alpha * math.pi)
            * math.exp(-t * x ** (-1.0 / alpha))
            / (x * x + 2.0 * x * c + 1.0))


def _adaptive(fn, lo: float, hi: float) -> float:
    val, err = quad(fn, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=1e-12,
                    limit=QUAD_LIMIT)
    if not math.isfinite(val) or err > 1e-9:
        raise QuadratureFailure(
            f"adaptive quadrature error estimate {err:g} over [{lo}, {hi}]")
    return val


def ml_integral(alpha: float, t: float) -> float:
    """Evaluate E_alpha(-t**alpha) for t > 0 by adaptive quadrature.

    Split at x = 1 so each piece has a bounded, smooth integrand.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"integral representation needs 0 < alpha < 1, got {alpha}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    fn = lambda x: _x_integrand(x, t, alpha)
    return _adaptive(fn, 0.0, 1.0) + _adaptive(fn, 1.0, math.inf)


def kernel_beta(alpha: float, tau_sigma: float, t: float) -> float:
    """Relaxation kernel beta(t) = E_alpha(-(t/tau_sigma)**alpha), t >= 0."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0
    if alpha == 1.0:  # test/oracle path: plain exponential
        return math.exp(-t / tau_sigma)
    z = (t / tau_sigma) ** alpha
    if z <= SERIES_RADIUS:
        return ml_series(MlParams(alpha), -z)
    return ml_integral(alpha, t / tau_sigma)


def _antiderivative_integrand(x: float, s: float, alpha: float) -> float:
    # Laplace-domain representation of int_0^s E_alpha(-u**alpha) du, obtained
    # by integrating the x-form termwise; bounded at both endpoints.
    c = math.cos(alpha * math.pi)
    if x == 0.0:
        return 0.0
    rate = x ** (-1.0 / alpha)
    return (math.sin(alpha * math.pi) / (alpha * math.pi)
            * x ** (1.0 / alpha) * -math.expm1(-s * rate)
            / (x * x + 2.0 * x * c + 1.0))


def kernel_antiderivative(alpha: float, tau_sigma: float, x: float) -> float:
    """Primitive of the kernel: int_0^x beta(s) ds.

    Uses the closed form x * E_{alpha,2}(-(x/tau_sigma)**alpha) when the scaled
    argument is within the series radius, and an adaptive quadrature of the
    integrated Laplace representation otherwise.  Monotone nondecreasing in x,
    zero at x = 0.
    """
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if alpha == 1.0:  # test/oracle path
        return tau_sigma * -math.expm1(-x / tau_sigma)
    z = (x / tau_sigma) ** alpha
    if z <= SERIES_RADIUS:
        return x * ml_series(MlParams(alpha, beta=2.0), -z)
    s = x / tau_sigma
    fn = lambda y: _antiderivative_integrand(y, s, alpha)
    return tau_sigma * (_adaptive(fn, 0.0, 1.0) + _adaptive(fn, 1.0, math.inf))


def ml_bounds(alpha: float, z: float) -> tuple[float, float]:
    """Two-sided completely-monotone bounds on E_alpha(-z) for z >= 0.

    Lower: 1 / (1 + Gamma(1-alpha) * z); upper: G / (G + z), G = Gamma(1+alpha).
    """
    lo = 1.0 / (1.0 + math.gamma(1.0 - alpha) * z)
    g1 = math.gamma(1.0 + alpha)
    hi = g1 / (g1 + z)
    return lo, hi
