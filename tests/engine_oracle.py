"""The kernel engine evaluated naively: the test oracle for
``soe.exp_convolution``, ``soe.direct_weights`` and ``soe.engine_kernel``,
and for the other two exponential sums of ``soe``, ``theta_weights`` and
``eval_soe``.

Each sum fills its whole (times x rates) matrix for the engine's ENGINE_J
rule by calling scipy's ``exprel`` or ``np.exp`` on every entry, with no
entry written from a value known in advance, and reduces it with numpy's
sum.  The engine writes the entries it knows exactly and reduces only the
rest, in its own order, so the two agree on which entries are 0 and
otherwise within a few eps relative (every term is positive).  Only the
rule comes from the package; the embedded-rule check is not repeated.  The
lag weights take their gains from ``soe.step_factors``.
"""

import numpy as np
from scipy.special import exprel

from fracvisco.soe import _engine_rules, step_factors


def exp_convolution(alpha: float, tau_sigma: float, times) -> np.ndarray:
    """t e^{-t} sum_j b_j exprel((1 - a_j/tau_sigma) t)."""
    a, b = _engine_rules(alpha)[0]
    t = np.asarray(times, dtype=float)
    return t * np.exp(-t) * (
        exprel(np.multiply.outer(t, 1.0 - a / tau_sigma)) * b).sum(axis=1)


def direct_weights(material, dt: float, n_max: int) -> np.ndarray:
    """w_l = sum_j b_j dt exprel(-r_j) e^{-(l-1) r_j}, r_j = a_j dt/tau_sigma,
    l = 1..n_max."""
    a, b = _engine_rules(material.alpha)[0]
    rate = a * dt / material.tau_sigma
    return exp_sum(np.arange(n_max, dtype=float), rate,
                   b * dt * exprel(-rate))


def exp_sum(t, a, w) -> np.ndarray:
    """sum_j w_j e^{-a_j t}, evaluated on every entry of the 1-D t."""
    return (np.exp(-np.multiply.outer(t, a)) * w).sum(axis=1)


def engine_kernel(alpha: float, times) -> np.ndarray:
    """sum_j b_j e^{-a_j t}."""
    return exp_sum(np.asarray(times, dtype=float), *_engine_rules(alpha)[0])


def theta_weights(soe, dt: float, tau_sigma: float,
                  n_max: int) -> np.ndarray:
    """theta_l = sum_j gain_j e^{-(l-1) a_j dt/tau_sigma}, l = 1..n_max."""
    _, gain = step_factors(soe, dt, tau_sigma)
    return exp_sum(np.arange(n_max, dtype=float),
                   soe.nodes * dt / tau_sigma, gain)


def eval_soe(soe, t) -> np.ndarray:
    """sum_j b_j e^{-a_j t} on the 1-D t."""
    return exp_sum(np.asarray(t, dtype=float), soe.nodes, soe.weights)
