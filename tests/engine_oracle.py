"""The kernel engine evaluated naively: the test oracle for
``soe.exp_convolution`` and ``soe.engine_kernel``, and for the other two
exponential sums of ``soe``, ``theta_weights`` and ``eval_soe``.

Each block of times fills its whole (times x rates) matrix for the engine's
ENGINE_J rule by calling ``exprel`` or ``np.exp`` on every entry, with no
entry written from a value known in advance, and reduces it as the engine
does.  The blocks are the engine's, so every dot product sees the same
matrix and the two must agree bit for bit.  Only the rule and the block
size come from the package; the embedded-rule check is not repeated.  The
lag weights take their gains from ``soe.step_factors``.
"""

import numpy as np
from scipy.special import exprel

from fracvisco.soe import ENGINE_BLOCK, _engine_rules, step_factors


def _by_blocks(alpha: float, times, block_sum) -> np.ndarray:
    rates, weights = _engine_rules(alpha)[0]
    times = np.asarray(times, dtype=float)
    rows = max(1, ENGINE_BLOCK // rates.size)
    return np.concatenate([block_sum(times[lo:lo + rows], rates, weights)
                           for lo in range(0, times.size, rows)])


def exp_convolution(alpha: float, tau_sigma: float, times,
                    rate: float) -> np.ndarray:
    """t e^{-rate t} sum_j b_j exprel((rate - a_j/tau_sigma) t)."""
    return _by_blocks(alpha, times, lambda t, a, b: t * np.exp(-rate * t) * (
        exprel(np.multiply.outer(t, rate - a / tau_sigma)) * b).sum(axis=1))


def exp_sum(t, a, w, rows: int) -> np.ndarray:
    """sum_j w_j e^{-a_j t}, evaluated on every entry, in blocks of rows
    entries of the 1-D t."""
    return np.concatenate([np.exp(-np.multiply.outer(t[lo:lo + rows], a)) @ w
                           for lo in range(0, t.size, rows)])


def engine_kernel(alpha: float, times) -> np.ndarray:
    """sum_j b_j e^{-a_j t}."""
    return _by_blocks(alpha, times, lambda t, a, b: exp_sum(t, a, b, t.size))


def theta_weights(soe, dt: float, tau_sigma: float,
                  n_max: int) -> np.ndarray:
    """theta_l = sum_j gain_j e^{-(l-1) a_j dt/tau_sigma}, l = 1..n_max, in
    theta_weights' blocks."""
    _, gain = step_factors(soe, dt, tau_sigma)
    return exp_sum(np.arange(n_max, dtype=float), soe.nodes * dt / tau_sigma,
                   gain, max(1, ENGINE_BLOCK // soe.n_exp))


def eval_soe(soe, t) -> np.ndarray:
    """sum_j b_j e^{-a_j t} on the 1-D t in one block."""
    t = np.asarray(t, dtype=float)
    return exp_sum(t, soe.nodes, soe.weights, t.size)
