"""The kernel engine evaluated naively: the test oracle for
``soe.exp_convolution`` and ``soe.engine_kernel``.

Each block of times fills its whole (times x rates) matrix for the engine's
ENGINE_J rule by calling ``exprel`` or ``np.exp`` on every entry, with no
entry written from a value known in advance, and reduces it as the engine
does.  The blocks are the engine's, so every dot product sees the same
matrix and the two must agree bit for bit.  Only the rule and the block
size come from the package; the embedded-rule check is not repeated.
"""

import numpy as np
from scipy.special import exprel

from fracvisco.soe import ENGINE_BLOCK, _engine_rules


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


def engine_kernel(alpha: float, times) -> np.ndarray:
    """sum_j b_j e^{-a_j t}."""
    return _by_blocks(alpha, times,
                      lambda t, a, b: np.exp(-np.multiply.outer(t, a)) @ b)
