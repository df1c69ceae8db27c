"""Backward-Euler replay with an explicit lag-weight history: the test oracle
for both history treatments of ``fracvisco.stepper``.

``replay(prob, mesh, n_steps, weights)`` steps

    (M/dt + A) v^n = M v^{n-1} / dt + sum_{i<n} w_{n-i} B v^i + F(t_n),

from the Ritz datum A v^0 = p_a, with dense numpy algebra: one weighted sum
over the stored velocities and one ``np.linalg.solve`` per step, with no
band factor, no blocked sum, no memory recursion and no load columns (it
forms F(t) = g'(t) p_mass + g(t) p_a - I(t) p_b, g = e^{-t}, itself).  Fed
``stepper.direct_weights`` it is the direct scheme; fed
``soe.theta_weights`` of a run's exponential sum it is that run's fast
scheme, whose memory recursion telescopes to those lag weights.  It takes
only the assembled matrices, load vectors and I(t) table from the package.
"""

import math

import numpy as np

from fracvisco.fem import build_dof_map
from fracvisco.problems import conv_factor_grid, precompute_loads


def replay(prob, mesh, n_steps: int, weights: np.ndarray) -> np.ndarray:
    """Final-time coefficients v^N of the scheme with lag weights
    weights[l - 1] = w_l, l = 1..n_steps."""
    mat = prob.material
    pre = precompute_loads(mesh, build_dof_map(mesh), prob)
    mass, a, b = (m.toarray() for m in (pre.mass, pre.a_mat, pre.b_mat))
    dt = prob.final_time / n_steps
    times = dt * np.arange(1, n_steps + 1)
    conv = conv_factor_grid(mat.alpha, mat.tau_sigma, times)
    lhs = mass / dt + a
    hist = [np.linalg.solve(a, pre.p_a)]
    for n in range(1, n_steps + 1):
        lagged = sum(weights[n - 1 - i] * hist[i] for i in range(n))
        g = math.exp(-times[n - 1])
        load = -g * pre.p_mass + g * pre.p_a - conv[n - 1] * pre.p_b
        hist.append(np.linalg.solve(lhs, mass @ hist[-1] / dt + b @ lagged
                                    + load))
    return hist[-1]
