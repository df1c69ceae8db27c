"""Space-exact reference solver for the temporal error of the documented scheme.

It solves the velocity-form equation of the README,

    <dv/dt, w> + a(v, w) - int_0^t beta(t - s) b(v(s), w) ds = <F, w>,

for the manufactured solutions v = e^{-t} V(x), by backward Euler in time with
the exact product-quadrature lag weights

    w_l = int_{(l-1) dt}^{l dt} beta(s) ds,   history sum_{i<n} w_{n-i} b(v^i, .),

and by a sine-Galerkin method in space: both velocity components are expanded
in psi_{jk}(x, y) = 2 sin(j pi x) sin(k pi y), 1 <= j, k <= K.  The basis is
L2-orthonormal, so the mass matrix is the identity; the elastic forms couple
the components through dense blocks, so the backward-Euler matrix is factored
once per step size.  As K grows the result converges to the time-discretization
error alone (the spatial error vanishes), which is the figure the temporal
convergence ladders of the finite element solver are compared against.

The solver shares no code with the finite element assembly, the time stepper,
the exponential-sum compression, or the load and convolution-factor routines
of the package.  From the package it takes only the exact fields and the
material constants (``get_problem``) and the kernel and its antiderivative
(``fracvisco.mlf``); the convolution factor I(t) of the load is integrated
here from the kernel itself.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad

from fracvisco.mlf import kernel_antiderivative, kernel_beta
from fracvisco.problems import get_problem


def _sine_derivative_pairing(modes: int) -> np.ndarray:
    """P[a, b] = int_0^1 s_a'(x) s_b(x) dx for s_k = sqrt(2) sin(k pi x)."""
    k = np.arange(1, modes + 1, dtype=float)
    a, b = k[:, None], k[None, :]
    with np.errstate(divide="ignore"):
        return np.where((a + b) % 2 == 1, 4.0 * a * b / (b * b - a * a), 0.0)


def _elastic_matrix(modes: int, mu: float, lam: float) -> np.ndarray:
    """Sine-basis matrix of int 2 mu eps(u):eps(w) + lam div u div w.

    Unknowns are ordered component-major: index c K^2 + (j-1) K + (k-1)
    is component c of psi_{jk}.  With G_pq[a, b] = int d_p psi_a d_q psi_b,
    the (c, d) block is mu delta_cd (G_xx + G_yy) + mu G_dc + lam G_cd.  The
    mixed G_xy, G_yx couple modes of opposite parity, so the matrix is dense.
    """
    k2 = np.diag((np.pi * np.arange(1, modes + 1)) ** 2)
    eye = np.eye(modes)
    p = _sine_derivative_pairing(modes)
    g = [[np.kron(k2, eye), np.kron(p, p.T)],
         [np.kron(p.T, p), np.kron(eye, k2)]]
    lap = g[0][0] + g[1][1]
    blocks = [[mu * (lap if c == d else 0.0) + mu * g[d][c] + lam * g[c][d]
               for d in range(2)] for c in range(2)]
    return np.block(blocks)


class _SineQuadrature:
    """Tensor Gauss-Legendre rule with the 1D sine basis tabulated on it."""

    def __init__(self, modes: int, points: int):
        x, w = np.polynomial.legendre.leggauss(points)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        k = np.pi * np.arange(1, modes + 1)
        self.s = math.sqrt(2.0) * np.sin(np.outer(x, k))        # (Q, K)
        self.ds = math.sqrt(2.0) * k * np.cos(np.outer(x, k))   # (Q, K)
        self.xx, self.yy = np.meshgrid(x, x, indexing="ij")
        self.ww = np.outer(w, w)

    def project(self, f: np.ndarray, dx: bool = False,
                dy: bool = False) -> np.ndarray:
        """int f * (d_x or d_y or 1) psi_{jk} for all (j, k), flattened."""
        fx = self.ds if dx else self.s
        fy = self.ds if dy else self.s
        return (fx.T @ (self.ww * f) @ fy).ravel()


def _elastic_load(quad_rule: _SineQuadrature, grad: np.ndarray, mu: float,
                  lam: float) -> np.ndarray:
    """int 2 mu eps(V):eps(psi e_c) + lam div V div(psi e_c) for all psi, c.

    grad[..., c, l] = d V_c / d x_l on the quadrature grid.
    """
    sym = grad + np.swapaxes(grad, -1, -2)
    div = grad[..., 0, 0] + grad[..., 1, 1]
    out = []
    for c in range(2):
        fx = mu * sym[..., c, 0] + (lam * div if c == 0 else 0.0)
        fy = mu * sym[..., c, 1] + (lam * div if c == 1 else 0.0)
        out.append(quad_rule.project(fx, dx=True)
                   + quad_rule.project(fy, dy=True))
    return np.concatenate(out)


def convolution_factor(alpha: float, tau_sigma: float,
                       times: np.ndarray) -> np.ndarray:
    """I(t) = int_0^t beta(t - s) e^{-s} ds on an increasing grid of times.

    Written as I(t) = e^{-t} J(t) with J(t) = int_0^t beta(u) e^u du, so J
    accumulates one adaptive quadrature per grid interval.
    """
    fn = lambda u: kernel_beta(alpha, tau_sigma, u) * math.exp(u)
    out = np.empty(len(times))
    acc, lo = 0.0, 0.0
    for n, t in enumerate(times):
        val, err = quad(fn, lo, float(t), epsabs=1e-14, epsrel=1e-13,
                        limit=200)
        if err > 1e-11:
            raise RuntimeError(f"I(t) quadrature error {err:.1e} at t={t}")
        acc += val
        lo = float(t)
        out[n] = math.exp(-t) * acc
    return out


def lag_weights(alpha: float, tau_sigma: float, dt: float,
                n_max: int) -> np.ndarray:
    """w_l = int_{(l-1) dt}^{l dt} beta, l = 1..n_max, from the antiderivative."""
    anti = [kernel_antiderivative(alpha, tau_sigma, l * dt)
            for l in range(n_max + 1)]
    return np.diff(anti)


def temporal_errors(problem_name: str, alpha: float, steps,
                    modes: int) -> list[float]:
    """Final-time L2 errors of space-exact backward Euler for each step count.

    modes is K, the number of sine modes per direction and component.
    """
    return temporal_solutions(problem_name, alpha, steps, modes)[0]


def temporal_solutions(problem_name: str, alpha: float, steps, modes: int
                       ) -> tuple[list[float], list[np.ndarray]]:
    """The errors of :func:`temporal_errors` and, per step count, the final
    velocity's coefficients in the L2-orthonormal sine basis (component-major,
    2 K^2 entries), so that the L2 distance of two final velocities is the
    Euclidean distance of their coefficients."""
    default = get_problem(problem_name)
    mat = dataclasses.replace(default.material, alpha=alpha)
    prob = get_problem(problem_name, mat, default.final_time)
    # 3K + 32 Gauss points resolve the products of the fields with the
    # highest sine mode to round-off
    quad_rule = _SineQuadrature(modes, 3 * modes + 32)

    a_mat = _elastic_matrix(modes, mat.mu_c, mat.lambda_c) / mat.rho
    b_mat = a_mat - (mat.ratio_alpha / mat.rho) * _elastic_matrix(
        modes, mat.mu_d, mat.lambda_d)

    value = np.asarray(prob.spatial_value(quad_rule.xx, quad_rule.yy))
    grad = np.asarray(prob.spatial_gradient(quad_rule.xx, quad_rule.yy))
    p_mass = np.concatenate([quad_rule.project(value[..., c])
                             for c in range(2)])
    p_a = _elastic_load(quad_rule, grad, mat.mu_c, mat.lambda_c) / mat.rho
    p_b = p_a - (mat.ratio_alpha / mat.rho) * _elastic_load(
        quad_rule, grad, mat.mu_d, mat.lambda_d)
    # the part of ||V||^2 the sine modes cannot carry
    tail_sq = max(float(np.sum(quad_rule.ww[..., None] * value ** 2))
                  - float(p_mass @ p_mass), 0.0)
    v_init = sla.solve(a_mat, p_a, assume_a="pos")   # Ritz projection

    errors, finals = [], []
    for n_steps in steps:
        dt = prob.final_time / n_steps
        times = dt * np.arange(1, n_steps + 1)
        conv = convolution_factor(mat.alpha, mat.tau_sigma, times)
        weights = lag_weights(mat.alpha, mat.tau_sigma, dt, n_steps)
        system = a_mat.copy()
        system[np.diag_indices_from(system)] += 1.0 / dt
        lhs = sla.cho_factor(system, overwrite_a=True)
        b_hist = np.zeros((n_steps, a_mat.shape[0]))   # rows B v^i
        v = v_init
        for n in range(1, n_steps + 1):
            b_hist[n - 1] = b_mat @ v
            t = times[n - 1]
            load = -math.exp(-t) * p_mass + math.exp(-t) * p_a \
                - conv[n - 1] * p_b
            # v^i carries lag n - i, i = 0..n-1
            memory = weights[n - 1::-1] @ b_hist[:n]
            v = sla.cho_solve(lhs, v / dt + memory + load)
        g = math.exp(-prob.final_time)
        diff = v - g * p_mass
        errors.append(math.sqrt(float(diff @ diff) + g * g * tail_sq))
        finals.append(v)
    return errors, finals
