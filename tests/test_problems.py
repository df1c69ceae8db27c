"""Tests for the manufactured problems and the per-mesh load bundle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracvisco.errors import QuadratureFailure
from fracvisco.fem import (Material, _elastic_tensor, _matrix, a_form_matrix,
                           assemble_mass, b_form_matrix, build_dof_map,
                           elastic_load, mass_load, ritz_project, spd_solver)
from fracvisco.mesh import build_mesh
from fracvisco.mlf import kernel_beta
from fracvisco.problems import (conv_factor_grid, exact_error, get_problem,
                                load_factors, precompute_loads)


def load_at(pre, t, it):
    """The weak-form load at t as the run forms it: P = [p_mass p_a p_b]
    times the factor row of t, given I(t) = it."""
    basis = np.column_stack((pre.p_mass, pre.p_a, pre.p_b))
    return basis @ load_factors(np.array([t]), np.array([it]))[0]


def fd_gradient(field, x, y, h=1e-6):
    g = np.empty(np.shape(x) + (2, 2))
    g[..., :, 0] = (field(x + h, y) - field(x - h, y)) / (2 * h)
    g[..., :, 1] = (field(x, y + h) - field(x, y - h)) / (2 * h)
    return g


class TestFields:
    @pytest.mark.parametrize("name", ["ex61", "ex62"])
    def test_vanishes_on_boundary(self, name):
        prob = get_problem(name)
        s = np.linspace(0.0, 1.0, 33)
        zero = np.zeros_like(s)
        for x, y in ((s, zero), (s, zero + 1.0), (zero, s), (zero + 1.0, s)):
            assert np.abs(prob.spatial_value(x, y)).max() < 1e-14

    @pytest.mark.parametrize("name", ["ex61", "ex62"])
    def test_gradient_matches_finite_differences(self, name):
        prob = get_problem(name)
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.05, 0.95, 20), rng.uniform(0.05, 0.95, 20)
        got = prob.spatial_gradient(x, y)
        ref = fd_gradient(prob.spatial_value, x, y)
        assert np.abs(got - ref).max() < 1e-8

    def test_exact_at_scales_by_exponential(self):
        prob = get_problem("ex61")
        x, y = np.array([0.3]), np.array([0.6])
        v0 = prob.spatial_value(x, y)
        v1 = prob.exact_at(1.0)(x, y)
        assert np.allclose(v1, math.exp(-1.0) * v0)

    def test_get_problem_validation(self):
        with pytest.raises(ValueError):
            get_problem("nope")
        assert get_problem("EX62").name == "ex62"


class TestConvFactor:
    def test_trivials(self):
        assert conv_factor_grid(0.5, 0.5, np.array([0.0]))[0] == 0.0
        with pytest.raises(ValueError):
            conv_factor_grid(0.5, 0.5, np.array([-1.0]))[0]

    def test_alpha_one_closed_form(self):
        # kernel degenerates to exp(-t/tau); convolution with e^{-s} is
        # (e^{-t/tau} - e^{-t}) / (1 - 1/tau)
        tau, t = 0.5, 0.8
        expected = (math.exp(-t / tau) - math.exp(-t)) / (1.0 - 1.0 / tau)
        assert (conv_factor_grid(1.0, tau, np.array([t]))[0]
                == pytest.approx(expected, rel=1e-12))

    @pytest.mark.parametrize("alpha", [0.999, 0.9999, 0.99999])
    def test_near_alpha_one_approaches_closed_form(self, alpha):
        # I(t) moves by O(1 - alpha) away from the alpha = 1 closed form
        tau = 0.5
        times = np.linspace(0.1, 1.0, 10)
        want = (np.exp(-times / tau) - np.exp(-times)) / (1.0 - 1.0 / tau)
        got = conv_factor_grid(alpha, tau, times)
        assert np.all(np.abs(got - want) <= 5.0 * (1.0 - alpha) * want)

    @pytest.mark.parametrize("alpha,t", [
        (0.3, 0.4), (0.5, 1.0), (0.8, 0.1), (0.1, 0.3), (0.2, 1.0),
        (0.3, 1.0), (0.5, 0.01), (0.6, 1e-4), (0.7, 0.5), (0.8, 1.0),
        (0.95, 0.6), (0.99, 1.0)])
    def test_matches_time_domain_quadrature(self, alpha, t):
        tau = 0.5
        ref, err = quad(lambda u: kernel_beta(alpha, tau, u) * math.exp(u - t),
                        0.0, t, epsabs=1e-11, limit=400)
        assert err < 1e-8
        assert (conv_factor_grid(alpha, tau, np.array([t]))[0]
                == pytest.approx(ref, abs=1e-8))

    def test_monotone_then_positive(self):
        # the forcing e^{-s} decays, so I(t) rises early and stays positive
        vals = conv_factor_grid(0.5, 0.5, np.linspace(0.0, 2.0, 21))
        assert np.all(np.diff(vals[:11]) > 0)
        assert np.all(vals[1:] > 0)

    def test_disagreeing_embedded_rule_raises(self, monkeypatch):
        # a 2-point check rule cannot match the 20-point rule
        monkeypatch.setattr("fracvisco.soe.ENGINE_J_CHECK", 2)
        with pytest.raises(QuadratureFailure):
            conv_factor_grid(0.5, 0.5, np.linspace(0.0, 1.0, 11))


class TestLoads:
    def test_initial_time_combination(self):
        mesh = build_mesh("quad", 4)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61")
        pre = precompute_loads(mesh, dofs, prob)
        it0 = conv_factor_grid(0.5, 0.5, np.array([0.0]))[0]
        load = load_at(pre, 0.0, it0)
        assert np.allclose(load, -pre.p_mass + pre.p_a, atol=1e-14)

    def test_exact_span_coefficients(self):
        mesh = build_mesh("tri", 4)
        dofs = build_dof_map(mesh)
        mat = Material(alpha=0.3)
        prob = get_problem("ex62", mat)
        pre = precompute_loads(mesh, dofs, prob)
        t = 0.6
        it = conv_factor_grid(mat.alpha, mat.tau_sigma, np.array([t]))[0]
        load = load_at(pre, t, it)
        basis = np.column_stack([pre.p_mass, pre.p_a, pre.p_b])
        coef, res, *_ = np.linalg.lstsq(basis, load, rcond=None)
        g = math.exp(-t)
        assert np.allclose(coef, [-g, g, -it], atol=1e-10)

    def test_conv_value_override(self):
        factors = load_factors(np.array([0.0]), np.array([0.25]))
        got = np.array([[1.0, 2.0, 4.0]]) @ factors[0]
        assert got[0] == pytest.approx(-1.0 + 2.0 - 1.0)

    def test_factor_table_gives_the_load_of_every_step(self):
        # row n of a run's factor table times P is the weak-form load
        # g'(t_n) p_mass + g(t_n) p_a - I(t_n) p_b at every t_n
        mesh = build_mesh("quad", 4)
        dofs = build_dof_map(mesh)
        mat = Material(alpha=0.3)
        pre = precompute_loads(mesh, dofs, get_problem("ex62", mat))
        n_steps = 9
        times = np.arange(1, n_steps + 1) / n_steps
        conv = conv_factor_grid(mat.alpha, mat.tau_sigma, times)
        factors = load_factors(times, conv)
        assert factors.shape == (n_steps, 3)
        basis = np.column_stack((pre.p_mass, pre.p_a, pre.p_b))
        for t, it, row in zip(times, conv, factors):
            g = math.exp(-t)
            want = -g * pre.p_mass + g * pre.p_a - it * pre.p_b
            assert np.allclose(basis @ row, want, rtol=0.0,
                               atol=1e-14 * np.abs(want).max())

    def test_memory_load_vanishes_for_degenerate_material(self):
        mat = Material(tau_sigma=1.0, tau_eps=1.0, mu_d=1.0, lambda_d=1.0)
        mesh = build_mesh("quad", 4)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, get_problem("ex61", mat))
        assert np.abs(pre.p_b).max() < 1e-13
        assert not pre.p_b.any() and pre.b_mat.nnz == 0

    def test_matches_strong_form_load(self):
        # integrating the pointwise momentum balance against the basis must
        # reproduce the weak-form load built from the analytic gradient
        mat = Material()
        prob = get_problem("ex61", mat)
        t = 0.7
        g, gp = math.exp(-t), -math.exp(-t)
        it = conv_factor_grid(mat.alpha, mat.tau_sigma, np.array([t]))[0]
        mu_b = mat.mu_c - mat.ratio_alpha * mat.mu_d
        la_b = mat.lambda_c - mat.ratio_alpha * mat.lambda_d

        def strong(x, y):
            s = np.sin(np.pi * x) * np.sin(np.pi * y)
            cc = np.cos(np.pi * x) * np.cos(np.pi * y)
            div_c = -4.0 * np.pi ** 2 * s + 2.0 * np.pi ** 2 * cc
            div_b = (mu_b * (-3.0 * np.pi ** 2 * s + np.pi ** 2 * cc)
                     + la_b * (-np.pi ** 2 * s + np.pi ** 2 * cc))
            f = gp * s - g * div_c + it * div_b
            return np.stack([f, f], axis=-1)

        mesh = build_mesh("quad", 8)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, prob)
        load = load_at(pre, t, it)
        strong_vec = mass_load(mesh, dofs, strong)
        rel = np.linalg.norm(load - strong_vec) / np.linalg.norm(load)
        assert rel < 1e-6

    def test_weak_residual_second_order(self):
        # the elliptic projection of the exact field satisfies the weak
        # equation up to a dual-norm residual that shrinks like h^2
        mat = Material()
        prob = get_problem("ex61", mat)
        t = 0.5
        gp = -math.exp(-t)
        it = conv_factor_grid(mat.alpha, mat.tau_sigma, np.array([t]))[0]
        duals = []
        for n in (8, 16, 32):
            mesh = build_mesh("quad", n)
            dofs = build_dof_map(mesh)
            a = a_form_matrix(mesh, dofs, mat)
            m = assemble_mass(mesh, dofs)
            b = b_form_matrix(mesh, dofs, mat)
            rh = ritz_project(mesh, dofs, a, mat, prob.spatial_gradient)
            pre = precompute_loads(mesh, dofs, prob)
            r = gp * (m @ rh - pre.p_mass) - it * (b @ rh - pre.p_b)
            duals.append(math.sqrt(r @ spd_solver(m)(r)))
        assert duals[0] / duals[1] > 3.2
        assert duals[1] / duals[2] > 3.2

    def test_exact_error_zero_coefficients(self):
        mesh = build_mesh("quad", 16)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61")
        err = exact_error(mesh, dofs, np.zeros(dofs.n_dofs), prob, 1.0)
        assert err == pytest.approx(math.exp(-1.0) / math.sqrt(2.0), rel=1e-6)



class TestPerMeshBundle:
    @pytest.mark.parametrize("kind,name", [("quad", "ex61"), ("tri", "ex62")])
    def test_operators_and_ritz_datum(self, kind, name):
        mesh = build_mesh(kind, 6)
        dofs = build_dof_map(mesh)
        mat = Material(alpha=0.3)
        prob = get_problem(name, mat)
        pre = precompute_loads(mesh, dofs, prob)
        a = a_form_matrix(mesh, dofs, mat)
        for got, want in ((pre.a_mat, a), (pre.mass, assemble_mass(mesh, dofs)),
                          (pre.b_mat, b_form_matrix(mesh, dofs, mat))):
            assert (got != want).nnz == 0
            # no operator of the bundle stores a zero
            assert got.nnz == np.count_nonzero(got.data)
        v0 = ritz_project(mesh, dofs, a, mat, prob.spatial_gradient)
        assert np.array_equal(pre.v0, v0)

    def test_memory_load_is_integrated_once_per_tensor(self):
        # p_b and B are integrated once, on the tensor (C - r D) / rho;
        # against the two-integral forms (C part - r D part) / rho
        mesh = build_mesh("quad", 6)
        dofs = build_dof_map(mesh)
        mat = Material(rho=2.5)
        prob = get_problem("ex61", mat)
        pre = precompute_loads(mesh, dofs, prob)
        grad = prob.spatial_gradient
        c = _elastic_tensor(mat.mu_c, mat.lambda_c)
        d = _elastic_tensor(mat.mu_d, mat.lambda_d)
        p_b = (elastic_load(mesh, dofs, grad, c)
               - mat.ratio_alpha * elastic_load(mesh, dofs, grad, d)) / mat.rho
        assert np.allclose(pre.p_b, p_b, rtol=0.0,
                           atol=1e-14 * np.abs(p_b).max())
        b = (pre.a_mat - (mat.ratio_alpha / mat.rho)
             * _matrix(mesh, dofs, "strains", d)).toarray()
        assert np.allclose(pre.b_mat.toarray(), b, rtol=0.0,
                           atol=1e-14 * np.abs(b).max())
