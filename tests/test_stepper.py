"""Tests for the backward-Euler time stepper and its history treatments."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvisco import fem, problems, stepper
from fracvisco.errors import BudgetExceeded, FracViscoError, SolveFailure
from fracvisco.fem import (Material, a_form_matrix, build_dof_map,
                           ritz_project, spd_solver)
from fracvisco.mesh import build_mesh
from fracvisco.mlf import kernel_antiderivative
from fracvisco.problems import (conv_factor_grid, exact_error, get_problem,
                                precompute_loads)
from fracvisco.soe import MemoryState, build_soe, theta_weights
from fracvisco.stepper import (DirectHistory, RunResult, Scheme,
                               TimeStepSystem, direct_weights, run)
import sparse_oracle
from lag_replay import replay
from spectral_oracle import temporal_solutions


@pytest.fixture(scope="module")
def soe():
    return build_soe(0.5, 1e-8, 10.0, 1e-4, 4.0)


class TestMemoryState:
    def test_initially_zero(self, soe):
        mem = MemoryState(soe, 0.1, 0.5, 6)
        assert np.all(mem.h == 0.0)

    def test_single_advance(self, soe):
        mem = MemoryState(soe, 0.1, 0.5, 3)
        v = np.array([1.0, -2.0, 0.5])
        mem.advance(v)
        assert np.allclose(mem.h, mem.gain[:, None] * v)

    def test_two_advances(self, soe):
        mem = MemoryState(soe, 0.1, 0.5, 2)
        v0, v1 = np.array([1.0, 0.0]), np.array([0.0, 3.0])
        mem.advance(v0)
        mem.advance(v1)
        expected = (mem.decay[:, None] * mem.gain[:, None] * v0
                    + mem.gain[:, None] * v1)
        assert np.allclose(mem.h, expected)

    def test_constant_input_geometric_sum(self, soe):
        # H_j after n advances of the constant c is
        # c * gain_j (1 - decay_j^n) / (1 - decay_j)
        mem = MemoryState(soe, 0.05, 0.5, 1)
        c = 2.5
        n = 7
        for _ in range(n):
            mem.advance(np.array([c]))
        # decay_j rounds to exactly 1 for the slowest rates; the geometric
        # sum degenerates to n there (and gain_j is 0 anyway)
        geo = np.where(mem.decay == 1.0, float(n),
                       (1.0 - mem.decay ** n) / np.where(mem.decay == 1.0,
                                                         1.0, 1.0 - mem.decay))
        expected = c * mem.gain * geo
        assert np.allclose(mem.h[:, 0], expected, rtol=1e-12)

    def test_nbytes(self, soe):
        mem = MemoryState(soe, 0.1, 0.5, 10)
        assert mem.nbytes == soe.n_exp * 10 * 8

    def test_matches_two_pass_recurrence(self, soe):
        # the fused BLAS-2 update against the recursion written out: scale
        # every row by decay, then add gain (x) v.  Entries are compared on
        # the scale of the same recursion over |v|, since the fused rank-1
        # update may round h decay + gain v once instead of twice.  The
        # state stays one C-ordered (N_exp, n_dofs) float64 block, which
        # nbytes and criterion 6 read.
        n_dofs, dt, tau = 7, 0.02, 0.5
        mem = MemoryState(soe, dt, tau, n_dofs)
        h = np.zeros((soe.n_exp, n_dofs))
        scale = np.zeros_like(h)
        vs = np.random.default_rng(17).standard_normal((200, n_dofs))
        for v in vs:
            v_in = v.copy()
            total = mem.advance(v_in)
            assert np.array_equal(v_in, v)
            h = h * mem.decay[:, None]
            h = h + mem.gain[:, None] * v
            scale = scale * mem.decay[:, None] + mem.gain[:, None] * abs(v)
            assert np.all(np.abs(mem.h - h) <= 1e-13 * scale)
            total_scale = scale.sum(axis=0)
            assert np.all(np.abs(total - h.sum(axis=0))
                          <= 1e-13 * total_scale)
            assert np.all(np.abs(total - mem.h.sum(axis=0))
                          <= 1e-13 * total_scale)
            assert mem.h.shape == (soe.n_exp, n_dofs)
            assert mem.h.dtype == np.float64 and mem.h.flags.c_contiguous


class TestWeights:
    def test_theta_positive(self, soe):
        th = theta_weights(soe, 0.05, 0.5, 40)
        assert np.all(th > 0)
        assert np.all(np.diff(th) < 0)

    def test_theta_telescoping_sum(self, soe):
        # sum_{l=1}^{n} theta_l = sum_j (b_j tau / a_j)(1 - decay_j^n)
        dt, tau, n = 0.05, 0.5, 40
        th = theta_weights(soe, dt, tau, n)
        decay = np.exp(-soe.nodes * dt / tau)
        expected = np.sum(soe.weights * tau / soe.nodes * (1.0 - decay ** n))
        assert th.sum() == pytest.approx(expected, abs=1e-12)

    def test_theta_matches_memory_recursion(self, soe):
        # sum_j H_j(v^n) must equal sum_i theta_{n-i} v^i
        dt, tau = 0.1, 0.5
        rng = np.random.default_rng(11)
        vs = rng.standard_normal((6, 3))
        mem = MemoryState(soe, dt, tau, 3)
        th = theta_weights(soe, dt, tau, 6)
        for n in range(1, 7):
            expected = th[n - 1::-1] @ vs[:n]
            assert np.allclose(mem.advance(vs[n - 1]), expected, atol=1e-12)

    def test_direct_weights_sum_to_antiderivative(self):
        for alpha, n in ((0.5, 20), (0.3, 1500), (0.8, 1500)):
            mat = Material(alpha=alpha)
            dt = 1.0 / n
            w = direct_weights(mat, dt, n)
            total = kernel_antiderivative(mat.alpha, mat.tau_sigma, n * dt)
            assert w.sum() == pytest.approx(total, abs=1e-12)
            assert np.all(w > 0)
            assert np.all(np.diff(w) < 0)

    def test_direct_weights_alpha_one(self):
        # exponential kernel: w_l = tau (e^{-(l-1) dt/tau} - e^{-l dt/tau})
        mat = Material(alpha=1.0, tau_sigma=0.5)
        dt = 0.1
        w = direct_weights(mat, dt, 5)
        ls = np.arange(1, 6)
        expected = 0.5 * (np.exp(-(ls - 1) * dt / 0.5)
                          - np.exp(-ls * dt / 0.5))
        assert np.allclose(w, expected, rtol=1e-10)

    @pytest.mark.parametrize("tau", [0.01, 0.5, 10.0])
    @pytest.mark.parametrize("n", [256, 1500])
    def test_direct_weights_alpha_one_within_4_ulps(self, tau, n):
        # w_l = tau e^{-(l-1) r} (1 - e^{-r}), r = dt/tau, in the form that
        # does not cancel; the difference of the antiderivative's values at
        # l dt and (l-1) dt loses up to all of w_l's digits at tau = 0.01
        dt = 1.0 / n
        w = direct_weights(Material(alpha=1.0, tau_sigma=tau), dt, n)
        r = dt / tau
        expected = tau * np.exp(-np.arange(n) * r) * -np.expm1(-r)
        assert np.all(expected > 0.0)
        assert np.all(np.abs(w - expected) <= 4 * np.spacing(expected))


class TestHistoryContract:
    @pytest.mark.parametrize("scheme", ["fast", "direct"])
    def test_advance_returns_the_lag_sum(self, soe, scheme):
        # advance(v^{n-1}) returns sum_{i<n} w_{n-i} v^i with the scheme's
        # lag weights and leaves v^{n-1} as it was; N = 70 crosses the
        # direct block starts at 33 and 65 and ends inside a partial block
        n_max, n_dofs, dt, tau = 70, 5, 0.01, 0.5
        if scheme == "fast":
            w = theta_weights(soe, dt, tau, n_max)
            hist = MemoryState(soe, dt, tau, n_dofs)
            assert hist.nbytes == soe.n_exp * n_dofs * 8
        else:
            w = direct_weights(Material(), dt, n_max)
            hist = DirectHistory(w, n_dofs)
            assert hist.nbytes == n_max * n_dofs * 8
        v = np.random.default_rng(13).standard_normal((n_max, n_dofs))
        for n in range(1, n_max + 1):
            v_in = v[n - 1].copy()
            got = hist.advance(v_in)
            assert np.array_equal(v_in, v[n - 1]), n
            want = w[n - 1::-1] @ v[:n]
            scale = np.abs(w[n - 1::-1]) @ np.abs(v[:n])
            assert np.all(np.abs(got - want) <= 1e-12 * scale), n


class TestTimeStepSystem:
    def test_one_step_matches_dense_solve(self):
        mesh = build_mesh("quad", 4)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, get_problem("ex61"))
        dt = 0.1
        system = TimeStepSystem(pre, dt)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(dofs.n_dofs)
        x = system.solve(rhs)
        dense = (pre.mass / dt + pre.a_mat).toarray()
        assert np.allclose(x, np.linalg.solve(dense, rhs), atol=1e-10)

    def test_rhs_product_is_mass_and_history(self):
        # with zero load factors, [M/dt  B  P] (v, w, 0) is the step's
        # M v/dt + B w in one product
        mesh = build_mesh("tri", 5)
        dofs = build_dof_map(mesh)
        mat = Material(alpha=0.3)
        pre = precompute_loads(mesh, dofs, get_problem("ex62", mat))
        dt = 0.003
        system = TimeStepSystem(pre, dt)
        assert system.rhs_mat.shape == (dofs.n_dofs, 2 * dofs.n_dofs + 3)
        v, w = np.random.default_rng(5).standard_normal((2, dofs.n_dofs))
        want = pre.mass @ v / dt + pre.b_mat @ w
        got = system.rhs_mat @ np.concatenate((v, w, np.zeros(3)))
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-13 * np.abs(want).max())

    def test_rhs_product_is_mass_history_and_load(self):
        # [M/dt  B  P] (v, w, f) is the step's M v/dt + B w + P f in one
        # product, P = [p_mass  p_a  p_b] and f = (g', g, -I)
        mesh = build_mesh("tri", 5)
        dofs = build_dof_map(mesh)
        mat = Material(alpha=0.3)
        pre = precompute_loads(mesh, dofs, get_problem("ex62", mat))
        dt, t = 0.003, 0.42
        system = TimeStepSystem(pre, dt)
        assert system.rhs_mat.shape == (dofs.n_dofs, 2 * dofs.n_dofs + 3)
        v, w = np.random.default_rng(5).standard_normal((2, dofs.n_dofs))
        g = math.exp(-t)
        it = conv_factor_grid(mat.alpha, mat.tau_sigma, np.array([t]))[0]
        want = (pre.mass @ v / dt + pre.b_mat @ w
                - g * pre.p_mass + g * pre.p_a - it * pre.p_b)
        got = system.rhs_mat @ np.concatenate((v, w, [-g, g, -it]))
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-13 * np.abs(want).max())


    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_rhs_mat_matches_dense_load_hstack(self, kind):
        # the CSR load block gives hstack's dense-block arrays exactly
        mesh = build_mesh(kind, 8)
        pre = precompute_loads(mesh, build_dof_map(mesh), get_problem("ex62"))
        system = TimeStepSystem(pre, 0.01)
        assert system.rhs_mat.format == "csr"
        assert sparse_oracle.same_csr(system.rhs_mat,
                                      sparse_oracle.rhs_mat(pre, 0.01))

    @pytest.mark.parametrize("dt", [0.1, 1 / 3, 0.003])
    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_bundle_parts_give_the_assembled_system(self, monkeypatch,
                                                    kind, dt):
        # the band filled from the bundle's slots is the sp.triu oracle's
        # band of the assembled M/dt + A and solves to the bit as
        # spd_solver's, and rhs_mat scaled from the bundle's [M  B  P] is
        # the oracle's hstack
        mesh = build_mesh(kind, 8)
        pre = precompute_loads(mesh, build_dof_map(mesh), get_problem("ex62"))
        bands, dpbtrf = [], fem.dpbtrf

        def spy(ab, overwrite_ab=0):
            bands.append(ab.copy(order="F"))
            return dpbtrf(ab, overwrite_ab=overwrite_ab)

        monkeypatch.setattr(fem, "dpbtrf", spy)
        system = TimeStepSystem(pre, dt)
        assert np.array_equal(bands[0],
                              sparse_oracle.band(pre.mass / dt + pre.a_mat))
        rhs = np.random.default_rng(7).standard_normal(pre.mass.shape[0])
        assert np.array_equal(system.solve(rhs),
                              spd_solver(pre.mass / dt + pre.a_mat)(rhs))
        assert sparse_oracle.same_csr(system.rhs_mat,
                                      sparse_oracle.rhs_mat(pre, dt))

    def test_runs_share_the_bundle_unchanged(self):
        # a run scales a copy of the bundle's [M  B  P] data, so a second
        # system at another dt sees the bundle as the first did
        mesh = build_mesh("tri", 6)
        pre = precompute_loads(mesh, build_dof_map(mesh), get_problem("ex61"))
        before = pre.rhs_unit.data.copy()
        TimeStepSystem(pre, 0.01)
        assert np.array_equal(pre.rhs_unit.data, before)
        assert sparse_oracle.same_csr(TimeStepSystem(pre, 0.2).rhs_mat,
                                      sparse_oracle.rhs_mat(pre, 0.2))

    def test_lhs_is_csr_storing_only_nonzeros(self):
        # perfbench reads lhs.nnz as the factored matrix's nonzeros
        mesh = build_mesh("quad", 8)
        pre = precompute_loads(mesh, build_dof_map(mesh), get_problem("ex61"))
        lhs = TimeStepSystem(pre, 0.01).lhs
        assert lhs.format == "csr"
        assert lhs.nnz == lhs.count_nonzero()


class TestRun:
    def test_zero_steps_returns_projection(self):
        mesh = build_mesh("quad", 8)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61")
        res = run(prob, mesh, Scheme.FAST, 0, dofs=dofs)
        a = a_form_matrix(mesh, dofs, prob.material)
        proj = ritz_project(mesh, dofs, a, prob.material,
                            prob.spatial_gradient)
        assert np.allclose(res.coeffs, proj, atol=1e-12)
        assert res.peak_history_bytes == 0

    def test_negative_steps_rejected(self):
        mesh = build_mesh("quad", 4)
        with pytest.raises(ValueError):
            run(get_problem("ex61"), mesh, Scheme.FAST, -1)

    @staticmethod
    def _fast_against_lag_replay(n, n_steps):
        # the memory recursion against the explicit convolution with the
        # lag weights theta_l of the run's own exponential sum
        mesh = build_mesh("quad", n)
        prob = get_problem("ex61")
        fast = run(prob, mesh, Scheme.FAST, n_steps)
        dt = prob.final_time / n_steps
        lag = replay(prob, mesh, n_steps, theta_weights(
            fast.soe, dt, prob.material.tau_sigma, n_steps))
        scale = np.abs(fast.coeffs).max()
        assert np.abs(fast.coeffs - lag).max() < 1e-10 * scale

    def test_fast_equals_theta(self):
        self._fast_against_lag_replay(6, 8)

    def test_fast_equals_theta_across_blocks(self):
        # the same check over a longer run
        self._fast_against_lag_replay(6, 65)

    def test_fast_approaches_direct_with_tight_soe(self):
        mesh = build_mesh("quad", 6)
        prob = get_problem("ex61")
        fast = run(prob, mesh, Scheme.FAST, 16, eps=1e-9)
        direct = run(prob, mesh, Scheme.DIRECT, 16)
        assert np.abs(fast.coeffs - direct.coeffs).max() < 1e-6

    def test_alpha_one_schemes_agree(self):
        # alpha = 1: the SOE is the exact single exponential, so both
        # histories are the same convolution
        mesh = build_mesh("quad", 4)
        prob = get_problem("ex61", Material(alpha=1.0))
        direct = run(prob, mesh, Scheme.DIRECT, 8)
        fast = run(prob, mesh, Scheme.FAST, 8)
        assert fast.n_exp == 1
        scale = np.abs(direct.coeffs).max()
        assert np.abs(fast.coeffs - direct.coeffs).max() < 1e-11 * scale

    @pytest.mark.xfail(raises=BudgetExceeded, strict=True,
                       reason="build_soe's panels exceed MAX_NODES here, "
                              "where the direct scheme runs")
    @pytest.mark.parametrize("alpha, tau_sigma, eps",
                             [(0.99, 0.01, None), (0.05, 0.5, 1e-8)],
                             ids=["alpha-0.99", "alpha-0.05-eps-1e-8"])
    def test_fast_runs_near_the_alpha_ends(self, alpha, tau_sigma, eps):
        mesh = build_mesh("quad", 4)
        prob = get_problem("ex61", Material(alpha=alpha, tau_sigma=tau_sigma))
        res = run(prob, mesh, Scheme.FAST, 1024, eps=eps)
        assert res.n_steps == 1024
        assert np.isfinite(res.coeffs).all()

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_default_eps_at_a_step_of_ten(self, alpha):
        # dt = 10, where dt/10 alone reaches build_soe's eps < 1 bound
        prob = get_problem("ex61", Material(alpha=alpha), final_time=100.0)
        res = run(prob, build_mesh("quad", 3), Scheme.FAST, 10)
        assert np.isfinite(res.coeffs).all()

    def test_scheme_given_as_its_value(self):
        mesh = build_mesh("quad", 4)
        prob = get_problem("ex61")
        by_value = run(prob, mesh, "direct", 8)
        assert np.array_equal(by_value.coeffs,
                              run(prob, mesh, Scheme.DIRECT, 8).coeffs)
        with pytest.raises(ValueError, match="'theta' is not a valid"):
            run(prob, mesh, "theta", 8)

    def test_history_beyond_memory_refused(self):
        mesh = build_mesh("quad", 2)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="N = 1099511627776"):
            run(get_problem("ex61"), mesh, Scheme.DIRECT, 2 ** 40)
        assert time.perf_counter() - t0 < 0.5

    def test_non_finite_step_raises_naming_the_step(self):
        mesh = build_mesh("quad", 4)
        prob = get_problem("ex61")
        mat = prob.material
        conv = conv_factor_grid(mat.alpha, mat.tau_sigma,
                                np.arange(1, 9) / 8.0)
        conv[3] = np.nan
        with pytest.raises(SolveFailure, match="step 4 of N = 8"):
            run(prob, mesh, Scheme.FAST, 8, conv_values=conv)

    def test_degenerate_memory_matches_plain_parabolic_stepper(self):
        # with B = 0 the scheme is a plain implicit Euler evolution: the
        # replay with no history at all
        mat = Material(tau_sigma=1.0, tau_eps=1.0, mu_d=1.0, lambda_d=1.0)
        prob = get_problem("ex61", mat)
        mesh = build_mesh("quad", 5)
        n_steps = 6
        res = run(prob, mesh, Scheme.FAST, n_steps)
        plain = replay(prob, mesh, n_steps, np.zeros(n_steps))
        assert np.abs(res.coeffs - plain).max() < 1e-10

    @pytest.mark.parametrize("n_steps", [5, 31, 32, 33, 97])
    def test_direct_scheme_manual_replay(self, n_steps):
        # the blocked lag sum against the dense replay; the step counts
        # straddle the block size
        assert stepper.HISTORY_BLOCK == 32
        prob = get_problem("ex61")
        mesh = build_mesh("tri", 4)
        res = run(prob, mesh, Scheme.DIRECT, n_steps)
        w = direct_weights(prob.material, prob.final_time / n_steps, n_steps)
        assert np.abs(res.coeffs - replay(prob, mesh, n_steps, w)).max() < 1e-9

    def test_bundle_of_another_material_refused(self):
        mesh = build_mesh("quad", 8)
        dofs = build_dof_map(mesh)
        other = precompute_loads(mesh, dofs,
                                 get_problem("ex61", Material(alpha=0.3)))
        with pytest.raises(ValueError, match="alpha=0.3.*alpha=0.5"):
            run(get_problem("ex61", Material(alpha=0.5)), mesh,
                Scheme.FAST, 20, dofs=dofs, pre=other)

    def test_bundle_of_another_mesh_refused(self):
        prob = get_problem("ex61")
        coarse = build_mesh("quad", 4)
        pre = precompute_loads(coarse, build_dof_map(coarse), prob)
        with pytest.raises(ValueError, match="18 dofs.*98 dofs"):
            run(prob, build_mesh("quad", 8), Scheme.DIRECT, 4, pre=pre)

    def test_bundle_of_another_mesh_kind_refused(self):
        # tri and quad meshes with the same n have the same dof count
        prob = get_problem("ex61")
        tri = build_mesh("tri", 8)
        pre = precompute_loads(tri, build_dof_map(tri), prob)
        with pytest.raises(ValueError, match="tri n=8.*quad n=8"):
            run(prob, build_mesh("quad", 8), Scheme.DIRECT, 4, pre=pre)

    def test_bundle_of_another_problem_refused(self):
        mesh = build_mesh("quad", 8)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, get_problem("ex62"))
        with pytest.raises(ValueError, match="ex62.*ex61"):
            run(get_problem("ex61"), mesh, Scheme.DIRECT, 4, dofs=dofs,
                pre=pre)

    @pytest.mark.parametrize("length", [7, 16])
    def test_conv_values_of_another_length_refused(self, length,
                                                   monkeypatch):
        # refused before the per-mesh bundle is built
        def refuse(*args, **kwargs):
            raise AssertionError("work done before the check")

        monkeypatch.setattr(stepper, "precompute_loads", refuse)
        prob = get_problem("ex61")
        conv = conv_factor_grid(prob.material.alpha, prob.material.tau_sigma,
                                np.arange(1, length + 1) / length)
        with pytest.raises(ValueError, match=rf"\({length},\).*\(8,\)"):
            run(prob, build_mesh("quad", 4), Scheme.FAST, 8,
                conv_values=conv)

    def test_peak_history_bytes(self):
        mesh = build_mesh("quad", 6)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61")
        n_steps = 10
        fast = run(prob, mesh, Scheme.FAST, n_steps, dofs=dofs, eps=1e-4)
        assert fast.peak_history_bytes == fast.n_exp * dofs.n_dofs * 8
        direct = run(prob, mesh, Scheme.DIRECT, n_steps, dofs=dofs)
        assert direct.peak_history_bytes == n_steps * dofs.n_dofs * 8
        assert direct.n_exp == 0

    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_given_bundle_is_bit_identical(self, kind):
        mesh = build_mesh(kind, 5)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex62", Material(alpha=0.3))
        pre = precompute_loads(mesh, dofs, prob)
        for scheme in Scheme:
            own = run(prob, mesh, scheme, 12, dofs=dofs)
            given = run(prob, mesh, scheme, 12, dofs=dofs, pre=pre)
            assert np.array_equal(own.coeffs, given.coeffs)

    def test_given_bundle_assembles_nothing(self, monkeypatch):
        # a run given the per-mesh bundle builds only what depends on dt:
        # no assembly, no load integral, no CSR-to-band pass, one band
        # factorisation (M/dt + A)
        mesh = build_mesh("quad", 5)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61")
        pre = precompute_loads(mesh, dofs, prob)

        def refuse(*args, **kwargs):
            raise AssertionError("per-mesh work repeated in a run")

        for module in (fem, problems, stepper):
            for name in ("a_form_matrix", "assemble_mass", "b_form_matrix",
                         "elastic_load", "mass_load", "ritz_project",
                         "precompute_loads", "band_slots"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        factored = []

        def counting_solver(n, bw, parts):
            factored.append((n, bw))
            return fem.band_solver(n, bw, parts)

        monkeypatch.setattr(stepper, "band_solver", counting_solver)
        for scheme in Scheme:
            factored.clear()
            run(prob, mesh, scheme, 6, dofs=dofs, pre=pre)
            assert factored == [(dofs.n_dofs, 2 * 5 + 1)]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_compressed_run_matches_built_soe(self, alpha):
        # the sum run() builds and compresses, against the lag weights of
        # the built sum
        mesh = build_mesh("quad", 8)
        prob = get_problem("ex61", Material(alpha=alpha))
        n_steps, tau = 64, prob.material.tau_sigma
        dt = prob.final_time / n_steps
        built = build_soe(alpha, dt / 10.0, 10, t_min=dt / (10.0 * tau),
                          t_max=prob.final_time / tau)
        own = run(prob, mesh, Scheme.FAST, n_steps)
        lag = replay(prob, mesh, n_steps,
                     theta_weights(built, dt, tau, n_steps))
        assert own.n_exp < built.n_exp
        scale = np.abs(lag).max()
        assert np.abs(own.coeffs - lag).max() < 1e-9 * scale

    def test_compression_shrinks_the_history(self):
        mesh = build_mesh("quad", 4)
        prob = get_problem("ex61")
        n_steps, tau = 256, prob.material.tau_sigma
        dt = prob.final_time / n_steps
        built = build_soe(0.5, dt / 10.0, 10, t_min=dt / (10.0 * tau),
                          t_max=prob.final_time / tau)
        res = run(prob, mesh, Scheme.FAST, n_steps)
        assert res.n_exp <= built.n_exp / 4
        assert res.soe.lag_deviation is not None
        assert res.soe.eps_certified == built.eps_certified
        assert run(prob, mesh, Scheme.DIRECT, 4).soe is None

    def test_result_metadata(self):
        mesh = build_mesh("quad", 5)
        prob = get_problem("ex61")
        res = run(prob, mesh, Scheme.FAST, 4, eps=1e-3)
        assert isinstance(res, RunResult)
        assert res.n_steps == 4
        assert res.timings.wall_total > 0.0
        assert res.timings.wall_setup > 0.0

    def test_error_decreases_under_time_refinement(self):
        mesh = build_mesh("quad", 24)
        dofs = build_dof_map(mesh)
        prob = get_problem("ex61")
        errs = []
        for n_steps in (5, 10):
            res = run(prob, mesh, Scheme.FAST, n_steps, dofs=dofs)
            errs.append(exact_error(mesh, dofs, res.coeffs, prob, 1.0))
        # first-order in time: halving dt roughly halves the error
        assert 1.6 <= errs[0] / errs[1] <= 2.6


SCALE = st.floats(1e-3, 100.0)
RUN_INPUTS = st.fixed_dictionaries({
    "problem": st.sampled_from(["ex61", "ex62"]),
    "kind": st.sampled_from(["quad", "tri"]), "n": st.integers(2, 4),
    "scheme": st.sampled_from(list(Scheme)),
    "alpha": st.floats(0.0, 1.0, exclude_min=True), "tau_sigma": SCALE,
    "tau_eps": SCALE, "rho": SCALE, "final_time": SCALE,
    "n_steps": st.integers(0, 40),
    "eps": st.sampled_from([None, 1e-12, 1e-3])})


def _run_inputs(problem, kind, n, scheme, alpha, tau_sigma, tau_eps, rho,
                final_time, n_steps, eps, **args):
    mat = Material(alpha=alpha, tau_sigma=tau_sigma, tau_eps=tau_eps, rho=rho)
    return run(get_problem(problem, mat, final_time=final_time),
               build_mesh(kind, n), scheme, n_steps, eps=eps, **args)


class TestRunInputs:
    """run over its input space (200 examples, about 6 s): a valid input
    gives finite coefficients or a FracViscoError, never a numpy warning;
    an invalid argument, a ValueError that names it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(RUN_INPUTS)
    def test_finite_or_typed_error(self, inputs):
        try:
            res = _run_inputs(**inputs)
        except FracViscoError:
            return
        assert np.isfinite(res.coeffs).all()

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(RUN_INPUTS, st.sampled_from(["n_steps", "conv_values"]))
    def test_invalid_argument_is_named(self, inputs, invalid):
        n_steps = inputs.pop("n_steps")
        args = ({"n_steps": -1 - n_steps} if invalid == "n_steps" else
                {"n_steps": n_steps, "conv_values": np.ones(n_steps + 1)})
        with pytest.raises(ValueError, match=invalid):
            _run_inputs(**inputs, **args)

    def test_kernel_range_underflow_is_named(self):
        # dt / (10 tau_sigma) and T / tau_sigma both underflow to 0
        inputs = {"problem": "ex61", "kind": "quad", "n": 2, "alpha": 0.5,
                  "tau_sigma": 1e300, "tau_eps": 1.0, "rho": 1.0,
                  "final_time": 1e-30, "n_steps": 6, "eps": None}
        with pytest.raises(ValueError, match=r"final_time = 1e-30, "
                           r"n_steps = 6 and tau_sigma = 1e\+300"):
            _run_inputs(**inputs, scheme=Scheme.FAST)
        res = _run_inputs(**inputs, scheme=Scheme.DIRECT)
        assert np.isfinite(res.coeffs).all()


class TestTemporalDifferences:
    """||v^N - v^{2N}|| at t = T against the space-exact oracle (ex61, quad
    n = 32, alpha = 0.5, N = 5..40).  The spatial error cancels in the
    difference, so the ratio to the oracle's difference shows the time
    discretisation alone: every ratio reads 1 - 6e-4 in each scheme.  A
    right-endpoint convolution (sum_{i=1}^{n} w_{n-i+1} B v^i) made in all
    history treatments moves the ratios by 1-15 %, a one-step-stale history
    (sum_{i<n-1} w_{n-1-i} B v^i) by 1.0-2.3 %; criteria 2 and 3 cannot see
    either."""

    STEPS = (5, 10, 20, 40)
    RTOL = 3e-3

    @pytest.fixture(scope="class")
    def oracle_differences(self):
        _, finals = temporal_solutions("ex61", 0.5, self.STEPS, 16)
        return [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_oracle(self, scheme, oracle_differences):
        prob = get_problem("ex61")
        mesh = build_mesh("quad", 32)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, prob)
        # eps far below dt/10, whose SOE error alone moves the fast scheme's
        # differences by up to 0.64 %
        finals = [run(prob, mesh, scheme, n, dofs=dofs, pre=pre,
                      eps=1e-8).coeffs for n in self.STEPS]
        diffs = [math.sqrt(d @ (pre.mass @ d))
                 for d in (a - b for a, b in zip(finals, finals[1:]))]
        assert np.allclose(diffs, oracle_differences, rtol=self.RTOL,
                           atol=0.0)
