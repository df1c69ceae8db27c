"""Tests for the vector P1/Q1 finite element assembly and solvers."""

import math
import time
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

import sparse_oracle
from fracvisco import fem
from fracvisco.errors import BudgetExceeded, SolveFailure
from fracvisco.fem import (DofMap, Material, a_form_matrix, assemble_mass,
                           b_form_matrix, build_dof_map, elastic_load,
                           l2_error, mass_load, ritz_project, spd_solver)
from fracvisco.mesh import build_mesh
from fracvisco.problems import (_field_ex61, _grad_ex61, get_problem,
                                precompute_loads)
from fracvisco.stepper import TimeStepSystem


def full_dof_map(mesh):
    """Dofs on every vertex, boundary included."""
    nv = mesh.vertices.shape[0]
    return DofMap(np.arange(nv), 2 * nv)


def interpolate(mesh, dofs, field):
    """Nodal interpolant coefficients of an analytic field."""
    coeffs = np.zeros(dofs.n_dofs)
    vals = np.asarray(field(mesh.vertices[:, 0], mesh.vertices[:, 1]))
    free = dofs.vertex_dof >= 0
    coeffs[2 * dofs.vertex_dof[free]] = vals[free, 0]
    coeffs[2 * dofs.vertex_dof[free] + 1] = vals[free, 1]
    return coeffs


def linear_field(x, y):
    return np.stack([x + 2.0 * y, 3.0 * x - y], axis=-1)


def linear_grad(x, y):
    g = np.array([[1.0, 2.0], [3.0, -1.0]])
    return np.broadcast_to(g, x.shape + (2, 2))


class TestMaterial:
    def test_defaults_valid(self):
        mat = Material()
        assert mat.ratio_alpha == pytest.approx(2.0 ** 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Material(rho=0.0)
        with pytest.raises(ValueError):
            Material(alpha=1.5)
        with pytest.raises(ValueError):
            Material(alpha=0.0)
        with pytest.raises(ValueError):
            Material(mu_c=-1.0)
        with pytest.raises(ValueError):
            Material(mu_d=0.5, lambda_d=-1.0)

    def test_alpha_one_allowed(self):
        assert Material(alpha=1.0).ratio_alpha == pytest.approx(2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(Material)])
    def test_non_finite_field_refused(self, name, value):
        # nan passes every "<= 0" test, and inf passes most of them
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            Material(**{name: value})


class TestDofMap:
    def test_dirichlet_counts(self):
        mesh = build_mesh("quad", 8)
        dofs = build_dof_map(mesh)
        assert dofs.n_dofs == 2 * 7 * 7
        assert np.all(dofs.vertex_dof[mesh.boundary_vertex] == -1)


class TestMass:
    @pytest.mark.parametrize("kind", ["tri", "quad"])
    def test_total_mass_is_two(self, kind):
        # sum_ij M_ij = int |(1,1)|^2 = 2 * area of the unit square
        mesh = build_mesh(kind, 6)
        dofs = full_dof_map(mesh)
        m = assemble_mass(mesh, dofs)
        ones = np.ones(dofs.n_dofs)
        assert ones @ (m @ ones) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry(self):
        mesh = build_mesh("tri", 4)
        dofs = build_dof_map(mesh)
        m = assemble_mass(mesh, dofs)
        assert abs(m - m.T).max() < 1e-14

    def test_p1_element_entries(self):
        # scalar triangle mass block is (area/12) * [[2,1,1],[1,2,1],[1,1,2]]
        mesh = build_mesh("tri", 2)
        dofs = full_dof_map(mesh)
        m = assemble_mass(mesh, dofs).toarray()
        area = 1.0 / 8.0
        # vertex 0 = (0,0) sits in both triangles of its square, so its
        # diagonal entry is 2 * (2 area / 12); it shares only the lower
        # triangle with vertex 1
        d0 = 2 * dofs.vertex_dof[0]
        d1 = 2 * dofs.vertex_dof[1]
        assert m[d0, d0] == pytest.approx(4.0 * area / 12.0, rel=1e-13)
        assert m[d0, d1] == pytest.approx(area / 12.0, rel=1e-13)
        # x and y components never couple in the mass form
        assert m[d0, d1 + 1] == 0.0

    @pytest.mark.parametrize("kind", ["tri", "quad"])
    def test_stores_no_zeros_and_keeps_the_band(self, kind):
        # the cross-component zeros of the element matrix are not scattered;
        # A and M/dt + A keep the half-bandwidth 2n + 1 of row-major dofs
        n = 6
        mesh = build_mesh(kind, n)
        dofs = build_dof_map(mesh)
        m = assemble_mass(mesh, dofs)
        assert m.nnz == np.count_nonzero(m.data)
        assert m.nnz == np.count_nonzero(m.toarray())
        a = a_form_matrix(mesh, dofs, Material())
        for mat in (a, m / 0.01 + a):
            upper = sp.triu(mat, format="coo")
            assert (upper.col - upper.row).max() == 2 * n + 1

    def test_load_of_constant_integrates_to_area(self):
        mesh = build_mesh("quad", 5)
        dofs = full_dof_map(mesh)
        p = mass_load(mesh, dofs,
                      lambda x, y: np.stack([np.ones_like(x),
                                             np.zeros_like(x)], axis=-1))
        assert p[0::2].sum() == pytest.approx(1.0, abs=1e-13)
        assert np.all(p[1::2] == 0.0)


class TestElastic:
    @pytest.mark.parametrize("kind", ["tri", "quad"])
    def test_rigid_motions_have_zero_energy(self, kind):
        mesh = build_mesh(kind, 5)
        dofs = full_dof_map(mesh)
        k = a_form_matrix(mesh, dofs, Material(mu_c=1.3, lambda_c=0.7))

        def rotation(x, y):
            return np.stack([-y, x], axis=-1)

        for field in (lambda x, y: np.stack([np.ones_like(x),
                                             2.0 * np.ones_like(x)], axis=-1),
                      rotation):
            u = interpolate(mesh, dofs, field)
            assert abs(u @ (k @ u)) < 1e-12

    @pytest.mark.parametrize("kind", ["tri", "quad"])
    def test_linear_field_energies(self, kind):
        # pure shears (y, 0) and (0, x) carry energy mu on the unit square,
        # pure dilation (x, y) carries 4 mu + 4 lam; a swapped shear row in
        # the strain table gives 0 for both shears
        mu, lam = 1.3, 0.7
        mat = Material(mu_c=mu, lambda_c=lam)
        mesh = build_mesh(kind, 4)
        dofs = full_dof_map(mesh)
        k = a_form_matrix(mesh, dofs, mat)
        cases = (([[0.0, 1.0], [0.0, 0.0]], mu), ([[0.0, 0.0], [1.0, 0.0]], mu),
                 ([[1.0, 0.0], [0.0, 1.0]], 4.0 * mu + 4.0 * lam))
        for grad, energy in cases:
            g = np.array(grad)
            u = interpolate(mesh, dofs, lambda x, y: np.stack([x, y], -1) @ g.T)
            assert u @ (k @ u) == pytest.approx(energy, rel=1e-12)
            p = elastic_load(mesh, dofs,
                             lambda x, y: np.broadcast_to(g, x.shape + (2, 2)),
                             mat.a_tensor)
            assert np.allclose(p, k @ u, rtol=0.0, atol=1e-12)

    def test_symmetry_and_coercivity(self):
        mesh = build_mesh("quad", 6)
        dofs = build_dof_map(mesh)
        a = a_form_matrix(mesh, dofs, Material())
        assert abs(a - a.T).max() < 1e-13
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(dofs.n_dofs)
            assert x @ (a @ x) > 0.0

    def test_sinusoid_energy(self):
        # exact elastic energy of V = (s, s), s = sin(pi x) sin(pi y),
        # with mu = lam = 1 is 2 pi^2; the interpolant converges to it
        mesh = build_mesh("quad", 32)
        dofs = build_dof_map(mesh)
        a = a_form_matrix(mesh, dofs, Material())
        u = interpolate(mesh, dofs, lambda x, y: _field_ex61(x, y))
        assert u @ (a @ u) == pytest.approx(2.0 * math.pi ** 2, rel=0.01)

    def test_b_form_vanishes_when_tensors_match(self):
        # tau_eps = tau_sigma and D = C makes the memory form degenerate
        mat = Material(tau_sigma=1.0, tau_eps=1.0, mu_d=1.0, lambda_d=1.0)
        mesh = build_mesh("tri", 4)
        dofs = build_dof_map(mesh)
        b = b_form_matrix(mesh, dofs, mat)
        assert abs(b).max() < 1e-14
        assert b.nnz == 0

    def test_b_form_density_scaling(self):
        mesh = build_mesh("quad", 4)
        dofs = build_dof_map(mesh)
        b1, b2 = (b_form_matrix(mesh, dofs, m)
                  for m in (Material(rho=1.0), Material(rho=2.0)))
        assert abs(b1 - 2.0 * b2).max() < 1e-14

    def test_load_consistent_with_matrix_on_fe_field(self):
        # a linear field lies in the P1 space, so the analytic load equals
        # the stiffness matrix applied to its interpolant, on the same tensor
        mat = Material(rho=2.0, mu_c=1.0, lambda_c=2.0)
        mesh = build_mesh("tri", 4)
        dofs = full_dof_map(mesh)
        k = a_form_matrix(mesh, dofs, mat)
        u = interpolate(mesh, dofs, linear_field)
        p = elastic_load(mesh, dofs, linear_grad, mat.a_tensor)
        assert np.allclose(p, k @ u, atol=1e-12)


class TestErrorNorm:
    def test_exact_for_fe_function(self):
        mesh = build_mesh("tri", 5)
        dofs = full_dof_map(mesh)
        u = interpolate(mesh, dofs, linear_field)
        assert l2_error(mesh, dofs, u, linear_field) < 1e-13

    def test_zero_coefficients_give_field_norm(self):
        # || (s, s) ||_L2 = sqrt(2 * 1/4) = 1/sqrt(2)
        mesh = build_mesh("quad", 16)
        dofs = build_dof_map(mesh)
        err = l2_error(mesh, dofs, np.zeros(dofs.n_dofs),
                       lambda x, y: _field_ex61(x, y))
        assert err == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)


class TestSolvers:
    def test_cg_identity(self):
        import scipy.sparse as sp
        rhs = np.arange(1.0, 11.0)
        x = spd_solver(sp.identity(10, format="csr"))(rhs)
        assert np.allclose(x, rhs, atol=1e-12)

    def test_cg_matches_dense_solve(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(42)
        a = rng.standard_normal((50, 50))
        dense = a @ a.T + 50.0 * np.eye(50)
        rhs = rng.standard_normal(50)
        x = spd_solver(sp.csr_matrix(dense))(rhs)
        assert np.allclose(x, np.linalg.solve(dense, rhs), atol=1e-8)

    def test_cg_mass_constant(self):
        mesh = build_mesh("quad", 8)
        dofs = build_dof_map(mesh)
        m = assemble_mass(mesh, dofs)
        ones = np.ones(dofs.n_dofs)
        x = spd_solver(m)(m @ ones)
        assert np.allclose(x, ones, atol=1e-9)

    def test_singular_matrix_raises(self):
        import scipy.sparse as sp
        singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolveFailure, match="2-dof"):
            spd_solver(singular)

    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_band_factor_matches_dense_solve(self, kind):
        mesh = build_mesh(kind, 8)
        dofs = build_dof_map(mesh)
        lhs = (assemble_mass(mesh, dofs) / (0.5 / 64)
               + a_form_matrix(mesh, dofs, Material()))
        rhs = np.random.default_rng(7).standard_normal(dofs.n_dofs)
        ref = np.linalg.solve(lhs.toarray(), rhs)
        x = spd_solver(lhs)(rhs)
        assert np.abs(x - ref).max() < 1e-12 * np.abs(ref).max()

    def test_indefinite_matrix_raises(self):
        indefinite = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SolveFailure, match="2-dof"):
            spd_solver(indefinite)

    def test_non_symmetric_matrix_raises(self):
        lopsided = sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                           [0.0, 4.0, 1.0],
                                           [0.0, 0.0, 4.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            spd_solver(lopsided)

    def test_band_beyond_memory_refused(self):
        n = 10 ** 6
        corners = sp.csr_matrix((np.array([2.0, 1.0, 1.0, 2.0]),
                                 (np.array([0, 0, n - 1, n - 1]),
                                  np.array([0, n - 1, 0, n - 1]))),
                                shape=(n, n))
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="half-bandwidth 999999"):
            spd_solver(corners)
        assert time.perf_counter() - t0 < 0.5


class TestAssemblyOracle:
    @pytest.mark.parametrize("kind", ["quad", "tri"])
    @pytest.mark.parametrize("table, tensor", [
        ("values", np.eye(2)),
        ("strains", fem._elastic_tensor(1.0, 2.0))])
    @pytest.mark.parametrize("dof_map", [build_dof_map, full_dof_map])
    def test_matrix_matches_apply_along_axis(self, kind, table, tensor,
                                             dof_map):
        # every entry is the correctly rounded sum of its quadrature terms,
        # so the stencil build gives the oracle's CSR arrays exactly, once
        # the oracle's entries that cancel across cells are pruned
        mesh = build_mesh(kind, 6)
        dofs = dof_map(mesh)
        want = sparse_oracle.matrix(mesh, dofs, table, tensor)
        want.eliminate_zeros()
        assert sparse_oracle.same_csr(fem._matrix(mesh, dofs, table, tensor),
                                      want)

    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_rows_away_from_the_boundary_are_one_stencil(self, kind):
        # a vertex two or more cells from the boundary has every cell and
        # neighbour dof around it, so each component's row of M, A and B is
        # the same values at the same column offsets from its own dof
        n = 8
        mesh = build_mesh(kind, n)
        dofs = build_dof_map(mesh)
        pre = precompute_loads(mesh, dofs, get_problem("ex61"))
        i, j = np.meshgrid(np.arange(2, n - 1), np.arange(2, n - 1))
        deep = dofs.vertex_dof[(j * (n + 1) + i).ravel()]
        for mat in (pre.mass, pre.a_mat, pre.b_mat):
            for c in range(2):
                rows = [(r, slice(mat.indptr[r], mat.indptr[r + 1]))
                        for r in 2 * deep + c]
                first, span = rows[0]
                for row, span_row in rows[1:]:
                    assert np.array_equal(mat.data[span_row], mat.data[span])
                    assert np.array_equal(mat.indices[span_row] - row,
                                          mat.indices[span] - first)


def _lhs(kind: str, n: int = 8) -> sp.csr_matrix:
    """The bundle's backward-Euler matrix M/dt + A at dt = 0.5/n^2."""
    mesh = build_mesh(kind, n)
    pre = precompute_loads(mesh, build_dof_map(mesh), get_problem("ex61"))
    return TimeStepSystem(pre, 0.5 / n ** 2).lhs


def _band_of(monkeypatch, mat) -> np.ndarray:
    """The band spd_solver hands to dpbtrf, copied before it is factored."""
    seen, dpbtrf = [], fem.dpbtrf

    def spy(ab, overwrite_ab=0):
        seen.append(ab.copy(order="F"))
        return dpbtrf(ab, overwrite_ab=overwrite_ab)

    monkeypatch.setattr(fem, "dpbtrf", spy)
    spd_solver(mat)
    return seen[0]


def _duplicated(mat: sp.csr_matrix) -> sp.csr_matrix:
    """mat with every row stored twice at half value, the first copy in
    reversed column order: unsorted, with duplicates, summing to mat."""
    indices, data = [], []
    for r in range(mat.shape[0]):
        cols = mat.indices[mat.indptr[r]:mat.indptr[r + 1]]
        vals = mat.data[mat.indptr[r]:mat.indptr[r + 1]] / 2.0
        indices += [cols[::-1], cols]
        data += [vals[::-1], vals]
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                          2 * mat.indptr), shape=mat.shape)


class TestBandFill:
    """spd_solver fills its band from the CSR arrays; the sp.triu oracle
    and the abs(mat - mat.T) check must see no difference."""

    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_band_matches_triu_oracle(self, monkeypatch, kind):
        lhs = _lhs(kind)
        got = _band_of(monkeypatch, lhs)
        assert got.flags.f_contiguous
        assert got.shape == (2 * 8 + 2, lhs.shape[0])
        assert np.array_equal(got, sparse_oracle.band(lhs))

    @pytest.mark.parametrize("dense", [
        [[4.0, 1.0], [1.0 + 1e-9, 4.0]],               # asymmetric values
        [[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [0.0, 0.0, 4.0]],   # pattern
        # the same entries per row as the transpose, in other columns
        [[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 4.0]],
        [[4.0, 1.0], [1.0 + 4.5e-12, 4.0]]],           # just over 1e-12
        ids=["values", "pattern", "cyclic-pattern", "threshold"])
    def test_asymmetry_raises_as_before(self, dense):
        mat = sp.csr_matrix(np.array(dense))
        with pytest.raises(ValueError) as err:
            spd_solver(mat)
        assert err.type is ValueError
        assert str(err.value) == sparse_oracle.symmetry_message(mat)

    def test_asymmetry_just_under_threshold_accepted(self):
        mat = sp.csr_matrix(np.array([[4.0, 1.0], [1.0 + 3.5e-12, 4.0]]))
        rhs = np.array([1.0, 2.0])
        assert np.allclose(spd_solver(mat)(rhs),
                           np.linalg.solve(mat.toarray(), rhs), atol=1e-12)

    @pytest.mark.parametrize("kind", ["quad", "tri"])
    def test_non_canonical_input_summed_on_a_copy(self, monkeypatch, kind):
        lhs = _lhs(kind)
        messy = _duplicated(lhs)
        assert not messy.has_canonical_format
        saved = [a.copy() for a in (messy.indptr, messy.indices, messy.data)]
        # halves sum exactly, so the band is lhs's to the bit
        assert np.array_equal(_band_of(monkeypatch, messy),
                              sparse_oracle.band(lhs))
        rhs = np.random.default_rng(3).standard_normal(lhs.shape[0])
        ref = np.linalg.solve(lhs.toarray(), rhs)
        x = spd_solver(messy)(rhs)
        assert np.abs(x - ref).max() < 1e-12 * np.abs(ref).max()
        for now, before in zip((messy.indptr, messy.indices, messy.data),
                               saved):
            assert np.array_equal(now, before)


class TestRitzProjection:
    def test_zero_field(self):
        mesh = build_mesh("tri", 4)
        dofs = build_dof_map(mesh)
        mat = Material()
        a = a_form_matrix(mesh, dofs, mat)
        u = ritz_project(mesh, dofs, a, mat,
                         lambda x, y: np.zeros(x.shape + (2, 2)))
        assert np.allclose(u, 0.0, atol=1e-14)

    def test_second_order_convergence(self):
        mat = Material()
        errs = []
        for n in (16, 32):
            mesh = build_mesh("quad", n)
            dofs = build_dof_map(mesh)
            a = a_form_matrix(mesh, dofs, mat)
            u = ritz_project(mesh, dofs, a, mat,
                             lambda x, y: _grad_ex61(x, y))
            errs.append(l2_error(mesh, dofs, u,
                                 lambda x, y: _field_ex61(x, y)))
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4
