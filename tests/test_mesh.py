"""Tests for the structured unit-square meshes."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvisco.errors import InvalidSize
from fracvisco.mesh import CORNERS, build_mesh


def cell_areas(mesh):
    """Signed area of every cell (shoelace), positive for CCW ordering."""
    pts = mesh.vertices[mesh.cells]  # (n_cells, k, 2)
    x, y = pts[..., 0], pts[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * yn - xn * y, axis=1)


class TestBuildMesh:
    def test_counts_quad(self):
        mesh = build_mesh("quad", 4)
        assert mesh.vertices.shape == (25, 2)
        assert mesh.cells.shape == (16, 4)

    def test_counts_tri(self):
        mesh = build_mesh("tri", 3)
        assert mesh.vertices.shape == (16, 2)
        assert mesh.cells.shape == (18, 3)

    def test_boundary_count(self):
        mesh = build_mesh("quad", 8)
        assert int(mesh.boundary_vertex.sum()) == 4 * 8

    def test_h_times_n_is_sqrt2(self):
        for n in (2, 5, 64):
            mesh = build_mesh("tri", n)
            assert mesh.spacing == pytest.approx(1.0 / n)

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            build_mesh("quad", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_mesh("hex", 4)

    def test_vertices_cover_unit_square(self):
        mesh = build_mesh("quad", 5)
        assert mesh.vertices.min() == 0.0
        assert mesh.vertices.max() == 1.0
        # row-major uniform grid
        assert np.allclose(mesh.vertices[:6, 0], np.linspace(0, 1, 6))
        assert np.allclose(mesh.vertices[:6, 1], 0.0)

    def test_interior_vertex_valence_tri(self):
        # uniform diagonal split: every interior vertex sits in 6 triangles
        mesh = build_mesh("tri", 6)
        count = Counter(mesh.cells.ravel().tolist())
        interior = np.flatnonzero(~mesh.boundary_vertex)
        assert all(count[int(v)] == 6 for v in interior)

    def test_nesting(self):
        # every coarse vertex appears in the refined mesh
        coarse = build_mesh("quad", 4)
        fine = build_mesh("quad", 8)
        fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
        for v in coarse.vertices:
            assert tuple(np.round(v, 12)) in fine_set

    @pytest.mark.parametrize("kind", ["quad", "tri"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_corner_table_is_the_cells_geometry(self, kind, n):
        # row k s + m of cells is square s's class-m cell, whose corners
        # sit at the class's offsets from its first corner
        mesh = build_mesh(kind, n)
        table = CORNERS[mesh.kind]
        for m, corners in enumerate(table):
            cells = mesh.cells[m::len(table)]
            assert len(cells) == n * n
            offsets = mesh.vertices[cells] - mesh.vertices[cells[:, :1]]
            expected = mesh.spacing * np.array(corners, dtype=float)
            assert np.allclose(offsets, expected, rtol=0.0, atol=1e-15)


class TestAreas:
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 32), kind=st.sampled_from(["tri", "quad"]))
    def test_positive_and_sum_to_one(self, n, kind):
        mesh = build_mesh(kind, n)
        areas = cell_areas(mesh)
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(1.0, rel=1e-12)

    def test_uniform_values(self):
        tri = cell_areas(build_mesh("tri", 4))
        assert np.allclose(tri, 1.0 / 32.0)
        quad = cell_areas(build_mesh("quad", 4))
        assert np.allclose(quad, 1.0 / 16.0)

