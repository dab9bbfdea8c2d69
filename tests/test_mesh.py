import numpy as np
import pytest

from meshsrr.errors import MeshError
from meshsrr.grid import GridImage
from meshsrr.mesh import (FemImage, FemMesh, OUTSIDE,
                          build_pixel_assignment, downsample, upsample)
from meshsrr.phantoms import disc_mesh

from oracles import brute_force_assignment, overlapping_points
from test_operators import project

# Frozen from the brute-force point-in-triangle oracle on the diagonal-split
# square with a 4x4 grid. Pixels on the shared diagonal go to element 0.
DIAG_4X4_MAP = np.array([
    [0, 0, 0, 0],
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [1, 1, 1, 0],
])
DIAG_ELEM0_PIXELS = [0, 1, 2, 3, 5, 6, 7, 10, 11, 15]
DIAG_ELEM1_PIXELS = [4, 8, 9, 12, 13, 14]


class TestFemMesh:
    def test_rejects_clockwise_element(self):
        nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="counter-clockwise|degenerate"):
            FemMesh(nodes, np.array([[0, 2, 1]]))

    def test_rejects_zero_area_element(self):
        nodes = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError):
            FemMesh(nodes, np.array([[0, 1, 2]]))

    def test_rejects_out_of_range_index(self):
        nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="index"):
            FemMesh(nodes, np.array([[0, 1, 3]]))

    def test_rejects_out_of_domain_nodes(self):
        nodes = np.array([[-1.0, -1.0], [2.0, -1.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="rescale"):
            FemMesh(nodes, np.array([[0, 1, 2]]))

    def test_overlap_check_passes_on_disc(self):
        assert overlapping_points(disc_mesh("COARSE"), samples=2000, seed=3) == 0

    def test_overlap_check_detects_overlapping_elements(self):
        nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0], [-0.5, 0.9]])
        elements = np.array([[0, 1, 2], [0, 1, 3]])
        mesh = FemMesh(nodes, elements)
        assert overlapping_points(mesh, samples=2000, seed=3) > 0


class TestBuildPixelAssignment:
    def test_single_element_cover(self, one_triangle_mesh):
        # 2x1 grid: both centers (+-0.5, 0) sit inside the one triangle.
        asg = build_pixel_assignment(one_triangle_mesh, 2, 1)
        assert (asg.pixel_to_element == 0).all()
        assert asg.inside_mask().all()
        assert np.array_equal(asg.element_counts, [2])

    def test_diagonal_split_matches_frozen_oracle(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        assert np.array_equal(asg.pixel_to_element, DIAG_4X4_MAP)
        flat = asg.pixel_to_element.ravel()
        assert list(np.flatnonzero(flat == 0)) == DIAG_ELEM0_PIXELS
        assert list(np.flatnonzero(flat == 1)) == DIAG_ELEM1_PIXELS
        assert np.array_equal(asg.element_counts, [10, 6])

    def test_matches_brute_force_on_disc(self):
        mesh = disc_mesh("COARSE")
        asg = build_pixel_assignment(mesh, 24, 24)
        assert np.array_equal(asg.pixel_to_element,
                              brute_force_assignment(mesh, 24, 24))

    def test_disc_corners_outside(self):
        mesh = disc_mesh("COARSE")
        asg = build_pixel_assignment(mesh, 200, 200)
        pe = asg.pixel_to_element
        assert pe[0, 0] == OUTSIDE and pe[0, -1] == OUTSIDE
        assert pe[-1, 0] == OUTSIDE and pe[-1, -1] == OUTSIDE
        assert not asg.inside_mask().all()

    def test_partition_property(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 7, 5)
        pe = asg.pixel_to_element
        outside = int((pe == OUTSIDE).sum())
        assert asg.element_counts.sum() + outside == 7 * 5
        assert np.array_equal(asg.element_counts, [(pe == e).sum() for e in range(2)])
        assert np.array_equal(asg.inside_mask(), pe != OUTSIDE)

    def test_overlapping_elements_rejected(self):
        nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0], [-0.5, 0.9]])
        mesh = FemMesh(nodes, np.array([[0, 1, 2], [0, 1, 3]]))
        with pytest.raises(MeshError, match="element 1 overlaps"):
            build_pixel_assignment(mesh, 16, 16)

    def test_zero_element_mesh_rejected(self, square_mesh):
        with pytest.raises(ValueError):
            build_pixel_assignment(square_mesh, 0, 4)

    def test_assignment_arrays_frozen(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        with pytest.raises(ValueError):
            asg.pixel_to_element[0, 0] = 5


class TestUpsample:
    def test_constant_image(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        up = upsample(FemImage(square_mesh, [3.5, 3.5]), asg)
        assert (up.data == 3.5).all()

    def test_two_values_match_oracle(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        up = upsample(FemImage(square_mesh, [1.0, 3.0]), asg)
        expected = np.where(DIAG_4X4_MAP == 0, 1.0, 3.0)
        assert np.array_equal(up.data, expected)

    def test_outside_row_zeros(self, one_triangle_mesh):
        # Top rows of a tall grid fall outside the triangle and read 0.
        asg = build_pixel_assignment(one_triangle_mesh, 4, 8)
        up = upsample(FemImage(one_triangle_mesh, [7.0]), asg)
        assert (up.data[-1, :] == 0.0).all()
        assert (up.data[0, 1:3] == 7.0).all()

    def test_mesh_mismatch_rejected(self, square_mesh, one_triangle_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        with pytest.raises(MeshError, match="match"):
            upsample(FemImage(one_triangle_mesh, [1.0]), asg)


class TestDownsample:
    def test_constant_grid(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        fem = downsample(GridImage(np.full((4, 4), 2.25)), asg)
        assert np.array_equal(fem.values, [2.25, 2.25])

    def test_means_match_frozen_oracle(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        img = GridImage(np.arange(16, dtype=float).reshape(4, 4))
        fem = downsample(img, asg)
        # Frozen: sums over the oracle member lists are 60 and 60.
        assert np.allclose(fem.values, [6.0, 10.0], rtol=0, atol=1e-15)

    def test_empty_element_warns_and_zeroes(self):
        # A sliver triangle on top of a big one; the sliver catches no center.
        nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0],
                          [-1.0, 1.0], [-0.999, 1.0]])
        mesh = FemMesh(nodes, np.array([[0, 1, 2], [3, 0, 4]]))
        asg = build_pixel_assignment(mesh, 4, 4)
        assert list(np.flatnonzero(asg.element_counts == 0)) == [1]
        with pytest.warns(UserWarning, match="no pixel center"):
            fem = downsample(GridImage(np.full((4, 4), 5.0)), asg)
        assert fem.values[1] == 0.0

    def test_dimension_mismatch_rejected(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        with pytest.raises(MeshError, match="match"):
            downsample(GridImage(np.zeros((4, 5))), asg)


class TestApplyHd:
    """The mesh-averaging projection P that the observation model applies
    (the composition of ``downsample`` and ``upsample``)."""

    def test_idempotent(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 8, 8)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8))
        once = project(asg, x)
        twice = project(asg, once)
        assert np.abs(twice - once).max() <= 1e-12

    def test_constant_full_cover(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 8, 8)
        out = project(asg, np.full((8, 8), 4.0))
        assert np.allclose(out, 4.0, rtol=0, atol=1e-12)

    def test_down_up_identity_on_fem_values(self):
        mesh = disc_mesh("COARSE")
        asg = build_pixel_assignment(mesh, 64, 64)
        assert (asg.element_counts > 0).all()
        rng = np.random.default_rng(2)
        fem = FemImage(mesh, rng.standard_normal(mesh.n_elements))
        back = downsample(upsample(fem, asg), asg)
        assert np.abs(back.values - fem.values).max() <= 1e-12

    def test_self_adjoint(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 8, 8)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8))
        lhs = float((project(asg, x) * y).sum())
        rhs = float((x * project(asg, y)).sum())
        nx = np.linalg.norm(x)
        ny = np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-10 * nx * ny
