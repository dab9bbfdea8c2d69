import numpy as np
import pytest

import meshsrr.mesh as mesh_module
from meshsrr.errors import MeshError
from meshsrr.grid import GridImage
from meshsrr.mesh import (_PASS_PIXELS, FemImage, FemMesh, OUTSIDE,
                          build_pixel_assignment, downsample, upsample)
from meshsrr.phantoms import disc_mesh

from oracles import brute_force_assignment, overlapping_points, pixel_map
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

# The fine disc with repeats of the listed elements appended, a grid size,
# and the message naming the first element with a center strictly inside a
# lower one, and its first such center in row-major order. At 200x200 the
# fine disc takes three vectorized passes: elements 5 and 1024 fall in the
# first and the last, 1023 and 1024 both in the last.
OVERLAPS = [
    ([5], (100, 100), "element 1024 overlaps an earlier element: "
                      "the pixel center (0.05, 0.03) lies inside both"),
    ([700, 5], (37, 23), "element 1025 overlaps an earlier element: "
                         "the pixel center (0.0540541, 0.0869565) lies inside both"),
    ([5], (200, 200), "element 1024 overlaps an earlier element: "
                      "the pixel center (0.065, 0.015) lies inside both"),
    ([1023], (200, 200), "element 1024 overlaps an earlier element: "
                         "the pixel center (0.935, -0.085) lies inside both"),
]
SQUARE_OVERLAP = ("element 2 overlaps an earlier element: "
                  "the pixel center (-0.857143, -0.8) lies inside both")


def fine_with_repeats(extra: list[int]) -> FemMesh:
    fine = disc_mesh("FINE")
    return FemMesh(fine.nodes, np.concatenate([fine.elements, fine.elements[extra]]))


def repeated_square(square_mesh: FemMesh) -> FemMesh:
    """Element 2 repeats element 1 and element 3 repeats element 0."""
    return FemMesh(square_mesh.nodes, square_mesh.elements[[0, 1, 1, 0]])


def overlap_message(mesh: FemMesh, size: tuple[int, int]) -> str:
    with pytest.raises(MeshError) as info:
        build_pixel_assignment(mesh, *size)
    return str(info.value)


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
        assert (pixel_map(asg) == 0).all()
        assert asg.inside_mask().all()
        assert np.array_equal(asg.element_counts, [2])

    def test_diagonal_split_matches_frozen_oracle(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        assert np.array_equal(pixel_map(asg), DIAG_4X4_MAP)
        flat = pixel_map(asg).ravel()
        assert list(np.flatnonzero(flat == 0)) == DIAG_ELEM0_PIXELS
        assert list(np.flatnonzero(flat == 1)) == DIAG_ELEM1_PIXELS
        assert np.array_equal(asg.element_counts, [10, 6])

    def test_matches_brute_force_on_disc(self):
        mesh = disc_mesh("COARSE")
        asg = build_pixel_assignment(mesh, 24, 24)
        assert np.array_equal(pixel_map(asg),
                              brute_force_assignment(mesh, 24, 24))

    @pytest.mark.parametrize("size", [(1, 1), (2, 7), (37, 23), (64, 64)])
    @pytest.mark.parametrize("density", ["FINE", "COARSE"])
    def test_matches_brute_force_on_both_discs(self, density, size):
        mesh = disc_mesh(density)
        asg = build_pixel_assignment(mesh, *size)
        assert np.array_equal(pixel_map(asg), brute_force_assignment(mesh, *size))

    def test_disc_corners_outside(self):
        mesh = disc_mesh("COARSE")
        asg = build_pixel_assignment(mesh, 200, 200)
        pe = pixel_map(asg)
        assert pe[0, 0] == OUTSIDE and pe[0, -1] == OUTSIDE
        assert pe[-1, 0] == OUTSIDE and pe[-1, -1] == OUTSIDE
        assert not asg.inside_mask().all()

    def test_partition_property(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 7, 5)
        pe = pixel_map(asg)
        outside = int((pe == OUTSIDE).sum())
        assert asg.element_counts.sum() + outside == 7 * 5
        assert np.array_equal(asg.element_counts, [(pe == e).sum() for e in range(2)])
        assert np.array_equal(asg.inside_mask(), pe != OUTSIDE)

    def test_overlapping_elements_rejected(self):
        nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0], [-0.5, 0.9]])
        mesh = FemMesh(nodes, np.array([[0, 1, 2], [0, 1, 3]]))
        with pytest.raises(MeshError) as info:
            build_pixel_assignment(mesh, 16, 16)
        assert str(info.value) == ("element 1 overlaps an earlier element: "
                                   "the pixel center (-0.9375, -0.9375) lies inside both")

    @pytest.mark.parametrize("extra, size, message", OVERLAPS)
    def test_overlap_message_names_element_and_center(self, extra, size, message):
        assert overlap_message(fine_with_repeats(extra), size) == message

    def test_overlap_message_within_one_pass(self, square_mesh):
        assert overlap_message(repeated_square(square_mesh), (7, 5)) == SQUARE_OVERLAP

    @pytest.mark.parametrize("pass_pixels", [
        # One element a pass; eight at 200x200, so that elements 1023 and 1024
        # fall in different passes; the default.
        1, 8 * 169, _PASS_PIXELS])
    def test_pass_boundaries_change_nothing(self, monkeypatch, square_mesh, pass_pixels):
        """The map takes least elements over all passes, and an overlap is
        named by the first pass that finds one: neither depends on where
        the passes split the elements."""
        monkeypatch.setattr(mesh_module, "_PASS_PIXELS", pass_pixels)
        disc = disc_mesh("COARSE")
        assert np.array_equal(pixel_map(build_pixel_assignment(disc, 24, 24)),
                              brute_force_assignment(disc, 24, 24))
        for extra, size, message in OVERLAPS:
            assert overlap_message(fine_with_repeats(extra), size) == message
        assert overlap_message(repeated_square(square_mesh), (7, 5)) == SQUARE_OVERLAP

    def test_zero_element_mesh_rejected(self, square_mesh):
        with pytest.raises(ValueError):
            build_pixel_assignment(square_mesh, 0, 4)

    def test_assignment_arrays_frozen(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 4)
        with pytest.raises(ValueError):
            asg.element_counts[0] = 5


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
        with pytest.warns(UserWarning, match="no pixel center") as record:
            fem = downsample(GridImage(np.full((4, 4), 5.0)), asg)
        assert fem.values[1] == 0.0
        assert record[0].filename == __file__  # names downsample's caller

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

    def test_outside_bin_mean_zero_when_its_sum_overflows(self):
        asg = build_pixel_assignment(disc_mesh("COARSE"), 64, 64)
        with np.errstate(all="raise"):
            means = asg.means(np.where(asg.inside_mask(), 2.0, 1e308))
        assert means[-1] == 0.0 and (means[:-1] == 2.0).all()

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
