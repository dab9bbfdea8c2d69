import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meshsrr.flow import FlowField
from meshsrr.grid import GridImage
from meshsrr.mesh import FemMesh, build_pixel_assignment, downsample
from meshsrr.operators import (Kernel, ObservationModel, _bilinear_gather, _blur_eigenvalues,
                               _band_blocks, _laplacian, _stencil_eigenvalues,
                               gaussian_kernel, warp_image)
from meshsrr.phantoms import COARSE, FINE, disc_mesh

from oracles import (band_terms, brute_force_convolve, dct_diagonal, dense_blur_matrix,
                     dense_laplacian_matrix, dense_projection_matrix,
                     dense_warp_matrix, traced_peak)


def mask(k: Kernel) -> np.ndarray:
    """The 2-D mask of the separable blur, for the index-loop oracles."""
    return np.outer(k.taps, k.taps)


def random_profile(size: int) -> Kernel:
    """A mirror-symmetric unit-sum profile that is not a Gaussian: random
    taps, some of them negative."""
    half = np.random.default_rng(size).uniform(-0.2, 1.0, size // 2 + 1)
    taps = np.concatenate([half, half[-2::-1]])
    return Kernel(taps / taps.sum())


def random_flow(rng, w, h, scale=1.5) -> FlowField:
    return FlowField(scale * rng.standard_normal((h, w)),
                     scale * rng.standard_normal((h, w)))


def observe(asg, k: Kernel, x: np.ndarray) -> np.ndarray:
    """P B x on the whole grid (zero off the mesh): the model's element
    residual against y = 0, lifted to the pixels."""
    model = ObservationModel(asg, k, 0.0)
    _, residual, _ = band_terms(model, x, *model.reduce(np.zeros_like(x)))
    return asg.lift(residual)


def project(asg, x: np.ndarray) -> np.ndarray:
    """The mesh-averaging projection P x: ``observe`` with the 1x1 blur."""
    return observe(asg, gaussian_kernel(1, 1.0), x)


def dense_warp_transpose(flow):
    """W' of the bilinear warp, as the transpose of its dense matrix."""
    h, w = flow.height, flow.width
    dense = dense_warp_matrix(flow, w, h)
    return lambda y: (dense.T @ y.ravel()).reshape(h, w)


def observe_adjoint(asg, k: Kernel, z: np.ndarray) -> np.ndarray:
    """B' P z: the model's half gradient with the element means of z as the
    residual and no smoothness term."""
    model = ObservationModel(asg, k, 0.0)
    z_means, z_rest = model.reduce(z)
    _, _, band = band_terms(model, np.zeros_like(z), z_means, z_rest)
    return band.gradient(band.lift(z_means))


def stencil_normal(asg, x: np.ndarray) -> np.ndarray:
    """S' S x: the model's half gradient with alpha = 1 and a zero residual."""
    model = ObservationModel(asg, gaussian_kernel(1, 1.0), 1.0)
    _, residual, band = band_terms(model, x, *model.reduce(np.zeros_like(x)))
    return band.gradient(band.lift(np.zeros_like(residual)))


class TestKernel:
    def test_identity_kernel(self):
        k = gaussian_kernel(1, 5.0)
        assert k.taps.shape == (1,) and k.taps[0] == 1.0

    def test_flat_limit(self):
        k = gaussian_kernel(3, 1e6)
        assert np.abs(k.taps - 1.0 / 3.0).max() <= 1e-9

    def test_center_tap_closed_form(self):
        k = gaussian_kernel(3, 1.0)
        expected = 1.0 / (1.0 + 2.0 * np.exp(-0.5))
        assert abs(k.taps[1] - expected) <= 1e-15

    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            gaussian_kernel(4, 1.0)

    def test_nonpositive_size_and_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel(-3, 1.0)
        with pytest.raises(ValueError):
            gaussian_kernel(3, 0.0)

    def test_unnormalized_taps_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Kernel(np.ones(3))

    def test_asymmetric_taps_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Kernel([0.0, 0.0, 1.0])

    def test_2d_mask_rejected(self):
        """Taps are the 1-D profile; a caller passing a 2-D mask fails loudly."""
        with pytest.raises(ValueError, match="1-D profile"):
            Kernel(np.full((3, 3), 1.0 / 9.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_taps_rejected(self, bad):
        """NaN passes the unit-sum check (``abs(nan - 1) > tol`` is False)."""
        taps = np.full(3, 0.5)
        taps[1] = bad
        with pytest.raises(ValueError, match="finite"):
            Kernel(taps)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, -np.inf, -1.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            gaussian_kernel(15, sigma)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-300, 5e-324])
    def test_tiny_sigma_is_the_delta_without_warning(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = gaussian_kernel(15, sigma)
        delta = np.zeros(15)
        delta[7] = 1.0
        assert np.array_equal(k.taps, delta)


class TestConvolveNeumann:
    """The Neumann-boundary blur ``Kernel.apply``."""

    def test_constant_preserved(self):
        out = gaussian_kernel(5, 2.0).apply(np.full((7, 9), 3.25))
        assert np.abs(out - 3.25).max() <= 1e-12

    def test_identity_kernel_bit_exact(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((6, 8))
        out = gaussian_kernel(1, 1.0).apply(img)
        assert np.array_equal(out, img)

    def test_ramp_flat_kernel_matches_brute_force(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        out = Kernel(np.full(3, 1.0 / 3.0)).apply(img)
        expected = brute_force_convolve(img, np.full((3, 3), 1.0 / 9.0))
        assert np.abs(out - expected).max() <= 1e-9

    def test_separable_path_matches_brute_force(self):
        """A Gaussian, whose taps are an outer product of 1-D masks."""
        rng = np.random.default_rng(1)
        img = rng.standard_normal((10, 12))
        k = gaussian_kernel(7, 1.7)
        out = k.apply(img)
        expected = brute_force_convolve(img, mask(k))
        assert np.abs(out - expected).max() <= 1e-9

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            gaussian_kernel(9, 2.0).apply(np.zeros((4, 4)))

    def test_large_kernel_fits_up_to_limit(self):
        out = gaussian_kernel(7, 2.0).apply(np.full((4, 4), 1.0))
        assert np.abs(out - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("width,height", [(4, 4), (4, 6), (7, 5)])
    def test_largest_kernel_matches_dense_matrix(self, width, height):
        size = 2 * min(width, height) - 1
        rng = np.random.default_rng(width * 10 + height)
        x = rng.standard_normal((height, width))
        k = gaussian_kernel(size, 2.0)
        dense = dense_blur_matrix(mask(k), width, height)
        out = k.apply(x)
        assert np.abs(out.ravel() - dense @ x.ravel()).max() <= 1e-12


def column_mask(taps: np.ndarray) -> np.ndarray:
    """The square mask whose only non-zero column, the centre one, is
    ``taps``: its blur on a width-1 grid is the 1-D correlation with them."""
    mask = np.zeros((taps.size, taps.size))
    mask[:, taps.size // 2] = taps
    return mask


class TestBandedBlur:
    """The banded 1-D Neumann matrices against the index-loop oracles, and
    the blur they build against the DCT-diagonal form."""

    @pytest.mark.parametrize("n", [1, 2, 5, 33, 70])
    def test_band_blocks_are_the_dense_oracle(self, n):
        """The blocks assemble to the 1-D matrix entry for entry: what they
        leave out is exactly 0, and so is all of the band's outside."""
        rng = np.random.default_rng(n)
        for size in sorted({1, 3, min(61, 2 * n - 1), 2 * n - 1}):
            taps = rng.standard_normal(size)
            mat = np.zeros((n, n))
            for rows, cols, block in _band_blocks(taps, n):
                mat[rows, cols] = block
            assert np.array_equal(mat, dense_blur_matrix(column_mask(taps), 1, n))
            p = size // 2
            assert not np.triu(mat, p + 1).any() and not np.tril(mat, -p - 1).any()

    @pytest.mark.parametrize("height,width", [(7, 5), (24, 17), (33, 70)])
    def test_rows_are_brute_force_convolution(self, height, width):
        """The two 1-D matrices of a Gaussian compose to the direct 2-D sum."""
        k = gaussian_kernel(2 * min(height, width) - 1, 3.0)
        x = np.random.default_rng(height).standard_normal((height, width))
        expected = brute_force_convolve(x, mask(k)) if height < 30 else (
            dense_blur_matrix(mask(k), width, height) @ x.ravel()).reshape(height, width)
        assert np.abs(k.apply(x) - expected).max() <= 1e-12

    @pytest.mark.parametrize("height,width,size,gaussian", [
        (h, w, size, gaussian)
        for h, w in [(1, 1), (5, 7), (7, 5), (45, 70), (100, 64)]
        for size in sorted({1, 5, 61, 2 * min(h, w) - 1})
        for gaussian in (True, False)
        if size <= 2 * min(h, w) - 1 and (gaussian or size > 1)])
    def test_matches_dct_oracle(self, height, width, size, gaussian):
        """Grids below and above one block, p below and above 32 rows,
        the fit limit, a (pairs, 2, h, w) stack, and a Gaussian or a random
        profile (the only profile of size 1 is the identity)."""
        k = gaussian_kernel(size, 0.3 * size + 0.5) if gaussian else random_profile(size)
        data = np.random.default_rng(size).standard_normal((3, 2, height, width))
        expected = dct_diagonal(data, _blur_eigenvalues(k, height, width))
        assert np.abs(k.apply(data) - expected).max() <= 1e-12

    @pytest.mark.parametrize("grid", [128, 200, 201])
    @pytest.mark.parametrize("size", [21, 61, 81])
    def test_rows_from_a_row_window_are_those_of_the_whole_grid(self, grid, size):
        """Output rows blurred from only the grid rows they read, given with
        the grid row of the window's first, have the bits of the same rows
        blurred from the whole grid: bands at the top and bottom edges and
        inside, p below and above 32 rows."""
        k = gaussian_kernel(size, 0.3 * size + 0.5)
        x = np.random.default_rng(grid + size).standard_normal((grid, grid))
        p = size // 2
        for rows in (slice(0, grid // 2), slice(grid // 2, grid), slice(70, 101)):
            first = max(rows.start - p, 0)
            window = x[first:min(rows.stop + p, grid)].copy()
            assert np.array_equal(k.apply(window, rows, first), k.apply(x, rows))


class TestBlurAdjoint:
    """B' = B: a mirror-symmetric profile makes the blur its own
    transpose, so ``Kernel.apply`` also serves as the adjoint."""

    def test_adjoint_identity_random_probes(self):
        rng = np.random.default_rng(4)
        k = gaussian_kernel(5, 1.3)
        for shape in ((16, 16), (11, 16)):
            for _ in range(10):
                x = rng.standard_normal(shape)
                y = rng.standard_normal(shape)
                lhs = float((k.apply(x) * y).sum())
                rhs = float((x * k.apply(y)).sum())
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_dense_transpose_small_grid(self):
        rng = np.random.default_rng(5)
        k = gaussian_kernel(3, 1.0)
        for w, h in ((6, 6), (7, 5)):
            dense = dense_blur_matrix(mask(k), w, h)
            z = rng.standard_normal((h, w))
            expected = (dense.T @ z.ravel()).reshape(h, w)
            out = k.apply(z)
            assert np.abs(out - expected).max() <= 1e-12

    def test_symmetric_kernel_adjoint_equals_forward(self):
        """The dense oracle itself is symmetric for such masks."""
        for k in (gaussian_kernel(5, 2.0), gaussian_kernel(19, 4.0)):
            dense = dense_blur_matrix(mask(k), 12, 10)
            assert np.abs(dense - dense.T).max() <= 1e-15


class TestLaplacian:
    """The Neumann graph Laplacian S, alone and as S'S in the observation
    model's gradient."""

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 12)])
    def test_matches_stencil_eigenvalues(self, height, width):
        x = np.random.default_rng(height * 10 + width).standard_normal((3, 2, height, width))
        eig = _stencil_eigenvalues(height, width)
        assert np.abs(_laplacian(x) - dct_diagonal(x, eig)).max() <= 1e-12

    def test_writes_into_out(self):
        x = np.random.default_rng(6).standard_normal((2, 6, 5))
        out = np.full_like(x, np.nan)
        assert _laplacian(x, out=out) is out
        assert np.array_equal(out, _laplacian(x))
        dense = dense_laplacian_matrix(5, 6)
        assert np.abs(out[1].ravel() - dense @ x[1].ravel()).max() <= 1e-12
        with pytest.raises(ValueError, match="C-contiguous"):
            _laplacian(x[:, :, :3], out=out[:, :, :3])

    def test_constant_in_null_space(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 6, 6)
        out = stencil_normal(asg, np.full((6, 6), 9.0))
        assert np.abs(out).max() <= 1e-12

    def test_impulse_stencil(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 9, 9)
        img = np.zeros((9, 9))
        img[4, 4] = 1.0
        out = stencil_normal(asg, img)
        # S'S = S^2 away from the border: the 13-point biharmonic stencil.
        expected = np.zeros((9, 9))
        expected[2:7, 2:7] = [[0, 0, 1, 0, 0],
                              [0, 2, -8, 2, 0],
                              [1, -8, 20, -8, 1],
                              [0, 2, -8, 2, 0],
                              [0, 0, 1, 0, 0]]
        assert np.abs(out - expected).max() <= 1e-12

    def test_matches_dense_matrix(self, square_mesh):
        rng = np.random.default_rng(7)
        for w, h in ((8, 8), (7, 9), (1, 1), (1, 4), (2, 2), (2, 5)):
            asg = build_pixel_assignment(square_mesh, w, h)
            x = rng.standard_normal((h, w))
            dense = dense_laplacian_matrix(w, h)
            out = stencil_normal(asg, x)
            assert np.abs(out.ravel() - dense.T @ (dense @ x.ravel())).max() <= 1e-12

    def test_output_sums_to_zero(self, square_mesh):
        rng = np.random.default_rng(8)
        asg = build_pixel_assignment(square_mesh, 5, 9)
        x = rng.standard_normal((9, 5))
        out = stencil_normal(asg, x)
        assert abs(out.sum()) <= 1e-9 * np.abs(x).sum()


class TestWarp:
    def test_zero_flow_identity_bit_exact(self):
        rng = np.random.default_rng(9)
        img = GridImage(rng.standard_normal((6, 7)))
        out = warp_image(img, FlowField.zeros(7, 6))
        assert np.array_equal(out.data, img.data)

    def test_integer_shift_interior(self):
        img = GridImage(np.arange(25, dtype=float).reshape(5, 5))
        out = warp_image(img, FlowField.constant(5, 5, 1.0, 0.0))
        assert np.array_equal(out.data[:, :4], img.data[:, 1:])

    def test_half_pixel_ramp(self):
        ramp = np.tile(np.arange(5, dtype=float), (3, 1))
        out = warp_image(GridImage(ramp), FlowField.constant(5, 3, 0.5, 0.0))
        # Bilinear midpoint between i and i+1 is i + 0.5; last column clamps.
        expected = np.tile([0.5, 1.5, 2.5, 3.5, 4.0], (3, 1))
        assert np.abs(out.data - expected).max() <= 1e-15

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            warp_image(GridImage(np.zeros((5, 5))), FlowField.zeros(4, 5))

    @pytest.mark.parametrize("height,width", [(45, 100), (3, 5000), (200, 200)])
    def test_row_bands_match_one_whole_frame_gather(self, height, width):
        """Bands of 4096 pixels (a short last one, one row per band for a
        wide grid) give the whole-frame gather bit for bit."""
        rng = np.random.default_rng(height)
        img = GridImage(rng.standard_normal((height, width)))
        flow = random_flow(rng, width, height, scale=4.0)
        jj, ii = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
        whole = _bilinear_gather(img.data, ii + flow.u, jj + flow.v)
        assert warp_image(img, flow).data.tobytes() == whole.tobytes()

    def test_peak_memory_is_a_few_frames(self):
        """At 200x200 the warp holds at most five frames besides its output
        (fourteen when it gathered whole frames)."""
        n = 200
        rng = np.random.default_rng(12)
        img = GridImage(rng.standard_normal((n, n)))
        flow = random_flow(rng, n, n)
        out, peak = traced_peak(lambda: warp_image(img, flow))
        assert out.data.shape == (n, n)
        assert peak <= (5 + 1) * n * n * 8

    def test_warp_matches_dense_matrix(self):
        rng = np.random.default_rng(10)
        flow = random_flow(rng, 5, 5)
        x = rng.standard_normal((5, 5))
        dense = dense_warp_matrix(flow, 5, 5)
        out = warp_image(GridImage(x), flow)
        assert np.abs(out.data - (dense @ x.ravel()).reshape(5, 5)).max() <= 1e-12


class TestForwardObserve:
    """P B x, read from the observation model's residual against y = 0."""

    def test_identity_kernel_single_element_mean(self, one_triangle_mesh):
        asg = build_pixel_assignment(one_triangle_mesh, 2, 1)
        out = observe(asg, gaussian_kernel(1, 1.0), np.array([[2.0, 6.0]]))
        assert np.allclose(out, 4.0, rtol=0, atol=1e-15)

    def test_constant_input(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 8, 8)
        out = observe(asg, gaussian_kernel(5, 2.0), np.full((8, 8), 1.5))
        assert np.abs(out - 1.5).max() <= 1e-12

    def test_matches_dense_composition(self, square_mesh):
        rng = np.random.default_rng(14)
        asg = build_pixel_assignment(square_mesh, 16, 16)
        k = gaussian_kernel(5, 1.5)
        dense = dense_projection_matrix(asg) @ dense_blur_matrix(mask(k), 16, 16)
        x = rng.standard_normal((16, 16))
        out = observe(asg, k, x)
        assert np.abs(out - (dense @ x.ravel()).reshape(16, 16)).max() <= 1e-12


class TestLinearOpSuite:
    """Adjoint probes over every linear operator the package applies."""

    def test_all_operators_pass_adjoint_probes(self, square_mesh):
        rng = np.random.default_rng(15)
        asg = build_pixel_assignment(square_mesh, 12, 12)
        flow = random_flow(rng, 12, 12)

        def blur(k):
            return k.apply

        k3 = gaussian_kernel(3, 1.0)
        ops = {
            "blur 5x5": (blur(gaussian_kernel(5, 1.4)),) * 2,
            "mesh projection": (lambda x: project(asg, x),) * 2,
            "stencil S'S": (lambda x: stencil_normal(asg, x),) * 2,
            "warp": (lambda x: warp_image(GridImage(x), flow).data,
                     dense_warp_transpose(flow)),
            "observation": (lambda x: observe(asg, k3, x),
                            lambda y: observe_adjoint(asg, k3, y)),
        }
        for name, (apply, adjoint) in ops.items():
            for _ in range(20):
                x = rng.standard_normal((12, 12))
                y = rng.standard_normal((12, 12))
                lhs = float((apply(x) * y).sum())
                rhs = float((x * adjoint(y)).sum())
                bound = 1e-8 * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= bound, name

    def test_adjoint_observe_matches_dense(self, square_mesh):
        rng = np.random.default_rng(16)
        asg = build_pixel_assignment(square_mesh, 8, 8)
        k = gaussian_kernel(3, 1.0)
        dense = dense_projection_matrix(asg) @ dense_blur_matrix(mask(k), 8, 8)
        z = rng.standard_normal((8, 8))
        out = observe_adjoint(asg, k, z)
        assert np.abs(out - (dense.T @ z.ravel()).reshape(8, 8)).max() <= 1e-12

    def test_projection_dense_on_disc_mesh(self):
        mesh = disc_mesh("COARSE")
        asg = build_pixel_assignment(mesh, 8, 8)
        rng = np.random.default_rng(17)
        dense = dense_projection_matrix(asg)
        x = rng.standard_normal((8, 8))
        out = project(asg, x)
        assert np.abs(out - (dense @ x.ravel()).reshape(8, 8)).max() <= 1e-12


def pixel_mesh(width: int, height: int) -> FemMesh:
    """Two triangles per pixel square. Each pixel center lies on the shared
    diagonal and goes to the lower-index triangle, so the mesh projection is
    the identity and ``P B x`` exposes the bare blur."""
    xs = np.linspace(-1.0, 1.0, width + 1)
    ys = np.linspace(-1.0, 1.0, height + 1)
    nodes = np.array([(x, y) for y in ys for x in xs])
    elements = []
    for j in range(height):
        for i in range(width):
            a = j * (width + 1) + i
            b, c, d = a + 1, a + width + 2, a + width + 1
            elements += [[a, b, c], [a, c, d]]
    return FemMesh(nodes, np.array(elements))


@functools.lru_cache(maxsize=4)
def _dense_blur(size: int, width: int, height: int) -> np.ndarray:
    """Dense B of the Gaussian the model tests use, built once per shape."""
    return dense_blur_matrix(mask(gaussian_kernel(size, 0.3 * size + 0.5)), width, height)


class TestObservationModel:
    """The pixel-space model against the dense-matrix oracles."""

    @pytest.mark.parametrize("width,height", [(17, 24), (24, 17)])
    @pytest.mark.parametrize("size", [1, 5, "largest"])
    def test_forward_blur_matches_convolve_neumann(self, width, height, size):
        size = 2 * min(width, height) - 1 if size == "largest" else size
        k = gaussian_kernel(size, 0.3 * size + 0.5)
        asg = build_pixel_assignment(pixel_mesh(width, height), width, height)
        assert asg.inside_mask().all() and asg.element_counts.max() == 1
        x = np.random.default_rng(size).standard_normal((height, width))
        model = ObservationModel(asg, k, 0.3)
        _, residual, _ = band_terms(model, x, *model.reduce(np.zeros_like(x)))
        expected = k.apply(x)
        assert np.abs(asg.lift(residual) - expected).max() <= 1e-12

    @pytest.mark.parametrize("density,grid", [(FINE, 100), (COARSE, 200)])
    def test_element_means_are_downsample(self, density, grid):
        """The model and the degradation oracle apply one P: the element
        means of an observation are ``downsample``'s values, bit for bit."""
        asg = build_pixel_assignment(disc_mesh(density), grid, grid)
        y = np.random.default_rng(grid).standard_normal((grid, grid))
        means, _ = ObservationModel(asg, gaussian_kernel(1, 1.0), 0.3).reduce(y)
        assert means[-1] == 0.0
        assert np.array_equal(means[:-1], downsample(GridImage(y), asg).values)

    def test_reduce_holds_one_grid_beside_its_inputs(self):
        """At grid 200 ``reduce`` works ``y - P y`` in the array of ``P y``:
        its traced peak, means included, stays under 1.5 grids (it was 2.01
        with a temporary for each of the difference, mask and square)."""
        asg = build_pixel_assignment(disc_mesh(COARSE), 200, 200)
        model = ObservationModel(asg, gaussian_kernel(61, 9.0), 0.3)
        y = GridImage(np.random.default_rng(5).standard_normal((200, 200))).data
        _, peak = traced_peak(lambda: model.reduce(y))
        assert peak <= 1.5 * 200 * 200 * 8

    @pytest.mark.parametrize("width,height", [(17, 24), (24, 17)])
    @pytest.mark.parametrize("density", [FINE, COARSE])
    @pytest.mark.parametrize("size", [5, "largest"])
    def test_matches_spatial_composition(self, width, height, density, size):
        """Cost, residual and gradient against P, B and S as dense matrices,
        with a random y that is not in the range of P."""
        size = 2 * min(width, height) - 1 if size == "largest" else size
        k = gaussian_kernel(size, 0.3 * size + 0.5)
        alpha = 0.3
        rng = np.random.default_rng(width * 100 + size)
        x = rng.standard_normal((height, width))
        y = rng.standard_normal((height, width))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            asg = build_pixel_assignment(disc_mesh(density), width, height)
        model = ObservationModel(asg, k, alpha)
        inside = asg.inside_mask().ravel()
        B = _dense_blur(size, width, height)
        P = dense_projection_matrix(asg)
        S = dense_laplacian_matrix(width, height)
        y_means, y_rest = model.reduce(y)
        cost, residual, band = band_terms(model, x, y_means, y_rest)

        # P B x on the whole grid (y = 0 leaves the bare prediction).
        pbx = P @ (B @ x.ravel())
        _, predicted, _ = band_terms(model, x, *model.reduce(np.zeros_like(y)))
        assert np.abs(asg.lift(predicted).ravel() - pbx).max() <= 1e-12

        # The lifted element residual is P r = P B x - P y.
        r = np.where(inside, pbx - y.ravel(), 0.0)
        assert np.abs(asg.lift(residual).ravel() - P @ r).max() <= 1e-12
        sx = S @ x.ravel()
        assert cost == pytest.approx(float(r @ r + alpha * sx @ sx), rel=1e-12)

        # The cost split: ||P r||^2 over the elements plus ||y - P y||^2.
        pr = P @ r
        off = np.where(inside, y.ravel() - P @ y.ravel(), 0.0)
        counts = np.append(asg.element_counts, 0)
        assert float(counts @ residual ** 2) == pytest.approx(float(pr @ pr), rel=1e-12)
        assert y_rest == pytest.approx(float(off @ off), rel=1e-12)
        assert np.abs(asg.lift(y_means).ravel() - P @ y.ravel()).max() <= 1e-12

        # Gradient: B' P' (P B x - y) + alpha S' S x.
        sts = S.T @ sx
        got = band.gradient(band.lift(residual))
        assert np.abs(got.ravel() - (B.T @ (P.T @ r) + alpha * sts)).max() <= 1e-12

        # S' S x alone: a zero residual leaves only the smoothness term.
        alone = band.gradient(band.lift(np.zeros_like(residual)))
        assert np.abs(alone.ravel() - alpha * sts).max() <= 1e-12

    def test_kernel_must_be_symmetric_in_each_axis(self):
        """B' = B and the DCT step-size bound need a mirror-symmetric profile
        along each axis; ``Kernel`` itself refuses any other, such as a
        Gaussian off the center tap, so no model or config can be handed one."""
        taps = np.exp(-0.5 * (np.arange(-2, 3) - 0.3) ** 2)
        with pytest.raises(ValueError, match="mirror-symmetric"):
            Kernel(taps / taps.sum())

    def test_oversized_kernel_rejected(self, square_mesh):
        asg = build_pixel_assignment(square_mesh, 4, 6)
        with pytest.raises(ValueError, match="exceeds"):
            ObservationModel(asg, gaussian_kernel(9, 2.0), 0.1)


@functools.cache
def _scipy_modules(code: str = "import meshsrr") -> tuple[str, ...]:
    """The ``scipy`` modules that ``code`` leaves in ``sys.modules`` of a fresh
    interpreter. numpy is the only runtime dependency, so every probe below
    expects none."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    probe = (f"import sys\n{code}\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return tuple(out.split())


def test_import_does_not_load_scipy_signal():
    assert _scipy_modules() == ()


def test_import_does_not_load_scipy_spatial():
    # Boundary distances are a numpy grid search; scipy.spatial would add
    # about 37 MiB of resident memory and 0.45 s of start-up.
    assert _scipy_modules() == ()


def test_import_does_not_load_scipy_ndimage():
    # flow takes its central differences by slicing a mirror-padded copy.
    assert _scipy_modules() == ()


@pytest.mark.parametrize("code", ["import meshsrr", "import meshsrr.cli"])
def test_import_does_not_load_scipy_fft(code):
    # The flow preconditioner's DCT is two matmuls (flow._precondition).
    assert _scipy_modules(code) == ()


# The known-motion probe runs with numpy's LAPACK entry points replaced by
# functions that raise: a known-motion run calls none of them.
_KNOWN_MOTION_RUN = """
import warnings
from dataclasses import replace
import numpy.linalg

def _refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"numpy.linalg.{name} called on a known-motion run")
    return call

# numpy.linalg's own helpers look the names up in its implementation module.
for _module in {numpy.linalg, getattr(numpy.linalg, "_linalg", numpy.linalg)}:
    for _name in ("svd", "eigh", "eig", "pinv", "solve", "lstsq"):
        setattr(_module, _name, _refuse(_name))
from meshsrr.config import preset
from meshsrr.experiment import run_experiment
warnings.simplefilter("ignore")  # elements without a pixel center at grid 40
cfg = preset("ex1a")
cfg = replace(cfg, grid=40, scene=replace(cfg.scene, frames=3), known_motion=True)
"""


def test_run_without_registration_does_not_load_scipy_fft():
    # Known motion comes from the scene parameters for both scenes, and the
    # runs complete without LAPACK (see _KNOWN_MOTION_RUN).
    lung = """
lung = preset("ex2a")
run_experiment(replace(lung, grid=40, scene=replace(lung.scene, frames=3), known_motion=True))
"""
    assert _scipy_modules(_KNOWN_MOTION_RUN + "run_experiment(cfg)\n" + lung) == ()


def test_run_and_metrics_cli_do_not_load_scipy_spatial(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    code = _KNOWN_MOTION_RUN + f"""
from meshsrr.cli import main
for seed, out in zip((1, 2), {[str(r) for r in runs]!r}):
    run_experiment(replace(cfg, degrade_seed=seed, output_dir=out))
assert main(["metrics", "--reference", {str(runs[0])!r}, "--candidate", {str(runs[1])!r},
             "-o", {str(tmp_path / "m.csv")!r}]) == 0
"""
    assert _scipy_modules(code) == ()
    # A header, one row per image (hr, up and srr of 3 frames) and the averages.
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 1 + 3 * 3 + 1


# The estimated-motion probe counts the flow solver's DCT pairs, so that it
# fails if the run stops registering.
_ESTIMATED_MOTION_RUN = """
import warnings
from dataclasses import replace
from meshsrr import flow
from meshsrr.config import preset
from meshsrr.experiment import run_experiment
pairs = []
_precondition = flow._precondition
flow._precondition = lambda *args: pairs.append(1) or _precondition(*args)
warnings.simplefilter("ignore")  # elements without a pixel center at grid 40
cfg = preset("ex2b")
run_experiment(replace(cfg, grid=40, scene=replace(cfg.scene, frames=3)))
assert pairs
"""


def test_estimated_run_does_not_load_scipy():
    assert _scipy_modules(_ESTIMATED_MOTION_RUN) == ()
