"""Linear image operators of the observation and regularization models.

Provides the space-invariant blur (with Neumann / symmetric boundary
extension), dense bilinear backward warping, and ``ObservationModel``, the
array-level form of the reconstruction cost with its gradient and the
step-size bound. Masks are mirror-symmetric in each axis, so under the
reflecting boundary every blur, like the 5-point stencil, is diagonalized by
the 2-D DCT-II and is applied as elementwise weights between transforms; the
blur is its own transpose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .grid import GridImage
from .mesh import PixelAssignment

_KERNEL_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Kernel:
    """Odd-sized convolution mask, normalized to unit sum and mirror-symmetric
    in each axis (rows and columns), which the DCT-domain blur relies on."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64, copy=True)
        if taps.ndim != 2 or taps.shape[0] != taps.shape[1]:
            raise ValueError(f"kernel taps must be square, got shape {taps.shape}")
        if taps.shape[0] % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {taps.shape[0]}")
        s = taps.sum()
        if abs(s - 1.0) > _KERNEL_SUM_TOL:
            raise ValueError(f"kernel taps must sum to 1 within {_KERNEL_SUM_TOL}, got {s!r}")
        atol = 1e-12 * max(1.0, np.abs(taps).max())
        if not (np.allclose(taps, taps[::-1, :], rtol=0.0, atol=atol)
                and np.allclose(taps, taps[:, ::-1], rtol=0.0, atol=atol)):
            raise ValueError("kernel must be symmetric in each axis "
                             "(mirror-symmetric rows and columns)")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def size(self) -> int:
        return self.taps.shape[0]


def gaussian_kernel(size: int, sigma: float) -> Kernel:
    """Isotropic Gaussian mask on integer offsets, normalized to unit sum."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be a positive odd integer, got {size}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    half = size // 2
    u = np.arange(-half, half + 1, dtype=np.float64)
    taps = np.exp(-(u[:, None] ** 2 + u[None, :] ** 2) / (2.0 * sigma ** 2))
    return Kernel(taps / taps.sum())


def _check_kernel_fit(width: int, height: int, k: Kernel) -> None:
    limit = 2 * min(width, height) - 1
    if k.size > limit:
        raise ValueError(
            f"kernel size {k.size} exceeds limit {limit} for a "
            f"{width}x{height} image")


def _dct_cosines(n: int, p: int) -> np.ndarray:
    """cos(pi k m / n) for frequencies k = 0..n-1 and offsets m = -p..p."""
    return np.cos(np.pi * np.outer(np.arange(n), np.arange(-p, p + 1)) / n)


def _blur_eigenvalues(k: Kernel, height: int, width: int) -> np.ndarray:
    """Orthonormal DCT-II eigenvalues of the reflecting-boundary blur on a
    (height, width) grid (Martucci 1994; Ng, Chan & Tang 1999)."""
    p = k.size // 2
    return _dct_cosines(height, p) @ k.taps @ _dct_cosines(width, p).T


def convolve_neumann(img: GridImage, k: Kernel) -> GridImage:
    """2-D correlation with symmetric boundary extension.

    The extension reflects about the array edge without skipping the border
    sample (pad(-1) = pixel(0)), which preserves constants and, the mask
    being symmetric in each axis, makes the operator self-adjoint.
    """
    return GridImage(convolve_stack(img.data, k))


def convolve_stack(data: np.ndarray, k: Kernel) -> np.ndarray:
    """``convolve_neumann`` of every image in the last two axes of ``data``,
    applied as DCT-domain weights; a 1x1 mask is a plain scaling."""
    h, w = data.shape[-2:]
    _check_kernel_fit(w, h, k)
    if k.size == 1:
        return data * k.taps[0, 0]
    axes = (-2, -1)
    coeffs = _blur_eigenvalues(k, h, w) * fft.dctn(data, axes=axes, norm="ortho")
    return fft.idctn(coeffs, axes=axes, norm="ortho")


def _bilinear_gather(data: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample ``data`` at (sx, sy) with bilinear interpolation, clamping
    out-of-range coordinates to the border pixels. Leading axes of ``data``
    hold independent images; the coordinates broadcast against them."""
    h, w = data.shape[-2:]
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = sx - x0, sy - y0
    lead = tuple(i[..., None, None] for i in np.indices(data.shape[:-2], sparse=True))
    top = (1.0 - fx) * data[(*lead, y0, x0)] + fx * data[(*lead, y0, x1)]
    bot = (1.0 - fx) * data[(*lead, y1, x0)] + fx * data[(*lead, y1, x1)]
    return (1.0 - fy) * top + fy * bot


def warp_image(img: GridImage, flow) -> GridImage:
    """Backward warp: out(p) = img(p + flow(p)), bilinear, clamped at borders."""
    if (flow.height, flow.width) != (img.height, img.width):
        raise ValueError(
            f"flow {flow.width}x{flow.height} does not match image {img.width}x{img.height}")
    jj, ii = np.meshgrid(np.arange(img.height), np.arange(img.width), indexing="ij")
    return GridImage(_bilinear_gather(img.data, ii + flow.u, jj + flow.v))


def _stencil_eigenvalues(n: int) -> np.ndarray:
    """DCT-II eigenvalues of the 1-D [-1, 2, -1] stencil under reflection."""
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


class ObservationModel:
    """The reconstruction cost ``||y - P B x||^2 + alpha ||S x||^2`` (misfit
    over assigned pixels) and its gradient, on plain (height, width) arrays.

    A mask symmetric in each axis under the reflecting boundary, and likewise
    the 5-point stencil, is diagonalized exactly by the orthonormal 2-D
    DCT-II (Martucci 1994; Ng, Chan & Tang 1999). B, B' and S'S are therefore
    elementwise weights between transforms, and ``||S x||`` follows from the
    coefficients by Parseval. P is one bincount and one gather. Built once
    per (assignment, kernel, alpha); the solver also reads its ``kernel``,
    grid ``shape`` and ``outside`` mask (pixels assigned to no element).
    """

    def __init__(self, assignment: PixelAssignment, kernel: Kernel, alpha: float):
        h, w = assignment.height, assignment.width
        _check_kernel_fit(w, h, kernel)
        self.kernel = kernel
        self.shape = (h, w)
        self.outside = ~assignment.inside_mask()
        self._blur = _blur_eigenvalues(kernel, h, w)
        stencil = _stencil_eigenvalues(h)[:, None] + _stencil_eigenvalues(w)[None, :]
        self._smooth = alpha * stencil * stencil
        pe = assignment.pixel_to_element.ravel()
        self._pixels = np.flatnonzero(pe >= 0)
        self._elements = pe[self._pixels]
        counts = assignment.element_counts
        self._inv_counts = np.divide(1.0, counts, out=np.zeros(counts.shape),
                                     where=counts > 0)

    def _project(self, values: np.ndarray) -> np.ndarray:
        """P on the assigned pixels: each value becomes its element's mean."""
        sums = np.bincount(self._elements, weights=values,
                           minlength=self._inv_counts.size)
        return (sums * self._inv_counts)[self._elements]

    def terms(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Cost at x, plus the DCT of x and the residual ``P B x - y`` on the
        assigned pixels, which ``half_gradient`` reuses."""
        coeffs = fft.dctn(x, norm="ortho")
        blurred = fft.idctn(self._blur * coeffs, norm="ortho").ravel()
        residual = self._project(blurred[self._pixels]) - y.ravel()[self._pixels]
        cost = float(residual @ residual) + float((self._smooth * coeffs * coeffs).sum())
        return cost, coeffs, residual

    def half_gradient(self, coeffs: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """``B' P r + alpha S' S x`` from the intermediates of ``terms``."""
        projected = np.zeros(self._blur.size)
        projected[self._pixels] = self._project(residual)
        projected = fft.dctn(projected.reshape(self._blur.shape), norm="ortho")
        return fft.idctn(self._blur * projected
                         + self._smooth * coeffs, norm="ortho")

    def norm_bound(self) -> float:
        """Upper bound on the largest eigenvalue L of B' P B + alpha * S' S.

        P is an orthogonal projection (0 <= P <= I), so L is at most the
        largest eigenvalue of B' B + alpha * S' S, which the DCT-II
        diagonalizes. The cost is non-increasing over the correction
        iterations whenever mu times this value stays below 1.
        """
        return float((self._blur * self._blur + self._smooth).max())

