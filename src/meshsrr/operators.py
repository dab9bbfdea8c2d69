"""Linear image operators of the observation and regularization models.

Provides the space-invariant blur (with Neumann / symmetric boundary
extension and a true transpose), the high-pass regularizer stencil, dense
backward warping with its scatter transpose, the composed forward
observation operator (blur followed by mesh averaging), and
``ObservationModel``, the array-level form of the reconstruction cost that
applies blur and stencil in the DCT domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import fft, ndimage

from .grid import GridImage
from .mesh import PixelAssignment, apply_hd

_KERNEL_SUM_TOL = 1e-12
_SEPARABLE_REL_TOL = 1e-13

LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0],
                              [-1.0, 4.0, -1.0],
                              [0.0, -1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class Kernel:
    """Odd-sized convolution mask, normalized to unit sum and symmetric
    under 180-degree rotation."""

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
        if not _mirrors(taps, taps[::-1, ::-1]):
            raise ValueError("kernel must be symmetric under 180-degree rotation")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def size(self) -> int:
        return self.taps.shape[0]

    @cached_property
    def _separable_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Rank-1 factorization (column, row) when the mask is exactly
        separable, else None. Used as an equivalent fast path."""
        u, s, vt = np.linalg.svd(self.taps)
        if self.size > 1 and s[1] > _SEPARABLE_REL_TOL * s[0]:
            return None
        col = u[:, 0] * np.sqrt(s[0])
        row = vt[0, :] * np.sqrt(s[0])
        if col.sum() < 0:
            col, row = -col, -row
        recon = np.outer(col, row)
        if np.abs(recon - self.taps).max() > 1e-12 * max(1.0, np.abs(self.taps).max()):
            return None
        return col, row


def _mirrors(taps: np.ndarray, flipped: np.ndarray) -> bool:
    return np.allclose(taps, flipped, rtol=0.0,
                       atol=1e-12 * max(1.0, np.abs(taps).max()))


def require_axis_symmetric(k: Kernel) -> None:
    """Refuse masks that are not mirror-symmetric in each axis.

    Only those are diagonalized by the DCT under the reflecting boundary,
    which ``ObservationModel`` relies on.
    """
    if not (_mirrors(k.taps, k.taps[::-1, :]) and _mirrors(k.taps, k.taps[:, ::-1])):
        raise ValueError("kernel must be symmetric in each axis (mirror-symmetric "
                         "rows and columns) for the DCT-domain reconstruction")


def gaussian_kernel(size: int, sigma: float) -> Kernel:
    """Isotropic Gaussian mask on integer offsets, normalized to unit sum."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be a positive odd integer, got {size}")
    if sigma <= 0:
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


def convolve_neumann(img: GridImage, k: Kernel) -> GridImage:
    """2-D correlation with symmetric boundary extension.

    The extension reflects about the array edge without skipping the border
    sample (pad(-1) = pixel(0)), which preserves constants and makes the
    operator self-adjoint for quadrant-symmetric masks. Separable masks take
    an exactly equivalent two-pass route.
    """
    _check_kernel_fit(img.width, img.height, k)
    factors = k._separable_factors
    if factors is not None:
        col, row = factors
        out = ndimage.correlate1d(img.data, col, axis=0, mode="reflect")
        out = ndimage.correlate1d(out, row, axis=1, mode="reflect")
    else:
        out = ndimage.correlate(img.data, k.taps, mode="reflect")
    return GridImage(out)


def blur_adjoint(img: GridImage, k: Kernel) -> GridImage:
    """Exact transpose of ``convolve_neumann`` for the same kernel.

    Computed as a full (zero-extended) convolution followed by folding the
    margins back across the reflective boundary. For quadrant-symmetric masks
    this coincides with the forward operator; the equality is checked in the
    test suite, not assumed here.
    """
    _check_kernel_fit(img.width, img.height, k)
    p = k.size // 2
    if p == 0:
        return GridImage(img.data * k.taps[0, 0])
    h, w = img.height, img.width
    padded = np.zeros((h + 2 * p, w + 2 * p))
    padded[p:p + h, p:p + w] = img.data
    factors = k._separable_factors
    if factors is not None:
        col, row = factors
        full = ndimage.correlate1d(padded, col[::-1], axis=0, mode="constant")
        full = ndimage.correlate1d(full, row[::-1], axis=1, mode="constant")
    else:
        full = ndimage.correlate(padded, k.taps[::-1, ::-1], mode="constant")
    rows = full[p:p + h, :].copy()
    rows[0:p, :] += full[p - 1::-1, :]
    rows[h - p:h, :] += full[2 * p + h - 1:p + h - 1:-1, :]
    out = rows[:, p:p + w].copy()
    out[:, 0:p] += rows[:, p - 1::-1]
    out[:, w - p:w] += rows[:, 2 * p + w - 1:p + w - 1:-1]
    return GridImage(out)


def laplacian_apply(img: GridImage) -> GridImage:
    """5-point high-pass stencil with the same symmetric boundary extension.

    Constants are in the null space and every output sums to zero.
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image must be at least 3x3, got {img.width}x{img.height}")
    return GridImage(ndimage.correlate(img.data, LAPLACIAN_STENCIL, mode="reflect"))


def _bilinear_gather(data: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample ``data`` at (sx, sy) with bilinear interpolation, clamping
    out-of-range coordinates to the border pixels."""
    h, w = data.shape
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    top = (1.0 - fx) * data[y0, x0] + fx * data[y0, x1]
    bot = (1.0 - fx) * data[y1, x0] + fx * data[y1, x1]
    return (1.0 - fy) * top + fy * bot


def warp_image(img: GridImage, flow) -> GridImage:
    """Backward warp: out(p) = img(p + flow(p)), bilinear, clamped at borders."""
    if (flow.height, flow.width) != (img.height, img.width):
        raise ValueError(
            f"flow {flow.width}x{flow.height} does not match image {img.width}x{img.height}")
    jj, ii = np.meshgrid(np.arange(img.height), np.arange(img.width), indexing="ij")
    return GridImage(_bilinear_gather(img.data, ii + flow.u, jj + flow.v))


def warp_adjoint(img: GridImage, flow) -> GridImage:
    """Scatter transpose of ``warp_image`` with identical bilinear weights."""
    if (flow.height, flow.width) != (img.height, img.width):
        raise ValueError(
            f"flow {flow.width}x{flow.height} does not match image {img.width}x{img.height}")
    h, w = img.height, img.width
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    sx = np.clip(ii + flow.u, 0.0, w - 1.0).ravel()
    sy = np.clip(jj + flow.v, 0.0, h - 1.0).ravel()
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    vals = img.data.ravel()
    out = np.zeros((h, w))
    np.add.at(out, (y0, x0), (1.0 - fx) * (1.0 - fy) * vals)
    np.add.at(out, (y0, x1), fx * (1.0 - fy) * vals)
    np.add.at(out, (y1, x0), (1.0 - fx) * fy * vals)
    np.add.at(out, (y1, x1), fx * fy * vals)
    return GridImage(out)


def forward_observe(x: GridImage, assignment: PixelAssignment, k: Kernel) -> GridImage:
    """Composed observation: blur then mesh-averaging projection."""
    return apply_hd(convolve_neumann(x, k), assignment)


def adjoint_observe(y: GridImage, assignment: PixelAssignment, k: Kernel) -> GridImage:
    """Transpose of ``forward_observe`` (the projection is self-adjoint)."""
    return blur_adjoint(apply_hd(y, assignment), k)


def _dct_cosines(n: int, p: int) -> np.ndarray:
    """cos(pi k m / n) for frequencies k = 0..n-1 and offsets m = -p..p."""
    return np.cos(np.pi * np.outer(np.arange(n), np.arange(-p, p + 1)) / n)


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
    coefficients by Parseval. P is one bincount and one gather.
    """

    def __init__(self, assignment: PixelAssignment, kernel: Kernel, alpha: float):
        require_axis_symmetric(kernel)
        h, w = assignment.height, assignment.width
        _check_kernel_fit(w, h, kernel)
        p = kernel.size // 2
        self._blur = _dct_cosines(h, p) @ kernel.taps @ _dct_cosines(w, p).T
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


@dataclass(frozen=True)
class LinearOp:
    """A linear image operator paired with its adjoint."""

    apply: Callable[[GridImage], GridImage]
    adjoint_apply: Callable[[GridImage], GridImage]
    descriptor: str


def blur_operator(k: Kernel) -> LinearOp:
    return LinearOp(lambda x: convolve_neumann(x, k),
                    lambda y: blur_adjoint(y, k),
                    f"blur({k.size}x{k.size})")


def mesh_projection_operator(assignment: PixelAssignment) -> LinearOp:
    return LinearOp(lambda x: apply_hd(x, assignment),
                    lambda y: apply_hd(y, assignment),
                    f"mesh_projection({assignment.n_elements} elements)")


def laplacian_operator() -> LinearOp:
    return LinearOp(laplacian_apply, laplacian_apply, "laplacian")


def warp_operator(flow) -> LinearOp:
    return LinearOp(lambda x: warp_image(x, flow),
                    lambda y: warp_adjoint(y, flow),
                    f"warp({flow.width}x{flow.height})")


def observation_operator(assignment: PixelAssignment, k: Kernel) -> LinearOp:
    return LinearOp(lambda x: forward_observe(x, assignment, k),
                    lambda y: adjoint_observe(y, assignment, k),
                    "observe(blur+mesh_projection)")
