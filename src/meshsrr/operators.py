"""Linear image operators of the observation and regularization models.

Provides the space-invariant blur (with Neumann / symmetric boundary
extension) as banded 1-D matrix products, the Neumann graph Laplacian,
dense bilinear backward warping, and ``ObservationModel``, the array-level
form of the reconstruction cost with its gradient and the step-size bound.
Masks are mirror-symmetric in each axis, so the blur is its own transpose
and, like the 5-point stencil, is diagonalized by the 2-D DCT-II, whose
eigenvalues only the step-size bound reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridImage
from .mesh import PixelAssignment

_KERNEL_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Kernel:
    """Odd-sized mask of finite taps, normalized to unit sum and mirror-symmetric
    in each axis (rows and columns), which makes the blur its own transpose.
    Each grid shape's banded blur is built on first use and kept with the
    kernel, so every blur of a run by one kernel shares it."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64, copy=True)
        if taps.ndim != 2 or taps.shape[0] != taps.shape[1]:
            raise ValueError(f"kernel taps must be square, got shape {taps.shape}")
        if taps.shape[0] % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {taps.shape[0]}")
        if not np.isfinite(taps).all():
            raise ValueError("kernel taps must be finite")
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
        object.__setattr__(self, "_blurs", {})

    @property
    def size(self) -> int:
        return self.taps.shape[0]

    def _blur(self, height: int, width: int) -> "_BandedBlur":
        blur = self._blurs.get((height, width))
        if blur is None:
            blur = self._blurs[height, width] = _BandedBlur(self, height, width)
        return blur


def gaussian_kernel(size: int, sigma: float) -> Kernel:
    """Isotropic Gaussian mask on integer offsets, normalized to unit sum."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be a positive odd integer, got {size}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    with np.errstate(over="ignore"):  # a tiny sigma: (u / sigma)^2 = inf, tap exp(-inf) = 0
        z = (np.arange(-(size // 2), size // 2 + 1, dtype=np.float64) / sigma) ** 2
    taps = np.exp(-0.5 * (z[:, None] + z[None, :]))
    return Kernel(taps / taps.sum())


def _blur_eigenvalues(k: Kernel, height: int, width: int) -> np.ndarray:
    """Orthonormal DCT-II eigenvalues of the reflecting-boundary blur on a
    (height, width) grid (Martucci 1994; Ng, Chan & Tang 1999): the taps
    against cos(pi f m / n) for frequencies f and offsets m = -p..p."""
    m = np.arange(-(k.size // 2), k.size // 2 + 1)
    cosines = [np.cos(np.pi * np.outer(np.arange(n), m) / n) for n in (height, width)]
    return cosines[0] @ k.taps @ cosines[1].T


def convolve_neumann(img: GridImage, k: Kernel) -> GridImage:
    """2-D correlation with symmetric boundary extension.

    The extension reflects about the array edge without skipping the border
    sample (pad(-1) = pixel(0)), which preserves constants and, the mask
    being symmetric in each axis, makes the operator self-adjoint.
    """
    return GridImage(convolve_stack(img.data, k))


def convolve_stack(data: np.ndarray, k: Kernel) -> np.ndarray:
    """``convolve_neumann`` of every image in the last two axes of ``data``."""
    return k._blur(*data.shape[-2:]).apply(data)


def _band_blocks(taps: np.ndarray, n: int) -> list[tuple[slice, slice, np.ndarray]]:
    """The n x n matrix of 1-D correlation with the odd-length ``taps`` under
    the reflecting boundary (row j holds taps[s + p] at column reflect(j + s),
    so it is 0 beyond p = len(taps) // 2 of the diagonal) as (rows, columns,
    block) for blocks of rows and the ``block + 2p`` columns they reach."""
    p = taps.size // 2
    rows = np.arange(n)[:, None]
    cols = np.mod(rows + np.arange(-p, p + 1), 2 * n)
    cols = np.where(cols < n, cols, 2 * n - 1 - cols)
    mat = np.zeros((n, n))
    np.add.at(mat, (np.broadcast_to(rows, cols.shape), cols), np.broadcast_to(taps, cols.shape))
    step = max(p, 32)  # thinner blocks cost more in calls than they save
    spans = [(slice(r, r + step), slice(max(r - p, 0), r + step + p)) for r in range(0, n, step)]
    return [(r, c, mat[r, c]) for r, c in spans]


class _BandedBlur:
    """The reflecting-boundary blur of a mask on a (height, width) grid, built
    once: ``sum_i A_i x C_i'`` over the singular terms of the taps above
    ``np.linalg.matrix_rank``'s tolerance (one for a Gaussian), each A and C
    a banded 1-D matrix from ``_band_blocks``."""

    def __init__(self, k: Kernel, height: int, width: int):
        if k.size > 2 * min(width, height) - 1:
            raise ValueError(f"kernel size {k.size} exceeds limit {2 * min(width, height) - 1} "
                             f"for a {width}x{height} image")
        u, s, vt = np.linalg.svd(k.taps)
        keep = s > s[0] * k.size * np.finfo(np.float64).eps
        self.terms = [
            (_band_blocks(np.sqrt(si) * ui, height), _band_blocks(np.sqrt(si) * vi, width))
            for si, ui, vi in zip(s[keep], u.T[keep], vt[keep])]

    def apply(self, data: np.ndarray) -> np.ndarray:
        """B of every image in the last two axes of ``data``."""
        rowpass, out = np.empty(data.shape), []
        for rows, cols in self.terms:
            for dst, src, block in rows:
                np.matmul(block, data[..., src, :], out=rowpass[..., dst, :])
            out.append(np.empty(data.shape))
            for dst, src, block in cols:
                np.matmul(rowpass[..., src], block.T, out=out[-1][..., dst])
        return sum(out[1:], out[0])


def _laplacian(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Neumann graph Laplacian S (the 5-point stencil under reflection)
    on the last two axes: the sum over the 4 neighbors q of p of ``f_p - f_q``,
    into ``out`` (C-contiguous) when given. Differences are taken on the flat
    grid, where a row step is a shift by the width and row wraps are dropped."""
    h, w = f.shape[-2:]
    flat = f.reshape(*f.shape[:-2], h * w)
    out = np.empty(f.shape) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("the Laplacian writes only into a C-contiguous out")
    acc = out.reshape(flat.shape)
    diff = np.empty(flat.shape)
    dy = np.subtract(flat[..., w:], flat[..., :-w], out=diff[..., w:])
    np.negative(dy, out=acc[..., :-w])
    acc[..., -w:] = 0.0
    acc[..., w:] += dy
    dx = np.subtract(flat[..., 1:], flat[..., :-1], out=diff[..., 1:])
    dx[..., w - 1::w] = 0.0
    acc[..., :-1] -= dx
    acc[..., 1:] += dx
    return out


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


def _stencil_eigenvalues(height: int, width: int) -> np.ndarray:
    """DCT-II eigenvalues of the Neumann graph Laplacian on a (height, width)
    grid: the sums of those of the 1-D [-1, 2, -1] stencil under reflection
    along each axis."""
    rows, cols = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n) for n in (height, width))
    return rows[:, None] + cols


class ObservationModel:
    """The reconstruction cost ``||y - P B x||^2 + alpha ||S x||^2`` (misfit
    over assigned pixels) and its gradient, on plain (height, width) arrays.

    B is the banded blur, its own transpose, and S the Laplacian, both in
    pixel space: a cost takes one of each and a gradient one more of each.
    P being an orthogonal projection, the misfit is
    ``sum_e n_e r_e^2 + ||y - P y||^2`` with ``r_e = mean_e(B x - y)`` over
    the n_e pixels of element e, and ``P (P B x - y)`` is r lifted to pixels;
    the assignment's ``means`` and ``lift`` apply P. Built once per
    (assignment, kernel, alpha); the solver also reads its
    ``kernel``, grid ``shape`` and float ``inside`` mask (1 on assigned
    pixels, else 0).
    """

    def __init__(self, assignment: PixelAssignment, kernel: Kernel, alpha: float):
        h, w = assignment.height, assignment.width
        self.kernel = kernel
        self.shape = (h, w)
        self.inside = assignment.inside_mask().astype(np.float64)
        self.alpha = alpha
        self._blur = kernel._blur(h, w)
        self._assignment = assignment
        self._counts = np.append(assignment.element_counts, 0.0)  # the outside bin weighs 0

    def reduce(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Element means of y and ``||y - P y||^2``: the per-frame part of a cost."""
        means = self._assignment.means(y)
        rest = (y - self._assignment.lift(means)) * self.inside
        return means, float((rest * rest).sum())

    def terms(self, x: np.ndarray, y_means: np.ndarray,
              y_rest: float) -> tuple[float, np.ndarray, np.ndarray]:
        """Cost at x against ``reduce(y)``, plus ``S x`` and the element
        residual r, which ``half_gradient`` reuses."""
        residual = self._assignment.means(self._blur.apply(x)) - y_means
        smooth = _laplacian(x)
        cost = (float(self._counts @ (residual * residual)) + y_rest
                + self.alpha * float(np.vdot(smooth, smooth)))
        return cost, smooth, residual

    def half_gradient(self, smooth: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """``B' P (P B x - y) + alpha S' S x`` from the intermediates of
        ``terms``: the lifted residual is ``P B x - P y``."""
        grad = self._blur.apply(self._assignment.lift(residual))
        grad += self.alpha * _laplacian(smooth)
        return grad

    def norm_bound(self) -> float:
        """Upper bound on the largest eigenvalue L of B' P B + alpha * S' S.

        P is an orthogonal projection (0 <= P <= I), so L is at most the
        largest eigenvalue of B' B + alpha * S' S, which the DCT-II
        diagonalizes. The cost is non-increasing over the correction
        iterations whenever mu times this value stays below 1.
        """
        h, w = self.shape
        stencil = _stencil_eigenvalues(h, w)
        blur = _blur_eigenvalues(self.kernel, h, w)
        return float((blur * blur + self.alpha * stencil * stencil).max())

