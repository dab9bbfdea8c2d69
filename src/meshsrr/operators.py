"""Linear image operators of the observation and regularization models.

Provides the space-invariant blur (with Neumann / symmetric boundary
extension) as banded 1-D matrix products, the Neumann graph Laplacian,
dense bilinear backward warping, and ``ObservationModel``, the array-level
form of the reconstruction cost with its gradient and the step-size bound.
The blur is separable, ``B X = A_h X A_w'`` with A_n the n x n matrix of
one mirror-symmetric 1-D profile, so it is its own transpose and, like the
5-point stencil, is diagonalized by the 2-D DCT-II, whose eigenvalues only
the step-size bound reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridImage
from .mesh import PixelAssignment

_KERNEL_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Kernel:
    """The 1-D profile of a separable blur: odd-length finite taps,
    normalized to unit sum and mirror-symmetric, which makes the blur its
    own transpose. The 2-D mask is ``outer(taps, taps)``. The banded 1-D
    matrix of each side length is built on first use and kept with the
    kernel, so every blur of a run by one kernel shares it."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64, copy=True)
        if taps.ndim != 1:
            raise ValueError(f"kernel taps must be a 1-D profile, got shape {taps.shape}")
        if taps.size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {taps.size}")
        if not np.isfinite(taps).all():
            raise ValueError("kernel taps must be finite")
        s = taps.sum()
        if abs(s - 1.0) > _KERNEL_SUM_TOL:
            raise ValueError(f"kernel taps must sum to 1 within {_KERNEL_SUM_TOL}, got {s!r}")
        atol = 1e-12 * max(1.0, np.abs(taps).max())
        if not np.allclose(taps, taps[::-1], rtol=0.0, atol=atol):
            raise ValueError("kernel taps must be mirror-symmetric")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "_band_lists", {})

    @property
    def size(self) -> int:
        return self.taps.size

    def apply(self, data: np.ndarray, rows: slice | None = None, first: int = 0) -> np.ndarray:
        """The reflecting-boundary blur ``A_h x A_w'`` of every image in the
        last two axes of ``data``: a row pass, then a column pass. With
        ``rows``, a slice with a start and a stop, only those output rows,
        which read the grid within ``size // 2`` rows of them: ``data`` may
        hold just those, from grid row ``first``, for the same bits."""
        row_blocks, col_blocks = self._bands(first + data.shape[-2], data.shape[-1], rows)
        shape = data.shape if rows is None else (*data.shape[:-2], rows.stop - rows.start,
                                                 data.shape[-1])
        rowpass, out = np.empty(shape), np.empty(shape)
        for dst, src, block in row_blocks:
            np.matmul(block, data[..., src.start - first:src.stop - first, :],
                      out=rowpass[..., dst, :])
        for dst, src, block in col_blocks:
            np.matmul(rowpass[..., src], block.T, out=out[..., dst])
        return out

    def _bands(self, height: int, width: int,
               rows: slice | None = None) -> tuple[list, list]:
        """The ``_band_blocks`` of the row pass over ``rows`` (all rows when
        None) and of the column pass on a (height, width) grid, each built on
        first use and kept. Rows read no grid row more than ``size // 2``
        past them, so their blocks are those of a grid cut there."""
        if self.size > 2 * min(width, height) - 1:
            raise ValueError(f"kernel size {self.size} exceeds limit {2 * min(width, height) - 1} "
                             f"for a {width}x{height} image")
        start, stop = (0, height) if rows is None else (rows.start, rows.stop)
        keys = (min(height, stop + self.size // 2), start, stop), (width, 0, width)
        for key in keys:
            if key not in self._band_lists:
                self._band_lists[key] = _band_blocks(self.taps, *key)
        return self._band_lists[keys[0]], self._band_lists[keys[1]]


def _check_gaussian(size: int, sigma: float) -> None:
    """Refuse the arguments ``gaussian_kernel`` cannot take, without
    building the taps."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be a positive odd integer, got {size}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def gaussian_kernel(size: int, sigma: float) -> Kernel:
    """Isotropic Gaussian blur: its 1-D profile on integer offsets,
    normalized to unit sum."""
    _check_gaussian(size, sigma)
    with np.errstate(over="ignore"):  # a tiny sigma: (u / sigma)^2 = inf, tap exp(-inf) = 0
        z = (np.arange(-(size // 2), size // 2 + 1, dtype=np.float64) / sigma) ** 2
    taps = np.exp(-0.5 * z)
    return Kernel(taps / taps.sum())


def _blur_eigenvalues(k: Kernel, height: int, width: int) -> np.ndarray:
    """Orthonormal DCT-II eigenvalues of the reflecting-boundary blur on a
    (height, width) grid (Martucci 1994; Ng, Chan & Tang 1999): the outer
    product of the profile's 1-D spectra ``cos(pi f m / n) @ taps`` for
    frequencies f and offsets m = -p..p."""
    m = np.arange(-(k.size // 2), k.size // 2 + 1)
    rows, cols = (np.cos(np.pi * np.outer(np.arange(n), m) / n) @ k.taps
                  for n in (height, width))
    return np.outer(rows, cols)


def _band_blocks(taps: np.ndarray, n: int, start: int = 0,
                 stop: int | None = None) -> list[tuple[slice, slice, np.ndarray]]:
    """Rows [start, stop) (all by default) of the n x n matrix of 1-D
    correlation with the odd-length ``taps`` under the reflecting boundary
    (row j holds taps[s + p] at column reflect(j + s), so it is 0 beyond
    p = len(taps) // 2 of the diagonal) as (rows counted from ``start``,
    columns, block) for blocks of rows from ``start`` and the ``block + 2p``
    columns they reach."""
    p = taps.size // 2
    rows = np.arange(n)[:, None]
    cols = np.mod(rows + np.arange(-p, p + 1), 2 * n)
    cols = np.where(cols < n, cols, 2 * n - 1 - cols)
    mat = np.zeros((n, n))
    np.add.at(mat, (np.broadcast_to(rows, cols.shape), cols), np.broadcast_to(taps, cols.shape))
    stop = n if stop is None else stop
    step = max(p, 32)  # thinner blocks cost more in calls than they save
    spans = [(slice(r, min(r + step, stop)), slice(max(r - p, 0), min(r + step, stop) + p))
             for r in range(start, stop, step)]
    return [(slice(r.start - start, r.stop - start), c, mat[r, c].copy()) for r, c in spans]


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
    """Sample the (h, w) ``data`` at (sx, sy) with bilinear interpolation,
    clamping out-of-range coordinates to the border pixels."""
    h, w = data.shape
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = sx - x0, sy - y0
    top = (1.0 - fx) * data[y0, x0] + fx * data[y0, x1]
    bot = (1.0 - fx) * data[y1, x0] + fx * data[y1, x1]
    return (1.0 - fy) * top + fy * bot


# Pixels per row band of a warp: its gather transients stay near a tenth of
# a 200x200 frame each.
_WARP_BAND = 4096


def warp_image(img: GridImage, flow) -> GridImage:
    """Backward warp: out(p) = img(p + flow(p)), bilinear, clamped at borders.
    Gathered in row bands from the column and row index vectors."""
    if (flow.height, flow.width) != (img.height, img.width):
        raise ValueError(
            f"flow {flow.width}x{flow.height} does not match image {img.width}x{img.height}")
    h, w = img.height, img.width
    cols, rows = np.arange(w), np.arange(h)[:, None]
    out = np.empty((h, w))
    step = max(1, _WARP_BAND // w)
    for r in range(0, h, step):
        band = slice(r, r + step)
        out[band] = _bilinear_gather(img.data, cols + flow.u[band], rows[band] + flow.v[band])
    out.flags.writeable = False
    return GridImage(out)


def _stencil_eigenvalues(height: int, width: int) -> np.ndarray:
    """DCT-II eigenvalues of the Neumann graph Laplacian on a (height, width)
    grid: the sums of those of the 1-D [-1, 2, -1] stencil under reflection
    along each axis."""
    rows, cols = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n) for n in (height, width))
    return rows[:, None] + cols


# Grid rows from which the SRR correction takes two row bands. On a 2-core
# Xeon VM, two bands on two processes took 0.63-0.82 of one band's step time
# at grids 128-200 and 0.70-0.94 at grids 96-112 (medians of 12 alternating
# steps of `ex1b` and `ex2a`).
_TWO_BAND_ROWS = 128


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
    pixels, else 0). Its ``bands`` are [0, h) below ``_TWO_BAND_ROWS``
    grid rows h, else [0, h // 2) and [h // 2, h), with equal row-pass block
    counts. Band i writes row i of parts in anonymous shared memory made
    here, so a process forked after the model (the band worker) writes the
    same parts; ``cost`` adds them up. It serves one correction at a time.
    """

    def __init__(self, assignment: PixelAssignment, kernel: Kernel, alpha: float):
        h, w = assignment.height, assignment.width
        self.kernel = kernel
        self.shape = (h, w)
        self.inside = assignment.inside_mask().astype(np.float64)
        self.alpha = alpha
        self._assignment = assignment
        self._counts = np.append(assignment.element_counts, 0.0)  # the outside bin weighs 0
        import mmap  # paid by a model, not by every import of the package
        rows = [slice(0, h)] if h < _TWO_BAND_ROWS else [slice(0, h // 2), slice(h // 2, h)]
        width = self._counts.size + 1  # element means, then ||S x||^2
        self._parts = np.frombuffer(mmap.mmap(-1, 8 * len(rows) * width)).reshape(len(rows), width)
        self.bands = tuple(_RowBand(self, band, part) for band, part in zip(rows, self._parts))

    def reduce(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Element means of y and ``||y - P y||^2``: the per-frame part of a
        cost. ``y - P y`` is masked and squared in the array of ``P y``."""
        means = self._assignment.means(y)
        rest = self._assignment.lift(means)
        np.subtract(y, rest, out=rest)
        rest *= self.inside
        rest *= rest
        return means, float(rest.sum())

    def cost(self, y_means: np.ndarray, y_rest: float) -> tuple[float, np.ndarray]:
        """The cost against ``reduce(y)`` from the parts every band has
        written, added in band order with numpy's own sums, which no BLAS
        thread count changes, and the element residual r."""
        total = self._parts.sum(axis=0)
        residual = total[:-1] - y_means
        cost = (float((self._counts * np.square(residual)).sum()) + y_rest
                + self.alpha * float(total[-1]))
        return cost, residual

    def norm_bound(self) -> float:
        """Upper bound on the largest eigenvalue L of B' P B + alpha * S' S.

        P is an orthogonal projection (0 <= P <= I), so L is at most the
        largest eigenvalue of B' B + alpha * S' S, which the DCT-II
        diagonalizes. The cost is non-increasing over the correction
        iterations whenever mu times this value stays below 1. An alpha
        too large for double precision gives inf.
        """
        h, w = self.shape
        stencil = _stencil_eigenvalues(h, w)
        blur = _blur_eigenvalues(self.kernel, h, w)
        with np.errstate(over="ignore"):
            return float((blur * blur + self.alpha * stencil * stencil).max())


class _RowBand:
    """Rows ``rows`` of the correction of ``model``, one of its ``bands``,
    which share x (see ``srr``).

    ``write`` puts the band's part of a cost into ``part``, its row of the
    model's parts: its element sums of B x (read within ``kernel.size // 2``
    rows of the band) over whole element pixel counts, then ``||S x||^2``
    over its rows, with S x taken from a two-row halo of x and kept.
    ``gradient`` gives the band's rows of
    ``B' P (P B x - y) + alpha S' S x`` from the element residual, lifted
    over its ``window``: the grid rows within ``kernel.size // 2`` of it.
    """

    def __init__(self, model: ObservationModel, rows: slice, part: np.ndarray):
        (h, w), start, stop = model.shape, rows.start, rows.stop
        self.kernel, self.alpha, self.rows = model.kernel, model.alpha, rows
        self.inside, self.lift = model.inside[rows], model._assignment.lift
        self._assignment, self._part = model._assignment, part
        p = self.kernel.size // 2
        self.window = slice(max(start - p, 0), min(stop + p, h))
        lo, top = max(start - 2, 0), max(start - 1, 0)
        self._halo = slice(lo, min(stop + 2, h))
        self._kept = slice(top - lo, min(stop + 1, h) - lo)
        self._own = slice(start - top, stop - top)
        self.kernel._bands(h, w, rows)  # refuses a kernel too large; built before a fork

    def write(self, x: np.ndarray) -> None:
        """The band's part of the cost at x."""
        self._part[:-1] = self._assignment.means(self.kernel.apply(x, self.rows), self.rows)
        self._smooth = _laplacian(x[self._halo])[self._kept]
        self._part[-1] = np.square(self._smooth[self._own]).sum()

    def gradient(self, residual: np.ndarray) -> np.ndarray:
        """The band's rows of the half gradient at the x of the last ``write``,
        from the element residual r of ``ObservationModel.cost`` (``P B x - P y``
        lifted)."""
        grad = self.kernel.apply(self.lift(residual, self.window), self.rows, self.window.start)
        grad += self.alpha * _laplacian(self._smooth)[self._own]
        return grad
