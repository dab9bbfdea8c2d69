"""Horn-Schunck optical flow with coarse-to-fine pyramids.

``horn_schunck(prev, nxt, params)`` returns the displacement field of scene
content from ``prev`` to ``nxt``; equivalently, backward-warping ``nxt`` by
the returned flow reproduces ``prev``. The smoothness weight is defined
against the textbook energy

    E(u, v) = sum((Ix*u + Iy*v + It)^2) + lam * sum over 4-neighbor edges
              ((u_p - u_q)^2 + (v_p - v_q)^2)

and each warp of a pyramid level minimizes it by conjugate gradients
(Concus, Golub & O'Leary 1976), preconditioned in the DCT-II basis, which
diagonalizes the Neumann graph Laplacian (Martucci 1994). Horn & Schunck
iterate to convergence: a pair stops once its relative residual is within
``_CG_TOL``, or after ``iterations_per_level`` iterations.

A pair of equal frames has a zero right-hand side, so its solves stop
before the first iteration and its flow is the exact zero field.

Observations blurred by a kernel of ``blur_sigma`` pixels carry little
motion detail finer than the blur, so ``horn_schunck`` given that sigma solves only down
to the pyramid level on which it is nearest ``_MIN_BLUR_PX`` wide, and
resamples that level's flow up to the full grid. One pair at a time is
cheap there, so a run registers each pair as its frame arrives.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .grid import GridImage, read_only
from .operators import gaussian_kernel, _bilinear_gather, _laplacian, _stencil_eigenvalues

_MIN_TOP_SIZE = 8
# Blur, in pixels of a pyramid level, down to which registration still finds
# the motion that observations blurred by it carry.
_MIN_BLUR_PX = 5.0
# Relative residual ||b - A x|| / ||b|| at which a pair stops iterating.
_CG_TOL = 1e-3
# Largest smoothness weight: far beyond it, the rounding of lam * L (about
# 1e-16 lam) swamps the data term of images rescaled to [0, 1].
_LAM_MAX = 1e8


@dataclass(frozen=True, eq=False)
class FlowField:
    """Per-pixel displacement field; u is horizontal (columns), v vertical.

    Components are read-only float64 arrays. A writeable input is copied; a
    read-only float64 one is kept, so that a constant field holds one
    zero-stride array per component instead of two full ones.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = read_only(self.u)
        v = read_only(self.v)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError(f"u and v must be matching 2-D arrays, got {u.shape} and {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("flow components contain non-finite values")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, width: int, height: int) -> "FlowField":
        return cls.constant(width, height, 0.0, 0.0)

    @classmethod
    def constant(cls, width: int, height: int, du: float, dv: float) -> "FlowField":
        return cls(np.broadcast_to(np.float64(du), (height, width)),
                   np.broadcast_to(np.float64(dv), (height, width)))

    @property
    def width(self) -> int:
        return self.u.shape[1]

    @property
    def height(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class FlowParams:
    """Solver settings. ``lam`` weighs the smoothness term of the textbook
    energy; inputs are jointly rescaled to [0, 1] before estimation so the
    default is independent of image units. The strong default favors
    near-rigid fields, which is what noisy tomographic sequences need; it
    must be positive and at most ``_LAM_MAX``. ``iterations_per_level`` is
    the most conjugate-gradient iterations per warp; a pair stops earlier
    once its residual is within ``_CG_TOL``."""

    lam: float = 15.0
    pyramid_levels: int = 4
    pyramid_spacing: float = 2.0
    iterations_per_level: int = 100
    warps_per_level: int = 3

    def __post_init__(self):
        if not 0 < self.lam <= _LAM_MAX:
            raise ValueError(f"lam must be positive and at most {_LAM_MAX:g}, got {self.lam}")
        if self.pyramid_levels < 1:
            raise ValueError(f"pyramid_levels must be >= 1, got {self.pyramid_levels}")
        if not self.pyramid_spacing > 1:
            raise ValueError(f"pyramid_spacing must be > 1, got {self.pyramid_spacing}")
        if self.iterations_per_level < 1 or self.warps_per_level < 1:
            raise ValueError("iterations_per_level and warps_per_level must be >= 1")


def _resample(data: np.ndarray, new_w: int, new_h: int) -> np.ndarray:
    """Bilinear resize with center-aligned sampling and clamped borders."""
    h, w = data.shape
    sx = (np.arange(new_w) + 0.5) * (w / new_w) - 0.5
    sy = (np.arange(new_h) + 0.5) * (h / new_h) - 0.5
    return _bilinear_gather(data, sx, sy[:, None])


def _pyramid_sizes(width: int, height: int, params: FlowParams,
                   stacklevel: int) -> list[tuple[int, int]]:
    """The (width, height) of each level of ``horn_schunck``'s pyramid on a
    width x height pair, each ``pyramid_spacing`` times smaller until one does
    not shrink, dropping with a warning those below 8x8; ``stacklevel`` makes
    the warning name the caller of the public function."""
    if min(width, height) < 2:
        raise ValueError("flow estimation needs at least a 2x2 image")
    levels, spacing = params.pyramid_levels, params.pyramid_spacing
    sizes = [(width, height)]
    for _ in range(1, levels):
        w, h = sizes[-1]
        nw = max(1, int(round(w / spacing)))
        nh = max(1, int(round(h / spacing)))
        if (nw, nh) == (w, h):
            break
        sizes.append((nw, nh))
    while len(sizes) > 1 and min(sizes[-1]) < _MIN_TOP_SIZE:
        sizes.pop()
    if len(sizes) < levels:
        warnings.warn(
            f"pyramid reduced from {levels} to {len(sizes)} level(s) so the top "
            f"stays at least {_MIN_TOP_SIZE} pixels on a side", stacklevel=stacklevel + 1)
    return sizes


# The pyramid's Gaussians, one per (size, sigma), so that every pair of a run
# shares their banded blurs.
_pyramid_kernel = cache(gaussian_kernel)


def build_pyramid(data: np.ndarray, sizes: list[tuple[int, int]],
                  spacing: float) -> list[np.ndarray]:
    """Coarse-to-fine pyramid of the image ``data`` on the level ``sizes``
    of ``_pyramid_sizes``: level 0 is the input, each next level is
    Gaussian-smoothed (sigma = 0.8 * spacing) and bilinearly subsampled."""
    sigma = 0.8 * spacing
    out = [data]
    for nw, nh in sizes[1:]:
        prev = out[-1]
        size = min(2 * int(np.ceil(2.5 * sigma)) + 1, 2 * min(prev.shape) - 1)
        out.append(_resample(_pyramid_kernel(size, sigma).apply(prev), nw, nh))
    return out


def _block_inverses(g: np.ndarray, lam: float) -> np.ndarray:
    """The preconditioner for the (2, h, w) gradients ``g``: per DCT
    frequency, the entries (00, 01, 11) of the inverse of

        [mean(Ix^2) + lam e, mean(Ix Iy); mean(Ix Iy), mean(Iy^2) + lam e],

    the normal matrix with each pixel's data block replaced by the mean, e
    being the Laplacian's eigenvalue. Only the zero frequency (e = 0) can be
    singular, so it takes the pseudo-inverse: constant images leave it at 0.
    """
    ix, iy = g
    mxx, mxy, myy = ((p * q).mean() for p, q in ((ix, ix), (ix, iy), (iy, iy)))
    e = lam * _stencil_eigenvalues(*g.shape[-2:])
    a, d = mxx + e, myy + e
    det = a * d - mxy * mxy
    det[0, 0] = 1.0
    inv = np.stack([d, np.broadcast_to(-mxy, a.shape), a]) / det
    zero = np.linalg.pinv(np.array([[mxx, mxy], [mxy, myy]]), rcond=1e-12)
    inv[:, 0, 0] = zero.ravel()[[0, 1, 3]]
    return inv


@cache
def _dct_matrix(n: int) -> np.ndarray:
    """Read-only orthonormal DCT-II matrix of side ``n``, from exact integer phases."""
    f, m = np.ogrid[:n, :n]
    c = np.cos(np.pi * ((f * (2 * m + 1)) % (4 * n)) / (2 * n)) * np.sqrt((2.0 - (f == 0)) / n)
    c.flags.writeable = False
    return c


def _precondition(r: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The blocks ``inv`` applied to the DCT ``C_h r C_w'`` of ``r``, then ``C_h' z C_w``."""
    ch, cw = _dct_matrix(r.shape[-2]), _dct_matrix(r.shape[-1])
    rh = ch @ r @ cw.T
    return ch.T @ (inv[:2] * rh[:1] + inv[1:] * rh[1:]) @ cw


def solve_linearized_flow(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                          u0: np.ndarray, v0: np.ndarray, lam: float,
                          iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate gradients from ``(u0, v0)`` on the normal equations of the
    linearized energy,

        [Ix^2 + lam L, Ix Iy; Ix Iy, Iy^2 + lam L] (u, v) = -(Ix c, Iy c),

    L being the Neumann graph Laplacian, preconditioned by ``_block_inverses``
    between one DCT of the stacked (u, v) and its inverse. At most
    ``iterations`` iterations, each stepping to the energy minimum along its
    direction, so the energy never increases. The solve stops once
    ``||r|| <= _CG_TOL * ||b||``, so a start within tolerance is returned
    unchanged and costs no transform.
    """
    g = np.stack([ix, iy])
    x = np.stack([u0, v0])
    work = np.empty_like(x)  # normal(p) is consumed before the next call

    def normal(p):
        q = _laplacian(p, out=work)
        q *= lam
        q += g * (g[:1] * p[:1] + g[1:] * p[1:])
        return q

    def dot(left, right):
        return (left * right).sum()

    b = -g * c
    r = b - normal(x)
    bound = _CG_TOL ** 2 * dot(b, b)
    inv = _block_inverses(g, lam)
    p = rz = None
    for _ in range(iterations):
        if not dot(r, r) > bound:
            break
        z = _precondition(r, inv)
        rz, previous = dot(r, z), rz
        p = z if previous is None else z + (rz / previous) * p
        q = normal(p)
        alpha = rz / dot(p, q)
        x += alpha * p
        r -= alpha * q
    return x[0], x[1]


def _derivatives(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central differences, mirroring the border pixels, averaged over the
    (reference, warped) pair."""
    pa, pb = (np.pad(p, 1, mode="symmetric") for p in (a, b))
    ix = 0.5 * ((pa[1:-1, 2:] - pa[1:-1, :-2]) * 0.5 + (pb[1:-1, 2:] - pb[1:-1, :-2]) * 0.5)
    iy = 0.5 * ((pa[2:, 1:-1] - pa[:-2, 1:-1]) * 0.5 + (pb[2:, 1:-1] - pb[:-2, 1:-1]) * 0.5)
    it = b - a
    return ix, iy, it


def fit_pyramid(params: FlowParams, width: int, height: int) -> FlowParams:
    """``params`` with as many pyramid levels as ``horn_schunck`` uses on a
    width x height pair, warning once, naming the caller, when levels are
    dropped; a run that registers many pairs fits its params once."""
    return replace(params, pyramid_levels=len(_pyramid_sizes(width, height, params, 2)))


def _finest_solved_level(sizes: list[tuple[int, int]], blur_sigma: float) -> int:
    """The level on which a blur of ``blur_sigma`` pixels at level 0 is nearest
    ``_MIN_BLUR_PX`` wide by ratio, or level 0 without a blur. Finer levels add
    little motion detail that it lacks, so the flow is only resampled up through them."""
    width = sizes[0][0]
    ratios = [blur_sigma * w / (width * _MIN_BLUR_PX) for w, _ in sizes]
    return int(np.argmin(np.abs(np.log(ratios)))) if blur_sigma > 0 else 0


def _coarse_to_fine(prev: np.ndarray, nxt: np.ndarray, params: FlowParams,
                    sizes: list[tuple[int, int]], blur_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Flow ``(u, v)`` from ``prev`` to ``nxt`` on the pyramid of level
    ``sizes``, solved from its top down to ``_finest_solved_level``."""
    lo = min(prev.min(), nxt.min())
    hi = max(prev.max(), nxt.max())
    scale = hi - lo if hi > lo else 1.0  # a constant pair stays at 0
    pa = build_pyramid((prev - lo) / scale, sizes, params.pyramid_spacing)
    pb = build_pyramid((nxt - lo) / scale, sizes, params.pyramid_spacing)
    finest = _finest_solved_level(sizes, blur_sigma)

    u, v = np.zeros((2, *pa[-1].shape))
    for level in range(len(sizes) - 1, -1, -1):
        a = pa[level]
        b = pb[level]
        h, w = a.shape
        if u.shape != (h, w):
            u, v = _resample(u, w, h) * (w / u.shape[1]), _resample(v, w, h) * (h / v.shape[0])
        if level < finest:
            continue
        cols, rows = np.arange(w), np.arange(h)[:, None]
        for _ in range(params.warps_per_level):
            warped = _bilinear_gather(b, cols + u, rows + v)
            ix, iy, it = _derivatives(a, warped)
            c = it - ix * u - iy * v
            u, v = solve_linearized_flow(ix, iy, c, u, v, params.lam,
                                         params.iterations_per_level)
    return u, v


def horn_schunck(prev: GridImage, nxt: GridImage, params: FlowParams,
                 blur_sigma: float = 0.0) -> FlowField:
    """Estimate the dense displacement field from ``prev`` to ``nxt``.

    Coarse-to-fine: flow is upscaled between levels, ``nxt`` is re-warped at
    each warp iteration, and the linearized problem is solved in terms of the
    total flow. Levels whose top of the pyramid would fall below 8x8 are
    dropped with a warning. Equal images give the exact zero field.

    ``blur_sigma`` is the inputs' blur in pixels: levels finer than the one
    on which it is nearest 5 pixels are not solved, the flow being
    resampled up to them. At 0 every level is solved.
    """
    if prev.data.shape != nxt.data.shape:
        raise ValueError(f"flow input images have mismatched shapes "
                         f"{prev.data.shape} vs {nxt.data.shape}")
    sizes = _pyramid_sizes(prev.width, prev.height, params, 2)
    u, v = _coarse_to_fine(prev.data, nxt.data, params, sizes, blur_sigma)
    u.flags.writeable = v.flags.writeable = False
    return FlowField(u, v)
