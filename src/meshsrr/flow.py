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

``horn_schunck_sequence`` registers each distinct consecutive pair once, with
independent pairs stacked along a leading axis to share every solver call;
each level cuts the stack into chunks of at most ``_STACK_PIXELS`` pixels.
``scipy.fft``, which takes the DCTs, loads on the first solve, not on import.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridImage, require_same_shape
from .operators import (convolve_stack, gaussian_kernel, _bilinear_gather, _laplacian,
                        _stencil_eigenvalues)

_MIN_TOP_SIZE = 8
# Pixels per stacked solve at each level (1 pair at 100x100, 4 at 50x50):
# stacking pays on the coarse levels only.
_STACK_PIXELS = 10_000
# Relative residual ||b - A x|| / ||b|| at which a pair stops iterating.
_CG_TOL = 1e-3
# Largest smoothness weight: far beyond it, the rounding of lam * L (about
# 1e-16 lam) swamps the data term of images rescaled to [0, 1].
_LAM_MAX = 1e8


@dataclass(frozen=True, eq=False)
class FlowField:
    """Per-pixel displacement field; u is horizontal (columns), v vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=np.float64, copy=True)
        v = np.array(self.v, dtype=np.float64, copy=True)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError(f"u and v must be matching 2-D arrays, got {u.shape} and {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("flow components contain non-finite values")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, width: int, height: int) -> "FlowField":
        return cls(np.zeros((height, width)), np.zeros((height, width)))

    @classmethod
    def constant(cls, width: int, height: int, du: float, dv: float) -> "FlowField":
        return cls(np.full((height, width), float(du)),
                   np.full((height, width), float(dv)))

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
    """Bilinear resize of the last two axes with center-aligned sampling and
    clamped borders."""
    h, w = data.shape[-2:]
    sx = (np.arange(new_w) + 0.5) * (w / new_w) - 0.5
    sy = (np.arange(new_h) + 0.5) * (h / new_h) - 0.5
    SX, SY = np.meshgrid(sx, sy)
    return _bilinear_gather(data, SX, SY)


def _pyramid_sizes(width: int, height: int, levels: int, spacing: float) -> list[tuple[int, int]]:
    sizes = [(width, height)]
    for _ in range(1, levels):
        w, h = sizes[-1]
        nw = max(1, int(round(w / spacing)))
        nh = max(1, int(round(h / spacing)))
        if (nw, nh) == (w, h):
            break
        sizes.append((nw, nh))
    return sizes


def build_pyramid(data: np.ndarray, levels: int, spacing: float) -> list[np.ndarray]:
    """Coarse-to-fine pyramid of the images in the last two axes of ``data``
    (leading axes hold independent images): level 0 is the input, each next
    level is Gaussian-smoothed (sigma = 0.8 * spacing) and bilinearly
    subsampled."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if spacing <= 1:
        raise ValueError(f"spacing must be > 1, got {spacing}")
    sigma = 0.8 * spacing
    h, w = data.shape[-2:]
    out = [data]
    for nw, nh in _pyramid_sizes(w, h, levels, spacing)[1:]:
        prev = out[-1]
        size = min(2 * int(np.ceil(2.5 * sigma)) + 1, 2 * min(prev.shape[-2:]) - 1)
        smoothed = convolve_stack(prev, gaussian_kernel(size, sigma))
        out.append(_resample(smoothed, nw, nh))
    return out


def _block_inverses(g: np.ndarray, lam: float) -> np.ndarray:
    """The preconditioner for the (pairs, 2, h, w) gradients ``g``: per pair
    and DCT frequency, the entries (00, 01, 11) of the inverse of

        [mean(Ix^2) + lam e, mean(Ix Iy); mean(Ix Iy), mean(Iy^2) + lam e],

    the normal matrix with each pixel's data block replaced by the pair's
    mean, e being the Laplacian's eigenvalue. Only the zero frequency (e = 0)
    can be singular, so it takes the pseudo-inverse: a block of constant
    images is left at 0.
    """
    h, w = g.shape[-2:]
    ix, iy = g[:, 0], g[:, 1]
    mxx, mxy, myy = ((p * q).mean(axis=(-2, -1)) for p, q in ((ix, ix), (ix, iy), (iy, iy)))
    e = lam * _stencil_eigenvalues(h, w)
    a = mxx[:, None, None] + e
    d = myy[:, None, None] + e
    b = mxy[:, None, None]
    det = a * d - b * b
    det[:, 0, 0] = 1.0
    inv = np.stack([d, np.broadcast_to(-b, a.shape), a], axis=1) / det[:, None]
    zero = np.linalg.pinv(np.stack([mxx, mxy, mxy, myy], axis=-1).reshape(-1, 2, 2), rcond=1e-12)
    inv[:, :, 0, 0] = zero.reshape(-1, 4)[:, [0, 1, 3]]
    return inv


def solve_linearized_flow(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                          u0: np.ndarray, v0: np.ndarray, lam: float,
                          iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate gradients from ``(u0, v0)`` on the normal equations of the
    linearized energy,

        [Ix^2 + lam L, Ix Iy; Ix Iy, Iy^2 + lam L] (u, v) = -(Ix c, Iy c),

    L being the Neumann graph Laplacian, preconditioned by ``_block_inverses``
    between one DCT of the stacked (u, v) and its inverse. At most
    ``iterations`` iterations, each stepping to the energy minimum along its
    direction, so the energy never increases.

    Leading axes hold independent problems, each with its own CG scalars. A
    problem stops once ``||r|| <= _CG_TOL * ||b||`` and keeps its ``u`` and
    ``v`` (a start within tolerance costs no transform); the others go on in
    a smaller stack, so a problem's result does not depend on its stack.
    """
    from scipy import fft  # on first use: import and runs that register nothing skip its 0.4 s
    h, w = ix.shape[-2:]
    g = np.stack([ix, iy], axis=-3).reshape(-1, 2, h, w)
    x = np.stack([u0, v0], axis=-3).reshape(-1, 2, h, w)
    work = np.empty_like(x)  # normal(p) is consumed before the next call

    def normal(p):  # reads the current (possibly shrunk) g
        q = _laplacian(p, out=work[:len(p)])
        q *= lam
        q += g * (g[:, :1] * p[:, :1] + g[:, 1:] * p[:, 1:])
        return q

    def dot(left, right):
        return (left * right).sum(axis=(1, 2, 3))

    b = -g * c.reshape(-1, 1, h, w)
    r = b - normal(x)
    bound = _CG_TOL ** 2 * dot(b, b)
    inv = _block_inverses(g, lam)
    run = np.arange(len(x))
    xk = x  # the running stack; a copy once a problem stops
    p = rz = None
    for _ in range(iterations):
        live = dot(r, r) > bound
        if not live.all():
            x[run[~live]] = xk[~live]
            run, g, inv, xk, r, bound = (a[live] for a in (run, g, inv, xk, r, bound))
            if p is not None:
                p, rz = p[live], rz[live]
            if not run.size:
                break
        rh = fft.dctn(r, axes=(-2, -1), norm="ortho")
        zh = inv[:, :2] * rh[:, :1] + inv[:, 1:] * rh[:, 1:]  # (i00 r0 + i01 r1, i01 r0 + i11 r1)
        z = fft.idctn(zh, axes=(-2, -1), norm="ortho", overwrite_x=True)
        rz, previous = dot(r, z), rz
        p = z if previous is None else z + (rz / previous)[:, None, None, None] * p
        q = normal(p)
        alpha = (rz / dot(p, q))[:, None, None, None]
        xk += alpha * p
        r -= alpha * q
    x[run] = xk
    x = x.reshape(*ix.shape[:-2], 2, h, w)
    return x[..., 0, :, :].copy(), x[..., 1, :, :].copy()


def _derivatives(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central differences, mirroring the border pixels, averaged over the
    (reference, warped) pair."""
    pad = [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)]
    pa, pb = (np.pad(p, pad, mode="symmetric") for p in (a, b))
    ix = 0.5 * ((pa[..., 1:-1, 2:] - pa[..., 1:-1, :-2]) * 0.5
                + (pb[..., 1:-1, 2:] - pb[..., 1:-1, :-2]) * 0.5)
    iy = 0.5 * ((pa[..., 2:, 1:-1] - pa[..., :-2, 1:-1]) * 0.5
                + (pb[..., 2:, 1:-1] - pb[..., :-2, 1:-1]) * 0.5)
    it = b - a
    return ix, iy, it


def _pyramid_levels(width: int, height: int, params: FlowParams) -> int:
    """Levels to use, dropping with a warning those whose top is below 8x8."""
    if min(width, height) < 2:
        raise ValueError("flow estimation needs at least a 2x2 image")
    levels = params.pyramid_levels
    sizes = _pyramid_sizes(width, height, levels, params.pyramid_spacing)
    while len(sizes) > 1 and min(sizes[-1]) < _MIN_TOP_SIZE:
        sizes = sizes[:-1]
    if len(sizes) < levels:
        warnings.warn(
            f"pyramid reduced from {levels} to {len(sizes)} level(s) so the top "
            f"stays at least {_MIN_TOP_SIZE} pixels on a side", stacklevel=4)
    return len(sizes)


def _coarse_to_fine(prev: np.ndarray, nxt: np.ndarray, params: FlowParams,
                    levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Flows ``(u, v)`` from ``prev[k]`` to ``nxt[k]`` for the pairs of images
    along the leading axis, solved at each level in stacks of at most
    ``_STACK_PIXELS`` pixels."""
    lo = np.minimum(prev.min(axis=(-2, -1), keepdims=True), nxt.min(axis=(-2, -1), keepdims=True))
    hi = np.maximum(prev.max(axis=(-2, -1), keepdims=True), nxt.max(axis=(-2, -1), keepdims=True))
    pa = build_pyramid((prev - lo) / (hi - lo), levels, params.pyramid_spacing)
    pb = build_pyramid((nxt - lo) / (hi - lo), levels, params.pyramid_spacing)
    del prev, nxt  # the pyramids hold rescaled copies; free the caller's stacks

    u = np.zeros(pa[-1].shape)
    v = np.zeros(pa[-1].shape)
    for level in range(levels - 1, -1, -1):
        a = pa[level]
        b = pb[level]
        h, w = a.shape[-2:]
        jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        step = max(1, _STACK_PIXELS // (h * w))
        coarse, u, v = (u, v), np.empty(a.shape), np.empty(a.shape)
        for k in range(0, len(u), step):
            part = slice(k, k + step)
            uk, vk = (f[part] for f in coarse)
            if uk.shape[-2:] != (h, w):
                uk = _resample(uk, w, h) * (w / uk.shape[-1])
                vk = _resample(vk, w, h) * (h / vk.shape[-2])
            for _ in range(params.warps_per_level):
                warped = _bilinear_gather(b[part], ii + uk, jj + vk)
                ix, iy, it = _derivatives(a[part], warped)
                c = it - ix * uk - iy * vk
                uk, vk = solve_linearized_flow(ix, iy, c, uk, vk, params.lam,
                                               params.iterations_per_level)
            u[part], v[part] = uk, vk
    return u, v


def horn_schunck(prev: GridImage, nxt: GridImage, params: FlowParams) -> FlowField:
    """Estimate the dense displacement field from ``prev`` to ``nxt``.

    Coarse-to-fine: flow is upscaled between levels, ``nxt`` is re-warped at
    each warp iteration, and the linearized problem is solved in terms of the
    total flow. Levels whose top of the pyramid would fall below 8x8 are
    dropped with a warning. Equal images give the exact zero field.
    """
    return _flows([nxt, prev], params)[0]


def horn_schunck_sequence(frames: list[GridImage], params: FlowParams) -> list[FlowField]:
    """Flows ``horn_schunck(frames[t], frames[t - 1], params)`` for t >= 1.

    Each distinct pair of frames is solved once, pairs of equal frames get
    the exact zero field, and the remaining pairs run through the solver
    together, stacked per level. The flows are bit-identical to the pairwise
    calls; a pyramid reduction is warned about once.
    """
    return _flows(frames, params)


def _flows(frames: list[GridImage], params: FlowParams) -> list[FlowField]:
    """Both entry points' body: a pyramid-reduction warning names their caller."""
    if len(frames) < 2:
        return []
    first = frames[0]
    for frame in frames[1:]:
        require_same_shape(first, frame, "flow input images")
    levels = _pyramid_levels(first.width, first.height, params)
    ids: list[int] = []  # index of the first frame equal to each frame
    for t, frame in enumerate(frames):
        ids.append(next((k for k in dict.fromkeys(ids)
                         if np.array_equal(frames[k].data, frame.data)), t))
    keys = [(ids[t], ids[t - 1]) for t in range(1, len(frames))]
    pairs = [key for key in dict.fromkeys(keys) if key[0] != key[1]]
    solved = {}
    if pairs:
        u, v = _coarse_to_fine(np.stack([frames[p].data for p, _ in pairs]),
                               np.stack([frames[n].data for _, n in pairs]),
                               params, levels)
        solved = {key: FlowField(uk, vk) for key, uk, vk in zip(pairs, u, v)}
    zero = FlowField.zeros(first.width, first.height)
    return [solved.get(key, zero) for key in keys]
