"""Horn-Schunck optical flow with coarse-to-fine pyramids.

``horn_schunck(prev, nxt, params)`` returns the displacement field of scene
content from ``prev`` to ``nxt``; equivalently, backward-warping ``nxt`` by
the returned flow reproduces ``prev``. The smoothness weight is defined
against the textbook energy

    E(u, v) = sum((Ix*u + Iy*v + It)^2) + lam * sum over 4-neighbor edges
              ((u_p - u_q)^2 + (v_p - v_q)^2)

and each warp of a pyramid level is solved by red-black Gauss-Seidel sweeps,
which perform exact per-pixel minimization and therefore never increase the
energy. A half-sweep computes only its own color, in the floating-point order
of a full-grid update. The sweeps run in blocks of ``_SWEEP_BLOCK``, at most
``iterations_per_level`` per warp: a pair stops once a block lowers its energy
by at most ``_SWEEP_TOL`` times the new energy (Horn & Schunck iterate to
convergence; on the fine levels the coarse ones have found the flow).

``horn_schunck_sequence`` registers each distinct consecutive pair once, with
independent pairs stacked along a leading axis to share every solver call;
each level cuts the stack into chunks of at most ``_STACK_PIXELS`` pixels.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridImage, require_same_shape
from .operators import convolve_stack, gaussian_kernel, _bilinear_gather

_MIN_TOP_SIZE = 8
# Pixels per stacked solve at each level (1 pair at 100x100, 4 at 50x50):
# stacking pays on the coarse levels only.
_STACK_PIXELS = 10_000
# Sweeps between energy checks, and the relative energy drop per block below
# which a pair stops sweeping.
_SWEEP_BLOCK = 5
_SWEEP_TOL = 3e-4


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
    near-rigid fields, which is what noisy tomographic sequences need.
    ``iterations_per_level`` is the most sweeps per warp; a pair stops
    earlier once its energy stalls."""

    lam: float = 15.0
    pyramid_levels: int = 4
    pyramid_spacing: float = 2.0
    iterations_per_level: int = 100
    warps_per_level: int = 3

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
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
        size = 2 * int(np.ceil(2.5 * sigma)) + 1
        size = min(size, 2 * min(prev.shape[-2:]) - 1)
        if size % 2 == 0:
            size -= 1
        smoothed = convolve_stack(prev, gaussian_kernel(max(size, 1), sigma))
        out.append(_resample(smoothed, nw, nh))
    return out


def _neighbor_counts(h: int, w: int) -> np.ndarray:
    n = np.full((h, w), 4.0)
    n[0, :] -= 1
    n[-1, :] -= 1
    n[:, 0] -= 1
    n[:, -1] -= 1
    return n


def _pair_energies(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                   u: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """Energy of the problem in the last two axes, for each along the leading axes."""
    pixels = (-2, -1)
    data = ((ix * u + iy * v + c) ** 2).sum(axis=pixels)
    smooth = sum((np.diff(f, axis=axis) ** 2).sum(axis=pixels) for f in (u, v) for axis in pixels)
    return data + lam * smooth


def flow_energy(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                u: np.ndarray, v: np.ndarray, lam: float) -> float:
    """Discrete energy of the linearized data term plus smoothness, summed
    over any leading axes."""
    return float(_pair_energies(ix, iy, c, u, v, lam).sum())


def solve_linearized_flow(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                          u0: np.ndarray, v0: np.ndarray, lam: float,
                          iterations: int,
                          energies: list[float] | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Red-black Gauss-Seidel solve of the linearized flow problem.

    Each half-sweep minimizes the energy exactly over one checkerboard color,
    so the recorded energies are non-increasing. ``energies`` (when given)
    receives the value before the first sweep and after every full sweep.

    Only the active color is computed: its two strided sub-lattices, (even,
    even) with (odd, odd) or (even, odd) with (odd, even), read neighbor sums
    ``((up + down) + left) + right`` from shifted views of one zero-padded
    ``u``/``v`` buffer, in the order of the full-grid update.

    Leading axes hold independent problems solved in the same sweeps; the
    energies are then summed over them.
    """
    h, w = ix.shape[-2:]
    uv = np.zeros((2, *ix.shape[:-2], h + 2, w + 2))
    uv[0, ..., 1:-1, 1:-1] = u0
    uv[1, ..., 1:-1, 1:-1] = v0
    n = _neighbor_counts(h, w)
    denom = lam * n + ix * ix + iy * iy
    lattices = []
    for r, s in ((0, 0), (1, 1), (0, 1), (1, 0)):
        def shifted(dr, ds):
            return uv[..., 1 + r + dr:h + 1 + dr:2, 1 + s + ds:w + 1 + ds:2]
        sub = (..., slice(r, None, 2), slice(s, None, 2))
        grad = np.stack([ix[sub], iy[sub]])
        lattices.append((shifted(0, 0), shifted(-1, 0), shifted(1, 0),
                         shifted(0, -1), shifted(0, 1), grad[0], grad[1], grad,
                         c[sub].copy(), n[sub].copy(), denom[sub].copy()))
    u = uv[0, ..., 1:-1, 1:-1]
    v = uv[1, ..., 1:-1, 1:-1]
    if energies is not None:
        energies.append(flow_energy(ix, iy, c, u, v, lam))
    for _ in range(iterations):
        for center, up, down, left, right, ixs, iys, grad, cs, ns, dens in lattices:
            bar = (((up + down) + left) + right) / ns
            d = ixs * bar[0] + iys * bar[1] + cs
            center[...] = bar - grad * d / dens
        if energies is not None:
            energies.append(flow_energy(ix, iy, c, u, v, lam))
    return u.copy(), v.copy()


def _sweep_until_stalled(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                         u: np.ndarray, v: np.ndarray, lam: float, cap: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """``solve_linearized_flow`` on a stack of problems, in blocks of
    ``_SWEEP_BLOCK`` sweeps and at most ``cap`` in all. A problem stops once a
    block lowers its energy by at most ``_SWEEP_TOL`` times the new energy and
    keeps its ``u`` and ``v``; the others go on in a smaller stack. Each
    decision is per problem, so a problem's result does not depend on the
    stack it came in."""
    u, v = u.copy(), v.copy()
    run = np.arange(len(u))
    terms = (ix, iy, c)
    energy = _pair_energies(*terms, u, v, lam)
    for done in range(0, cap, _SWEEP_BLOCK):
        ru, rv = solve_linearized_flow(*terms, u[run], v[run], lam,
                                       min(_SWEEP_BLOCK, cap - done))
        u[run], v[run] = ru, rv
        new = _pair_energies(*terms, ru, rv, lam)
        going = energy - new > _SWEEP_TOL * new
        if not going.all():
            run = run[going]
            terms = tuple(t[going] for t in terms)
            if not run.size:
                break
        energy = new[going]
    return u, v


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


def _global_translation_step(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                             u: np.ndarray, v: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Add the constant field minimizing the linearized data term.

    A constant increment leaves the smoothness term untouched and the
    least-squares choice can only lower the data term, so this step never
    raises the energy while letting large smoothness weights recover global
    translations in few sweeps. Leading axes hold independent problems,
    each with its own constant; one whose system is singular keeps its
    ``u`` and ``v`` as they are.
    """
    pixels = (-2, -1)
    r0 = ix * u + iy * v + c
    sxx = (ix * ix).sum(axis=pixels)
    sxy = (ix * iy).sum(axis=pixels)
    syy = (iy * iy).sum(axis=pixels)
    det = sxx * syy - sxy * sxy
    skip = det <= 1e-12 * np.maximum(1.0, sxx + syy) ** 2
    if skip.all():
        return u, v
    det = np.where(skip, 1.0, det)
    bx = -(ix * r0).sum(axis=pixels)
    by = -(iy * r0).sum(axis=pixels)
    du = ((syy * bx - sxy * by) / det)[..., None, None]
    dv = ((sxx * by - sxy * bx) / det)[..., None, None]
    skip = skip[..., None, None]
    return np.where(skip, u, u + du), np.where(skip, v, v + dv)


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
                uk, vk = _global_translation_step(ix, iy, c, uk, vk)
                uk, vk = _sweep_until_stalled(ix, iy, c, uk, vk, params.lam,
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
