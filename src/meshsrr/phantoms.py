"""Synthetic test scenes and the acquisition degradation oracle.

Scenes are rasterized with hard edges (no antialiasing) so every frame takes
exactly the values {0, background, inclusion}. Rectangles use half-open
bounds, which keeps the rasterized area of a translated shape constant.
The shape geometry is fixed by module constants; ``SceneSpec`` holds only
what the ``[scene]`` configuration section sets. The degradation oracle
stands in for a full tomographic reconstruction chain: blur, average onto
the mesh of the pixel assignment, then add white Gaussian noise scaled to an
exact signal-to-noise ratio over the element values.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import FlowField
from .grid import GridImage, pixel_centers
from .mesh import FemImage, FemMesh, PixelAssignment, downsample
from .operators import Kernel

T_SHAPE = "T_SHAPE"
LUNG = "LUNG"
FINE = "FINE"
COARSE = "COARSE"

BODY_RADIUS = 1.0
# Fixed scene geometry in normalized units; every object stays inside the body
# disc. The lung ellipse area swings by +-BREATH_AMPLITUDE.
T_STEM_WIDTH = 0.12
T_STEM_HEIGHT = 0.5
T_BAR_WIDTH = 0.5
T_BAR_HEIGHT = 0.12
LUNG_CENTER_X = 0.35
LUNG_CENTER_Y = 0.10
LUNG_SEMI_X = 0.25
LUNG_SEMI_Y = 0.38
SPINE_CENTER_Y = -0.60
SPINE_RADIUS = 0.08
BREATH_AMPLITUDE = 0.3

# Distinct sub-stream tags for the counter-based generator, so motion and
# per-frame noise draws never share a stream.
_MOTION_STREAM = 0x10_0000
_NOISE_STREAM = 0x20_0000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


def check_seed(seed: int, what: str) -> None:
    """Refuse a seed that the generator's 64-bit key would reject or alias."""
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"{what} {seed} is outside [-2**63, 2**63)")


@dataclass(frozen=True)
class SceneSpec:
    """The settable part of a scene: exactly the ``[scene]`` configuration keys.

    Motion applies to the T-shape walk only; lung breathing is driven by the
    frame index. The shape geometry is fixed by the module constants. The
    larger of the two values must be positive, since scoring binarizes each
    frame at a fraction of its maximum.
    """

    kind: str = T_SHAPE
    frames: int = 20
    background: float = 1.0
    inclusion: float = 2.0
    motion_variance: float = 0.3
    motion_bound: float = 0.15
    rng_seed: int = 11

    def __post_init__(self):
        if self.kind not in (T_SHAPE, LUNG):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if not (math.isfinite(self.background) and math.isfinite(self.inclusion)):
            raise ValueError("background and inclusion values must be finite")
        if self.inclusion == self.background:
            raise ValueError("inclusion value must differ from background value")
        if not max(self.background, self.inclusion) > 0:
            raise ValueError("the larger of background and inclusion must be positive")
        if not (0 <= self.motion_variance < math.inf and self.motion_bound >= 0):
            raise ValueError("motion variance must be finite and >= 0, motion bound >= 0")
        # The bar's top corners, (+-dx, dy) from the T's centre, are its farthest
        # points; at centre (b, b) they reach the body edge when
        # (b + dx)^2 + (b + dy)^2 = BODY_RADIUS^2.
        dx, dy = T_BAR_WIDTH / 2, T_STEM_HEIGHT / 2
        reach = (math.sqrt(2 * BODY_RADIUS ** 2 - (dx - dy) ** 2) - dx - dy) / 2
        if self.kind == T_SHAPE and self.motion_bound > reach:
            raise ValueError(f"motion bound {self.motion_bound:g} lets the T leave the "
                             f"body disc; it must be at most {reach:.4g}")
        check_seed(self.rng_seed, "scene seed")

    @functools.cached_property
    def _tshape_walk(self) -> np.ndarray:
        """``tshape_centers``, drawn on first use and kept with the spec."""
        rng = _rng(self.rng_seed, _MOTION_STREAM)
        sigma = math.sqrt(self.motion_variance)
        out = np.zeros((self.frames, 2))
        pos = np.zeros(2)
        for t in range(1, self.frames):
            pos = np.clip(pos + sigma * rng.standard_normal(2),
                          -self.motion_bound, self.motion_bound)
            out[t] = pos
        out.flags.writeable = False
        return out


def tshape_centers(spec: SceneSpec) -> np.ndarray:
    """Positions of the truncated-Gaussian random walk, shape (frames, 2).

    The walk starts at the origin; each step adds a zero-mean Gaussian with
    the configured variance per coordinate and the position is clipped to
    [-bound, bound]. It is drawn once per ``SceneSpec`` instance and kept
    with it as a read-only array, so that rendering every frame walks once.
    """
    return spec._tshape_walk


def _rect(X, Y, x0, x1, y0, y1):
    return (X >= x0) & (X < x1) & (Y >= y0) & (Y < y1)


def _compose(spec: SceneSpec, t: int, width: int, height: int, shape) -> GridImage:
    """Frame ``t``: the inclusion where ``shape(X, Y)`` holds inside the body
    disc, the background elsewhere in it, zero outside. X is the row of
    pixel-centre abscissas and Y the column of ordinates, which broadcast."""
    if not 0 <= t < spec.frames:
        raise ValueError(f"frame index {t} outside [0, {spec.frames})")
    X, Y = pixel_centers(width), pixel_centers(height)[:, None]
    disc = X * X + Y * Y <= BODY_RADIUS * BODY_RADIUS
    img = np.where(shape(X, Y) & disc, spec.inclusion, np.where(disc, spec.background, 0.0))
    img.flags.writeable = False
    return GridImage(img)


def render_tshape(spec: SceneSpec, t: int, width: int, height: int) -> GridImage:
    """Disc-shaped body with a translating T inclusion at frame ``t``."""
    def t_shape(X, Y):
        cx, cy = tshape_centers(spec)[t]
        stem = _rect(X, Y,
                     cx - T_STEM_WIDTH / 2, cx + T_STEM_WIDTH / 2,
                     cy - T_STEM_HEIGHT / 2, cy + T_STEM_HEIGHT / 2)
        bar = _rect(X, Y,
                    cx - T_BAR_WIDTH / 2, cx + T_BAR_WIDTH / 2,
                    cy + T_STEM_HEIGHT / 2 - T_BAR_HEIGHT,
                    cy + T_STEM_HEIGHT / 2)
        return stem | bar
    return _compose(spec, t, width, height, t_shape)


def lung_scale(spec: SceneSpec, t: int) -> float:
    """Isotropic semi-axis factor at frame ``t``; the ellipse area varies
    sinusoidally by +-BREATH_AMPLITUDE over a period of frames / 2."""
    phase = 2.0 * math.pi * t / (spec.frames / 2.0)
    return math.sqrt(1.0 + BREATH_AMPLITUDE * math.sin(phase))


def render_lung(spec: SceneSpec, t: int, width: int, height: int) -> GridImage:
    """Disc body with two mirrored breathing ellipses and a static spine circle."""
    def lungs_and_spine(X, Y):
        s = lung_scale(spec, t)
        a = LUNG_SEMI_X * s
        b = LUNG_SEMI_Y * s
        left = ((X + LUNG_CENTER_X) / a) ** 2 + ((Y - LUNG_CENTER_Y) / b) ** 2 <= 1.0
        right = ((X - LUNG_CENTER_X) / a) ** 2 + ((Y - LUNG_CENTER_Y) / b) ** 2 <= 1.0
        spine = X * X + (Y - SPINE_CENTER_Y) ** 2 <= SPINE_RADIUS ** 2
        return left | right | spine
    return _compose(spec, t, width, height, lungs_and_spine)


def render_scene(spec: SceneSpec, t: int, width: int, height: int) -> GridImage:
    if spec.kind == T_SHAPE:
        return render_tshape(spec, t, width, height)
    return render_lung(spec, t, width, height)


def scene_flows(spec: SceneSpec, width: int, height: int) -> Iterator[FlowField]:
    """The true motion from frame t - 1 to frame t, t >= 1, in pixels:
    backward-warping frame t - 1 by it reproduces frame t. Item t - 1 is
    that flow.

    The T-shape's flow is its constant translation, as zero-stride fields.
    The lungs' flow is the scaling ``(p - c) * (s[t-1] / s[t] - 1)`` about
    the centre c of the nearer lung, s being ``lung_scale``, weighed by
    ``clip((rho_mid - rho) / (rho_mid - 1), 0, 1)``. There rho is the
    elliptical radius about c at the largest semi-axes and rho_mid its value
    on the midline: the weight is 1 on every lung ellipse of every frame and
    falls to 0 at the midline, so the spine and the disc edge do not move.
    Each flow is made when the iterator reaches it; for the lungs that
    scales one base field, built by this call, so only that field is kept.
    """
    if spec.kind == T_SHAPE:
        centers = tshape_centers(spec)
        return (FlowField.constant(width, height, *(centers[t - 1] - centers[t])
                                   * (width / 2.0, height / 2.0))
                for t in range(1, spec.frames))
    X, Y = pixel_centers(width), pixel_centers(height)[:, None]
    s_max = math.sqrt(1.0 + BREATH_AMPLITUDE)
    dx = X - np.where(X < 0, -LUNG_CENTER_X, LUNG_CENTER_X)
    dy = Y - LUNG_CENTER_Y
    rho = np.hypot(dx / (LUNG_SEMI_X * s_max), dy / (LUNG_SEMI_Y * s_max))
    rho_mid = LUNG_CENTER_X / (LUNG_SEMI_X * s_max)
    weight = np.clip((rho_mid - rho) / (rho_mid - 1.0), 0.0, 1.0)
    u = dx * weight * (width / 2.0)
    v = dy * weight * (height / 2.0)
    k = [lung_scale(spec, t - 1) / lung_scale(spec, t) - 1.0 for t in range(1, spec.frames)]

    def flow(k_t: float) -> FlowField:
        du, dv = k_t * u, k_t * v
        du.flags.writeable = dv.flags.writeable = False  # so FlowField keeps, not copies, them
        return FlowField(du, dv)
    return map(flow, k)


def snr_power_ratio(snr_db: float) -> float:
    """Signal-to-noise power ratio ``10 ** (snr_db / 10)``; ValueError unless
    it is a positive finite float."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"snr_db = {snr_db:g} gives no positive finite power ratio")
    return ratio


def degrade(x_hr: GridImage, assignment: PixelAssignment, kernel: Kernel,
            snr_db: float, seed: int, frame: int = 0) -> FemImage:
    """Produce the observed image on ``assignment.mesh`` for one frame: blur,
    average onto the mesh, then add noise with an exact per-realization SNR
    over element values. The noise stream is keyed by (seed, frame) so frames
    can be generated in any order with identical results. ConfigError when
    the scene values or the SNR overflow double precision on the way."""
    ratio = snr_power_ratio(snr_db)
    blurred = kernel.apply(x_hr.data)
    blurred.flags.writeable = False
    try:
        # GridImage refuses a blurred frame that overflowed, FemImage element
        # sums that did; on a matching grid nothing else raises.
        s = downsample(GridImage(blurred), assignment).values
    except ValueError:
        if blurred.shape != (assignment.height, assignment.width):
            raise
    else:
        rng = _rng(seed, _NOISE_STREAM + frame)
        e = rng.standard_normal(s.shape[0])
        # Numpy scalars, so that an overflow or a zero divisor gives a
        # non-finite frame, which the check below refuses.
        with np.errstate(all="ignore"):
            ps = s @ s
            pe = e @ e
            if ps > 0.0 and pe > 0.0:
                noise = e * np.sqrt(ps / (pe * ratio))
            else:
                noise = np.zeros_like(s)
            observed = s + noise
        if np.isfinite(observed).all():
            return FemImage(assignment.mesh, observed)
    raise ConfigError(f"scene values up to {np.abs(x_hr.data).max():g} at snr_db = "
                      f"{snr_db:g} give a degraded frame that is not finite")


def disc_mesh(density: str = FINE) -> FemMesh:
    """Concentric-ring triangulation of the unit disc.

    Ring k of R carries 4k nodes at radius k / R, giving exactly 4 R^2
    positively oriented triangles: 1024 for FINE (R = 16), 256 for COARSE
    (R = 8).
    """
    if density == FINE:
        rings = 16
    elif density == COARSE:
        rings = 8
    else:
        raise ValueError(f"unknown mesh density {density!r}; use FINE or COARSE")
    return ring_mesh(rings)


def ring_mesh(rings: int) -> FemMesh:
    """Disc triangulation with ``rings`` concentric rings (4k nodes on ring k)."""
    if rings < 1:
        raise ValueError(f"rings must be >= 1, got {rings}")
    nodes = [(0.0, 0.0)]
    ring_start = [0]
    for k in range(1, rings + 1):
        ring_start.append(len(nodes))
        n_k = 4 * k
        r = k / rings
        angles = 2.0 * math.pi * np.arange(n_k) / n_k
        for ang in angles:
            nodes.append((r * math.cos(ang), r * math.sin(ang)))

    elements = []
    for j in range(4):
        elements.append((0, ring_start[1] + j, ring_start[1] + (j + 1) % 4))
    for k in range(2, rings + 1):
        m = 4 * (k - 1)
        n = 4 * k
        inner = ring_start[k - 1]
        outer = ring_start[k]
        ai = 2.0 * math.pi * (np.arange(m + 1)) / m
        bj = 2.0 * math.pi * (np.arange(n + 1)) / n
        i = j = 0
        while i < m or j < n:
            if j < n and (i == m or bj[j + 1] <= ai[i + 1] + 1e-15):
                elements.append((inner + i % m, outer + j, outer + (j + 1) % n))
                j += 1
            else:
                elements.append((inner + i % m, outer + j % n, inner + (i + 1) % m))
                i += 1
    # Nodes computed from cos/sin can stick out of [-1, 1] by one ulp; snap.
    arr = np.clip(np.array(nodes), -1.0, 1.0)
    return FemMesh(arr, np.array(elements, dtype=np.int64))
