"""Synthetic test scenes and the acquisition degradation oracle.

Scenes are rasterized with hard edges (no antialiasing) so every frame takes
exactly the values {0, background, inclusion}. Rectangles use half-open
bounds, which keeps the rasterized area of a translated shape constant.
The degradation oracle stands in for a full tomographic reconstruction
chain: blur, average onto the mesh, then add white Gaussian noise scaled to
an exact signal-to-noise ratio over the element values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridImage, pixel_centers
from .mesh import FemImage, FemMesh, PixelAssignment, downsample, _check_match
from .operators import Kernel, convolve_neumann

T_SHAPE = "T_SHAPE"
LUNG = "LUNG"
FINE = "FINE"
COARSE = "COARSE"

BODY_RADIUS = 1.0

# Distinct sub-stream tags for the counter-based generator, so motion and
# per-frame noise draws never share a stream.
_MOTION_STREAM = 0x10_0000
_NOISE_STREAM = 0x20_0000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


@dataclass(frozen=True)
class SceneSpec:
    """Scene description shared by both phantom kinds.

    Motion applies to the T-shape walk only; lung breathing is driven by the
    frame index. Shape dimensions are in normalized units and configurable,
    with defaults chosen to keep every object inside the unit disc.
    """

    kind: str = T_SHAPE
    frames: int = 20
    background: float = 1.0
    inclusion: float = 2.0
    motion_variance: float = 0.3
    motion_bound: float = 0.15
    rng_seed: int = 11
    t_stem_width: float = 0.12
    t_stem_height: float = 0.5
    t_bar_width: float = 0.5
    t_bar_height: float = 0.12
    lung_center_x: float = 0.35
    lung_center_y: float = 0.10
    lung_semi_x: float = 0.25
    lung_semi_y: float = 0.38
    spine_center_y: float = -0.60
    spine_radius: float = 0.08
    breath_amplitude: float = 0.3

    def __post_init__(self):
        if self.kind not in (T_SHAPE, LUNG):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if not (math.isfinite(self.background) and math.isfinite(self.inclusion)):
            raise ValueError("background and inclusion values must be finite")
        if self.inclusion == self.background:
            raise ValueError("inclusion value must differ from background value")
        if not (0 <= self.motion_variance < math.inf and self.motion_bound >= 0):
            raise ValueError("motion variance must be finite and >= 0, motion bound >= 0")
        if not 0 <= self.breath_amplitude < 1:
            raise ValueError(f"breath_amplitude must be in [0, 1), got {self.breath_amplitude}")


@dataclass(frozen=True)
class DegradeSpec:
    """Acquisition model: blur kernel, target mesh, and noise level in dB."""

    mesh: FemMesh
    kernel: Kernel
    snr_db: float
    rng_seed: int = 23

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


def tshape_centers(spec: SceneSpec) -> np.ndarray:
    """Positions of the truncated-Gaussian random walk, shape (frames, 2).

    The walk starts at the origin; each step adds a zero-mean Gaussian with
    the configured variance per coordinate and the position is clipped to
    [-bound, bound].
    """
    rng = _rng(spec.rng_seed, _MOTION_STREAM)
    sigma = math.sqrt(spec.motion_variance)
    out = np.zeros((spec.frames, 2))
    pos = np.zeros(2)
    for t in range(1, spec.frames):
        pos = np.clip(pos + sigma * rng.standard_normal(2),
                      -spec.motion_bound, spec.motion_bound)
        out[t] = pos
    return out


def _rect(X, Y, x0, x1, y0, y1):
    return (X >= x0) & (X < x1) & (Y >= y0) & (Y < y1)


def _check_frame(spec: SceneSpec, t: int) -> None:
    if not 0 <= t < spec.frames:
        raise ValueError(f"frame index {t} outside [0, {spec.frames})")


def render_tshape(spec: SceneSpec, t: int, width: int, height: int) -> GridImage:
    """Disc-shaped body with a translating T inclusion at frame ``t``."""
    _check_frame(spec, t)
    cx, cy = tshape_centers(spec)[t]
    X, Y = np.meshgrid(pixel_centers(width), pixel_centers(height))
    disc = X * X + Y * Y <= BODY_RADIUS * BODY_RADIUS
    stem = _rect(X, Y,
                 cx - spec.t_stem_width / 2, cx + spec.t_stem_width / 2,
                 cy - spec.t_stem_height / 2, cy + spec.t_stem_height / 2)
    bar = _rect(X, Y,
                cx - spec.t_bar_width / 2, cx + spec.t_bar_width / 2,
                cy + spec.t_stem_height / 2 - spec.t_bar_height,
                cy + spec.t_stem_height / 2)
    shape = (stem | bar) & disc
    img = np.where(shape, spec.inclusion, np.where(disc, spec.background, 0.0))
    return GridImage(img)


def lung_scale(spec: SceneSpec, t: int) -> float:
    """Isotropic semi-axis factor at frame ``t``; the ellipse area varies
    sinusoidally by +-breath_amplitude over a period of frames / 2."""
    period = spec.frames / 2.0
    phase = 2.0 * math.pi * t / period if period > 0 else 0.0
    return math.sqrt(1.0 + spec.breath_amplitude * math.sin(phase))


def render_lung(spec: SceneSpec, t: int, width: int, height: int) -> GridImage:
    """Disc body with two mirrored breathing ellipses and a static spine circle."""
    _check_frame(spec, t)
    s = lung_scale(spec, t)
    a = spec.lung_semi_x * s
    b = spec.lung_semi_y * s
    X, Y = np.meshgrid(pixel_centers(width), pixel_centers(height))
    disc = X * X + Y * Y <= BODY_RADIUS * BODY_RADIUS
    left = ((X + spec.lung_center_x) / a) ** 2 + ((Y - spec.lung_center_y) / b) ** 2 <= 1.0
    right = ((X - spec.lung_center_x) / a) ** 2 + ((Y - spec.lung_center_y) / b) ** 2 <= 1.0
    spine = X * X + (Y - spec.spine_center_y) ** 2 <= spec.spine_radius ** 2
    shape = (left | right | spine) & disc
    img = np.where(shape, spec.inclusion, np.where(disc, spec.background, 0.0))
    return GridImage(img)


def render_scene(spec: SceneSpec, t: int, width: int, height: int) -> GridImage:
    if spec.kind == T_SHAPE:
        return render_tshape(spec, t, width, height)
    return render_lung(spec, t, width, height)


def degrade(x_hr: GridImage, d: DegradeSpec, assignment: PixelAssignment,
            frame: int = 0) -> FemImage:
    """Produce the observed mesh image for one frame: blur, average onto the
    mesh, then add noise with an exact per-realization SNR over element
    values. The noise stream is keyed by (seed, frame) so frames can be
    generated in any order with identical results."""
    _check_match(d.mesh, assignment)
    clean = downsample(convolve_neumann(x_hr, d.kernel), assignment)
    s = clean.values
    rng = _rng(d.rng_seed, _NOISE_STREAM + frame)
    e = rng.standard_normal(s.shape[0])
    ps = float(s @ s)
    pe = float(e @ e)
    if ps > 0.0 and pe > 0.0:
        noise = e * math.sqrt(ps / (pe * 10.0 ** (d.snr_db / 10.0)))
    else:
        noise = np.zeros_like(s)
    return FemImage(d.mesh, s + noise)


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
