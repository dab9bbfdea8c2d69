"""Experiment configuration: a line-oriented ``key = value`` format with
bracketed sections, documented defaults, and the four named presets."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .flow import FlowParams
from .operators import Kernel, gaussian_kernel
from .phantoms import COARSE, FINE, LUNG, T_SHAPE, SceneSpec, check_seed, snr_power_ratio
from .srr import SrrConfig

# The default blur is defined at this reference grid size and rescaled
# proportionally when the experiment runs on a different grid, so desk-scale
# runs see the same relative blur.
REFERENCE_GRID = 200
REFERENCE_KERNEL_SIZE = 61
REFERENCE_KERNEL_SIGMA = 20.0

PRESET_NAMES = ("ex1a", "ex1b", "ex2a", "ex2b")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; square grid of side ``grid``."""

    scene: SceneSpec = SceneSpec()
    mesh_density: str = FINE
    snr_db: float = 10.0
    degrade_seed: int = 23
    mu: float = 0.01
    k_iters: int = 100
    alpha_srr: float = 0.3
    grid: int = REFERENCE_GRID
    kernel_size: int = 0          # 0 means scale the reference kernel to the grid
    kernel_sigma: float = 0.0     # 0 means scale the reference sigma to the grid
    flow: FlowParams = FlowParams()
    output_dir: str = ""
    known_motion: bool = False    # not a config key: mesh-srr run sets it from --motion

    def __post_init__(self):
        if self.grid < 8:
            raise ConfigError(f"grid must be at least 8, got {self.grid}")
        if self.mesh_density not in (FINE, COARSE):
            raise ConfigError(f"mesh must be FINE or COARSE, got {self.mesh_density!r}")
        try:
            snr_power_ratio(self.snr_db)
            check_seed(self.degrade_seed, "degrade seed")
            self.resolved_kernel()
            self.srr_config()  # step size and iterations
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 <= self.alpha_srr < math.inf:
            raise ConfigError(f"alpha_srr must be >= 0 and finite, got {self.alpha_srr}")

    def resolved_kernel(self) -> Kernel:
        size = self.kernel_size
        if size == 0:
            size = max(1, round(REFERENCE_KERNEL_SIZE * self.grid / REFERENCE_GRID))
            if size % 2 == 0:
                size += 1
        sigma = self.kernel_sigma
        if sigma == 0:
            sigma = REFERENCE_KERNEL_SIGMA * self.grid / REFERENCE_GRID
        limit = 2 * self.grid - 1
        if size > limit:
            raise ConfigError(f"kernel size {size} does not fit a {self.grid}x{self.grid} grid")
        return gaussian_kernel(size, sigma)

    def srr_config(self) -> SrrConfig:
        return SrrConfig(mu=self.mu, k_iters=self.k_iters)


_DEFAULTS = ExperimentConfig()

def _parse_choice(options):
    def parse(text: str):
        value = text.strip()
        if value not in options:
            raise ConfigError(f"expected one of {'/'.join(options)}, got {value!r}")
        return value
    return parse


# (section, key) -> (parser, field); [scene] and [flow] keys set fields of
# the SceneSpec and FlowParams parts, the others fields of ExperimentConfig.
_SCHEMA = {
    ("scene", "kind"): (_parse_choice((T_SHAPE, LUNG)), "kind"),
    ("scene", "frames"): (int, "frames"),
    ("scene", "background"): (float, "background"),
    ("scene", "inclusion"): (float, "inclusion"),
    ("scene", "motion_variance"): (float, "motion_variance"),
    ("scene", "motion_bound"): (float, "motion_bound"),
    ("scene", "seed"): (int, "rng_seed"),
    ("degrade", "mesh"): (_parse_choice((FINE, COARSE)), "mesh_density"),
    ("degrade", "snr_db"): (float, "snr_db"),
    ("degrade", "seed"): (int, "degrade_seed"),
    ("srr", "mu"): (float, "mu"),
    ("srr", "k_iters"): (int, "k_iters"),
    ("srr", "alpha"): (float, "alpha_srr"),
    ("srr", "grid"): (int, "grid"),
    ("srr", "kernel_size"): (int, "kernel_size"),
    ("srr", "kernel_sigma"): (float, "kernel_sigma"),
    ("flow", "lambda"): (float, "lam"),
    ("flow", "pyramid_levels"): (int, "pyramid_levels"),
    ("flow", "pyramid_spacing"): (float, "pyramid_spacing"),
    ("flow", "iterations_per_level"): (int, "iterations_per_level"),
    ("flow", "warps_per_level"): (int, "warps_per_level"),
    ("run", "output_dir"): (str.strip, "output_dir"),
}


def default_config_text() -> str:
    """The full default configuration (the ex1a preset), with comments."""
    d = _DEFAULTS
    s = d.scene
    f = d.flow
    return f"""\
# Default experiment configuration. Omitted keys keep these values.

[scene]
kind = {s.kind}                  # T_SHAPE or LUNG
frames = {s.frames}
background = {s.background:g}             # body value
inclusion = {s.inclusion:g}              # object value
motion_variance = {s.motion_variance:g}        # per-step variance of the position walk
motion_bound = {s.motion_bound:g}           # positions are clipped to [-bound, bound]
seed = {s.rng_seed}

[degrade]
mesh = {d.mesh_density}                  # FINE (1024 elements) or COARSE (256)
snr_db = {d.snr_db:g}
seed = {d.degrade_seed}

[srr]
mu = {d.mu:g}                    # gradient step size
k_iters = {d.k_iters}                # correction iterations per frame
alpha = {d.alpha_srr:g}                 # smoothness weight
grid = {d.grid}                   # square intermediate grid side
kernel_size = {d.kernel_size}               # 0 = scale 61 at grid 200
kernel_sigma = {d.kernel_sigma:g}              # 0 = scale 20 px at grid 200

[flow]
lambda = {f.lam:g}               # smoothness weight of the flow energy
pyramid_levels = {f.pyramid_levels}
pyramid_spacing = {f.pyramid_spacing:g}
iterations_per_level = {f.iterations_per_level}
warps_per_level = {f.warps_per_level}

[run]
output_dir =                 # empty: no artifacts written
"""


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse configuration text over ``base`` (the documented defaults).

    Raises ConfigError with a line number for malformed lines and names any
    unknown section or key.
    """
    values: dict[tuple[str, str], object] = {}
    section = None
    known_sections = {s for s, _ in _SCHEMA}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in known_sections:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        try:
            values[(section, key)] = _SCHEMA[(section, key)][0](value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return _apply(base or _DEFAULTS, values)


def _apply(base: ExperimentConfig, values: dict) -> ExperimentConfig:
    parts: dict[str, dict] = {"scene": {}, "flow": {}, "": {}}
    for (section, key), value in values.items():
        parts[section if section in parts else ""][_SCHEMA[(section, key)][1]] = value
    try:
        return replace(base, scene=replace(base.scene, **parts["scene"]),
                       flow=replace(base.flow, **parts["flow"]), **parts[""])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def preset(name: str) -> ExperimentConfig:
    """The four synthetic scenarios: scene 1/2 at high SNR + fine mesh (a)
    or low SNR + coarse mesh (b)."""
    base = _DEFAULTS
    if name == "ex1a":
        return base
    if name == "ex1b":
        return replace(base, mesh_density=COARSE, snr_db=-5.0)
    if name == "ex2a":
        return replace(base, scene=replace(base.scene, kind=LUNG))
    if name == "ex2b":
        return replace(base, scene=replace(base.scene, kind=LUNG),
                       mesh_density=COARSE, snr_db=-5.0)
    raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
