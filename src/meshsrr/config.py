"""Experiment configuration: a line-oriented ``key = value`` format with
bracketed sections, documented defaults, and the four named presets."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .flow import FlowParams
from .operators import Kernel, _check_gaussian, gaussian_kernel
from .phantoms import COARSE, FINE, LUNG, T_SHAPE, SceneSpec, check_seed, snr_power_ratio
from .srr import SrrConfig

# The default blur is defined at this reference grid size and rescaled
# proportionally when the experiment runs on a different grid, so desk-scale
# runs see the same relative blur.
REFERENCE_GRID = 200
REFERENCE_KERNEL_SIZE = 61
REFERENCE_KERNEL_SIGMA = 20.0

# The four synthetic scenarios, as configuration text over the defaults:
# scene 1 (T-shape) or 2 (lungs) at high SNR on the fine mesh (a) or at low
# SNR on the coarse mesh (b).
_PRESETS = {
    "ex1a": "",
    "ex1b": "[degrade]\nmesh = COARSE\nsnr_db = -5",
    "ex2a": "[scene]\nkind = LUNG",
    "ex2b": "[scene]\nkind = LUNG\n[degrade]\nmesh = COARSE\nsnr_db = -5",
}
PRESET_NAMES = tuple(_PRESETS)


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
            _check_gaussian(self._kernel_size(), self.blur_sigma)  # taps are built at run time
            self.srr_config()  # step size and iterations
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 <= self.alpha_srr < math.inf:
            raise ConfigError(f"alpha_srr must be >= 0 and finite, got {self.alpha_srr}")

    def resolved_kernel(self) -> Kernel:
        return gaussian_kernel(self._kernel_size(), self.blur_sigma)

    def _kernel_size(self) -> int:
        size = self.kernel_size
        if size == 0:
            size = max(1, round(REFERENCE_KERNEL_SIZE * self.grid / REFERENCE_GRID))
            if size % 2 == 0:
                size += 1
        limit = 2 * self.grid - 1
        if size > limit:
            raise ConfigError(f"kernel size {size} does not fit a {self.grid}x{self.grid} grid")
        return size

    @property
    def blur_sigma(self) -> float:
        """The sigma of ``resolved_kernel`` in pixels of the grid."""
        if self.kernel_sigma == 0:
            return REFERENCE_KERNEL_SIGMA * self.grid / REFERENCE_GRID
        return self.kernel_sigma

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


# [scene] and [flow] keys set fields of the config's part of that name (its
# SceneSpec and FlowParams), the other sections fields of ExperimentConfig.
_PARTS = ("scene", "flow")

# (section, key) -> (parser, field, note); the defaults text lists the keys
# in this order, each with its note as the comment.
_SCHEMA = {
    ("scene", "kind"): (_parse_choice((T_SHAPE, LUNG)), "kind", "T_SHAPE or LUNG"),
    ("scene", "frames"): (int, "frames", ""),
    ("scene", "background"): (float, "background", "body value"),
    ("scene", "inclusion"): (float, "inclusion", "object value"),
    ("scene", "motion_variance"): (float, "motion_variance",
                                   "per-step variance of the position walk"),
    ("scene", "motion_bound"): (float, "motion_bound", "positions are clipped to [-bound, bound]"),
    ("scene", "seed"): (int, "rng_seed", ""),
    ("degrade", "mesh"): (_parse_choice((FINE, COARSE)), "mesh_density",
                          "FINE (1024 elements) or COARSE (256)"),
    ("degrade", "snr_db"): (float, "snr_db", ""),
    ("degrade", "seed"): (int, "degrade_seed", ""),
    ("srr", "mu"): (float, "mu", "gradient step size"),
    ("srr", "k_iters"): (int, "k_iters", "correction iterations per frame"),
    ("srr", "alpha"): (float, "alpha_srr", "smoothness weight"),
    ("srr", "grid"): (int, "grid", "square intermediate grid side"),
    ("srr", "kernel_size"): (int, "kernel_size",
                             f"0 = scale {REFERENCE_KERNEL_SIZE} at grid {REFERENCE_GRID}"),
    ("srr", "kernel_sigma"): (float, "kernel_sigma",
                              f"0 = scale {REFERENCE_KERNEL_SIGMA:g} px at grid {REFERENCE_GRID}"),
    ("flow", "lambda"): (float, "lam", "smoothness weight of the flow energy"),
    ("flow", "pyramid_levels"): (int, "pyramid_levels", ""),
    ("flow", "pyramid_spacing"): (float, "pyramid_spacing", ""),
    ("flow", "iterations_per_level"): (int, "iterations_per_level", ""),
    ("flow", "warps_per_level"): (int, "warps_per_level", ""),
    ("run", "output_dir"): (str.strip, "output_dir", "empty: no artifacts written"),
}


def default_config_text() -> str:
    """The full default configuration (the ex1a preset), with comments."""
    lines = ["# Default experiment configuration. Omitted keys keep these values."]
    current = None
    for (section, key), (_, field, note) in _SCHEMA.items():
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        value = getattr(getattr(_DEFAULTS, section) if section in _PARTS else _DEFAULTS, field)
        line = f"{key} = {value:g}" if isinstance(value, float) else f"{key} = {value}"
        lines.append(f"{line:<24} # {note}" if note else line)
    return "\n".join(lines) + "\n"


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
    fields: dict[str, dict] = {s: {} for s in ("", *_PARTS)}
    for (section, key), value in values.items():
        fields[section if section in _PARTS else ""][_SCHEMA[(section, key)][1]] = value
    try:
        parts = {s: replace(getattr(base, s), **fields[s]) for s in _PARTS}
        return replace(base, **parts, **fields[""])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def preset(name: str) -> ExperimentConfig:
    """The named scenario of ``PRESET_NAMES``; ConfigError for any other name."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return parse_config(_PRESETS[name])
