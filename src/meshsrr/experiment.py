"""End-to-end experiment harness: render, degrade, register, reconstruct,
score, and write deterministic artifacts."""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .errors import ConfigError, EmptyBoundaryError
from .fileio import emit_images, write_mesh, write_values
from .flow import horn_schunck_sequence
from .grid import GridImage
from .mesh import FemImage, build_pixel_assignment, upsample
from .metrics import MetricsReport, evaluate_sequence
from .operators import ObservationModel
from .phantoms import degrade, disc_mesh, render_scene, scene_flows
from .srr import run_sequence


@dataclass(frozen=True)
class ExperimentResult:
    """What one run returns; ``upsample`` lifts an observation onto the
    grid. ``stage_seconds`` is described at ``run_experiment``."""

    lr_metrics: MetricsReport
    srr_metrics: MetricsReport
    observations: tuple[FemImage, ...]
    srr_frames: tuple[GridImage, ...]
    cost_histories: tuple[tuple[float, ...], ...]
    elapsed_seconds: float
    stage_seconds: dict[str, float]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one full experiment for the motion mode selected by the config.

    Writes frames and metric tables under the config's ``output_dir`` when
    set. A step size with ``mu * L >= 1``, L an upper bound on the largest
    eigenvalue of the correction operator, is refused with ConfigError before
    any frame is rendered. A frame whose binarized image is empty cannot be
    scored and is refused with ConfigError naming the sequence. On failure a
    partially written directory is renamed with a ``.partial`` suffix before
    the error propagates.

    No high-resolution or upsampled frame is kept: each stage that reads
    them takes a fresh generator that renders frame t (``render_scene``) or
    lifts observation t (``upsample``) when it is reached. So a run holds per
    frame only its observation and its outputs, apart from the upsampled
    frames that estimated-motion registration holds while it solves. Each
    frame is rendered 3 times (degrading and the two scorings) and lifted
    twice (the SRR fold and LR scoring); the artifact writes add one of
    each, and estimated motion one lift for registration.

    ``stage_seconds`` holds the wall time of each stage: assignment, render,
    degrade, flow, srr, metrics and write. ``render`` is the first render of
    every frame; a later render or lift counts toward the stage that reads
    the frame.
    """
    t0 = clock = time.perf_counter()
    stages: dict[str, float] = {}

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stages[stage] = stages.get(stage, 0.0) + now - clock
        clock = now

    out = Path(cfg.output_dir) if cfg.output_dir else None

    n = cfg.grid
    scene = cfg.scene
    mesh = disc_mesh(cfg.mesh_density)
    assignment = build_pixel_assignment(mesh, n, n)
    kernel = cfg.resolved_kernel()
    model = ObservationModel(assignment, kernel, cfg.alpha_srr)
    mu_l = cfg.mu * model.norm_bound()
    if not mu_l < 1.0:
        raise ConfigError(f"step size mu = {cfg.mu:g} gives mu * L = {mu_l:.4g}; "
                          "it must be below 1 for the cost to decrease")
    lap("assignment")

    lr: list[FemImage] = []

    def truths():
        return (render_scene(scene, t, n, n) for t in range(scene.frames))

    def ups():
        return (upsample(obs, assignment) for obs in lr)

    for t, x_hr in enumerate(truths()):
        lap("render")
        try:
            lr.append(degrade(x_hr, assignment, kernel, cfg.snr_db,
                              cfg.degrade_seed, frame=t))
        except Exception as exc:
            exc.add_note(f"frame {t}")
            raise
        lap("degrade")

    # Registration reads every frame up to three times; a list lifts each once.
    flows = (scene_flows(scene, n, n) if cfg.known_motion
             else horn_schunck_sequence(list(ups()), cfg.flow))
    lap("flow")
    states = run_sequence(ups(), flows, cfg.srr_config(), model)
    srr_frames = [s.x_hat for s in states]
    lap("srr")

    lr_metrics = _score("LR", truths(), ups())
    srr_metrics = _score("SRR", truths(), srr_frames)
    lap("metrics")

    if out is not None:
        try:
            _write_artifacts(out, mesh, truths(), lr, ups(), srr_frames,
                             lr_metrics, srr_metrics)
        except Exception:
            _mark_partial(out)
            raise
    lap("write")

    return ExperimentResult(
        lr_metrics=lr_metrics,
        srr_metrics=srr_metrics,
        observations=tuple(lr),
        srr_frames=tuple(srr_frames),
        cost_histories=tuple(s.costs for s in states),
        elapsed_seconds=time.perf_counter() - t0,
        stage_seconds=stages,
    )


def _score(label: str, truths, estimates) -> MetricsReport:
    try:
        return evaluate_sequence(truths, estimates)
    except EmptyBoundaryError as exc:
        raise ConfigError("; ".join([f"{label} sequence cannot be scored: {exc}",
                                     *getattr(exc, "__notes__", ())])) from exc


def _write_artifacts(out: Path, mesh, hr, lr, up, srr_frames,
                     lr_metrics: MetricsReport, srr_metrics: MetricsReport) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_mesh(mesh, out / "mesh.txt")
    emit_images(hr, out, prefix="hr")
    emit_images(up, out, prefix="up")
    emit_images(srr_frames, out, prefix="srr")
    for t, obs in enumerate(lr):
        write_values(obs.values, out / f"lr_t{t:03d}.vals")
    (out / "metrics_lr.csv").write_text(lr_metrics.to_csv())
    (out / "metrics_srr.csv").write_text(srr_metrics.to_csv())


def _mark_partial(out: Path) -> None:
    if not out.exists():
        return
    target = out.with_name(out.name + ".partial")
    try:
        if target.exists():
            marker = out / "PARTIAL"
            marker.write_text("experiment failed before completion\n")
        else:
            out.rename(target)
    except OSError:
        pass
