"""End-to-end experiment harness: render, degrade, register, reconstruct,
score, and write deterministic artifacts."""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .errors import ConfigError
from .fileio import emit_images, write_mesh, write_values
from .flow import FlowField, horn_schunck_sequence
from .grid import GridImage
from .mesh import FemImage, build_pixel_assignment, upsample
from .metrics import MetricsReport, evaluate_sequence
from .operators import ObservationModel
from .phantoms import T_SHAPE, degrade, disc_mesh, render_scene, tshape_centers
from .srr import run_sequence


@dataclass(frozen=True)
class ExperimentResult:
    lr_metrics: MetricsReport
    srr_metrics: MetricsReport
    up_frames: tuple[GridImage, ...]
    srr_frames: tuple[GridImage, ...]
    cost_histories: tuple[tuple[float, ...], ...]
    elapsed_seconds: float


def known_motion_flows(cfg: ExperimentConfig,
                       hr_frames: list[GridImage]) -> list[FlowField]:
    """Ground-truth-side motion for the prediction step.

    For the translating shape the analytic inter-frame translation is used
    directly; for the breathing scene (whose motion is not a global
    translation) the flow is estimated from the clean full-resolution frames
    instead of from the observations.
    """
    n = cfg.grid
    if cfg.scene.kind == T_SHAPE:
        centers = tshape_centers(cfg.scene)
        flows = []
        for t in range(1, cfg.scene.frames):
            dx, dy = (centers[t - 1] - centers[t]) * (n / 2.0)
            flows.append(FlowField.constant(n, n, dx, dy))
        return flows
    return horn_schunck_sequence(hr_frames, cfg.flow)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one full experiment for the motion mode selected by the config.

    Writes frames and metric tables under the config's ``output_dir`` when
    set. A step size with ``mu * L >= 1``, L an upper bound on the largest
    eigenvalue of the correction operator, is refused with ConfigError before
    any frame is rendered. On failure a partially written directory is
    renamed with a ``.partial`` suffix before the error propagates.
    """
    t0 = time.perf_counter()
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
    hr = [render_scene(scene, t, n, n) for t in range(scene.frames)]
    lr: list[FemImage] = []
    for t in range(scene.frames):
        try:
            lr.append(degrade(hr[t], assignment, kernel, cfg.snr_db,
                              cfg.degrade_seed, frame=t))
        except Exception as exc:
            exc.add_note(f"frame {t}")
            raise
    up = [upsample(o, assignment) for o in lr]

    flows = (known_motion_flows(cfg, hr) if cfg.known_motion
             else horn_schunck_sequence(up, cfg.flow))
    states = run_sequence(up, flows, cfg.srr_config(), model)
    srr_frames = [s.x_hat for s in states]

    lr_metrics = evaluate_sequence(hr, up)
    srr_metrics = evaluate_sequence(hr, srr_frames)

    if out is not None:
        try:
            _write_artifacts(out, mesh, hr, lr, up, srr_frames,
                             lr_metrics, srr_metrics)
        except Exception:
            _mark_partial(out)
            raise

    return ExperimentResult(
        lr_metrics=lr_metrics,
        srr_metrics=srr_metrics,
        up_frames=tuple(up),
        srr_frames=tuple(srr_frames),
        cost_histories=tuple(s.costs for s in states),
        elapsed_seconds=time.perf_counter() - t0,
    )


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
