"""End-to-end experiment harness: one loop over frames that renders,
degrades, lifts, registers, reconstructs, scores and writes deterministic
artifacts, frame by frame."""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from . import srr
from .config import ExperimentConfig
from .errors import ConfigError, EmptyBoundaryError
from .fileio import write_mesh, write_pgm16, write_values
from .flow import FlowField, fit_pyramid, horn_schunck
from .grid import GridImage
from .mesh import FemImage, _warn_empty_elements, build_pixel_assignment, upsample
from .metrics import FrameMetrics, MetricsReport, evaluate_pair
from .operators import ObservationModel
from .phantoms import degrade, disc_mesh, render_scene, scene_flows


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

    A step size with ``mu * L >= 1``, L an upper bound on the largest
    eigenvalue of the correction operator, is refused with ConfigError before
    any frame is rendered. Then one loop takes each frame in turn: it renders
    frame t, degrades it into observation t and lifts that onto the grid. The
    flow comes from the scene (known motion) or from registering lifted
    observation t against lifted observation t - 1 (estimated motion), and
    is zero at t = 0, where the observation also starts the estimate. The
    loop then takes the SRR step, scores the LR and SRR pairs and writes
    frame t's files when the config's ``output_dir`` is set. So a frame is
    rendered and lifted once, and a run holds per frame only its observation
    and outputs, plus the previous lifted observation for registration. On a
    large grid the run forks one worker (see ``srr``), hands it to each SRR
    step and kills and reaps it before it returns or raises.
    Mesh elements that hold no pixel center are reported by one warning
    after the step-size check; then ``artifact_dirs`` may refuse
    ``output_dir``, before any directory or worker is made.

    The files go to ``output_dir`` + ``.partial``, which one rename after the
    metric tables makes ``output_dir``, so a run ended in any way before then
    leaves its frames under ``.partial`` only. An error while frame t is made,
    registered, stepped, scored or written gains the note "frame t", so errors
    surface in frame order. A frame whose binarized image is empty is refused
    with ConfigError naming the sequence (LR or SRR).

    ``stage_seconds`` holds the wall time of each stage's own calls:
    assignment, render, degrade, flow, srr (with the lift), metrics and write.
    """
    t0 = clock = time.perf_counter()
    stages = dict.fromkeys(("assignment", "render", "degrade", "flow", "srr",
                            "metrics", "write"), 0.0)

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stages[stage] += now - clock
        clock = now

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
    _warn_empty_elements(assignment, stacklevel=2)  # averaging sets their values to 0
    out, partial = artifact_dirs(cfg.output_dir) if cfg.output_dir else (None, None)
    srr_cfg = cfg.srr_config()
    lap("assignment")

    if cfg.known_motion:
        flows = scene_flows(scene, n, n)
    else:
        flow_params = fit_pyramid(cfg.flow, n, n)

    lr: list[FemImage] = []
    states: list[srr.SrrState] = []
    lr_scores, srr_scores = [], []
    worker = srr._band_worker(model)
    lap("srr")
    try:
        if out is not None:
            partial.mkdir(parents=True, exist_ok=True)
            write_mesh(mesh, partial / "mesh.txt")
            lap("write")
        try:
            for t in range(scene.frames):
                x_hr = render_scene(scene, t, n, n)
                lap("render")
                obs = degrade(x_hr, assignment, kernel, cfg.snr_db, cfg.degrade_seed, frame=t)
                lr.append(obs)
                lap("degrade")
                y = upsample(obs, assignment)
                lap("srr")
                if t == 0:
                    flow = FlowField.zeros(n, n)
                elif cfg.known_motion:
                    flow = next(flows)
                else:
                    flow = horn_schunck(y, y_prev, flow_params, cfg.blur_sigma)
                y_prev = y
                lap("flow")
                state = srr.srr_step(states[-1] if states else srr.srr_init(y, model),
                                     y, flow, srr_cfg, model, worker)
                states.append(state)
                lap("srr")
                lr_scores.append(_score("LR", x_hr, y))
                srr_scores.append(_score("SRR", x_hr, state.x_hat))
                lap("metrics")
                if out is not None:
                    for prefix, img in (("hr", x_hr), ("up", y), ("srr", state.x_hat)):
                        write_pgm16(img, partial / f"{prefix}_t{t:03d}.pgm")
                    write_values(obs.values, partial / f"lr_t{t:03d}.vals")
                    lap("write")
        except Exception as exc:
            exc.add_note(f"frame {t}")
            raise
    finally:
        if worker is not None:
            worker.close()
    lr_metrics = MetricsReport(tuple(lr_scores))
    srr_metrics = MetricsReport(tuple(srr_scores))
    if out is not None:
        (partial / "metrics_lr.csv").write_text(lr_metrics.to_csv())
        (partial / "metrics_srr.csv").write_text(srr_metrics.to_csv())
        partial.replace(out)  # rename(2) also takes the place of an empty directory
    lap("write")

    return ExperimentResult(
        lr_metrics=lr_metrics,
        srr_metrics=srr_metrics,
        observations=tuple(lr),
        srr_frames=tuple(s.x_hat for s in states),
        cost_histories=tuple(s.costs for s in states),
        elapsed_seconds=time.perf_counter() - t0,
        stage_seconds=stages,
    )


def artifact_dirs(output_dir: str) -> tuple[Path, Path]:
    """``output_dir`` and the ``.partial`` sibling that a run writes into.
    OSError refuses a path with no name of its own (``.``, ``..``, ``/``)
    and either directory when it holds files."""
    out = Path(output_dir)
    if out.name in ("", ".."):
        raise OSError(f"artifact directory {output_dir!r} has no name of its own")
    dirs = out, out.with_name(out.name + ".partial")
    for path in dirs:
        if path.exists() and any(path.iterdir()):
            raise OSError(f"artifact directory {path} is not empty")
    return dirs


def _score(label: str, truth: GridImage, estimate: GridImage) -> FrameMetrics:
    try:
        return evaluate_pair(truth, estimate)
    except EmptyBoundaryError as exc:
        raise ConfigError(f"{label} sequence cannot be scored: {exc}") from exc

