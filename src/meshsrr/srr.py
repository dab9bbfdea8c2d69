"""Recursive least-mean-squares super-resolution.

Each incoming frame first motion-compensates the running high-resolution
estimate (predict), then runs K gradient iterations on the regularized
single-frame data-fit cost built from the blur + mesh-averaging observation
model (correct):

    cost(x) = ||y_up - P B x||^2 (over assigned pixels) + alpha * ||S x||^2
    x <- x - mu * [ B' P (P B x - y_up) + alpha * S' S x ]

where B is the blur, P the mesh-averaging projection and S the high-pass
stencil. Pixels outside the mesh are reset to zero after every iteration.
The observation is reduced to element means once per frame, and each
iteration then takes two blurs, two Laplacians and one mesh reduction.
One ``operators.ObservationModel``, built once per run, holds B, P, S and
alpha; ``srr_init`` and ``srr_step`` take it, the step with the step size
and iteration count of ``SrrConfig``. ``experiment.run_experiment`` folds
the steps over a sequence: frame 0 starts the estimate and takes its step
with zero flow.

A run on a grid of at least ``_TWO_BAND_ROWS`` rows, in a process that can
fork and may use two CPUs, takes each correction in two row bands on two
processes: ``run_experiment`` forks one ``_bandworker.BandWorker`` for the
bottom band, and ``srr_step`` runs the top band itself. The bands add their
parts of each cost in band order, so both stop at the same iteration. One
band, on smaller grids and outside a run, is the arithmetic above.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MeshError
from .flow import FlowField
from .grid import GridImage
from .operators import ObservationModel, convolve_neumann, warp_image

_DIVERGENCE_FACTOR = 10.0

# Grid rows from which a run takes its corrections in two row bands. On a
# 2-core Xeon VM, two bands took 0.63-0.82 of one band's step time at grids
# 128-200 and 0.70-0.94 at grids 96-112 (medians of 12 alternating steps of
# `ex1b` and `ex2a`).
_TWO_BAND_ROWS = 128


@dataclass(frozen=True)
class SrrConfig:
    """Solver hyperparameters: step size and inner iterations per frame."""

    mu: float
    k_iters: int

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.k_iters < 1:
            raise ValueError(f"k_iters must be >= 1, got {self.k_iters}")


@dataclass(frozen=True)
class SrrState:
    """Running estimate after a frame.

    ``costs`` holds the cost against the most recent frame before every
    correction iteration and after the last one (k_iters + 1 entries); it
    is empty until the first step.
    """

    x_hat: GridImage
    costs: tuple[float, ...]


def srr_init(y_up0: GridImage, model: ObservationModel) -> SrrState:
    """Start from a blur-matched smoothing of the first observation.

    Applying the acquisition blur to the first upsampled observation keeps
    smooth inputs unchanged (constants are preserved) while suppressing
    observation noise that the fixed-step correction iterations would
    otherwise carry across many frames.
    """
    return SrrState(x_hat=convolve_neumann(y_up0, model.kernel), costs=())


def srr_step(state: SrrState, y_up_t: GridImage, flow_t: FlowField,
             cfg: SrrConfig, model: ObservationModel) -> SrrState:
    """Process one frame: predict by warping, then K correction iterations.

    ``flow_t`` must register the previous frame onto the current one, i.e.
    ``warp_image(x_hat, flow_t)`` tracks frame t. Raises DivergenceError,
    naming the iteration, when a cost is non-finite or exceeds 10x its
    initial value.
    """
    if y_up_t.data.shape != model.shape:
        h, w = model.shape
        raise MeshError(f"observation {y_up_t.width}x{y_up_t.height} does not "
                        f"match the model grid {w}x{h}")
    worker = model._worker
    x = np.multiply(warp_image(state.x_hat, flow_t).data, model.inside,
                    out=None if worker is None else worker.x)
    y_means, y_rest = model.reduce(y_up_t.data)
    if worker is None:
        costs = _correct(model, x, y_means, y_rest, cfg)
    else:
        costs = worker.correct(y_means, y_rest, cfg)
        x = x.copy()
    x.flags.writeable = False
    return SrrState(x_hat=GridImage(x), costs=tuple(costs))


def _correct(band, x: np.ndarray, y_means: np.ndarray, y_rest: float,
             cfg: SrrConfig) -> list[float]:
    """The K correction iterations of ``band``'s rows of x, in place; returns
    the costs. ``band`` is the model, or one of its two ``_RowBand``s, which
    share x and meet after each update."""
    own, inside, meet = x[band._rows], band.inside[band._rows], band._meet
    costs: list[float] = []
    for it in range(cfg.k_iters + 1):
        cost, smooth, residual = band.terms(x, y_means, y_rest)
        if not np.isfinite(cost):
            raise DivergenceError(f"non-finite cost {cost} at iteration {it}")
        costs.append(cost)
        if it == cfg.k_iters:
            break
        if it > 0 and costs[0] > 0 and cost > _DIVERGENCE_FACTOR * costs[0]:
            raise DivergenceError(
                f"cost grew beyond {_DIVERGENCE_FACTOR}x its initial value at "
                f"iteration {it} ({cost:.3e} vs {costs[0]:.3e}); reduce the step size")
        step = band.half_gradient(smooth, residual)
        step *= cfg.mu
        own -= step
        own *= inside
        if meet is not None:
            meet()
    return costs


def _band_worker(model: ObservationModel):
    """The ``_bandworker.BandWorker`` that takes the bottom row band of a
    run's corrections on ``model``, when its grid has at least
    ``_TWO_BAND_ROWS`` rows, ``os.fork`` exists, the process may run on two
    CPUs or more and runs no other thread, and ``_bandworker.start`` finds an
    OpenBLAS it can hold to one thread and can fork; else None."""
    affinity = getattr(os, "sched_getaffinity", None)
    if (model.shape[0] < _TWO_BAND_ROWS or not hasattr(os, "fork")
            or affinity is None or len(affinity(0)) < 2
            or threading.active_count() > 1):  # a fork copies only this thread
        return None
    from . import _bandworker  # imported only by a run that may take two bands
    return _bandworker.start(model)
