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

The grid rows alone fix the row bands of a correction
(``ObservationModel.bands``): two from ``operators._TWO_BAND_ROWS`` rows,
else one. A run that can fork, may use two CPUs and runs no other thread
forks one ``_bandworker.BandWorker`` (``_band_worker``) and hands it to
each ``srr_step``, which then gives it the bottom band. A step given no
worker takes the bands in sequence. The worker changes speed, not bits.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MeshError
from .flow import FlowField
from .grid import GridImage
from .operators import ObservationModel, warp_image

_DIVERGENCE_FACTOR = 10.0


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
    """Start from ``model.kernel.apply`` of the first observation.

    Applying the acquisition blur to the first upsampled observation keeps
    smooth inputs unchanged (constants are preserved) while suppressing
    observation noise that the fixed-step correction iterations would
    otherwise carry across many frames.
    """
    x = model.kernel.apply(y_up0.data)
    x.flags.writeable = False
    return SrrState(x_hat=GridImage(x), costs=())


def srr_step(state: SrrState, y_up_t: GridImage, flow_t: FlowField,
             cfg: SrrConfig, model: ObservationModel, worker=None) -> SrrState:
    """Process one frame: predict by warping, then K correction iterations.

    ``flow_t`` must register the previous frame onto the current one, i.e.
    ``warp_image(x_hat, flow_t)`` tracks frame t. Given ``worker``, from
    ``_band_worker(model)``, the step predicts into its shared ``x``, where
    it takes the bottom band, bits unchanged. Raises DivergenceError, naming
    the iteration, when a cost is non-finite or exceeds 10x its initial value.
    """
    if y_up_t.data.shape != model.shape:
        h, w = model.shape
        raise MeshError(f"observation {y_up_t.width}x{y_up_t.height} does not "
                        f"match the model grid {w}x{h}")
    y_means, y_rest = model.reduce(y_up_t.data)
    x = np.multiply(warp_image(state.x_hat, flow_t).data, model.inside,
                    out=None if worker is None else worker.x)
    if worker is None:
        costs = _correct(model.bands(), x, y_means, y_rest, cfg)
    else:
        x, costs = worker.correct(y_means, y_rest, cfg)
    x.flags.writeable = False
    return SrrState(x_hat=GridImage(x), costs=tuple(costs))


def _correct(bands, x: np.ndarray, y_means: np.ndarray, y_rest: float,
             cfg: SrrConfig, meet=None) -> list[float]:
    """The K correction iterations of the rows of x that ``bands`` cover, in
    place; returns the costs. Each writes its part, one cost is assembled
    from all parts, the residual is lifted once over the union of the bands'
    ``window``s, and each updates its rows. ``meet``, given when a worker
    takes the other band, returns once both processes have reached it; the
    bits are those of one process taking the grid's bands in sequence."""
    costs: list[float] = []
    window = slice(bands[0].window.start, bands[-1].window.stop)
    for it in range(cfg.k_iters + 1):
        for band in bands:
            band.write(x)
        if meet is not None:
            meet()
        cost, residual = bands[0].cost(y_means, y_rest)
        if not np.isfinite(cost):
            raise DivergenceError(f"non-finite cost {cost} at iteration {it}")
        costs.append(cost)
        if it == cfg.k_iters:
            break
        if it > 0 and costs[0] > 0 and cost > _DIVERGENCE_FACTOR * costs[0]:
            raise DivergenceError(
                f"cost grew beyond {_DIVERGENCE_FACTOR}x its initial value at "
                f"iteration {it} ({cost:.3e} vs {costs[0]:.3e}); reduce the step size")
        lifted = bands[0].lift(residual, window)
        for band in bands:
            step = band.gradient(lifted, window.start)
            step *= cfg.mu
            own = x[band.rows]
            own -= step
            own *= band.inside
        if meet is not None:
            meet()
    return costs


def _band_worker(model: ObservationModel):
    """The ``_bandworker.BandWorker`` that a run hands to each ``srr_step``
    on ``model`` to take the bottom of two row bands, when ``os.fork``
    exists, the process may run on two CPUs or more, runs no other thread,
    loads an OpenBLAS whose thread count can be held to one and can fork;
    else None, and each step takes both bands."""
    affinity = getattr(os, "sched_getaffinity", None)
    if (len(model.bands()) < 2 or not hasattr(os, "fork")
            or affinity is None or len(affinity(0)) < 2
            or threading.active_count() > 1):  # a fork copies only this thread
        return None
    from . import _bandworker  # imported only by a run that may fork
    blas = _bandworker.openblas_threads()
    if not blas:
        return None
    try:
        return _bandworker.BandWorker(model, blas)
    except OSError:  # no process could be forked: the parent takes both bands
        return None
