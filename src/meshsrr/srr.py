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
alpha; ``srr_init``, ``srr_step`` and ``run_sequence`` take it with the
step size and iteration count of ``SrrConfig``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MeshError
from .flow import FlowField
from .grid import GridImage
from .operators import ObservationModel, convolve_neumann, warp_image

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
    x = warp_image(state.x_hat, flow_t).data * model.inside
    y_means, y_rest = model.reduce(y_up_t.data)
    costs: list[float] = []
    for it in range(cfg.k_iters + 1):
        cost, smooth, residual = model.terms(x, y_means, y_rest)
        if not np.isfinite(cost):
            raise DivergenceError(f"non-finite cost {cost} at iteration {it}")
        costs.append(cost)
        if it == cfg.k_iters:
            break
        if it > 0 and costs[0] > 0 and cost > _DIVERGENCE_FACTOR * costs[0]:
            raise DivergenceError(
                f"cost grew beyond {_DIVERGENCE_FACTOR}x its initial value at "
                f"iteration {it} ({cost:.3e} vs {costs[0]:.3e}); reduce the step size")
        step = model.half_gradient(smooth, residual)
        step *= cfg.mu
        x -= step
        x *= model.inside
    return SrrState(x_hat=GridImage(x), costs=tuple(costs))


def run_sequence(y_ups: list[GridImage], flows: list[FlowField], cfg: SrrConfig,
                 model: ObservationModel) -> list[SrrState]:
    """Fold the recursion over upsampled observations and return every state.

    Frame 0 is processed with zero flow and frame t >= 1 with
    ``flows[t - 1]``, which registers frame t - 1 onto frame t. An error
    raised by a step gains the note "frame t".
    """
    if not y_ups:
        raise ValueError("observation sequence is empty")
    if len(flows) != len(y_ups) - 1:
        raise ValueError(f"expected {len(y_ups) - 1} flows, got {len(flows)}")
    state = srr_init(y_ups[0], model)
    states: list[SrrState] = []
    h, w = model.shape
    for t, (y, flow) in enumerate(zip(y_ups, [FlowField.zeros(w, h), *flows])):
        try:
            state = srr_step(state, y, flow, cfg, model)
        except Exception as exc:
            exc.add_note(f"frame {t}")
            raise
        states.append(state)
    return states
