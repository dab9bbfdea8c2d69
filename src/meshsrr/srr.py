"""Recursive least-mean-squares super-resolution.

Each incoming frame first motion-compensates the running high-resolution
estimate (predict), then runs K gradient iterations on the regularized
single-frame data-fit cost built from the blur + mesh-averaging observation
model (correct):

    cost(x) = ||y_up - P B x||^2 (over assigned pixels) + alpha * ||S x||^2
    x <- x - mu * [ B' P (P B x - y_up) + alpha * S' S x ]

where B is the blur, P the mesh-averaging projection and S the high-pass
stencil. Pixels outside the mesh are reset to zero after every iteration.
The cost and gradient come from ``operators.ObservationModel``, which
applies B and S'S in the DCT domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MeshError
from .flow import FlowField
from .grid import GridImage
from .mesh import PixelAssignment
from .operators import Kernel, ObservationModel, convolve_neumann, warp_image

_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class SrrConfig:
    """Solver hyperparameters: step size, inner iterations per frame,
    regularization weight and blur kernel."""

    mu: float
    k_iters: int
    alpha_srr: float
    kernel: Kernel

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.k_iters < 1:
            raise ValueError(f"k_iters must be >= 1, got {self.k_iters}")
        if not 0 <= self.alpha_srr < np.inf:
            raise ValueError(f"alpha_srr must be >= 0 and finite, got {self.alpha_srr}")


@dataclass(frozen=True)
class SrrState:
    """Running estimate after processing ``frame_index`` frames.

    ``costs`` holds the cost against the most recent frame before every
    correction iteration and after the last one (k_iters + 1 entries); it
    is empty until the first step.
    """

    x_hat: GridImage
    frame_index: int
    costs: tuple[float, ...]


def srr_init(y_up0: GridImage, cfg: SrrConfig) -> SrrState:
    """Start from a blur-matched smoothing of the first observation.

    Applying the acquisition blur to the first upsampled observation keeps
    smooth inputs unchanged (constants are preserved) while suppressing
    observation noise that the fixed-step correction iterations would
    otherwise carry across many frames.
    """
    return SrrState(x_hat=convolve_neumann(y_up0, cfg.kernel), frame_index=0, costs=())


def srr_step(state: SrrState, y_up_t: GridImage, flow_t: FlowField,
             cfg: SrrConfig, assignment: PixelAssignment) -> SrrState:
    """Process one frame: predict by warping, then K correction iterations.

    ``flow_t`` must register the previous frame onto the current one, i.e.
    ``warp_image(x_hat, flow_t)`` tracks frame t. Raises DivergenceError
    when a cost is non-finite or exceeds 10x its initial value.
    """
    if y_up_t.data.shape != assignment.pixel_to_element.shape:
        raise MeshError(
            f"observation {y_up_t.width}x{y_up_t.height} does not match the "
            f"assignment grid {assignment.width}x{assignment.height}")
    frame = state.frame_index
    model = ObservationModel(assignment, cfg.kernel, cfg.alpha_srr)
    outside = ~assignment.inside_mask()
    x = warp_image(state.x_hat, flow_t).data.copy()
    x[outside] = 0.0
    y = y_up_t.data
    costs: list[float] = []
    for it in range(cfg.k_iters + 1):
        cost, coeffs, residual = model.terms(x, y)
        if not np.isfinite(cost):
            raise DivergenceError(f"non-finite cost {cost}", iteration=it, frame=frame)
        costs.append(cost)
        if it == cfg.k_iters:
            break
        if it > 0 and costs[0] > 0 and cost > _DIVERGENCE_FACTOR * costs[0]:
            raise DivergenceError(
                f"cost grew beyond {_DIVERGENCE_FACTOR}x its initial value "
                f"({cost:.3e} vs {costs[0]:.3e}); reduce the step size",
                iteration=it, frame=frame)
        x -= cfg.mu * model.half_gradient(coeffs, residual)
        x[outside] = 0.0
    return SrrState(x_hat=GridImage(x), frame_index=frame + 1, costs=tuple(costs))


def run_sequence(y_ups: list[GridImage], flows: list[FlowField], cfg: SrrConfig,
                 assignment: PixelAssignment) -> list[SrrState]:
    """Fold the recursion over upsampled observations and return every state.

    Frame 0 is processed with zero flow and frame t >= 1 with
    ``flows[t - 1]``, which registers frame t - 1 onto frame t. An error
    raised by a step gains the note "frame t".
    """
    if not y_ups:
        raise ValueError("observation sequence is empty")
    if len(flows) != len(y_ups) - 1:
        raise ValueError(f"expected {len(y_ups) - 1} flows, got {len(flows)}")
    state = srr_init(y_ups[0], cfg)
    states: list[SrrState] = []
    zero = FlowField.zeros(assignment.width, assignment.height)
    for t, (y, flow) in enumerate(zip(y_ups, [zero, *flows])):
        try:
            state = srr_step(state, y, flow, cfg, assignment)
        except DivergenceError:
            raise
        except Exception as exc:
            exc.add_note(f"frame {t}")
            raise
        states.append(state)
    return states


def estimate_operator_norm(assignment: PixelAssignment, kernel: Kernel,
                           alpha: float, iterations: int = 30, seed: int = 0) -> float:
    """Largest eigenvalue of B' P B + alpha * S' S on the assignment's grid,
    by power iteration.

    The cost is non-increasing over the correction iterations whenever
    mu times this value stays below 1.
    """
    model = ObservationModel(assignment, kernel, alpha)
    shape = (assignment.height, assignment.width)
    zeros = np.zeros(shape)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iterations):
        _, coeffs, residual = model.terms(x, zeros)
        y = model.half_gradient(coeffs, residual)
        lam = float(np.linalg.norm(y))
        if lam == 0:
            return 0.0
        x = y / lam
    return lam
