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
from .flow import FlowField, FlowParams, horn_schunck_sequence
from .grid import GridImage
from .mesh import FemImage, PixelAssignment, build_pixel_assignment, upsample
from .operators import Kernel, ObservationModel, convolve_neumann, warp_image

_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class SrrConfig:
    """Solver hyperparameters: step size, inner iterations per frame,
    regularization weight, grid size and blur kernel."""

    mu: float = 0.01
    k_iters: int = 100
    alpha_srr: float = 0.3
    grid: tuple[int, int] = (200, 200)
    kernel: Kernel = None

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.k_iters < 1:
            raise ValueError(f"k_iters must be >= 1, got {self.k_iters}")
        if not 0 <= self.alpha_srr < np.inf:
            raise ValueError(f"alpha_srr must be >= 0 and finite, got {self.alpha_srr}")
        w, h = self.grid
        if w < 3 or h < 3:
            raise ValueError(f"grid must be at least 3x3, got {w}x{h}")
        if self.kernel is None:
            raise ValueError("an explicit blur kernel is required")


@dataclass(frozen=True)
class SrrState:
    """Running estimate after processing ``frame_index`` frames.

    ``last_cost`` is NaN until the first step; afterwards it equals the cost
    of ``x_hat`` against the most recent frame.
    """

    x_hat: GridImage
    frame_index: int
    last_cost: float


def srr_init(y_up0: GridImage, cfg: SrrConfig) -> SrrState:
    """Start from a blur-matched smoothing of the first observation.

    Applying the acquisition blur to the first upsampled observation keeps
    smooth inputs unchanged (constants are preserved) while suppressing
    observation noise that the fixed-step correction iterations would
    otherwise carry across many frames.
    """
    w, h = cfg.grid
    if (y_up0.width, y_up0.height) != (w, h):
        raise ValueError(
            f"observation {y_up0.width}x{y_up0.height} does not match configured grid {w}x{h}")
    return SrrState(x_hat=convolve_neumann(y_up0, cfg.kernel),
                    frame_index=0, last_cost=float("nan"))


def srr_step(state: SrrState, y_up_t: GridImage, flow_t: FlowField,
             cfg: SrrConfig, assignment: PixelAssignment,
             cost_history: list[float] | None = None) -> SrrState:
    """Process one frame: predict by warping, then K correction iterations.

    ``flow_t`` must register the previous frame onto the current one, i.e.
    ``warp_image(x_hat, flow_t)`` tracks frame t. When ``cost_history`` is
    given it receives the cost before every iteration and the final cost
    (k_iters + 1 entries). Raises DivergenceError when a cost is non-finite
    or exceeds 10x its initial value.
    """
    w, h = cfg.grid
    if (y_up_t.width, y_up_t.height) != (w, h):
        raise ValueError("observation does not match configured grid")
    if (assignment.width, assignment.height) != (w, h):
        raise MeshError("pixel assignment does not match configured grid")
    frame = state.frame_index
    model = ObservationModel(assignment, cfg.kernel, cfg.alpha_srr)
    outside = ~assignment.inside_mask()
    x = warp_image(state.x_hat, flow_t).data.copy()
    x[outside] = 0.0
    y = y_up_t.data
    initial = None
    for it in range(cfg.k_iters + 1):
        cost, coeffs, residual = model.terms(x, y)
        if not np.isfinite(cost):
            raise DivergenceError(f"non-finite cost {cost}", iteration=it, frame=frame)
        if cost_history is not None:
            cost_history.append(cost)
        if it == cfg.k_iters:
            break
        if initial is None:
            initial = cost
        elif initial > 0 and cost > _DIVERGENCE_FACTOR * initial:
            raise DivergenceError(
                f"cost grew beyond {_DIVERGENCE_FACTOR}x its initial value "
                f"({cost:.3e} vs {initial:.3e}); reduce the step size",
                iteration=it, frame=frame)
        x -= cfg.mu * model.half_gradient(coeffs, residual)
        x[outside] = 0.0
    return SrrState(x_hat=GridImage(x), frame_index=frame + 1, last_cost=cost)


def run_sequence(observations: list[FemImage], cfg: SrrConfig,
                 flow_params: FlowParams,
                 known_flows: list[FlowField] | None = None,
                 assignment: PixelAssignment | None = None,
                 cost_histories: list[list[float]] | None = None) -> list[GridImage]:
    """Fold the recursion over a frame sequence and return every estimate.

    All observations must share one mesh. Frame 0 is processed with zero
    flow; later frames use ``known_flows[t - 1]`` when provided, otherwise
    the flows are estimated up front from consecutive upsampled images
    (they depend only on the observations). Appends one
    per-frame cost history to ``cost_histories`` when given.
    """
    if not observations:
        raise ValueError("observation sequence is empty")
    mesh = observations[0].mesh
    for t, o in enumerate(observations[1:], start=1):
        if o.mesh is not mesh:
            raise MeshError(f"observation {t} uses a different mesh; the mesh must be fixed")
    if known_flows is not None and len(known_flows) != len(observations) - 1:
        raise ValueError(
            f"expected {len(observations) - 1} known flows, got {len(known_flows)}")
    w, h = cfg.grid
    if assignment is None:
        assignment = build_pixel_assignment(mesh, w, h)
    y_ups = [upsample(o, assignment) for o in observations]
    if known_flows is None:
        known_flows = horn_schunck_sequence(y_ups, flow_params)
    flows = [FlowField.zeros(w, h), *known_flows]
    state = srr_init(y_ups[0], cfg)
    results: list[GridImage] = []
    for t, (y, flow) in enumerate(zip(y_ups, flows)):
        history: list[float] | None = [] if cost_histories is not None else None
        try:
            state = srr_step(state, y, flow, cfg, assignment, cost_history=history)
        except DivergenceError:
            raise
        except Exception as exc:
            exc.add_note(f"frame {t}")
            raise
        if cost_histories is not None:
            cost_histories.append(history)
        results.append(state.x_hat)
    return results


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
