"""Independent brute-force reference implementations used as test oracles.

Everything here is written against the operator definitions directly (index
loops, explicit reflection maps, dense matrices) and deliberately avoids the
code paths of the package under test; the oracles read only its data (mesh
nodes and elements, ``pixel_map``, flow components). The exceptions
are test-only helpers built on the package: ``pixel_map`` (each pixel's
element, from the assignment's ``lift``), ``boundary`` (the boundary
points of ``metrics._edge``), ``compose_flows`` (which samples through
the warp's bilinear gather), ``band_terms`` (the SRR correction's cost and
gradient as one row band over the whole grid), ``power_iteration_norm``
(which applies the operator through it), ``dct_diagonal`` (the DCT-II form
of the blur and the Laplacian, fed the package's eigenvalues) and the
pixel-level SRR reference (``PixelObservationModel``,
``pixel_run_sequence``), which shares those eigenvalues, the warp and the
initial smoothing. ``traced_peak`` is a measurement helper, not an oracle.
"""
import gc
import tracemalloc

import numpy as np
from scipy import fft


def traced_peak(make):
    """``make()`` and the traced memory peak in bytes while it ran, counting
    only what it allocated (its output included), not its inputs."""
    gc.collect()
    tracemalloc.start()
    try:
        out = make()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reflect_index(t: int, n: int) -> int:
    """Symmetric extension without skipping the edge sample: pad(-1) = pixel(0)."""
    period = 2 * n
    t = t % period
    return t if t < n else period - 1 - t


def brute_force_assignment(mesh, width: int, height: int) -> np.ndarray:
    """Pixel-to-element map by testing every (pixel, element) pair: a center
    is in the first CCW element none of whose three edge cross products
    (b - a) x (p - a) is below -1e-12. Each grid row tests all its centers
    against all elements at once."""
    tri = mesh.nodes[mesh.elements]
    x = -1.0 + (np.arange(width)[:, None] + 0.5) * 2.0 / width
    out = np.full((height, width), -1, dtype=np.int64)
    for j in range(height):
        y = -1.0 + (j + 0.5) * 2.0 / height
        inside = np.ones((width, len(tri)), dtype=bool)
        for k in range(3):
            ax, ay = tri[:, k, 0], tri[:, k, 1]
            bx, by = tri[:, (k + 1) % 3, 0], tri[:, (k + 1) % 3, 1]
            inside &= ~((bx - ax) * (y - ay) - (by - ay) * (x - ax) < -1e-12)
        out[j] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    return out


def brute_force_convolve(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Direct correlation with the reflected-index boundary extension."""
    h, w = img.shape
    size = taps.shape[0]
    p = size // 2
    out = np.zeros_like(img)
    for j in range(h):
        for i in range(w):
            acc = 0.0
            for s in range(-p, p + 1):
                for t in range(-p, p + 1):
                    acc += taps[s + p, t + p] * img[reflect_index(j + s, h),
                                                    reflect_index(i + t, w)]
            out[j, i] = acc
    return out


def dense_blur_matrix(taps: np.ndarray, width: int, height: int) -> np.ndarray:
    """Explicit matrix of the boundary-extended correlation, row-major pixels."""
    n = width * height
    size = taps.shape[0]
    p = size // 2
    mat = np.zeros((n, n))
    for j in range(height):
        for i in range(width):
            row = j * width + i
            for s in range(-p, p + 1):
                for t in range(-p, p + 1):
                    jj = reflect_index(j + s, height)
                    ii = reflect_index(i + t, width)
                    mat[row, jj * width + ii] += taps[s + p, t + p]
    return mat


def dct_diagonal(data: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """An operator the orthonormal DCT-II diagonalizes, applied to the images
    in the last two axes of ``data`` as weights between transforms: the
    reflecting-boundary blur with ``_blur_eigenvalues``, the Laplacian with
    ``_stencil_eigenvalues``."""
    axes = (-2, -1)
    return fft.idctn(eigenvalues * fft.dctn(data, axes=axes, norm="ortho"),
                     axes=axes, norm="ortho")


def dense_laplacian_matrix(width: int, height: int) -> np.ndarray:
    stencil = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
    return dense_blur_matrix(stencil, width, height)


def dense_projection_matrix(assignment) -> np.ndarray:
    """Mesh-averaging projection: rows of assigned pixels average their
    element's member pixels; rows of outside pixels are zero."""
    h, w = assignment.height, assignment.width
    n = w * h
    mat = np.zeros((n, n))
    pe = pixel_map(assignment).ravel()
    for row in range(n):
        e = pe[row]
        if e < 0:
            continue
        members = np.flatnonzero(pe == e)
        mat[row, members] = 1.0 / len(members)
    return mat


def pixel_map(assignment) -> np.ndarray:
    """The (height, width) element of each pixel, ``mesh.OUTSIDE`` for none:
    the element indices, then OUTSIDE for the outside bin, lifted."""
    from meshsrr.mesh import OUTSIDE
    return assignment.lift(np.append(np.arange(assignment.mesh.n_elements), OUTSIDE))


def overlapping_points(mesh, samples: int = 4096, seed: int = 0,
                       margin: float = 1e-9) -> int:
    """How many of ``samples`` random points over the mesh bounding box lie
    inside two or more elements, each by more than ``margin``: a
    probabilistic overlap check that is 0 for a valid triangulation."""
    rng = np.random.default_rng(seed)
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    px, py = (lo + rng.random((samples, 2)) * (hi - lo)).T
    hits = np.zeros(samples, dtype=np.int64)
    for tri in mesh.nodes[mesh.elements]:
        inside = np.ones(samples, dtype=bool)
        for k in range(3):
            (ax, ay), (bx, by) = tri[k], tri[(k + 1) % 3]
            inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) > margin
        hits += inside
    return int((hits > 1).sum())


def dense_warp_matrix(flow, width: int, height: int) -> np.ndarray:
    """Bilinear backward-warp matrix with clamped sampling."""
    n = width * height
    mat = np.zeros((n, n))
    for j in range(height):
        for i in range(width):
            row = j * width + i
            sx = min(max(i + flow.u[j, i], 0.0), width - 1.0)
            sy = min(max(j + flow.v[j, i], 0.0), height - 1.0)
            x0 = int(np.floor(sx))
            y0 = int(np.floor(sy))
            x1 = min(x0 + 1, width - 1)
            y1 = min(y0 + 1, height - 1)
            fx = sx - x0
            fy = sy - y0
            mat[row, y0 * width + x0] += (1 - fx) * (1 - fy)
            mat[row, y0 * width + x1] += fx * (1 - fy)
            mat[row, y1 * width + x0] += (1 - fx) * fy
            mat[row, y1 * width + x1] += fx * fy
    return mat


def boundary(mask: np.ndarray) -> np.ndarray:
    """Boundary point set of a boolean mask in normalized coordinates,
    shape (n, 2): the centers of the pixels of ``metrics._edge``, the set
    pixels with an unset 4-neighbor or on the image border."""
    from meshsrr.grid import pixel_centers
    from meshsrr.metrics import _edge
    js, iis = np.nonzero(_edge(mask))
    h, w = mask.shape
    return np.column_stack([pixel_centers(w)[iis], pixel_centers(h)[js]])


def directed_boundary_distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Per-point minimal Euclidean distances from pa to pb, by explicit loops."""
    out = np.empty(pa.shape[0])
    for i in range(pa.shape[0]):
        best = np.inf
        for k in range(pb.shape[0]):
            dx = pa[i, 0] - pb[k, 0]
            dy = pa[i, 1] - pb[k, 1]
            d = np.sqrt(dx * dx + dy * dy)
            if d < best:
                best = d
        out[i] = best
    return out


def brute_force_hausdorff(pa: np.ndarray, pb: np.ndarray) -> float:
    d_ab = directed_boundary_distances(pa, pb)
    d_ba = directed_boundary_distances(pb, pa)
    return float(max(d_ab.max(), d_ba.max()))


def brute_force_masd(pa: np.ndarray, pb: np.ndarray) -> float:
    d_ab = directed_boundary_distances(pa, pb)
    d_ba = directed_boundary_distances(pb, pa)
    return float(0.5 * (np.mean(d_ab) + np.mean(d_ba)))


def random_mask_pair(rng: np.random.Generator, max_side: int = 32):
    """Two random non-empty boolean masks on a shared grid up to max_side."""
    w = int(rng.integers(4, max_side + 1))
    h = int(rng.integers(4, max_side + 1))
    while True:
        a = rng.random((h, w)) < rng.uniform(0.05, 0.6)
        b = rng.random((h, w)) < rng.uniform(0.05, 0.6)
        if a.any() and b.any():
            return a, b


def compose_flows(f_ab, f_bc):
    """Chain two fields: f_ac(p) = f_bc(p) + f_ab(p + f_bc(p)).

    ``f_ab`` is sampled bilinearly with clamped borders, matching the warp
    operator, so warping by the composite equals warping twice.
    """
    from meshsrr.flow import FlowField
    from meshsrr.operators import _bilinear_gather
    if (f_ab.height, f_ab.width) != (f_bc.height, f_bc.width):
        raise ValueError("flow fields have mismatched shapes")
    h, w = f_bc.height, f_bc.width
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    sx = ii + f_bc.u
    sy = jj + f_bc.v
    return FlowField(f_bc.u + _bilinear_gather(f_ab.u, sx, sy),
                     f_bc.v + _bilinear_gather(f_ab.v, sx, sy))


def _flow_energy(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                u: np.ndarray, v: np.ndarray, lam: float) -> float:
    """Discrete energy of the linearized data term plus smoothness."""
    data = float(((ix * u + iy * v + c) ** 2).sum())
    smooth = float(((u[..., 1:, :] - u[..., :-1, :]) ** 2).sum()
                   + ((u[..., 1:] - u[..., :-1]) ** 2).sum()
                   + ((v[..., 1:, :] - v[..., :-1, :]) ** 2).sum()
                   + ((v[..., 1:] - v[..., :-1]) ** 2).sum())
    return data + lam * smooth


def dense_flow_solve(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                     lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The minimizer (u, v) of ``_flow_energy`` on one (height, width) grid,
    by a direct solve of its normal equations ``(G'G + lam E'E) x = -G'c``.
    G holds the per-pixel rows ``(ix, iy)`` and E the +1/-1 rows of the
    4-neighbor edges, each entry assembled explicitly. The matrix is stored
    sparse, because a dense 100x100 system would take 3.2 GB; the solve is
    an exact LU factorization all the same."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve
    h, w = ix.shape
    n = h * w
    idx = np.arange(n).reshape(h, w)
    p = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
    q = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    rows = np.tile(np.arange(p.size), 2)
    e = sparse.csr_matrix((np.repeat([1.0, -1.0], p.size), (rows, np.concatenate([p, q]))),
                          shape=(p.size, n))
    g = sparse.hstack([sparse.diags(ix.ravel()), sparse.diags(iy.ravel())])
    smooth = sparse.block_diag([e.T @ e, e.T @ e])
    x = spsolve((g.T @ g + lam * smooth).tocsc(), -(g.T @ c.ravel()))
    return x[:n].reshape(h, w), x[n:].reshape(h, w)


def band_terms(model, x: np.ndarray, y_means: np.ndarray, y_rest: float):
    """The cost at x against ``model.reduce(y)``, the element residual r and
    the model's correction as one row band over the whole grid, whose
    ``gradient(lift(r))`` is ``B' P r + alpha S' S x`` on every pixel."""
    from meshsrr.operators import _RowBand
    band = _RowBand(model, slice(0, model.shape[0]), np.empty((1, model._counts.size + 1)), 0)
    band.write(x)
    cost, residual = band.cost(y_means, y_rest)
    return cost, residual, band


def power_iteration_norm(assignment, kernel, alpha: float, iterations: int = 30,
                         seed: int = 0) -> float:
    """Largest eigenvalue of B' P B + alpha * S' S on the assignment's grid by
    power iteration, which approaches it from below."""
    from meshsrr.operators import ObservationModel
    model = ObservationModel(assignment, kernel, alpha)
    shape = (assignment.height, assignment.width)
    target = model.reduce(np.zeros(shape))
    x = np.random.default_rng(seed).standard_normal(shape)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iterations):
        _, residual, band = band_terms(model, x, *target)
        y = band.gradient(band.lift(residual))
        lam = float(np.linalg.norm(y))
        if lam == 0:
            return 0.0
        x = y / lam
    return lam


class PixelObservationModel:
    """The SRR cost and gradient worked on pixels: the residual
    ``P B x - y`` on the assigned pixels, with P applied as a bincount and a
    gather both to B x and again to the residual in the gradient. It is the
    reference for the element-level ``ObservationModel``."""

    def __init__(self, assignment, kernel, alpha: float):
        from meshsrr.operators import _blur_eigenvalues, _stencil_eigenvalues
        h, w = assignment.height, assignment.width
        self.outside = ~assignment.inside_mask()
        self._blur = _blur_eigenvalues(kernel, h, w)
        stencil = _stencil_eigenvalues(h, w)
        self._smooth = alpha * stencil * stencil
        pe = pixel_map(assignment).ravel()
        self._pixels = np.flatnonzero(pe >= 0)
        self._elements = pe[self._pixels]
        counts = assignment.element_counts
        self._inv_counts = np.divide(1.0, counts, out=np.zeros(counts.shape),
                                     where=counts > 0)

    def _project(self, values: np.ndarray) -> np.ndarray:
        sums = np.bincount(self._elements, weights=values,
                           minlength=self._inv_counts.size)
        return (sums * self._inv_counts)[self._elements]

    def terms(self, x: np.ndarray, y: np.ndarray):
        coeffs = fft.dctn(x, norm="ortho")
        blurred = fft.idctn(self._blur * coeffs, norm="ortho").ravel()
        residual = self._project(blurred[self._pixels]) - y.ravel()[self._pixels]
        cost = float(residual @ residual) + float((self._smooth * coeffs * coeffs).sum())
        return cost, coeffs, residual

    def half_gradient(self, coeffs: np.ndarray, residual: np.ndarray) -> np.ndarray:
        projected = np.zeros(self._blur.size)
        projected[self._pixels] = self._project(residual)
        projected = fft.dctn(projected.reshape(self._blur.shape), norm="ortho")
        return fft.idctn(self._blur * projected + self._smooth * coeffs, norm="ortho")


def pixel_run_sequence(y_ups, flows, cfg, assignment, kernel, alpha: float):
    """The run's SRR fold (``srr_init``, then one ``srr_step`` per frame,
    frame 0 with zero flow) on ``PixelObservationModel``, without the
    divergence guards: the final estimate and cost history of every frame."""
    from meshsrr.flow import FlowField
    from meshsrr.grid import GridImage
    from meshsrr.operators import warp_image
    model = PixelObservationModel(assignment, kernel, alpha)
    x_hat = GridImage(kernel.apply(y_ups[0].data))
    zero = FlowField.zeros(assignment.width, assignment.height)
    out = []
    for y, flow in zip(y_ups, [zero, *flows]):
        x = warp_image(x_hat, flow).data.copy()
        x[model.outside] = 0.0
        costs = []
        for it in range(cfg.k_iters + 1):
            cost, coeffs, residual = model.terms(x, y.data)
            costs.append(cost)
            if it == cfg.k_iters:
                break
            x -= cfg.mu * model.half_gradient(coeffs, residual)
            x[model.outside] = 0.0
        x_hat = GridImage(x)
        out.append((x, tuple(costs)))
    return out
