"""Independent brute-force reference implementations used as test oracles.

Everything here is written against the operator definitions directly (index
loops, explicit reflection maps, dense matrices) and deliberately avoids the
code paths of the package under test; the oracles read only its data (mesh
nodes and elements, ``pixel_to_element``, flow components). The exceptions
are test-only helpers built on the package: ``random_mask_pair`` (which
returns ``BinaryMask`` pairs), ``compose_flows`` (which samples through
the warp's bilinear gather) and ``power_iteration_norm`` (which applies the
operator through ``ObservationModel``).
"""
import numpy as np


def reflect_index(t: int, n: int) -> int:
    """Symmetric extension without skipping the edge sample: pad(-1) = pixel(0)."""
    period = 2 * n
    t = t % period
    return t if t < n else period - 1 - t


def point_in_triangle(px: float, py: float, tri: np.ndarray, tol: float = 1e-12) -> bool:
    """Closed test for CCW triangles via the three edge cross products."""
    for k in range(3):
        ax, ay = tri[k]
        bx, by = tri[(k + 1) % 3]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -tol:
            return False
    return True


def brute_force_assignment(mesh, width: int, height: int) -> np.ndarray:
    """Pixel-to-element map by testing every (pixel, element) pair."""
    out = np.full((height, width), -1, dtype=np.int64)
    for j in range(height):
        y = -1.0 + (j + 0.5) * 2.0 / height
        for i in range(width):
            x = -1.0 + (i + 0.5) * 2.0 / width
            for e in range(mesh.n_elements):
                if point_in_triangle(x, y, mesh.nodes[mesh.elements[e]]):
                    out[j, i] = e
                    break
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


def dense_laplacian_matrix(width: int, height: int) -> np.ndarray:
    stencil = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
    return dense_blur_matrix(stencil, width, height)


def dense_projection_matrix(assignment) -> np.ndarray:
    """Mesh-averaging projection: rows of assigned pixels average their
    element's member pixels; rows of outside pixels are zero."""
    h, w = assignment.height, assignment.width
    n = w * h
    mat = np.zeros((n, n))
    pe = assignment.pixel_to_element.ravel()
    for row in range(n):
        e = pe[row]
        if e < 0:
            continue
        members = np.flatnonzero(pe == e)
        mat[row, members] = 1.0 / len(members)
    return mat


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
    """Two random non-empty masks on a shared grid up to max_side."""
    from meshsrr.metrics import BinaryMask
    w = int(rng.integers(4, max_side + 1))
    h = int(rng.integers(4, max_side + 1))
    while True:
        a = rng.random((h, w)) < rng.uniform(0.05, 0.6)
        b = rng.random((h, w)) < rng.uniform(0.05, 0.6)
        if a.any() and b.any():
            return BinaryMask(a), BinaryMask(b)


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


def _neighbor_sums(f: np.ndarray) -> np.ndarray:
    s = np.zeros_like(f)
    s[..., 1:, :] += f[..., :-1, :]
    s[..., :-1, :] += f[..., 1:, :]
    s[..., :, 1:] += f[..., :, :-1]
    s[..., :, :-1] += f[..., :, 1:]
    return s


def _neighbor_counts(h: int, w: int) -> np.ndarray:
    n = np.full((h, w), 4.0)
    n[0, :] -= 1
    n[-1, :] -= 1
    n[:, 0] -= 1
    n[:, -1] -= 1
    return n


def _flow_energy(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                u: np.ndarray, v: np.ndarray, lam: float) -> float:
    """Discrete energy of the linearized data term plus smoothness."""
    data = float(((ix * u + iy * v + c) ** 2).sum())
    smooth = float(((u[..., 1:, :] - u[..., :-1, :]) ** 2).sum()
                   + ((u[..., 1:] - u[..., :-1]) ** 2).sum()
                   + ((v[..., 1:, :] - v[..., :-1, :]) ** 2).sum()
                   + ((v[..., 1:] - v[..., :-1]) ** 2).sum())
    return data + lam * smooth


def full_grid_red_black_flow(ix: np.ndarray, iy: np.ndarray, c: np.ndarray,
                             u0: np.ndarray, v0: np.ndarray, lam: float,
                             iterations: int,
                             energies: list[float] | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Red-black Gauss-Seidel over the whole grid with boolean color masks:
    every half-sweep computes both colors and keeps the active one. Leading
    axes hold independent problems."""
    h, w = ix.shape[-2:]
    u = u0.copy()
    v = v0.copy()
    n = _neighbor_counts(h, w)
    denom = lam * n + ix * ix + iy * iy
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    colors = ((ii + jj) % 2 == 0, (ii + jj) % 2 == 1)
    if energies is not None:
        energies.append(_flow_energy(ix, iy, c, u, v, lam))
    for _ in range(iterations):
        for color in colors:
            ubar = _neighbor_sums(u) / n
            vbar = _neighbor_sums(v) / n
            d = ix * ubar + iy * vbar + c
            u[..., color] = (ubar - ix * d / denom)[..., color]
            v[..., color] = (vbar - iy * d / denom)[..., color]
        if energies is not None:
            energies.append(_flow_energy(ix, iy, c, u, v, lam))
    return u, v


def power_iteration_norm(assignment, kernel, alpha: float, iterations: int = 30,
                         seed: int = 0) -> float:
    """Largest eigenvalue of B' P B + alpha * S' S on the assignment's grid by
    power iteration, which approaches it from below."""
    from meshsrr.operators import ObservationModel
    model = ObservationModel(assignment, kernel, alpha)
    shape = (assignment.height, assignment.width)
    zeros = np.zeros(shape)
    x = np.random.default_rng(seed).standard_normal(shape)
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
