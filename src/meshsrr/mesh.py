"""Triangular-mesh images and the resampling operators that connect them
to uniform rasters.

A mesh image stores one scalar per triangle of a fixed mesh over the
normalized square [-1, 1]^2. ``build_pixel_assignment`` locates every raster
pixel center inside the mesh once; ``upsample`` and ``downsample`` then
realize sifting to the uniform grid and per-element averaging back to the
mesh. Their composition, the mesh-averaging projection P, is applied by
``operators.ObservationModel``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .grid import GridImage, pixel_centers

# Marker for raster pixels whose center lies outside every element.
OUTSIDE = -1

# Tolerance for the sign-of-cross-product point-in-triangle test, in
# normalized coordinates. Centers within this margin of an edge count as
# inside, so centers on shared edges are claimed by the lowest-index element;
# only centers beyond it count as strictly inside when checking for overlaps.
POINT_IN_TRIANGLE_TOL = 1e-12

_AREA_EPS = 1e-14
_DOMAIN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class FemMesh:
    """Triangulation of a subset of [-1, 1]^2.

    nodes: (n_nodes, 2) float coordinates.
    elements: (n_elements, 3) node indices, counter-clockwise.
    """

    nodes: np.ndarray
    elements: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64, copy=True)
        elements = np.array(self.elements, dtype=np.int64, copy=True)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 3:
            raise MeshError(f"nodes must be (n, 2) with n >= 3, got {nodes.shape}")
        if elements.ndim != 2 or elements.shape[1] != 3 or elements.shape[0] < 1:
            raise MeshError(f"elements must be (m, 3) with m >= 1, got {elements.shape}")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("node coordinates contain non-finite values")
        if np.abs(nodes).max() > 1.0 + _DOMAIN_EPS:
            raise MeshError("node coordinates must lie in [-1, 1]^2; rescale the mesh before loading")
        if elements.min() < 0 or elements.max() >= nodes.shape[0]:
            raise MeshError("element node index out of range")
        nodes.flags.writeable = False
        elements.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        areas = self.signed_areas()
        if np.any(areas <= _AREA_EPS):
            bad = int(np.flatnonzero(areas <= _AREA_EPS)[0])
            raise MeshError(
                f"element {bad} is degenerate or clockwise (signed area {areas[bad]:.3e}); "
                "elements must be counter-clockwise with positive area")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def signed_areas(self) -> np.ndarray:
        a = self.nodes[self.elements[:, 0]]
        b = self.nodes[self.elements[:, 1]]
        c = self.nodes[self.elements[:, 2]]
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


@dataclass(frozen=True, eq=False)
class FemImage:
    """One scalar value per element of a FemMesh."""

    mesh: FemMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True).ravel()
        if vals.shape[0] != self.mesh.n_elements:
            raise MeshError(
                f"value count {vals.shape[0]} does not match element count {self.mesh.n_elements}")
        if not np.all(np.isfinite(vals)):
            raise MeshError("element values contain non-finite entries")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


class PixelAssignment:
    """Precomputed pixel-to-element map for one (mesh, grid) pair.

    ``pixel_to_element[j, i]`` holds the element index circumscribing pixel
    (i, j), or OUTSIDE, and ``element_counts[e]`` the number of member pixels
    of element e. Element sums are ``bincount`` reductions over the pixels in
    row-major order, which fixes the reduction order of every average.
    Instances are immutable and safe to share across threads.
    """

    def __init__(self, mesh: FemMesh, pixel_to_element: np.ndarray):
        self.mesh = mesh
        pe = np.array(pixel_to_element, dtype=np.int64, copy=True)
        pe.flags.writeable = False
        self.pixel_to_element = pe
        self.height, self.width = pe.shape
        self._inside = pe >= 0
        self._inside.flags.writeable = False
        counts = np.bincount(pe[self._inside], minlength=mesh.n_elements)
        counts.flags.writeable = False
        self.element_counts = counts

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    def inside_mask(self) -> np.ndarray:
        """Boolean (height, width) mask of pixels assigned to some element."""
        return self._inside


def _cross_margin(px: np.ndarray, py: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Smallest of the three edge cross products of a CCW triangle at the
    points: >= 0 on the closed triangle, > 0 strictly inside."""
    margin = None
    for k in range(3):
        ax, ay = tri[k]
        bx, by = tri[(k + 1) % 3]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        margin = cross if margin is None else np.minimum(margin, cross)
    return margin


def build_pixel_assignment(mesh: FemMesh, width: int, height: int) -> PixelAssignment:
    """Assign every pixel center of a width x height grid to its element.

    Pixels on shared edges go to the lowest-index element whose closed
    triangle contains the center; pixels outside every element are OUTSIDE.
    Raises MeshError when a center lies strictly inside two elements.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
    if mesh.n_elements == 0:
        raise MeshError("mesh has no elements")
    xs = pixel_centers(width)
    ys = pixel_centers(height)
    pix = np.full((height, width), OUTSIDE, dtype=np.int64)
    interior = np.zeros((height, width), dtype=bool)
    pad = POINT_IN_TRIANGLE_TOL + 1e-9
    for e in range(mesh.n_elements):
        tri = mesh.nodes[mesh.elements[e]]
        i0 = int(np.searchsorted(xs, tri[:, 0].min() - pad))
        i1 = int(np.searchsorted(xs, tri[:, 0].max() + pad))
        j0 = int(np.searchsorted(ys, tri[:, 1].min() - pad))
        j1 = int(np.searchsorted(ys, tri[:, 1].max() + pad))
        if i0 >= i1 or j0 >= j1:
            continue
        margin = _cross_margin(xs[i0:i1][None, :], ys[j0:j1][:, None], tri)
        strict = margin > POINT_IN_TRIANGLE_TOL
        seen = interior[j0:j1, i0:i1]
        overlap = strict & seen
        if overlap.any():
            j, i = np.argwhere(overlap)[0]
            raise MeshError(f"element {e} overlaps an earlier element: the pixel center "
                            f"({xs[i0 + i]:.6g}, {ys[j0 + j]:.6g}) lies inside both")
        seen |= strict
        block = pix[j0:j1, i0:i1]
        block[(margin >= -POINT_IN_TRIANGLE_TOL) & (block == OUTSIDE)] = e
    return PixelAssignment(mesh, pix)


def _check_match(img_mesh: FemMesh, assignment: PixelAssignment) -> None:
    if img_mesh is assignment.mesh:
        return
    same = (img_mesh.n_nodes == assignment.mesh.n_nodes
            and img_mesh.n_elements == assignment.mesh.n_elements
            and np.array_equal(img_mesh.nodes, assignment.mesh.nodes)
            and np.array_equal(img_mesh.elements, assignment.mesh.elements))
    if not same:
        raise MeshError("image mesh does not match the mesh the assignment was built from")


def upsample(img: FemImage, assignment: PixelAssignment) -> GridImage:
    """Sift the mesh image onto the uniform grid.

    Each assigned pixel receives the value of its circumscribing element;
    OUTSIDE pixels are padded with zeros.
    """
    _check_match(img.mesh, assignment)
    lookup = np.concatenate([img.values, [0.0]])
    idx = np.where(assignment.pixel_to_element >= 0,
                   assignment.pixel_to_element, assignment.n_elements)
    return GridImage(lookup[idx])


def downsample(img: GridImage, assignment: PixelAssignment) -> FemImage:
    """Average the grid image over each element's member pixels.

    Elements with no member pixel get value 0 and are reported through a
    warning; they contribute nothing downstream.
    """
    if (img.height, img.width) != (assignment.height, assignment.width):
        raise MeshError(
            f"image {img.width}x{img.height} does not match assignment grid "
            f"{assignment.width}x{assignment.height}")
    flat = img.data.ravel()
    pe = assignment.pixel_to_element.ravel()
    inside = pe >= 0
    sums = np.bincount(pe[inside], weights=flat[inside],
                       minlength=assignment.n_elements)
    counts = assignment.element_counts
    empty = counts == 0
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=~empty)
    if np.any(empty):
        warnings.warn(
            f"{int(empty.sum())} mesh element(s) contain no pixel center at "
            f"{assignment.width}x{assignment.height}; their values are set to 0",
            stacklevel=2)
    return FemImage(assignment.mesh, values)
