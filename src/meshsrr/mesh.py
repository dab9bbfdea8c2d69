"""Triangular-mesh images and the resampling operators that connect them
to uniform rasters.

A mesh image stores one scalar per triangle of a fixed mesh over the
normalized square [-1, 1]^2. ``build_pixel_assignment`` locates every raster
pixel center inside the mesh once; the resulting ``PixelAssignment`` holds
the mesh-averaging projection P as per-element averaging (``means``) and
sifting back to the pixels (``lift``). ``downsample`` and ``upsample`` apply
them to mesh and grid images, and ``operators.ObservationModel`` to arrays.
"""
from __future__ import annotations

import math
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
    """Precomputed pixel-to-element map for one (mesh, grid) pair, and the
    mesh-averaging projection P = ``lift(means(x))`` on it.

    ``pixel_to_element[j, i]`` holds the element index circumscribing pixel
    (i, j), or OUTSIDE, and ``element_counts[e]`` the number of member pixels
    of element e; element values carry an extra last bin for OUTSIDE pixels.
    Element sums are ``bincount`` reductions over the pixels in row-major
    order, which fixes the reduction order of every average. Instances are
    immutable and safe to share across threads.
    """

    def __init__(self, mesh: FemMesh, pixel_to_element: np.ndarray):
        """Takes ownership of the int64 ``pixel_to_element`` and freezes it."""
        self.mesh = mesh
        pixel_to_element.flags.writeable = False
        self.pixel_to_element = pixel_to_element
        self.height, self.width = pixel_to_element.shape
        self._inside = pixel_to_element >= 0
        self._inside.flags.writeable = False
        self._bins = np.where(self._inside, pixel_to_element, mesh.n_elements).ravel()
        counts = np.bincount(self._bins, minlength=mesh.n_elements + 1)
        counts[-1] = 0
        counts.flags.writeable = False
        self.element_counts = counts[:-1]
        # Empty bins (the outside one too) divide by 1, then read 0 whatever their sum.
        self._divisors = np.maximum(counts, 1.0)
        self._empty = np.flatnonzero(counts == 0)

    def inside_mask(self) -> np.ndarray:
        """Boolean (height, width) mask of pixels assigned to some element."""
        return self._inside

    def means(self, values: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """Element means of a (height, width) array, then 0 for the outside
        bin; an element with no member pixel gets 0. With ``rows``, a slice
        with a start and a stop, ``values`` holds only those rows of the grid
        and each element's sum over them is divided by its whole pixel count,
        so the means of disjoint row bands add up to the means of the grid."""
        bins = self._bins if rows is None else self._bins[rows.start * self.width:
                                                          rows.stop * self.width]
        means = np.bincount(bins, values.ravel(), self._divisors.size)
        means /= self._divisors
        means[self._empty] = 0.0
        return means

    def lift(self, values: np.ndarray) -> np.ndarray:
        """Element values (outside bin last) on their (height, width) pixels."""
        return values[self._bins].reshape(self.height, self.width)


# Candidate centers per pass of ``build_pixel_assignment``: the bounding boxes
# of whole elements (at least one), each padded to the largest in the pass.
_PASS_PIXELS = 1 << 16


def build_pixel_assignment(mesh: FemMesh, width: int, height: int) -> PixelAssignment:
    """Assign every pixel center of a width x height grid to its element.

    Pixels on shared edges go to the lowest-index element whose closed
    triangle contains the center; pixels outside every element are OUTSIDE.
    Raises MeshError when a center lies strictly inside two elements, naming
    the first such element and its first such center in row-major order.

    Elements test their bounding-box centers in vectorized passes, in
    element order: the least edge cross product (b - a) x (p - a) is >= -tol
    on the closed triangle, > tol strictly inside. Each pass scatters its
    elements into two minima per center: the least element whose closed
    triangle holds it (the map) and the least that holds it strictly. A
    strict center whose least strict holder is an earlier element overlaps.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
    n = mesh.n_elements
    # The maps come first, so that a grid too large for memory is refused by
    # its area before any array sized by its side is built.
    closed = np.full(height * width, n)
    strict = np.full(height * width, n)
    xs, ys = pixel_centers(width), pixel_centers(height)
    tri = mesh.nodes[mesh.elements]  # (n, corner a, xy)
    edge = np.roll(tri, -1, axis=1) - tri  # b - a, b the next corner
    pad = POINT_IN_TRIANGLE_TOL + 1e-9
    lo, hi = tri.min(axis=1) - pad, tri.max(axis=1) + pad
    i0, i1 = np.searchsorted(xs, lo[:, 0]), np.searchsorted(xs, hi[:, 0])
    j0, j1 = np.searchsorted(ys, lo[:, 1]), np.searchsorted(ys, hi[:, 1])
    # A pass pads each box to its largest; the padding reads NaN, which no
    # test accepts.
    xs, ys = np.append(xs, np.nan), np.append(ys, np.nan)
    box = max(int((i1 - i0).max()), 1) * max(int((j1 - j0).max()), 1)
    per = max(_PASS_PIXELS // box, 1)
    work = np.empty((2, per * box))
    for s in range(0, n, per):
        e = slice(s, s + per)
        cols = i0[e, None] + np.arange(int((i1[e] - i0[e]).max()))
        rows = j0[e, None] + np.arange(max(int((j1[e] - j0[e]).max()), 1))
        px = xs[np.where(cols < i1[e, None], cols, width)][:, None, :]
        py = ys[np.where(rows < j1[e, None], rows, height)][:, :, None]
        shape = (len(rows), rows.shape[1], cols.shape[1])
        margin, cross = (w[:math.prod(shape)].reshape(shape) for w in work)
        for corner in range(3):
            a, d = tri[e, corner, :, None, None], edge[e, corner, :, None, None]
            np.subtract(d[:, 0] * (py - a[:, 1]), d[:, 1] * (px - a[:, 0]),
                        out=cross if corner else margin)
            if corner:
                np.minimum(margin, cross, out=margin)
        # Candidates in element, then row-major pixel order.
        hit = np.flatnonzero(margin >= -POINT_IN_TRIANGLE_TOL)
        pixel = (rows[:, :, None] * width + cols[:, None, :]).ravel()[hit]
        el = s + hit // math.prod(shape[1:])
        np.minimum.at(closed, pixel, el)
        inner = margin.ravel()[hit] > POINT_IN_TRIANGLE_TOL
        el, pixel = el[inner], pixel[inner]
        np.minimum.at(strict, pixel, el)
        # Passes run in element order, so the first to find an overlap holds
        # the first element with one, and its first entry names it.
        overlap = np.flatnonzero(strict[pixel] < el)
        if overlap.size:
            j, i = divmod(int(pixel[overlap[0]]), width)
            raise MeshError(f"element {el[overlap[0]]} overlaps an earlier element: the pixel "
                            f"center ({xs[i]:.6g}, {ys[j]:.6g}) lies inside both")
    del strict  # freed before the assignment builds its bins
    closed[closed == n] = OUTSIDE
    return PixelAssignment(mesh, closed.reshape(height, width))


def _check_match(img_mesh: FemMesh, assignment: PixelAssignment) -> None:
    if not (np.array_equal(img_mesh.nodes, assignment.mesh.nodes)
            and np.array_equal(img_mesh.elements, assignment.mesh.elements)):
        raise MeshError("image mesh does not match the mesh the assignment was built from")


def upsample(img: FemImage, assignment: PixelAssignment) -> GridImage:
    """Sift the mesh image onto the uniform grid.

    Each assigned pixel receives the value of its circumscribing element;
    OUTSIDE pixels are padded with zeros.
    """
    _check_match(img.mesh, assignment)
    out = assignment.lift(np.append(img.values, 0.0))
    out.flags.writeable = False
    return GridImage(out)


def downsample(img: GridImage, assignment: PixelAssignment) -> FemImage:
    """Average the grid image over each element's member pixels.

    Elements with no member pixel get value 0 and are reported through a
    warning; they contribute nothing downstream.
    """
    if (img.height, img.width) != (assignment.height, assignment.width):
        raise MeshError(
            f"image {img.width}x{img.height} does not match assignment grid "
            f"{assignment.width}x{assignment.height}")
    _warn_empty_elements(assignment, stacklevel=2)
    return FemImage(assignment.mesh, assignment.means(img.data)[:-1])


def _warn_empty_elements(assignment: PixelAssignment, stacklevel: int) -> None:
    """Warn when elements of the assignment hold no pixel center, naming the
    frame ``stacklevel`` calls up from the caller: 1 is the caller, 2 its
    caller."""
    empty = int((assignment.element_counts == 0).sum())
    if empty:
        warnings.warn(f"{empty} mesh element(s) contain no pixel center at "
                      f"{assignment.width}x{assignment.height}; their values are set to 0",
                      stacklevel=stacklevel + 1)
