"""Scalar raster images on the normalized [-1, 1]^2 domain."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class GridImage:
    """Scalar image on a regular width x height grid.

    Pixel (i, j) (column i, row j) is centered at
    ``(pixel_centers(width)[i], pixel_centers(height)[j])``.
    Values are stored row-major as ``data[j, i]``. The array is taken by
    ``read_only``, so a producer that freezes its fresh array hands it over
    without a copy, and validated to be finite; instances are safe to share.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = read_only(self.data)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image data must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"image contains a non-finite value at flat index {bad}")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def read_only(a) -> np.ndarray:
    """``a`` as a read-only float64 array for ``GridImage`` and ``FlowField``:
    a read-only float64 array is kept, as its producer has given it up;
    anything else is copied (C-ordered) and frozen."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        return a
    a = np.array(a, dtype=np.float64, order="C", copy=True)
    a.flags.writeable = False
    return a


def pixel_centers(n: int) -> np.ndarray:
    """Centers of ``n`` equal pixels spanning [-1, 1], in index order; the
    one pixel-center rule of every grid in the package."""
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
