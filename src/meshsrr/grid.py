"""Scalar raster images on the normalized [-1, 1]^2 domain."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class GridImage:
    """Scalar image on a regular width x height grid.

    Pixel (i, j) (column i, row j) is centered at
    ``(pixel_centers(width)[i], pixel_centers(height)[j])``.
    Values are stored row-major as ``data[j, i]``. The array is copied on
    construction, validated to be finite, and frozen, so instances are safe
    to share.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image data must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"image contains a non-finite value at flat index {bad}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def pixel_centers(n: int) -> np.ndarray:
    """Centers of ``n`` equal pixels spanning [-1, 1], in index order; the
    one pixel-center rule of every grid in the package."""
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


def require_same_shape(a: GridImage, b: GridImage, what: str = "images") -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{what} have mismatched shapes {a.data.shape} vs {b.data.shape}")
