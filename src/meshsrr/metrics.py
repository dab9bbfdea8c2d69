"""Shape-agreement metrics between binarized images.

Images are thresholded at a fraction of their maximum, a quarter by default
(the GREIT convention: Adler et al., Physiol. Meas. 30 (2009) S35), into
boolean arrays. Boundaries are extracted as inner 4-connectivity contours,
and distances are reported in normalized domain units (pixel pitch
2 / width) so values are comparable across grid sizes. ``evaluate_pair``
scores one frame and ``evaluate_sequence`` a sequence of them.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBoundaryError
from .grid import GridImage, pixel_centers

# The binarization threshold, as a fraction of each image's maximum.
THRESHOLD_FRACTION = 0.25


def binarize(img: GridImage, fraction: float = THRESHOLD_FRACTION) -> np.ndarray:
    """The boolean (height, width) array of ``img >= fraction * max(img)``.

    A non-positive maximum yields an empty mask and a warning, since the
    threshold is undefined for such images.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    m = img.data.max()
    if m <= 0.0:
        warnings.warn("image maximum is not positive; binarized mask is empty",
                      stacklevel=2)
        return np.zeros(img.data.shape, dtype=bool)
    return img.data >= fraction * m


def _check_same_grid(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"masks have mismatched shapes {a.shape} vs {b.shape}")


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Volume overlap fraction |a and b| / |a or b|.

    Two empty masks compare as 1 (with a warning); if exactly one is empty
    the overlap is 0.
    """
    _check_same_grid(a, b)
    union = int((a | b).sum())
    if union == 0:
        warnings.warn("both masks are empty; overlap defined as 1", stacklevel=2)
        return 1.0
    return int((a & b).sum()) / union


def _edge(b: np.ndarray) -> np.ndarray:
    """Boolean raster of the boundary pixels of the mask ``b``: set pixels
    with an unset 4-neighbor or on the image border."""
    padded = np.pad(b, 1, mode="constant", constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return b & ~interior


# Table entries per block of queries or of columns: each buffer is 0.1 MB.
_QUERY_BLOCK = 12_500


def _nearest_d2(query: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared distance from each boundary pixel of ``query`` (an ``_edge``
    raster, in ``np.nonzero`` order) to the nearest one of ``target``.

    This is the per-column pass of a sampled distance transform (Felzenszwalb
    and Huttenlocher, Theory of Computing 8 (2012)). In each column, the
    target pixel nearest to row r is the next one above or below it. So two
    cumulative passes give the table ``g[r, j]`` of least squared row offsets
    (``inf`` in a column without target pixels), and a query pixel (r, c)
    takes the least ``dx * dx + g[r, j]`` over all columns. Pixel centers are
    monotone, and so is rounding, so this equals the all-pairs minimum of
    ``dx * dx + dy * dy`` bit for bit. The pass from below takes column
    blocks, each merged into ``g`` by an elementwise minimum.
    """
    h, w = target.shape
    xs = pixel_centers(w)
    ys = pixel_centers(h)[:, None]
    # Center of the nearest target row at or above (g) / at or below (below)
    # each row, -inf / inf where the column has none on that side; each
    # table then becomes its squared offset in place.
    g = np.where(target, ys, -np.inf)
    np.maximum.accumulate(g, axis=0, out=g)
    np.subtract(ys, g, out=g)
    g *= g
    step = max(1, _QUERY_BLOCK // h)
    for c in range(0, w, step):
        cols = slice(c, c + step)
        below = np.where(target[:, cols], ys, np.inf)
        np.minimum.accumulate(below[::-1], axis=0, out=below[::-1])
        np.subtract(below, ys, out=below)
        below *= below
        np.minimum(below, g[:, cols], out=below)  # numpy buffers a strided out
        g[:, cols] = below
        del below  # freed before the next block and the query buffers
    qr, qc = np.nonzero(query)
    out = np.empty(qr.size)
    step = max(1, _QUERY_BLOCK // w)
    work = np.empty((2, min(step, qr.size), w))
    for s in range(0, qr.size, step):
        r, c = qr[s:s + step], qc[s:s + step]
        # xs - xs[c] is -dx exactly; numpy buffers each operand it broadcasts.
        d2 = work[0, :r.size]
        d2[...] = xs
        d2 -= xs[c, None]
        d2 *= d2
        # In range by construction; mode "raise" would gather into a copy.
        d2 += np.take(g, r, axis=0, out=work[1, :r.size], mode="clip")
        d2.min(axis=1, out=out[s:s + step])
    return out


def _directed_d2(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared nearest-point distances from the boundary of ``a`` to that of
    ``b`` and back, from one extraction of each boundary."""
    _check_same_grid(a, b)
    ea = _edge(a)
    eb = _edge(b)
    if not (ea.any() and eb.any()):
        raise EmptyBoundaryError("boundary distances are undefined for an empty mask boundary")
    return _nearest_d2(ea, eb), _nearest_d2(eb, ea)


@dataclass(frozen=True)
class FrameMetrics:
    overlap: float
    hausdorff: float
    masd: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-frame scores plus sequence averages."""

    frames: tuple[FrameMetrics, ...]

    @property
    def avg_overlap(self) -> float:
        return float(np.mean([f.overlap for f in self.frames]))

    @property
    def avg_hausdorff(self) -> float:
        return float(np.mean([f.hausdorff for f in self.frames]))

    @property
    def avg_masd(self) -> float:
        return float(np.mean([f.masd for f in self.frames]))

    def to_csv(self) -> str:
        lines = ["frame,overlap,hausdorff,masd"]
        for t, f in enumerate(self.frames):
            lines.append(f"{t},{f.overlap:.12g},{f.hausdorff:.12g},{f.masd:.12g}")
        lines.append(f"avg,{self.avg_overlap:.12g},{self.avg_hausdorff:.12g},{self.avg_masd:.12g}")
        return "\n".join(lines) + "\n"


def evaluate_pair(truth: GridImage, estimate: GridImage,
                  fraction: float = THRESHOLD_FRACTION) -> FrameMetrics:
    """Binarize both images at the same fraction and score the estimate: the
    overlap, the symmetric Hausdorff distance between the two boundaries and
    the mean absolute surface distance (MASD), the symmetric average of
    per-point minimal boundary distances."""
    tm = binarize(truth, fraction)
    em = binarize(estimate, fraction)
    share = overlap(em, tm)
    d_ab, d_ba = _directed_d2(em, tm)
    return FrameMetrics(overlap=share,
                        hausdorff=float(np.sqrt(max(d_ab.max(), d_ba.max()))),
                        masd=float(0.5 * (np.mean(np.sqrt(d_ab)) + np.mean(np.sqrt(d_ba)))))


def evaluate_sequence(truths, estimates,
                      fraction: float = THRESHOLD_FRACTION) -> MetricsReport:
    """Score estimate t against truth t. Both are iterated once, one pair at
    a time; ValueError when one ends before the other. An error raised by a
    frame, or while reading it, gains the note "frame t"."""
    frames = []
    try:
        for truth, estimate in zip(truths, estimates, strict=True):
            frames.append(evaluate_pair(truth, estimate, fraction))
    except Exception as exc:
        exc.add_note(f"frame {len(frames)}")
        raise
    return MetricsReport(tuple(frames))
