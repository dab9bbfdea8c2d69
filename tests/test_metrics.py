from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meshsrr import metrics
from meshsrr.grid import GridImage
from meshsrr.metrics import (MetricsReport, binarize, evaluate_pair,
                             evaluate_sequence, overlap, FrameMetrics)

from oracles import (boundary, brute_force_hausdorff, brute_force_masd,
                     directed_boundary_distances, random_mask_pair, traced_peak)


def mask_from_pixels(w, h, pixels):
    bits = np.zeros((h, w), dtype=bool)
    for i, j in pixels:
        bits[j, i] = True
    return bits


def distances(a, b):
    """(Hausdorff, MASD) of mask a against mask b through ``evaluate_pair``,
    on 0/1 images that binarize back to the same masks."""
    fm = evaluate_pair(GridImage(b.astype(float)), GridImage(a.astype(float)))
    return fm.hausdorff, fm.masd


class TestBinarize:
    def test_constant_positive_all_set(self):
        m = binarize(GridImage(np.full((5, 5), 2.0)))
        assert m.sum() == 25

    def test_single_positive_pixel(self):
        img = np.zeros((4, 4))
        img[1, 2] = 1.0
        m = binarize(GridImage(img))
        assert m.sum() == 1 and m[1, 2]

    def test_threshold_arithmetic_two_levels(self):
        img = np.full((3, 3), 0.2)
        img[1, 1] = 1.0
        m = binarize(GridImage(img), fraction=0.25)
        assert m.sum() == 1 and m[1, 1]

    def test_nonpositive_max_warns_empty(self):
        with pytest.warns(UserWarning, match="empty"):
            m = binarize(GridImage(np.full((3, 3), -1.0)))
        assert m.sum() == 0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            binarize(GridImage(np.full((3, 3), 1.0)), fraction=0.0)


class TestOverlap:
    def test_self_overlap_is_one(self):
        a = mask_from_pixels(3, 3, [(0, 0), (1, 1)])
        assert overlap(a, a) == 1.0

    def test_disjoint_masks_zero(self):
        a = mask_from_pixels(3, 3, [(0, 0)])
        b = mask_from_pixels(3, 3, [(2, 2)])
        assert overlap(a, b) == 0.0

    def test_hand_counted_fixture(self):
        a = mask_from_pixels(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        b = mask_from_pixels(3, 3, [(1, 1), (2, 2)])
        assert overlap(a, b) == pytest.approx(1.0 / 5.0)

    def test_both_empty_defined_as_one(self):
        a = np.zeros((3, 3), dtype=bool)
        with pytest.warns(UserWarning, match="empty"):
            assert overlap(a, a) == 1.0

    def test_one_empty_is_zero(self):
        a = np.zeros((3, 3), dtype=bool)
        b = mask_from_pixels(3, 3, [(1, 1)])
        assert overlap(a, b) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        bits_a = rng.random((12, 12)) < 0.4
        bits_b = rng.random((12, 12)) < 0.4
        base = overlap(bits_a, bits_b)
        shifted = overlap(np.roll(bits_a, (2, 3), (0, 1)), np.roll(bits_b, (2, 3), (0, 1)))
        assert base == shifted


class TestBoundary:
    def test_full_mask_border_ring(self):
        m = np.ones((5, 5), dtype=bool)
        pts = boundary(m)
        assert pts.shape[0] == 16

    def test_single_pixel(self):
        m = mask_from_pixels(8, 8, [(3, 4)])
        pts = boundary(m)
        assert pts.shape == (1, 2)
        assert pts[0, 0] == pytest.approx(-1 + 3.5 * 2 / 8)
        assert pts[0, 1] == pytest.approx(-1 + 4.5 * 2 / 8)

    def test_solid_square_perimeter_enumeration(self):
        pixels = [(i, j) for i in range(2, 6) for j in range(2, 6)]
        m = mask_from_pixels(8, 8, pixels)
        pts = boundary(m)
        expected = {(i, j) for i, j in pixels
                    if i in (2, 5) or j in (2, 5)}
        assert pts.shape[0] == 12
        got = {(round((x + 1) * 4 - 0.5), round((y + 1) * 4 - 0.5))
               for x, y in pts}
        assert got == expected


def _all_pairs_d2(pa, pb):
    """Least ``dx * dx + dy * dy`` from each point of pa over all of pb."""
    dx = pa[:, None, 0] - pb[None, :, 0]
    dy = pa[:, None, 1] - pb[None, :, 1]
    return (dx * dx + dy * dy).min(axis=1)


def _pair(w, h, pixels_a, pixels_b):
    return mask_from_pixels(w, h, pixels_a), mask_from_pixels(w, h, pixels_b)


_mask_pairs = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(arrays(bool, shape), arrays(bool, shape))
).filter(lambda pair: pair[0].any() and pair[1].any())


class TestDistances:
    def test_self_distance_zero(self):
        m = mask_from_pixels(8, 8, [(2, 2), (3, 2), (3, 3)])
        assert distances(m, m) == (0.0, 0.0)

    def test_two_single_pixels_exact(self):
        a = mask_from_pixels(16, 16, [(3, 5)])
        b = mask_from_pixels(16, 16, [(9, 5)])
        h, d = distances(a, b)
        assert h == pytest.approx(6 * 2 / 16, abs=0)
        assert d == pytest.approx(6 * 2 / 16, abs=0)

    def test_parallel_segments(self):
        a = mask_from_pixels(16, 16, [(4, j) for j in range(5, 10)])
        b = mask_from_pixels(16, 16, [(8, j) for j in range(5, 10)])
        h, d = distances(a, b)
        assert d == pytest.approx(4 * 2 / 16)
        assert h == pytest.approx(4 * 2 / 16)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b = random_mask_pair(rng, max_side=16)
            pa, pb = boundary(a), boundary(b)
            h, d = distances(a, b)
            assert h == brute_force_hausdorff(pa, pb)
            assert d == pytest.approx(brute_force_masd(pa, pb), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = random_mask_pair(rng, max_side=20)
            assert distances(a, b) == distances(b, a)

    def test_masd_bounded_by_hausdorff(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_mask_pair(rng, max_side=24)
            h, d = distances(a, b)
            assert d <= h + 1e-15

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(pair=_mask_pairs, block=st.sampled_from([1, 50_000]))
    @example(pair=_pair(7, 3, [(2, 1)], [(0, 0), (6, 2)]), block=50_000)  # H != W
    @example(pair=_pair(9, 1, [(0, 0), (4, 0)], [(8, 0)]), block=50_000)  # 1 x N
    @example(pair=_pair(1, 9, [(0, 3)], [(0, 0), (0, 8)]), block=1)  # N x 1
    @example(pair=_pair(6, 5, [(3, 2)], [(5, 4)]), block=50_000)  # single pixels
    @example(pair=(np.ones((4, 5), bool), np.eye(4, 5, dtype=bool)), block=1)  # border
    # A target whose pixels leave rows 1-3 and columns 1-4 empty.
    @example(pair=_pair(7, 6, [(2, 2), (3, 3)], [(0, 0), (6, 5), (5, 4)]), block=50_000)
    def test_directed_d2_equals_all_pairs_minimum_bitwise(self, pair, block):
        """The grid search equals the vectorized all-pairs minimum of
        ``dx * dx + dy * dy`` bit for bit, whatever the query block."""
        a, b = pair
        pa, pb = boundary(a), boundary(b)
        with mock.patch.object(metrics, "_QUERY_BLOCK", block):
            d_ab, d_ba = metrics._directed_d2(a, b)
        assert d_ab.tobytes() == _all_pairs_d2(pa, pb).tobytes()
        assert d_ba.tobytes() == _all_pairs_d2(pb, pa).tobytes()

    def test_directed_distances_match_loop_oracle_64x48(self):
        """Smooth shapes on a 64 x 48 grid, with several query blocks per
        direction, against the explicit double loop."""
        ys, xs = np.mgrid[0:48, 0:64]
        a = ((xs - 30) / 20.0) ** 2 + ((ys - 22) / 14.0) ** 2 <= 1.0
        b = ((np.abs(xs - 36) <= 12) & (ys >= 8) & (ys < 40)
             | (np.abs(ys - 14) <= 4) & (xs >= 10) & (xs < 60))
        pa, pb = boundary(a), boundary(b)
        with mock.patch.object(metrics, "_QUERY_BLOCK", 64 * 7):
            d_ab, d_ba = metrics._directed_d2(a, b)
        assert min(pa.shape[0], pb.shape[0]) > 7
        assert np.array_equal(np.sqrt(d_ab), directed_boundary_distances(pa, pb))
        assert np.array_equal(np.sqrt(d_ba), directed_boundary_distances(pb, pa))

    def test_empty_boundary_rejected(self):
        empty = np.zeros((4, 4), dtype=bool)
        full = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match="empty"):
            metrics._directed_d2(empty, full)
        with pytest.raises(ValueError, match="empty"):
            metrics._directed_d2(full, empty)

    def test_mismatched_masks_rejected(self):
        a = np.ones((4, 4), dtype=bool)
        b = np.ones((4, 5), dtype=bool)
        with pytest.raises(ValueError, match="mismatch"):
            metrics._directed_d2(a, b)


class TestReport:
    def test_csv_layout(self):
        report = MetricsReport((FrameMetrics(0.5, 0.1, 0.01),
                                FrameMetrics(0.7, 0.3, 0.03)))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "frame,overlap,hausdorff,masd"
        assert lines[1].startswith("0,0.5,0.1,")
        assert lines[-1] == "avg,0.6,0.2,0.02"

    def test_evaluate_pair_perfect_estimate(self):
        img = np.zeros((16, 16))
        img[5:10, 6:12] = 2.0
        g = GridImage(img)
        fm = evaluate_pair(g, g)
        assert fm.overlap == 1.0 and fm.hausdorff == 0.0 and fm.masd == 0.0

    def test_evaluate_pair_extracts_each_boundary_once(self, monkeypatch):
        edge = metrics._edge
        calls = []

        def counted(mask):
            calls.append(mask)
            return edge(mask)

        monkeypatch.setattr(metrics, "_edge", counted)
        truth = np.zeros((16, 16))
        truth[5:10, 6:12] = 2.0
        estimate = np.roll(truth, 2, axis=1)
        fm = evaluate_pair(GridImage(truth), GridImage(estimate))
        assert len(calls) == 2
        pe = boundary(binarize(GridImage(estimate)))
        pt = boundary(binarize(GridImage(truth)))
        assert fm.hausdorff == brute_force_hausdorff(pe, pt)
        assert fm.masd == brute_force_masd(pe, pt)

    def test_evaluate_pair_peak_memory_is_a_few_frames(self):
        """At 200x200, scoring holds one row-offset table, its scratch and
        two query buffers of 0.1 MB: at most five frames (ten when it built
        six tables)."""
        n = 200
        ys, xs = np.mgrid[0:n, 0:n] / n
        truth = GridImage(np.where(((xs - 0.5) / 0.4) ** 2 + ((ys - 0.45) / 0.3) ** 2 <= 1, 2.0, 1.0)
                          * (np.hypot(xs - 0.5, ys - 0.5) <= 0.5))
        estimate = GridImage(np.exp(-((xs - 0.55) ** 2 + (ys - 0.5) ** 2) / 0.05))
        fm, peak = traced_peak(lambda: evaluate_pair(truth, estimate))
        assert 0.0 < fm.overlap < 1.0
        assert peak <= 5 * n * n * 8

    def test_evaluate_sequence_length_check(self):
        g = GridImage(np.full((4, 4), 1.0))
        with pytest.raises(ValueError, match="argument 2 is longer than argument 1"):
            evaluate_sequence([g], [g, g])
