import math
import tracemalloc

import numpy as np
import pytest

from meshsrr.config import preset
from meshsrr.errors import ConfigError, MeshError
from meshsrr.grid import GridImage
from meshsrr.mesh import build_pixel_assignment, downsample
from meshsrr.operators import gaussian_kernel, warp_image
from meshsrr.phantoms import (COARSE, FINE, LUNG, T_SHAPE, SceneSpec, degrade,
                              disc_mesh, lung_scale, render_lung, render_scene,
                              render_tshape, ring_mesh, scene_flows, tshape_centers)

from oracles import overlapping_points, traced_peak

# Frozen reference trace of the truncated-Gaussian walk for seed 11,
# generated by an independently coded walk over raw Philox draws.
WALK_SEED11 = np.array([
    [0.0, 0.0],
    [0.11717021429257536, -0.15],
    [-0.15, -0.15],
    [-0.15, 0.15],
    [0.09046511887648204, 0.15],
    [0.15, -0.06737579281062245],
])


def scene(kind=T_SHAPE, frames=6, **kw):
    return SceneSpec(kind=kind, frames=frames, **kw)


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(kind="SQUARE")
        with pytest.raises(ValueError):
            SceneSpec(frames=0)
        with pytest.raises(ValueError):
            SceneSpec(background=1.0, inclusion=1.0)
        with pytest.raises(ValueError, match="positive"):
            SceneSpec(background=-2.0, inclusion=-1.0)

    def test_motion_bound_keeps_the_t_inside_the_body(self):
        """The T's farthest points are the bar's top corners, so the largest
        bound is 1/sqrt(2) - T_BAR_WIDTH / 2. At 0.45 the walk reaches the
        corner (0.45, 0.45) and every frame keeps all 1056 T pixels; at 0.5
        the disc would clip some frames to 1020."""
        spec = scene(frames=20, rng_seed=11, motion_bound=0.45)
        assert np.abs(tshape_centers(spec)).max() == 0.45
        counts = {int((render_tshape(spec, t, 200, 200).data == 2.0).sum())
                  for t in range(spec.frames)}
        assert counts == {1056}
        scene(motion_bound=1 / math.sqrt(2) - 0.25 - 1e-12)
        for bound in (0.5, 5.0, math.inf):
            with pytest.raises(ValueError, match="leave the body disc"):
                scene(motion_bound=bound)
        scene(kind=LUNG, motion_bound=5.0)  # the lungs do not walk


class TestTshapeWalk:
    def test_reproduces_frozen_reference(self):
        c = tshape_centers(scene(rng_seed=11))
        assert np.abs(c - WALK_SEED11).max() <= 1e-12

    def test_reproduces_independent_walk(self):
        spec = scene(frames=40, rng_seed=77)
        c = tshape_centers(spec)
        rng = np.random.Generator(np.random.Philox(key=[77, 0x10_0000]))
        pos = np.zeros(2)
        expected = [pos.copy()]
        for _ in range(39):
            pos = np.clip(pos + math.sqrt(0.3) * rng.standard_normal(2),
                          -0.15, 0.15)
            expected.append(pos.copy())
        assert np.array_equal(c, np.array(expected))

    def test_positions_bounded(self):
        c = tshape_centers(scene(frames=200, rng_seed=5))
        assert np.abs(c).max() <= 0.15

    def test_zero_variance_static(self):
        spec = scene(motion_variance=0.0)
        c = tshape_centers(spec)
        assert np.abs(c).max() == 0.0

    def test_rendering_every_frame_walks_once(self, monkeypatch):
        import meshsrr.phantoms as phantoms
        streams = []
        original = phantoms._rng

        def counted(seed, stream):
            streams.append(stream)
            return original(seed, stream)

        monkeypatch.setattr(phantoms, "_rng", counted)
        spec = scene(frames=30, rng_seed=77)
        for t in range(spec.frames):
            render_tshape(spec, t, 16, 16)
        scene_flows(spec, 16, 16)
        assert streams == [phantoms._MOTION_STREAM]
        # A new spec, equal or not, walks for itself.
        tshape_centers(scene(frames=30, rng_seed=77))
        assert streams == [phantoms._MOTION_STREAM] * 2

    def test_walk_is_read_only(self):
        spec = scene(frames=10, rng_seed=5)
        c = tshape_centers(spec)
        with pytest.raises(ValueError, match="read-only"):
            c[1, 0] = 0.5
        assert np.array_equal(tshape_centers(scene(frames=10, rng_seed=5)), c)


class TestRenderTshape:
    def test_exactly_three_values(self):
        spec = scene()
        img = render_tshape(spec, 1, 100, 100)
        assert set(np.unique(img.data)) == {0.0, 1.0, 2.0}

    def test_zero_variance_identical_frames(self):
        spec = scene(motion_variance=0.0)
        a = render_tshape(spec, 0, 64, 64)
        b = render_tshape(spec, 3, 64, 64)
        assert np.array_equal(a.data, b.data)

    def test_inclusion_area_constant_under_translation(self):
        spec = scene(frames=12, rng_seed=3)
        counts = [(render_tshape(spec, t, 200, 200).data == 2.0).sum()
                  for t in range(12)]
        assert max(counts) - min(counts) <= 2
        # 0.5x0.12 bar plus 0.12x0.5 stem minus their 0.12x0.12 overlap,
        # in pixels of area (2/200)^2.
        assert counts[0] == pytest.approx(0.1056 / 1e-4, rel=0.02)

    def test_frame_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="frame"):
            render_tshape(scene(frames=4), 4, 32, 32)

    def test_outside_disc_is_zero(self):
        img = render_tshape(scene(), 0, 100, 100).data
        assert img[0, 0] == 0.0 and img[-1, -1] == 0.0


@pytest.mark.parametrize("kind", [T_SHAPE, LUNG])
def test_render_peak_memory_is_a_few_frames(kind):
    """A 200x200 frame is rendered from the row of pixel-centre abscissas and
    the column of ordinates: at most five frames besides the output (it
    peaked at 2.3 frames in all, against 4.3 from full coordinate grids)."""
    n = 200
    spec = scene(kind=kind)
    img, peak = traced_peak(lambda: render_scene(spec, 3, n, n))
    assert img.data.shape == (n, n)
    assert peak <= (5 + 1) * n * n * 8


class TestRenderLung:
    def test_exactly_three_values(self):
        spec = scene(kind=LUNG, frames=20)
        for t in (0, 7):
            img = render_lung(spec, t, 96, 96)
            assert set(np.unique(img.data)) == {0.0, 1.0, 2.0}

    def test_spine_pixels_static_across_frames(self):
        spec = scene(kind=LUNG, frames=20)
        masks = []
        for t in (0, 5, 13, 19):
            img = render_lung(spec, t, 128, 128).data
            xs = (np.arange(128) + 0.5) / 64 - 1
            X, Y = np.meshgrid(xs, xs)
            spine_region = (X ** 2 + (Y + 0.6) ** 2) <= 0.1 ** 2
            masks.append((img == 2.0) & spine_region)
        for m in masks[1:]:
            assert np.array_equal(masks[0], m)

    def test_breathing_area_ratio(self):
        spec = scene(kind=LUNG, frames=20)
        # Sampled extremes of sin(4 pi t / frames) at t = 2,3 and t = 7,8.
        areas = {}
        for t in range(20):
            img = render_lung(spec, t, 200, 200).data
            xs = (np.arange(200) + 0.5) / 100 - 1
            X, Y = np.meshgrid(xs, xs)
            lungs = (img == 2.0) & (X ** 2 + (Y + 0.6) ** 2 > 0.1 ** 2)
            areas[t] = lungs.sum()
        for t in areas:
            expected = 2 * math.pi * 0.25 * 0.38 * lung_scale(spec, t) ** 2
            assert areas[t] * 1e-4 == pytest.approx(expected, rel=0.02)

    def test_matches_supersampled_oracle(self):
        spec = scene(kind=LUNG, frames=20)
        n = 64
        for t in range(0, 20, 3):
            img = render_lung(spec, t, n, n).data
            s = lung_scale(spec, t)
            a, b = 0.25 * s, 0.38 * s
            sub = (np.arange(4 * n) + 0.5) / (2 * n) - 1.0
            X, Y = np.meshgrid(sub, sub)
            left = ((X + 0.35) / a) ** 2 + ((Y - 0.10) / b) ** 2 <= 1.0
            right = ((X - 0.35) / a) ** 2 + ((Y - 0.10) / b) ** 2 <= 1.0
            spine = X ** 2 + (Y + 0.60) ** 2 <= 0.08 ** 2
            disc = X ** 2 + Y ** 2 <= 1.0
            shape = (left | right | spine) & disc
            vals = np.where(shape, 2.0, np.where(disc, 1.0, 0.0))
            coverage = vals.reshape(n, 4, n, 4)
            unanimous = np.all(coverage == coverage[:, :1, :, :1], axis=(1, 3))
            agree = img[unanimous] == coverage[:, 0, :, 0][unanimous]
            assert agree.all()
            assert (~unanimous).sum() < 6 * n


def lung_geometry(width, height):
    """Pixel centers, the offsets from the nearer lung's centre, and the
    elliptical radius about it at the largest semi-axes (area +30%)."""
    X, Y = np.meshgrid((np.arange(width) + 0.5) * 2 / width - 1,
                       (np.arange(height) + 0.5) * 2 / height - 1)
    dx = X - np.copysign(0.35, X)
    dy = Y - 0.10
    s_max = math.sqrt(1.3)
    rho = np.sqrt((dx / (0.25 * s_max)) ** 2 + (dy / (0.38 * s_max)) ** 2)
    return X, Y, dx, dy, rho


class TestSceneFlows:
    @pytest.mark.parametrize("n", [100, 200])
    def test_lung_flows_warp_clean_frames_onto_the_next(self, n):
        # The hard-edged rasters put a floor under the error: measured 1/8.3
        # of the unwarped error at grid 100 and 1/21.8 at grid 200.
        spec = preset("ex2a").scene
        frames = [render_scene(spec, t, n, n) for t in range(spec.frames)]
        flows = list(scene_flows(spec, n, n))
        still = warped = 0.0
        for t in range(1, spec.frames):
            still += ((frames[t - 1].data - frames[t].data) ** 2).sum()
            moved = warp_image(frames[t - 1], flows[t - 1]).data
            warped += ((moved - frames[t].data) ** 2).sum()
        assert warped <= still / 5

    @pytest.mark.parametrize("size", [(100, 100), (61, 84)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_lung_flows_vanish_from_the_midline_out(self, size):
        spec = scene(kind=LUNG, frames=20)
        X, Y, _, _, rho = lung_geometry(*size)
        still = rho >= 0.35 / (0.25 * math.sqrt(1.3))
        spine = X ** 2 + (Y + 0.6) ** 2 <= 0.08 ** 2
        r = np.hypot(X, Y)
        rim = (r >= 0.95) & (r <= 1.0)
        assert still[spine].all() and still[rim].all() and still[X == 0].all()
        flows = list(scene_flows(spec, *size))
        assert any(np.abs(f.u).max() > 0 for f in flows)
        for f in flows:
            assert not f.u[still].any() and not f.v[still].any()

    def test_lung_flows_are_made_on_access(self):
        """Item t scales one base field; the iterator keeps only that field
        (two arrays) instead of two arrays per frame."""
        spec = scene(kind=LUNG, frames=40)
        n = 100
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            flows = scene_flows(spec, n, n)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2.5 * n * n * 8
        assert len(list(flows)) == 39

    def test_reading_a_lung_flow_allocates_only_its_components(self):
        """The scaled components are handed to FlowField read-only, so it
        keeps them instead of copying: one read peaks at its two arrays
        (over four when FlowField copied them)."""
        n = 100
        flows = scene_flows(scene(kind=LUNG, frames=20), n, n)
        flow, peak = traced_peak(lambda: next(flows))
        assert not (flow.u.flags.writeable or flow.v.flags.writeable)
        assert peak <= 2.2 * n * n * 8

    def test_lung_flows_scale_every_lung_about_its_centre(self):
        spec = scene(kind=LUNG, frames=20)
        width, height = 90, 120
        X, Y, dx, dy, rho = lung_geometry(width, height)
        flows = list(scene_flows(spec, width, height))
        assert len(flows) == spec.frames - 1
        lungs = rho <= 1.0
        for t, f in enumerate(flows, start=1):
            assert (f.width, f.height) == (width, height)
            k = lung_scale(spec, t - 1) / lung_scale(spec, t) - 1.0
            assert np.allclose(f.u[lungs], k * dx[lungs] * width / 2, rtol=1e-12, atol=0)
            assert np.allclose(f.v[lungs], k * dy[lungs] * height / 2, rtol=1e-12, atol=0)
            img = render_lung(spec, t, width, height).data
            assert lungs[(img == 2.0) & (Y > -0.4)].all()


class TestDiscMesh:
    @pytest.mark.parametrize("density,target", [(FINE, 1024), (COARSE, 256)])
    def test_element_count(self, density, target):
        mesh = disc_mesh(density)
        assert abs(mesh.n_elements - target) <= 0.05 * target

    def test_total_area_close_to_pi(self):
        for density in (FINE, COARSE):
            area = disc_mesh(density).signed_areas().sum()
            assert area == pytest.approx(math.pi, rel=0.02)

    def test_all_triangles_positively_oriented(self):
        assert (disc_mesh(FINE).signed_areas() > 0).all()

    def test_non_overlapping(self):
        assert overlapping_points(disc_mesh(FINE), samples=4000, seed=1) == 0

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            disc_mesh("MEDIUM")

    def test_ring_mesh_element_formula(self):
        for rings in (2, 5):
            assert ring_mesh(rings).n_elements == 4 * rings ** 2


class TestDegrade:
    def setup_method(self):
        self.mesh = disc_mesh(COARSE)
        self.asg = build_pixel_assignment(self.mesh, 64, 64)
        self.kernel = gaussian_kernel(9, 3.0)
        self.hr = render_tshape(scene(rng_seed=2), 0, 64, 64)

    def degrade(self, snr_db, seed, frame=0):
        return degrade(self.hr, self.asg, self.kernel, snr_db, seed, frame)

    def test_noiseless_limit(self):
        got = self.degrade(300.0, 1)
        clean = downsample(GridImage(self.kernel.apply(self.hr.data)), self.asg)
        assert np.abs(got.values - clean.values).max() <= 1e-9

    def test_snr_exact_per_realization(self):
        for snr in (-5.0, 10.0):
            got = self.degrade(snr, 4, frame=2)
            clean = downsample(GridImage(self.kernel.apply(self.hr.data)), self.asg)
            noise = got.values - clean.values
            measured = 10 * math.log10((clean.values @ clean.values)
                                       / (noise @ noise))
            assert measured == pytest.approx(snr, abs=0.1)

    def test_monte_carlo_snr(self):
        clean = downsample(GridImage(self.kernel.apply(self.hr.data)), self.asg)
        ps = clean.values @ clean.values
        for snr in (-5.0, 10.0):
            ratios = []
            for seed in range(100):
                got = self.degrade(snr, seed)
                noise = got.values - clean.values
                ratios.append(10 * math.log10(ps / (noise @ noise)))
            assert np.mean(ratios) == pytest.approx(snr, abs=0.2)

    def test_deterministic_per_seed_and_frame(self):
        a = self.degrade(0.0, 9, frame=3)
        b = self.degrade(0.0, 9, frame=3)
        assert np.array_equal(a.values, b.values)
        c = self.degrade(0.0, 9, frame=4)
        assert not np.array_equal(a.values, c.values)

    def test_noiseless_part_identical_across_seeds(self):
        clean = downsample(GridImage(self.kernel.apply(self.hr.data)), self.asg)
        n1 = self.degrade(5.0, 1).values - clean.values
        n2 = self.degrade(5.0, 2).values - clean.values
        assert not np.array_equal(n1, n2)
        # Same power, different realization.
        assert n1 @ n1 == pytest.approx(n2 @ n2, rel=1e-12)

    def test_snr_without_finite_power_ratio_refused(self):
        # 10 ** (snr / 10) overflows above about 3082 dB and is 0.0 below
        # about -3233 dB; inf and nan have no ratio either.
        for snr in (4000.0, -4000.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="power ratio"):
                self.degrade(snr, 1)

    def test_underflowing_noise_divisor_refused(self, square_mesh):
        # The noise draw of seed 4 on two elements has power 0.27, and
        # 0.27 times the smallest subnormal power ratio rounds to 0.0.
        asg = build_pixel_assignment(square_mesh, 8, 8)
        x = GridImage(np.arange(64.0).reshape(8, 8))
        with pytest.raises(ConfigError, match="not finite"):
            degrade(x, asg, gaussian_kernel(3, 1.0), -3233.0, 4)

    def test_grid_mismatch_is_a_mesh_error(self):
        """Not a non-finite frame: the image does not fit the assignment."""
        with pytest.raises(MeshError, match="does not match assignment grid"):
            degrade(render_tshape(scene(rng_seed=2), 0, 32, 32), self.asg, self.kernel, 10.0, 1)
