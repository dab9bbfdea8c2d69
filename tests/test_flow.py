import numpy as np
import pytest

from meshsrr.flow import (FlowField, FlowParams, build_pyramid, compose_flows,
                          flow_energy, horn_schunck, solve_linearized_flow)
from meshsrr.grid import GridImage
from meshsrr.operators import warp_image

from oracles import full_grid_red_black_flow


def gaussian_blob(n, cx, cy, sigma_px=7.0):
    xs = np.arange(n)
    X, Y = np.meshgrid(xs, xs)
    return np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2)) / (2 * sigma_px ** 2))


def blob_pair(shift, n=64):
    c = (n - 1) / 2
    prev = GridImage(gaussian_blob(n, c, c))
    nxt = GridImage(gaussian_blob(n, c + shift[0], c + shift[1]))
    return prev, nxt


def smooth_random_flow(rng, n, amp=1.2):
    xs = np.linspace(0, 2 * np.pi, n)
    X, Y = np.meshgrid(xs, xs)
    pa, pb, pc, pd = rng.uniform(0, 2 * np.pi, 4)
    u = amp * np.sin(X + pa) * np.cos(Y + pb)
    v = amp * np.cos(X + pc) * np.sin(Y + pd)
    return FlowField(u, v)


class TestFlowParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowParams(lam=0.0)
        with pytest.raises(ValueError):
            FlowParams(pyramid_levels=0)
        with pytest.raises(ValueError):
            FlowParams(pyramid_spacing=1.0)


class TestBuildPyramid:
    def test_single_level_is_input(self):
        img = GridImage(np.random.default_rng(0).standard_normal((16, 16)))
        pyr = build_pyramid(img, 1, 2.0)
        assert len(pyr) == 1
        assert np.array_equal(pyr[0].data, img.data)

    def test_sizes_halve(self):
        img = GridImage.zeros(64, 64)
        pyr = build_pyramid(img, 3, 2.0)
        assert [(p.width, p.height) for p in pyr] == [(64, 64), (32, 32), (16, 16)]

    def test_constant_preserved_across_levels(self):
        img = GridImage.full(32, 32, 2.5)
        for level in build_pyramid(img, 3, 2.0):
            assert np.abs(level.data - 2.5).max() <= 1e-12


class TestHornSchunck:
    def test_identical_images_zero_flow(self):
        img = GridImage(gaussian_blob(32, 15.5, 15.5))
        f = horn_schunck(img, img, FlowParams(pyramid_levels=2))
        assert f.magnitude().max() <= 1e-6

    def test_constant_images_zero_flow(self):
        a = GridImage.full(32, 32, 1.0)
        f = horn_schunck(a, a, FlowParams())
        assert f.magnitude().max() == 0.0

    def test_known_shift_recovered_over_support(self):
        prev, nxt = blob_pair((2.0, 0.0))
        f = horn_schunck(prev, nxt, FlowParams())
        support = prev.data > 0.1
        assert abs(f.u[support].mean() - 2.0) <= 0.25
        assert abs(f.v[support].mean()) <= 0.25

    def test_integer_shift_recovery_suite(self):
        for shift in [(1, 0), (3, 0), (0, 2), (-3, 0), (2, 2), (0, -1), (-2, -2)]:
            prev, nxt = blob_pair(shift)
            f = horn_schunck(prev, nxt, FlowParams())
            err = np.hypot(f.u - shift[0], f.v - shift[1])
            assert np.median(err) <= 0.25, shift

    def test_antisymmetry_on_smooth_pair(self):
        prev, nxt = blob_pair((2.0, 1.0))
        p = FlowParams()
        fwd = horn_schunck(prev, nxt, p)
        bwd = horn_schunck(nxt, prev, p)
        round_trip = compose_flows(fwd, bwd)
        assert np.median(round_trip.magnitude()) <= 0.3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            horn_schunck(GridImage.zeros(8, 8), GridImage.zeros(8, 9), FlowParams())

    def test_level_autoreduction_warns(self):
        img = GridImage(gaussian_blob(16, 8, 8))
        with pytest.warns(UserWarning, match="pyramid reduced"):
            horn_schunck(img, img, FlowParams(pyramid_levels=4))


class TestEnergyMonotonicity:
    def test_gauss_seidel_never_increases_energy(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            ix = rng.standard_normal((12, 12))
            iy = rng.standard_normal((12, 12))
            c = rng.standard_normal((12, 12))
            u0 = rng.standard_normal((12, 12))
            v0 = rng.standard_normal((12, 12))
            energies = []
            solve_linearized_flow(ix, iy, c, u0, v0, lam=0.5, iterations=60,
                                  energies=energies)
            for before, after in zip(energies, energies[1:]):
                assert after <= before * (1 + 1e-12) + 1e-12

    def test_energy_definition_zero_flow(self):
        ix = np.ones((4, 4))
        iy = np.zeros((4, 4))
        c = 2.0 * np.ones((4, 4))
        u = np.zeros((4, 4))
        assert flow_energy(ix, iy, c, u, u, 1.0) == pytest.approx(64.0)


class TestFullGridOracle:
    """The active-color solver against the full-grid masked update, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 4), (4, 7),
                                       (100, 100)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("lam", [0.05, 1.0, 15.0])
    def test_solver_bit_identical(self, shape, lam):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        ix, iy, c, u0, v0 = (rng.standard_normal(shape) for _ in range(5))
        got_e, ref_e = [], []
        # A 1x1 grid has no neighbors: both solvers divide 0 by 0 and agree on NaN.
        nan = shape == (1, 1)
        with np.errstate(invalid="ignore" if nan else "raise"):
            got = solve_linearized_flow(ix, iy, c, u0, v0, lam, 25, got_e)
            ref = full_grid_red_black_flow(ix, iy, c, u0, v0, lam, 25, ref_e)
        for a, b in ((got[0], ref[0]), (got[1], ref[1]), (got_e, ref_e)):
            assert np.array_equal(a, b, equal_nan=nan)
        assert np.isnan(got[0]).all() == nan
        assert len(got_e) == 26

    def test_inputs_untouched(self):
        rng = np.random.default_rng(5)
        ix, iy, c, u0, v0 = (rng.standard_normal((6, 5)) for _ in range(5))
        keep = u0.copy(), v0.copy()
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 3)
        assert np.array_equal(u0, keep[0]) and np.array_equal(v0, keep[1])
        assert u.flags.c_contiguous and v.flags.c_contiguous

    def test_horn_schunck_on_clean_lung_frames(self, monkeypatch):
        from meshsrr import flow
        from meshsrr.config import preset
        from meshsrr.phantoms import render_scene
        cfg = preset("ex2a")
        prev, nxt = (render_scene(cfg.scene, t, 100, 100) for t in (1, 0))
        got = horn_schunck(prev, nxt, cfg.flow)
        monkeypatch.setattr(flow, "solve_linearized_flow", full_grid_red_black_flow)
        ref = horn_schunck(prev, nxt, cfg.flow)
        assert np.abs(got.u).max() > 0.01
        assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)


class TestComposeFlows:
    def test_zero_left_identity(self):
        rng = np.random.default_rng(2)
        f = smooth_random_flow(rng, 16)
        zero = FlowField.zeros(16, 16)
        out = compose_flows(zero, f)
        assert np.array_equal(out.u, f.u) and np.array_equal(out.v, f.v)

    def test_zero_right_identity(self):
        rng = np.random.default_rng(3)
        f = smooth_random_flow(rng, 16)
        zero = FlowField.zeros(16, 16)
        out = compose_flows(f, zero)
        assert np.array_equal(out.u, f.u) and np.array_equal(out.v, f.v)

    def test_two_integer_shifts(self):
        a = FlowField.constant(16, 16, 1.0, 0.0)
        b = FlowField.constant(16, 16, 0.0, 1.0)
        out = compose_flows(a, b)
        interior = (slice(1, -2), slice(1, -2))
        assert np.allclose(out.u[interior], 1.0, rtol=0, atol=1e-15)
        assert np.allclose(out.v[interior], 1.0, rtol=0, atol=1e-15)

    def test_matches_point_tracing_oracle(self):
        rng = np.random.default_rng(4)
        f_ab = smooth_random_flow(rng, 32)
        f_bc = smooth_random_flow(rng, 32)
        out = compose_flows(f_ab, f_bc)

        def sample(arr, sx, sy):
            sx = min(max(sx, 0.0), arr.shape[1] - 1.0)
            sy = min(max(sy, 0.0), arr.shape[0] - 1.0)
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            x1, y1 = min(x0 + 1, arr.shape[1] - 1), min(y0 + 1, arr.shape[0] - 1)
            fx, fy = sx - x0, sy - y0
            top = (1 - fx) * arr[y0, x0] + fx * arr[y0, x1]
            bot = (1 - fx) * arr[y1, x0] + fx * arr[y1, x1]
            return (1 - fy) * top + fy * bot

        err = 0.0
        for j in range(32):
            for i in range(32):
                qx = i + f_bc.u[j, i]
                qy = j + f_bc.v[j, i]
                tu = f_bc.u[j, i] + sample(f_ab.u, qx, qy)
                tv = f_bc.v[j, i] + sample(f_ab.v, qx, qy)
                err = max(err, abs(tu - out.u[j, i]), abs(tv - out.v[j, i]))
        assert err <= 1e-6

    def test_composition_consistent_with_double_warp(self):
        rng = np.random.default_rng(5)
        f_ab = smooth_random_flow(rng, 32, amp=0.8)
        f_bc = smooth_random_flow(rng, 32, amp=0.8)
        img = GridImage(gaussian_blob(32, 15.0, 16.0, sigma_px=5.0))
        twice = warp_image(warp_image(img, f_ab), f_bc)
        once = warp_image(img, compose_flows(f_ab, f_bc))
        # Bilinear interpolation does not commute exactly; agreement is close.
        assert np.abs(twice.data - once.data).max() <= 0.05
