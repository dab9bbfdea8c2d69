import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft

from meshsrr import flow
from meshsrr.flow import (FlowField, FlowParams, build_pyramid, horn_schunck,
                          solve_linearized_flow)
from meshsrr.grid import GridImage
from meshsrr.operators import warp_image

from oracles import _flow_energy, compose_flows, dense_flow_solve


def cg_energies(ix, iy, c, u0, v0, lam, iterations):
    """The oracle energy of the CG iterates 0..``iterations`` from (u0, v0):
    ``solve_linearized_flow`` with each cap in turn."""
    return [_flow_energy(ix, iy, c, *solve_linearized_flow(ix, iy, c, u0, v0, lam, k), lam)
            for k in range(iterations + 1)]


def converged_params(params):
    """``params`` with the cap that the reference solves run to."""
    return replace(params, iterations_per_level=2000)


def rms_distance(got, ref):
    """Root-mean-square length of the per-pixel differences of two lists of flows."""
    d = [(g.u - r.u) ** 2 + (g.v - r.v) ** 2 for g, r in zip(got, ref)]
    return float(np.sqrt(np.mean(d)))


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


class TestFlowField:
    def test_constant_shares_one_read_only_zero_stride_array(self):
        f = FlowField.constant(200, 200, 1.5, -2.0)
        for comp, value in ((f.u, 1.5), (f.v, -2.0)):
            assert comp.strides == (0, 0)
            assert comp.dtype == np.float64 and comp.shape == (200, 200)
            assert (comp == value).all()
            with pytest.raises(ValueError, match="read-only"):
                comp[0, 0] = 0.0

    def test_writeable_input_is_copied(self):
        u, v = np.zeros((3, 4)), np.ones((3, 4))
        f = FlowField(u, v)
        u[0, 0] = v[0, 0] = 7.0
        assert f.u[0, 0] == 0.0 and f.v[0, 0] == 1.0
        assert not (f.u.flags.writeable or f.v.flags.writeable)

    def test_grid_image_copies_a_writeable_input_but_not_a_producers_frame(
            self, monkeypatch, tmp_path):
        """``GridImage`` takes ``FlowField``'s rule: every producer of a frame
        freezes the array it built and hands it over without a copy."""
        from meshsrr import grid
        from meshsrr.config import preset
        from meshsrr.fileio import read_grid_image, write_pgm16
        from meshsrr.mesh import build_pixel_assignment, upsample
        from meshsrr.operators import ObservationModel, gaussian_kernel
        from meshsrr.phantoms import COARSE, degrade, disc_mesh, render_scene
        from meshsrr.srr import SrrConfig, srr_init, srr_step

        copies = []

        def spy(module):
            original = module.read_only

            def counted(a):
                out = original(a)
                if out is not a:
                    copies.append(type(a))
                return out
            monkeypatch.setattr(module, "read_only", counted)

        spy(grid)
        spy(flow)
        data = np.zeros((3, 4))
        img = GridImage(data)
        data[0, 0] = 7.0
        assert img.data[0, 0] == 0.0 and not img.data.flags.writeable
        assert copies == [np.ndarray]
        copies.clear()

        cfg = preset("ex2a")
        asg = build_pixel_assignment(disc_mesh(COARSE), 32, 32)
        kernel = gaussian_kernel(3, 1.0)
        frame = render_scene(cfg.scene, 1, 32, 32)
        obs = degrade(frame, asg, kernel, 10.0, 5)
        y = upsample(obs, asg)
        model = ObservationModel(asg, kernel, 0.1)
        start = srr_init(y, model)  # the blur of y, frozen and kept
        motion = horn_schunck(frame, render_scene(cfg.scene, 0, 32, 32),
                              FlowParams(pyramid_levels=1))
        warped = warp_image(frame, motion)
        state = srr_step(start, y, FlowField.zeros(32, 32), SrrConfig(mu=0.01, k_iters=1),
                         model)
        write_pgm16(state.x_hat, tmp_path / "x.pgm")
        read_grid_image(tmp_path / "x.pgm")
        (tmp_path / "x.scale.txt").unlink()  # raw levels, no sidecar
        read_grid_image(tmp_path / "x.pgm")
        assert copies == []
        assert GridImage(warped.data).data is warped.data

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FlowField.constant(4, 3, 0.0, np.inf)

    def test_constant_warps_like_a_materialized_field(self):
        rng = np.random.default_rng(11)
        img = GridImage(rng.standard_normal((9, 11)))
        full = FlowField(np.full((9, 11), 1.3), np.full((9, 11), -0.7))
        assert full.u.strides != (0, 0)
        out = warp_image(img, FlowField.constant(11, 9, 1.3, -0.7))
        assert out.data.tobytes() == warp_image(img, full).data.tobytes()


class TestFlowParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowParams(lam=0.0)
        with pytest.raises(ValueError):
            FlowParams(pyramid_levels=0)
        with pytest.raises(ValueError):
            FlowParams(pyramid_spacing=1.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 1e308, -np.inf])
    def test_lam_must_be_finite_and_bounded(self, lam):
        with pytest.raises(ValueError, match="lam"):
            FlowParams(lam=lam)

    def test_largest_lam_keeps_the_solver_finite(self):
        lam = FlowParams(lam=flow._LAM_MAX).lam
        rng = np.random.default_rng(21)
        ix, iy, c, u0, v0 = (rng.standard_normal((9, 7)) for _ in range(5))
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, lam, 50)
        assert np.isfinite(u).all() and np.isfinite(v).all()
        prev, nxt = blob_pair((1.5, -1.0))
        f = horn_schunck(prev, nxt, FlowParams(lam=lam))
        # A near-rigid field: one translation, up to the warps' bias.
        for comp, shift in ((f.u, 1.5), (f.v, -1.0)):
            assert np.ptp(comp) <= 1e-6 and abs(comp.mean() - shift) <= 1e-3


class TestBuildPyramid:
    def test_single_level_is_input(self):
        img = np.random.default_rng(0).standard_normal((16, 16))
        pyr = build_pyramid(img, [(16, 16)], 2.0)
        assert len(pyr) == 1
        assert np.array_equal(pyr[0], img)

    def test_sizes_halve(self):
        sizes = flow._pyramid_sizes(64, 64, FlowParams(pyramid_levels=3), 1)
        pyr = build_pyramid(np.zeros((64, 64)), sizes, 2.0)
        assert [p.shape for p in pyr] == [(64, 64), (32, 32), (16, 16)]

    def test_constant_preserved_across_levels(self):
        sizes = flow._pyramid_sizes(32, 32, FlowParams(pyramid_levels=3), 1)
        for level in build_pyramid(np.full((32, 32), 2.5), sizes, 2.0):
            assert np.abs(level - 2.5).max() <= 1e-12


class TestPyramidSizes:
    @pytest.mark.parametrize("width, height, sizes", [
        (64, 64, [(64, 64), (32, 32), (16, 16), (8, 8)]),
        (100, 100, [(100, 100), (50, 50), (25, 25), (12, 12)]),
        (200, 200, [(200, 200), (100, 100), (50, 50), (25, 25)]),
        (100, 64, [(100, 64), (50, 32), (25, 16), (12, 8)]),
    ])
    def test_plan_of_the_default_params(self, width, height, sizes):
        assert flow._pyramid_sizes(width, height, FlowParams(), 1) == sizes

    @pytest.mark.parametrize("grid, sizes", [(9, [9]), (32, [32, 16, 8])])
    def test_levels_below_8_are_dropped_with_one_warning(self, grid, sizes):
        with pytest.warns(UserWarning, match=f"from 4 to {len(sizes)} level") as record:
            got = flow._pyramid_sizes(grid, grid, FlowParams(), 1)
        assert got == [(s, s) for s in sizes]
        assert len(record) == 1

    def test_stops_at_a_level_that_does_not_shrink(self):
        params = FlowParams(pyramid_spacing=1.05)
        assert flow._pyramid_sizes(32, 32, params, 1) == [(32, 32), (30, 30), (29, 29), (28, 28)]
        with pytest.warns(UserWarning, match="from 4 to 1 level"):
            assert flow._pyramid_sizes(9, 9, params, 1) == [(9, 9)]

    def test_horn_schunck_plans_once_per_pair(self, monkeypatch):
        calls, original = [], flow._pyramid_sizes

        def counted(*args):
            calls.append(args[:2])
            return original(*args)

        monkeypatch.setattr(flow, "_pyramid_sizes", counted)
        prev, nxt = blob_pair((1.0, 0.0))
        horn_schunck(prev, nxt, FlowParams(), blur_sigma=2.0)
        horn_schunck(nxt, prev, FlowParams())
        assert calls == [(64, 64), (64, 64)]


class TestHornSchunck:
    def test_identical_images_zero_flow(self):
        img = GridImage(gaussian_blob(32, 15.5, 15.5))
        f = horn_schunck(img, img, FlowParams(pyramid_levels=2))
        assert np.hypot(f.u, f.v).max() <= 1e-6

    def test_constant_images_zero_flow(self):
        a = GridImage(np.full((32, 32), 1.0))
        with pytest.warns(UserWarning, match="pyramid reduced"):
            f = horn_schunck(a, a, FlowParams())
        assert np.hypot(f.u, f.v).max() == 0.0

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
        assert np.median(np.hypot(round_trip.u, round_trip.v)) <= 0.3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            horn_schunck(GridImage(np.zeros((8, 8))), GridImage(np.zeros((9, 8))), FlowParams())

    def test_level_autoreduction_warns(self):
        img = GridImage(gaussian_blob(16, 8, 8))
        with pytest.warns(UserWarning, match="pyramid reduced") as record:
            horn_schunck(img, img, FlowParams(pyramid_levels=4))
        assert record[0].filename == __file__


class TestEnergyMonotonicity:
    def test_cg_iterates_never_increase_energy(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            ix = rng.standard_normal((12, 12))
            iy = rng.standard_normal((12, 12))
            c = rng.standard_normal((12, 12))
            u0 = rng.standard_normal((12, 12))
            v0 = rng.standard_normal((12, 12))
            energies = cg_energies(ix, iy, c, u0, v0, 0.5, 40)
            assert energies[-1] < 0.5 * energies[0]
            for before, after in zip(energies, energies[1:]):
                assert after <= before * (1 + 1e-12) + 1e-12

    def test_energy_definition_zero_flow(self):
        ix = np.ones((4, 4))
        iy = np.zeros((4, 4))
        c = 2.0 * np.ones((4, 4))
        u = np.zeros((4, 4))
        assert _flow_energy(ix, iy, c, u, u, 1.0) == pytest.approx(64.0)


class TestFullGridOracle:
    """The CG solver, converged to a relative residual of 1e-12, against a
    direct solve of the assembled normal equations."""

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (7, 4), (4, 7),
                                       (100, 100)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("lam", [0.05, 1.0, 15.0])
    def test_solver_bit_identical(self, shape, lam, monkeypatch):
        monkeypatch.setattr(flow, "_CG_TOL", 1e-12)
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        ix, iy, c, u0, v0 = (rng.standard_normal(shape) for _ in range(5))
        got = solve_linearized_flow(ix, iy, c, u0, v0, lam, 1000)
        ref = dense_flow_solve(ix, iy, c, lam)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-8

    def test_single_pixel_fits_the_data_term(self, monkeypatch):
        # No edges: the normal matrix is singular, and every minimizer fits
        # the data term exactly.
        monkeypatch.setattr(flow, "_CG_TOL", 1e-12)
        ix, iy, c, u0, v0 = (np.array([[x]]) for x in (0.7, -1.3, 0.4, 0.2, -0.5))
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 1000)
        assert _flow_energy(ix, iy, c, u, v, 1.0) <= 1e-20

    def test_inputs_untouched(self):
        rng = np.random.default_rng(5)
        ix, iy, c, u0, v0 = (rng.standard_normal((6, 5)) for _ in range(5))
        keep = u0.copy(), v0.copy()
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 3)
        assert np.array_equal(u0, keep[0]) and np.array_equal(v0, keep[1])
        assert u.flags.c_contiguous and v.flags.c_contiguous

    def test_horn_schunck_on_clean_lung_frames(self, monkeypatch):
        from meshsrr.config import preset
        from meshsrr.phantoms import render_scene
        cfg = preset("ex2a")
        prev, nxt = (render_scene(cfg.scene, t, 100, 100) for t in (1, 0))
        got = horn_schunck(prev, nxt, cfg.flow)
        monkeypatch.setattr(flow, "_CG_TOL", 1e-10)
        ref = horn_schunck(prev, nxt, converged_params(cfg.flow))
        assert np.abs(got.u).max() > 0.01
        assert rms_distance([got], [ref]) <= 1e-4


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


def count_calls(monkeypatch, name, module=flow):
    """Wrap ``module.<name>`` and return the list of its calls' args."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_same_flows(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.array_equal(g.u, r.u) and np.array_equal(g.v, r.v)


class TestIdenticalPairShortcut:
    def test_equal_frames_skip_the_solver(self, monkeypatch):
        # Their right-hand side is 0: each solve stops before its first
        # conjugate-gradient iteration, so it takes no transform. A constant
        # pair (hi == lo) is rescaled by 1, not divided by 0.
        counts = count_transforms(monkeypatch)
        params = FlowParams(pyramid_levels=2)
        for data in (gaussian_blob(32, 12.0, 17.0), np.full((32, 32), -2.5), np.zeros((32, 32))):
            img = GridImage(data)
            for out in (horn_schunck(img, GridImage(img.data.copy()), params),
                        horn_schunck(img, img, params, blur_sigma=20.0)):
                assert np.array_equal(out.u, np.zeros((32, 32)))
                assert np.array_equal(out.v, np.zeros((32, 32)))
                assert not np.signbit(out.u).any() and not np.signbit(out.v).any()
        assert counts == {"pairs": 0}

    def test_signed_zeros_count_as_equal(self):
        a = gaussian_blob(16, 8, 8)
        a[0, 0] = 0.0
        b = a.copy()
        b[0, 0] = -0.0
        f = horn_schunck(GridImage(a), GridImage(b),
                         FlowParams(pyramid_levels=1, iterations_per_level=5))
        assert not f.u.any() and not f.v.any()

    def test_nearly_equal_frames_are_registered(self):
        a = gaussian_blob(16, 8, 8)
        b = a.copy()
        b[5, 6] += 1e-6
        params = FlowParams(pyramid_levels=1, iterations_per_level=5)
        for prev, nxt in ((b, a), (a, b)):
            assert np.abs(horn_schunck(GridImage(prev), GridImage(nxt), params).u).max() > 0.0

    def test_reduction_warned_once_per_sequence(self, monkeypatch):
        """A run fits the pyramid to its grid once, naming its own line, and
        registers its pairs without warning again."""
        from meshsrr import experiment
        from meshsrr.config import preset
        from meshsrr.experiment import run_experiment
        from meshsrr.phantoms import COARSE
        calls = count_calls(monkeypatch, "horn_schunck", experiment)
        base = preset("ex1a")
        cfg = replace(base, grid=32, mesh_density=COARSE, k_iters=1,
                      scene=replace(base.scene, frames=4),
                      flow=FlowParams(pyramid_levels=4, iterations_per_level=5))
        with pytest.warns(UserWarning, match="pyramid reduced") as record:
            run_experiment(cfg)
        assert len(record) == 1 and len(calls) == 3
        assert record[0].filename == experiment.__file__


class TestLevelRule:
    """Registration stops at the level on which the inputs' blur is nearest
    5 px wide by ratio; finer levels only resample the flow up."""

    @pytest.mark.parametrize("grid, largest", [(32, 32), (96, 48), (100, 50), (200, 50)])
    def test_run_solves_no_level_finer_than_the_blur_allows(self, monkeypatch, grid,
                                                            largest):
        from meshsrr.config import preset
        from meshsrr.experiment import run_experiment
        solves = count_calls(monkeypatch, "solve_linearized_flow")
        base = preset("ex2b")
        cfg = replace(base, grid=grid, k_iters=1, scene=replace(base.scene, frames=3))
        assert cfg.blur_sigma == grid / 10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # grid 32 has room for 3 of the 4 levels
            run_experiment(cfg)
        assert max(args[0].shape for args in solves) == (largest, largest)

    def test_no_blur_and_a_narrow_blur_solve_every_level(self, monkeypatch):
        prev, nxt = blob_pair((2.5, -1.5))
        solves = count_calls(monkeypatch, "solve_linearized_flow")
        plain = horn_schunck(prev, nxt, FlowParams())
        narrow = horn_schunck(prev, nxt, FlowParams(), blur_sigma=4.9)
        assert {args[0].shape for args in solves} == {(64, 64), (32, 32), (16, 16), (8, 8)}
        assert_same_flows([narrow], [plain])

    def test_a_wide_blur_resamples_the_coarse_flow_up(self, monkeypatch):
        prev, nxt = blob_pair((2.5, -1.5))
        solves = count_calls(monkeypatch, "solve_linearized_flow")
        f = horn_schunck(prev, nxt, FlowParams(), blur_sigma=20.0)
        assert max(args[0].shape for args in solves) == (16, 16)
        support = prev.data > 0.1
        assert abs(f.u[support].mean() - 2.5) <= 0.1
        assert abs(f.v[support].mean() + 1.5) <= 0.1


def linear_problem(seed, side=16):
    rng = np.random.default_rng(seed)
    ix, iy, c = (rng.standard_normal((side, side)) for _ in range(3))
    return ix, iy, c, np.zeros((side, side)), np.zeros((side, side))


def count_transforms(monkeypatch):
    """Wrap ``flow._precondition``, which takes one DCT and its inverse per
    call, in a counter; return the count of transform pairs."""
    counts = {"pairs": 0}
    precondition = flow._precondition

    def counted(*args):
        counts["pairs"] += 1
        return precondition(*args)

    monkeypatch.setattr(flow, "_precondition", counted)
    return counts


def scipy_precondition(r, inv):
    """``flow._precondition`` through ``scipy.fft``."""
    rh = fft.dctn(r, axes=(-2, -1), norm="ortho")
    return fft.idctn(inv[:2] * rh[:1] + inv[1:] * rh[1:], axes=(-2, -1), norm="ortho")


class TestDctMatrix:
    """The preconditioner's DCT-II matrices against ``scipy.fft``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 13, 25, 50, 200])
    def test_matches_scipy_and_is_orthonormal(self, n):
        c = flow._dct_matrix(n)
        assert np.abs(c - fft.dct(np.eye(n), axis=0, norm="ortho")).max() <= 1e-14
        assert np.abs(c @ c.T - np.eye(n)).max() <= 1e-14
        assert not c.flags.writeable

    def test_non_square_solve_matches_scipy(self, monkeypatch):
        ix, iy, c, u0, v0 = np.random.default_rng(31).standard_normal((5, 24, 40))
        inv = flow._block_inverses(np.stack([ix, iy]), 0.5)
        r = np.stack([c, u0])
        assert np.abs(flow._precondition(r, inv) - scipy_precondition(r, inv)).max() <= 1e-14
        got = solve_linearized_flow(ix, iy, c, u0, v0, 0.5, 20)
        monkeypatch.setattr(flow, "_precondition", scipy_precondition)
        ref = solve_linearized_flow(ix, iy, c, u0, v0, 0.5, 20)
        # 20 iterations on random gradients amplify the transforms' rounding.
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-9


class TestConjugateGradients:
    def test_start_within_tolerance_is_returned_unchanged(self, monkeypatch):
        ix, iy, c, u0, v0 = linear_problem(13)
        monkeypatch.setattr(flow, "_CG_TOL", 1e-6)
        u0, v0 = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 1000)
        monkeypatch.undo()
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 100)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)

    def test_cap_is_honoured(self, monkeypatch):
        ix, iy, c, u0, v0 = linear_problem(12)
        counts = count_transforms(monkeypatch)
        iterates = []
        for cap in range(1, 6):
            counts.update(pairs=0)
            iterates.append(solve_linearized_flow(ix, iy, c, u0, v0, 0.05, cap))
            assert counts["pairs"] == cap
        # Not within tolerance yet: every iteration moved the flow.
        for a, b in zip(iterates, iterates[1:]):
            assert not np.array_equal(a[0], b[0])

    def test_transforms_per_iteration(self, monkeypatch):
        ix, iy, c, u0, v0 = linear_problem(14)
        counts = count_transforms(monkeypatch)
        for cap in range(4):
            counts.update(pairs=0)
            solve_linearized_flow(ix, iy, c, u0, v0, 0.05, cap)
            assert counts == {"pairs": cap}
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 1000)
        counts.update(pairs=0)
        solve_linearized_flow(ix, iy, c, u, v, 1.0, 1000)
        assert counts == {"pairs": 0}

    def test_global_translation_recovered(self):
        prev, nxt = blob_pair((2.5, -1.5))
        f = horn_schunck(prev, nxt, FlowParams(lam=15.0))
        support = prev.data > 0.1
        assert abs(f.u[support].mean() - 2.5) <= 0.05
        assert abs(f.v[support].mean() + 1.5) <= 0.05
