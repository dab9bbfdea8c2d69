import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft

from meshsrr import flow
from meshsrr.flow import (FlowField, FlowParams, build_pyramid, horn_schunck,
                          horn_schunck_sequence, solve_linearized_flow)
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
        ix, iy, c, u0, v0 = (rng.standard_normal((2, 9, 7)) for _ in range(5))
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
        pyr = build_pyramid(img, 1, 2.0)
        assert len(pyr) == 1
        assert np.array_equal(pyr[0], img)

    def test_sizes_halve(self):
        pyr = build_pyramid(np.zeros((64, 64)), 3, 2.0)
        assert [p.shape for p in pyr] == [(64, 64), (32, 32), (16, 16)]

    def test_constant_preserved_across_levels(self):
        for level in build_pyramid(np.full((32, 32), 2.5), 3, 2.0):
            assert np.abs(level - 2.5).max() <= 1e-12

    def test_stack_matches_each_image(self):
        stack = np.random.default_rng(1).standard_normal((2, 3, 40, 30))
        levels = build_pyramid(stack, 4, 2.0)
        assert [p.shape for p in levels] == [(2, 3, 40, 30), (2, 3, 20, 15),
                                             (2, 3, 10, 8), (2, 3, 5, 4)]
        for idx in np.ndindex(2, 3):
            for got, want in zip(levels, build_pyramid(stack[idx], 4, 2.0)):
                assert np.array_equal(got[idx], want)


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


def count_calls(monkeypatch, name):
    """Wrap ``meshsrr.flow.<name>`` and return the list of its calls' args."""
    from meshsrr import flow
    calls = []
    original = getattr(flow, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, name, counted)
    return calls


@pytest.fixture(scope="module")
def lung_frames():
    from meshsrr.config import preset
    from meshsrr.phantoms import render_scene
    cfg = preset("ex2a")
    return cfg, [render_scene(cfg.scene, t, 100, 100) for t in range(cfg.scene.frames)]


def pairwise(frames, params):
    return [horn_schunck(frames[t], frames[t - 1], params) for t in range(1, len(frames))]


def assert_same_flows(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.array_equal(g.u, r.u) and np.array_equal(g.v, r.v)


class TestIdenticalPairShortcut:
    def test_equal_frames_skip_the_solver(self, monkeypatch):
        calls = count_calls(monkeypatch, "solve_linearized_flow")
        img = GridImage(gaussian_blob(32, 12.0, 17.0))
        f = horn_schunck(img, GridImage(img.data.copy()), FlowParams(pyramid_levels=2))
        seq = horn_schunck_sequence([img] * 4, FlowParams(pyramid_levels=2))
        for out in (f, *seq):
            assert np.array_equal(out.u, np.zeros((32, 32)))
            assert np.array_equal(out.v, np.zeros((32, 32)))
            assert not np.signbit(out.u).any() and not np.signbit(out.v).any()
        assert len(seq) == 3 and calls == []

    def test_signed_zeros_count_as_equal(self):
        a = gaussian_blob(16, 8, 8)
        a[0, 0] = 0.0
        b = a.copy()
        b[0, 0] = -0.0
        frames = [GridImage(a), GridImage(b)]
        params = FlowParams(pyramid_levels=1, iterations_per_level=5)
        assert_same_flows(horn_schunck_sequence(frames, params), pairwise(frames, params))
        assert not horn_schunck_sequence(frames, params)[0].u.any()

    def test_nearly_equal_frames_are_registered(self):
        a = gaussian_blob(16, 8, 8)
        b = a.copy()
        b[5, 6] += 1e-6
        frames = [GridImage(a), GridImage(b), GridImage(a)]
        params = FlowParams(pyramid_levels=1, iterations_per_level=5)
        got = horn_schunck_sequence(frames, params)
        assert_same_flows(got, pairwise(frames, params))
        assert np.abs(got[0].u).max() > 0.0 and np.abs(got[1].u).max() > 0.0

    def test_reduction_warned_once_per_sequence(self):
        frames = [GridImage(gaussian_blob(16, 8 + 0.5 * t, 8)) for t in range(4)]
        with pytest.warns(UserWarning, match="pyramid reduced") as record:
            horn_schunck_sequence(frames, FlowParams(pyramid_levels=4,
                                                     iterations_per_level=5))
        assert len(record) == 1
        assert record[0].filename == __file__


class TestHornSchunckSequence:
    def test_matches_pairwise_on_clean_lung_frames(self, lung_frames, monkeypatch):
        cfg, frames = lung_frames
        keep = [f.data.copy() for f in frames]
        stacks = count_calls(monkeypatch, "_coarse_to_fine")
        solves = count_calls(monkeypatch, "solve_linearized_flow")
        got = horn_schunck_sequence(frames, cfg.flow)
        # The 8 distinct non-identical pairs go in together; the repeats and
        # the four identical pairs come back without a solve. Each level cuts
        # its stacks to 10 000 pixels: 1 pair at 100x100, 4 at 50x50, all 8
        # at 25x25 and 12x12.
        assert [args[0].shape for args in stacks] == [(8, 100, 100)]
        largest = {}
        for args in solves:
            n, h, w = args[0].shape
            largest[h, w] = max(largest.get((h, w), 0), n)
        assert largest == {(12, 12): 8, (25, 25): 8, (50, 50): 4, (100, 100): 1}
        monkeypatch.undo()
        assert_same_flows(got, pairwise(frames, cfg.flow))
        assert all(np.array_equal(f.data, k) for f, k in zip(frames, keep))

    def test_known_motion_flows_solves_distinct_pairs_once(self, lung_frames, monkeypatch):
        from meshsrr.experiment import known_motion_flows
        cfg, frames = lung_frames
        stacks = count_calls(monkeypatch, "_coarse_to_fine")
        flows = known_motion_flows(replace(cfg, grid=100), frames)
        assert len(flows) == len(frames) - 1
        assert sum(args[0].shape[0] for args in stacks) == 8

    def test_matches_pairwise_on_noisy_frames_in_one_stack(self, monkeypatch):
        from meshsrr.config import preset
        from meshsrr.phantoms import render_scene
        cfg = preset("ex2a")
        rng = np.random.default_rng(17)
        frames = [GridImage(render_scene(cfg.scene, t, 24, 24).data
                            + 0.05 * rng.standard_normal((24, 24))) for t in range(7)]
        # An identical pair (2, 2), a repeated pair (2, 1) and 8 distinct pairs.
        frames = frames[:3] + [frames[2], frames[1], frames[2]] + frames[3:] + [frames[0]]
        keep = [f.data.copy() for f in frames]
        stacks = count_calls(monkeypatch, "_coarse_to_fine")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = horn_schunck_sequence(frames, cfg.flow)
            assert [args[0].shape[0] for args in stacks] == [8]
            monkeypatch.undo()
            ref = pairwise(frames, cfg.flow)
        assert_same_flows(got, ref)
        assert np.abs(got[0].u).max() > 0.0
        assert all(np.array_equal(f.data, k) for f, k in zip(frames, keep))

    def test_short_sequences(self):
        img = GridImage(gaussian_blob(16, 8, 8))
        assert horn_schunck_sequence([], FlowParams()) == []
        assert horn_schunck_sequence([img], FlowParams()) == []
        with pytest.raises(ValueError, match="mismatched"):
            horn_schunck_sequence([img, GridImage(np.zeros((15, 16)))], FlowParams())


class TestStackedSolver:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 4), (100, 100)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_slices_and_oracle(self, shape, monkeypatch):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        ix, iy, c, u0, v0 = (rng.standard_normal((3, *shape)) for _ in range(5))
        keep = [a.copy() for a in (ix, iy, c, u0, v0)]
        monkeypatch.setattr(flow, "_CG_TOL", 1e-12)
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 1000)
        for k in range(3):
            args = (ix[k], iy[k], c[k])
            alone = solve_linearized_flow(*args, u0[k], v0[k], 1.0, 1000)
            assert np.array_equal(u[k], alone[0]) and np.array_equal(v[k], alone[1])
            if shape == (1, 1):
                # No edges: the normal matrix is singular, and every
                # minimizer fits the data term exactly.
                assert _flow_energy(*args, u[k], v[k], 1.0) <= 1e-20
            else:
                ref = dense_flow_solve(*args, 1.0)
                assert np.abs(u[k] - ref[0]).max() <= 1e-8
                assert np.abs(v[k] - ref[1]).max() <= 1e-8
        assert u.flags.c_contiguous and v.flags.c_contiguous
        assert u.shape == v.shape == (3, *shape)
        assert all(np.array_equal(a, k) for a, k in zip((ix, iy, c, u0, v0), keep))


def linear_problems(seed, n=2, side=16):
    rng = np.random.default_rng(seed)
    ix, iy, c = (rng.standard_normal((n, side, side)) for _ in range(3))
    return ix, iy, c, np.zeros((n, side, side)), np.zeros((n, side, side))


def count_transforms(monkeypatch):
    """Wrap ``scipy.fft.dctn`` and ``idctn``, which the solver looks up on
    the module at each call, in counters; return the counts."""
    counts = {"dctn": 0, "idctn": 0}

    def counting(name):
        transform = getattr(fft, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(fft, name, counting(name))
    return counts


class TestConjugateGradients:
    def test_stack_matches_each_problem_alone(self):
        ix, iy, c, u0, v0 = linear_problems(11)
        # Problem 0 starts converged, problem 1 from zero.
        u0[0], v0[0] = solve_linearized_flow(ix[0], iy[0], c[0], u0[0], v0[0], 1.0, 100)
        keep = u0.copy(), v0.copy()
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 100)
        assert np.array_equal(u0, keep[0]) and np.array_equal(v0, keep[1])
        assert np.array_equal(u[0], u0[0]) and not np.array_equal(u[1], u0[1])
        for k in (0, 1):
            one = slice(k, k + 1)
            alone = solve_linearized_flow(ix[one], iy[one], c[one], u0[one], v0[one], 1.0, 100)
            assert np.array_equal(u[one], alone[0]) and np.array_equal(v[one], alone[1])

    def test_start_within_tolerance_is_returned_unchanged(self, monkeypatch):
        ix, iy, c, u0, v0 = linear_problems(13, n=1)
        monkeypatch.setattr(flow, "_CG_TOL", 1e-6)
        u0, v0 = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 1000)
        monkeypatch.undo()
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 100)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)

    def test_cap_is_honoured(self, monkeypatch):
        ix, iy, c, u0, v0 = linear_problems(12, n=1)
        counts = count_transforms(monkeypatch)
        iterates = []
        for cap in range(1, 6):
            counts.update(dctn=0)
            iterates.append(solve_linearized_flow(ix, iy, c, u0, v0, 0.05, cap))
            assert counts["dctn"] == cap
        # Not within tolerance yet: every iteration moved the flow.
        for a, b in zip(iterates, iterates[1:]):
            assert not np.array_equal(a[0], b[0])

    def test_transforms_per_iteration(self, monkeypatch):
        ix, iy, c, u0, v0 = linear_problems(14)
        counts = count_transforms(monkeypatch)
        for cap in range(4):
            counts.update(dctn=0, idctn=0)
            solve_linearized_flow(ix, iy, c, u0, v0, 0.05, cap)
            assert counts == {"dctn": cap, "idctn": cap}
        u, v = solve_linearized_flow(ix, iy, c, u0, v0, 1.0, 1000)
        counts.update(dctn=0, idctn=0)
        solve_linearized_flow(ix, iy, c, u, v, 1.0, 1000)
        assert counts == {"dctn": 0, "idctn": 0}

    def test_global_translation_recovered(self):
        prev, nxt = blob_pair((2.5, -1.5))
        f = horn_schunck(prev, nxt, FlowParams(lam=15.0))
        support = prev.data > 0.1
        assert abs(f.u[support].mean() - 2.5) <= 0.05
        assert abs(f.v[support].mean() + 1.5) <= 0.05

    def test_known_motion_flows_converged(self, lung_frames, monkeypatch):
        from meshsrr.experiment import known_motion_flows
        cfg, frames = lung_frames
        cfg = replace(cfg, grid=100)
        got = known_motion_flows(cfg, frames)
        monkeypatch.setattr(flow, "_CG_TOL", 1e-10)
        ref = known_motion_flows(replace(cfg, flow=converged_params(cfg.flow)), frames)
        assert rms_distance(got, ref) <= 1e-4
