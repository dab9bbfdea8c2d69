import mmap
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from meshsrr.config import preset
from meshsrr.errors import DivergenceError
from meshsrr.flow import FlowField
from meshsrr.grid import GridImage
from meshsrr.mesh import FemImage, build_pixel_assignment, upsample
from meshsrr.operators import ObservationModel, _RowBand, gaussian_kernel
from meshsrr.phantoms import COARSE, disc_mesh, render_scene
from meshsrr.srr import SrrConfig, _band_worker, srr_init, srr_step

from oracles import (band_terms, dense_blur_matrix, dense_laplacian_matrix,
                     dense_projection_matrix, pixel_run_sequence,
                     power_iteration_norm, traced_peak)
from test_operators import mask, observe


def make_problem(n=8, kernel_size=3, sigma=1.0, square_mesh=None):
    from meshsrr.mesh import FemMesh
    nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    mesh = FemMesh(nodes, np.array([[0, 1, 2], [0, 2, 3]]))
    asg = build_pixel_assignment(mesh, n, n)
    kernel = gaussian_kernel(kernel_size, sigma)
    return mesh, asg, kernel


def cfg_for(mu=0.01, k_iters=100):
    return SrrConfig(mu=mu, k_iters=k_iters)


def fold(y_ups, flows, cfg, model):
    """The run's SRR fold: frame 0 starts the estimate and takes its step
    with zero flow, frame t >= 1 takes flow t - 1; every state in order."""
    h, w = model.shape
    states, state = [], srr_init(y_ups[0], model)
    for y, flow in zip(y_ups, [FlowField.zeros(w, h), *flows], strict=True):
        state = srr_step(state, y, flow, cfg, model)
        states.append(state)
    return states


def tiny_run_cfg(frames=3, k_iters=2):
    from dataclasses import replace
    from meshsrr.config import preset
    base = preset("ex1b")
    return replace(base, grid=32, k_iters=k_iters, known_motion=True,
                   scene=replace(base.scene, frames=frames))


def cost(x: GridImage, y: GridImage, asg, kernel, alpha) -> float:
    """The reconstruction cost at x, as ``srr_step`` evaluates it."""
    model = ObservationModel(asg, kernel, alpha)
    return band_terms(model, x.data, *model.reduce(y.data))[0]


def cost_gradient(x: GridImage, y: GridImage, asg, kernel, alpha) -> np.ndarray:
    """Twice the model's half gradient: the analytic gradient of ``cost``."""
    model = ObservationModel(asg, kernel, alpha)
    _, residual, band = band_terms(model, x.data, *model.reduce(y.data))
    return 2.0 * band.gradient(residual)


class TestInit:
    def test_cost_nonnegative_after_init(self):
        _, asg, kernel = make_problem()
        y = GridImage(np.random.default_rng(0).standard_normal((8, 8)))
        state = srr_init(y, ObservationModel(asg, kernel, 0.01))
        assert cost(state.x_hat, y, asg, kernel, 0.01) >= 0.0

    def test_constant_observation_stays_constant(self):
        _, asg, kernel = make_problem()
        state = srr_init(GridImage(np.full((8, 8), 2.0)), ObservationModel(asg, kernel, 0.01))
        assert np.abs(state.x_hat.data - 2.0).max() <= 1e-12
        assert state.costs == ()

    def test_zero_observation(self):
        _, asg, kernel = make_problem()
        y = GridImage(np.zeros((8, 8)))
        state = srr_init(y, ObservationModel(asg, kernel, 0.01))
        assert np.abs(state.x_hat.data).max() == 0.0
        rng = np.random.default_rng(1)
        y_obs = GridImage(np.abs(rng.standard_normal((8, 8))))
        inside = asg.inside_mask()
        expected = float((y_obs.data[inside] ** 2).sum())
        assert cost(state.x_hat, y_obs, asg, kernel, 0.0) == pytest.approx(expected)

    def test_grid_mismatch_rejected(self):
        _, asg, kernel = make_problem()
        y = GridImage(np.zeros((8, 9)))
        model = ObservationModel(asg, kernel, 0.01)
        with pytest.raises(ValueError, match="grid"):
            srr_step(srr_init(y, model), y, FlowField.zeros(9, 8), cfg_for(), model)


class TestCost:
    def test_exact_fit_zero_cost(self):
        _, asg, kernel = make_problem()
        rng = np.random.default_rng(2)
        x = GridImage(rng.standard_normal((8, 8)))
        y = GridImage(observe(asg, kernel, x.data))
        assert cost(x, y, asg, kernel, 0.0) <= 1e-20

    def test_matches_dense_quadratic_form(self):
        _, asg, kernel = make_problem()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8))
        A = dense_projection_matrix(asg) @ dense_blur_matrix(mask(kernel), 8, 8)
        S = dense_laplacian_matrix(8, 8)
        inside = asg.inside_mask().ravel()
        r = (y.ravel() - A @ x.ravel()) * inside
        alpha = 0.07
        expected = float(r @ r + alpha * (S @ x.ravel()) @ (S @ x.ravel()))
        got = cost(GridImage(x), GridImage(y), asg, kernel, alpha)
        assert got == pytest.approx(expected, rel=1e-12)


class TestGradient:
    @pytest.mark.parametrize("trial", range(10))
    def test_matches_central_differences(self, trial):
        _, asg, kernel = make_problem()
        rng = np.random.default_rng(100 + trial)
        x = rng.standard_normal((8, 8))
        y = GridImage(rng.standard_normal((8, 8)))
        alpha = 0.05
        g = cost_gradient(GridImage(x), y, asg, kernel, alpha)
        eps = 1e-5
        fd = np.zeros_like(x)
        for j in range(8):
            for i in range(8):
                xp = x.copy(); xp[j, i] += eps
                xm = x.copy(); xm[j, i] -= eps
                fd[j, i] = (cost(GridImage(xp), y, asg, kernel, alpha)
                            - cost(GridImage(xm), y, asg, kernel, alpha)) / (2 * eps)
        rel = np.linalg.norm(fd - g) / np.linalg.norm(g)
        assert rel <= 1e-5


class TestStep:
    def test_fixed_point_when_data_explained(self):
        _, asg, kernel = make_problem()
        rng = np.random.default_rng(4)
        x = GridImage(rng.standard_normal((8, 8)))
        model = ObservationModel(asg, kernel, 0.0)
        y = GridImage(observe(asg, kernel, x.data))
        state = srr_step(srr_init_raw(x), y, FlowField.zeros(8, 8), cfg_for(k_iters=25), model)
        assert np.abs(state.x_hat.data - x.data).max() <= 1e-12
        assert len(state.costs) == 26

    def test_cost_non_increasing_small_step(self):
        mesh, asg, kernel = make_problem()
        rng = np.random.default_rng(5)
        y = upsample(FemImage(mesh, rng.standard_normal(2)), asg)
        model = ObservationModel(asg, kernel, 0.0)
        history = srr_step(srr_init(y, model), y, FlowField.zeros(8, 8),
                           cfg_for(mu=0.01, k_iters=100), model).costs
        assert len(history) == 101
        for before, after in zip(history, history[1:]):
            assert after <= before * (1 + 1e-12) + 1e-15

    def test_descent_under_power_method_bound(self):
        _, asg, kernel = make_problem()
        alpha = 0.3
        lmax = power_iteration_norm(asg, kernel, alpha)
        mu = 0.9 / lmax
        model = ObservationModel(asg, kernel, alpha)
        rng = np.random.default_rng(6)
        y = GridImage(rng.standard_normal((8, 8)))
        history = srr_step(srr_init(y, model), y, FlowField.zeros(8, 8),
                           cfg_for(mu=mu, k_iters=60), model).costs
        for before, after in zip(history, history[1:]):
            assert after <= before * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize("grid", [16, 32, 64])
    @pytest.mark.parametrize("name", ["ex1b", "ex2b"])
    def test_operator_norm_bound_is_tight(self, grid, name):
        from dataclasses import replace
        from meshsrr.config import preset
        cfg = replace(preset(name), grid=grid)
        asg = build_pixel_assignment(disc_mesh(cfg.mesh_density), grid, grid)
        kernel = cfg.resolved_kernel()
        bound = ObservationModel(asg, kernel, cfg.alpha_srr).norm_bound()
        lmax = power_iteration_norm(asg, kernel, cfg.alpha_srr, iterations=600)
        # Power iteration approaches L from below; slack only for rounding.
        assert lmax * (1 - 1e-12) <= bound <= 1.005 * lmax

    def test_divergence_detected_for_huge_step(self):
        _, asg, kernel = make_problem()
        model = ObservationModel(asg, kernel, 0.5)
        rng = np.random.default_rng(7)
        y = GridImage(rng.standard_normal((8, 8)))
        cfg = cfg_for(mu=50.0, k_iters=200)
        grew = r"10.0x its initial value at iteration [1-9]"
        with pytest.raises(DivergenceError, match=grew) as err:
            srr_step(srr_init(y, model), y, FlowField.zeros(8, 8), cfg, model)
        assert not hasattr(err.value, "__notes__")
        # A zero frame stays at zero cost; the next frame diverges.
        zero = GridImage(np.zeros((8, 8)))
        with pytest.raises(DivergenceError, match=grew):
            fold([zero, y], [FlowField.zeros(8, 8)], cfg, model)

    def test_non_finite_cost_is_divergence(self):
        _, asg, kernel = make_problem()
        model = ObservationModel(asg, kernel, 0.1)
        huge = srr_init_raw(GridImage(np.full((8, 8), 1e200)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError, match="non-finite cost inf at iteration 0$"):
                srr_step(huge, GridImage(np.zeros((8, 8))), FlowField.zeros(8, 8),
                         cfg_for(k_iters=5), model)

    def test_other_value_errors_propagate_unchanged(self, monkeypatch):
        _, asg, kernel = make_problem()
        model = ObservationModel(asg, kernel, 0.1)
        y = GridImage(np.random.default_rng(21).standard_normal((8, 8)))

        def broken(self, *args):
            raise ValueError("not a divergence")

        monkeypatch.setattr(_RowBand, "gradient", broken)
        with pytest.raises(ValueError, match="not a divergence") as err:
            srr_step(srr_init(y, model), y, FlowField.zeros(8, 8), cfg_for(k_iters=5), model)
        assert not isinstance(err.value, DivergenceError)

    def test_matches_dense_reference_descent(self):
        """Final cost agrees with an explicit dense-matrix gradient descent."""
        n = 16
        _, asg, kernel = make_problem(n=n, kernel_size=5, sigma=1.2)
        rng = np.random.default_rng(8)
        y = rng.standard_normal((n, n))
        alpha = 0.01
        cfg = cfg_for(mu=0.01, k_iters=100)
        model = ObservationModel(asg, kernel, alpha)

        B = dense_blur_matrix(mask(kernel), n, n)
        A = dense_projection_matrix(asg) @ B
        S = dense_laplacian_matrix(n, n)
        M = A.T @ A + alpha * (S.T @ S)
        b = A.T @ y.ravel()
        x0 = B @ y.ravel()
        xd = x0.copy()
        for _ in range(100):
            xd = xd - cfg.mu * (M @ xd - b)
        r = y.ravel() - A @ xd
        ref_cost = float(r @ r + alpha * (S @ xd) @ (S @ xd))

        state = srr_step(srr_init(GridImage(y), model), GridImage(y),
                         FlowField.zeros(n, n), cfg, model)
        assert state.costs[-1] == pytest.approx(ref_cost, rel=1e-8)

    def test_outside_pixels_reset_to_zero(self):
        mesh = disc_mesh(COARSE)
        n = 32
        asg = build_pixel_assignment(mesh, n, n)
        kernel = gaussian_kernel(5, 1.5)
        model = ObservationModel(asg, kernel, 0.1)
        rng = np.random.default_rng(9)
        y = upsample(FemImage(mesh, rng.standard_normal(mesh.n_elements)), asg)
        state = srr_step(srr_init(y, model), y, FlowField.zeros(n, n), cfg_for(k_iters=5), model)
        assert (state.x_hat.data[~asg.inside_mask()] == 0.0).all()

    def test_determinism(self):
        _, asg, kernel = make_problem()
        cfg = cfg_for(k_iters=30)
        model = ObservationModel(asg, kernel, 0.2)
        rng = np.random.default_rng(10)
        y = GridImage(rng.standard_normal((8, 8)))
        flow = FlowField.constant(8, 8, 0.3, -0.2)
        a = srr_step(srr_init(y, model), y, flow, cfg, model)
        b = srr_step(srr_init(y, model), y, flow, cfg, model)
        assert np.array_equal(a.x_hat.data, b.x_hat.data)
        assert a.costs == b.costs

    def test_last_cost_matches_cost_of_estimate(self):
        _, asg, kernel = make_problem()
        cfg = cfg_for(k_iters=12)
        model = ObservationModel(asg, kernel, 0.15)
        rng = np.random.default_rng(20)
        y = GridImage(rng.standard_normal((8, 8)))
        state = srr_step(srr_init(y, model), y, FlowField.zeros(8, 8), cfg, model)
        assert len(state.costs) == cfg.k_iters + 1
        assert state.costs[-1] == cost(state.x_hat, y, asg, kernel, 0.15)
        assert np.isfinite(state.costs[-1])


def srr_init_raw(x_hat: GridImage):
    """State with a verbatim estimate, bypassing the smoothing start."""
    from meshsrr.srr import SrrState
    return SrrState(x_hat=x_hat, costs=())


class TestRunSequence:
    """The fold of ``srr_step`` over a sequence, as ``run_experiment`` takes it."""

    def test_single_frame_equals_init_plus_one_step(self):
        from meshsrr.experiment import run_experiment
        cfg = tiny_run_cfg(frames=1, k_iters=20)
        result = run_experiment(cfg)
        asg = build_pixel_assignment(disc_mesh(cfg.mesh_density), 32, 32)
        model = ObservationModel(asg, cfg.resolved_kernel(), cfg.alpha_srr)
        y = upsample(result.observations[0], asg)
        expected = srr_step(srr_init(y, model), y, FlowField.zeros(32, 32),
                            cfg.srr_config(), model)
        assert np.array_equal(result.srr_frames[0].data, expected.x_hat.data)
        assert result.cost_histories == (expected.costs,)

    def test_static_scene_cost_non_increasing_over_frames(self, square_mesh):
        n = 8
        asg = build_pixel_assignment(square_mesh, n, n)
        kernel = gaussian_kernel(3, 1.0)
        model = ObservationModel(asg, kernel, 0.0)
        rng = np.random.default_rng(12)
        y = upsample(FemImage(square_mesh, rng.standard_normal(2)), asg)
        states = fold([y] * 6, [FlowField.zeros(n, n)] * 5, cfg_for(k_iters=30), model)
        finals = [s.costs[-1] for s in states]
        for before, after in zip(finals, finals[1:]):
            assert after <= before * (1 + 1e-12) + 1e-15

    def test_step_error_keeps_type_and_gains_frame_note(self, monkeypatch):
        import meshsrr.srr as srr
        from meshsrr.experiment import run_experiment

        class PairError(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")
                self.code, self.detail = code, detail

        original = srr.srr_step
        steps = []

        def flaky(*args, **kwargs):
            steps.append(1)
            if len(steps) == 2:
                raise PairError(7, "synthetic")
            return original(*args, **kwargs)

        monkeypatch.setattr(srr, "srr_step", flaky)
        with pytest.raises(PairError, match="frame 1") as err:
            run_experiment(tiny_run_cfg())
        assert (err.value.code, err.value.detail) == (7, "synthetic")
        assert err.value.__notes__ == ["frame 1"]

    def test_reads_each_frame_and_flow_when_its_step_needs_it(self, monkeypatch):
        """No sequence is copied: frame t is rendered, its observation lifted
        and flow t - 1 read right before step t, once each; frame 0 is lifted
        once, for the start and its step."""
        import meshsrr.experiment as exp
        import meshsrr.srr as srr
        events = []

        def counted(fn, label):
            def wrapper(*args, **kwargs):
                events.append(label(*args))
                return fn(*args, **kwargs)
            return wrapper

        def flows(spec, width, height):
            return map(counted(lambda t: FlowField.zeros(width, height),
                               lambda t: f"f{t}"), range(spec.frames - 1))

        lifts = iter(range(3))
        monkeypatch.setattr(srr, "srr_step", counted(srr.srr_step, lambda *a: "step"))
        monkeypatch.setattr(exp, "upsample",
                            counted(exp.upsample, lambda *a: f"y{next(lifts)}"))
        monkeypatch.setattr(exp, "render_scene",
                            counted(exp.render_scene, lambda spec, t, *a: f"r{t}"))
        monkeypatch.setattr(exp, "scene_flows", flows)
        exp.run_experiment(tiny_run_cfg())
        assert events == ["r0", "y0", "step", "r1", "y1", "f0", "step",
                          "r2", "y2", "f1", "step"]

    def test_error_reading_a_flow_keeps_type_and_gains_frame_note(self, monkeypatch):
        import meshsrr.experiment as exp

        def flow(t):
            if t == 1:
                raise MemoryError("synthetic")
            return FlowField.zeros(32, 32)

        monkeypatch.setattr(exp, "scene_flows", lambda spec, *a: map(flow, range(2)))
        with pytest.raises(MemoryError, match="synthetic") as err:
            exp.run_experiment(tiny_run_cfg())
        assert err.value.__notes__ == ["frame 2"]

    def test_estimated_flows_match_per_frame_registration(self):
        """``run_experiment`` without known motion registers each upsampled
        observation onto the one before it and folds ``srr_step`` over them."""
        from dataclasses import replace
        from meshsrr.config import preset
        from meshsrr.experiment import run_experiment
        from meshsrr.flow import horn_schunck
        cfg = replace(preset("ex2b"), grid=32, k_iters=10,
                      scene=replace(preset("ex2b").scene, frames=5))
        asg = build_pixel_assignment(disc_mesh(cfg.mesh_density), 32, 32)
        scfg = cfg.srr_config()
        model = ObservationModel(asg, cfg.resolved_kernel(), cfg.alpha_srr)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
            y_ups = [upsample(o, asg) for o in result.observations]
            state = srr_init(y_ups[0], model)
            ref, ref_histories, moved = [], [], 0.0
            for t, y in enumerate(y_ups):
                flow = (horn_schunck(y, y_ups[t - 1], cfg.flow) if t
                        else FlowField.zeros(32, 32))
                moved = max(moved, np.abs(flow.u).max())
                state = srr_step(state, y, flow, scfg, model)
                ref.append(state.x_hat)
                ref_histories.append(state.costs)
        assert moved > 0.0
        assert all(np.array_equal(a.data, b.data) for a, b in zip(result.srr_frames, ref))
        assert list(result.cost_histories) == ref_histories and len(ref_histories) == 5


class TestPixelReference:
    """The element-level iteration against the pixel-level reference in
    ``oracles``, which forms the residual ``P B x - y`` on every assigned
    pixel and projects it a second time for the gradient."""

    @pytest.mark.parametrize("known", [True, False], ids=["known", "estimated"])
    @pytest.mark.parametrize("name", ["ex1b", "ex2a"])
    def test_run_sequence_matches_pixel_reference(self, name, known):
        from dataclasses import replace
        from meshsrr.config import preset
        from meshsrr.experiment import run_experiment
        from meshsrr.flow import horn_schunck
        from meshsrr.phantoms import scene_flows
        # At grid 32 the blur is 3.2 px wide, so the run registers on the
        # full grid, as horn_schunck without a blur does.
        cfg = replace(preset(name), grid=32, known_motion=known)
        asg = build_pixel_assignment(disc_mesh(cfg.mesh_density), 32, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
            up = [upsample(o, asg) for o in result.observations]
            flows = (scene_flows(cfg.scene, 32, 32) if known
                     else [horn_schunck(y, y_prev, cfg.flow) for y_prev, y in zip(up, up[1:])])
        ref = pixel_run_sequence(up, flows, cfg.srr_config(), asg,
                                 cfg.resolved_kernel(), cfg.alpha_srr)
        assert len(ref) == len(result.srr_frames) == cfg.scene.frames
        for frame, history, (x, costs) in zip(result.srr_frames,
                                              result.cost_histories, ref):
            assert np.abs(frame.data - x).max() <= 1e-12
            assert (np.abs(np.subtract(history, costs)) <= 1e-12 * np.abs(costs)).all()
            assert len(history) == cfg.k_iters + 1


@pytest.mark.parametrize("k_iters", [1, 7])
def test_srr_step_takes_2k_plus_1_blurs_and_laplacians(monkeypatch, k_iters):
    """K corrections take K + 1 costs and K gradients, one blur and one
    Laplacian each; any further operator application in the loop shows
    here."""
    import meshsrr.operators as operators
    mesh = disc_mesh(COARSE)
    asg = build_pixel_assignment(mesh, 32, 32)
    model = ObservationModel(asg, gaussian_kernel(5, 1.5), 0.1)
    y = upsample(FemImage(mesh, np.random.default_rng(23).standard_normal(mesh.n_elements)),
                 asg)
    state = srr_init(y, model)
    calls = {"blur": 0, "laplacian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators.Kernel, "apply", counted("blur", operators.Kernel.apply))
    monkeypatch.setattr(operators, "_laplacian", counted("laplacian", operators._laplacian))
    srr_step(state, y, FlowField.constant(32, 32, 0.4, -0.3), cfg_for(k_iters=k_iters), model)
    assert calls == {"blur": 2 * k_iters + 1, "laplacian": 2 * k_iters + 1}


def test_a_step_without_a_worker_lifts_each_band_over_its_window():
    """A grid-200 step given no worker takes its two bands in sequence, each
    lifting the residual over only the rows its blur reads: the traced peak
    of a second step stays at or below 4.6 grids (5.08 with one lift over
    the whole grid, kept into the next iteration)."""
    cfg = replace(preset("ex1b"), grid=200)
    model = ObservationModel(build_pixel_assignment(disc_mesh(cfg.mesh_density), 200, 200),
                             cfg.resolved_kernel(), cfg.alpha_srr)
    y = render_scene(cfg.scene, 0, 200, 200)
    flow, srr_cfg = FlowField.zeros(200, 200), SrrConfig(cfg.mu, 5)
    state = srr_step(srr_init(y, model), y, flow, srr_cfg, model)
    _, peak = traced_peak(lambda: srr_step(state, y, flow, srr_cfg, model))
    assert len(model.bands) == 2
    assert peak <= 4.6 * 200 * 200 * 8


def test_a_model_plans_its_bands_once(monkeypatch):
    """The model makes its bands and their shared parts when it is built: a
    grid-200 step given no worker and ``_band_worker`` on a one-band model
    map no memory, and the step leaves the model's bands as they were."""
    cfg = replace(preset("ex1b"), grid=200)
    model = ObservationModel(build_pixel_assignment(disc_mesh(cfg.mesh_density), 200, 200),
                             cfg.resolved_kernel(), cfg.alpha_srr)
    one_band = ObservationModel(*make_problem(n=32)[1:], 0.3)
    y = render_scene(cfg.scene, 0, 200, 200)
    state, bands, maps = srr_init(y, model), model.bands, []
    real = mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: maps.append(args) or real(*args))
    srr_step(state, y, FlowField.zeros(200, 200), SrrConfig(cfg.mu, 2), model)
    assert _band_worker(one_band) is None
    assert maps == [] and model.bands is bands and len(bands) == 2

BLAS_PROBE = """
from dataclasses import replace
from meshsrr.config import preset
from meshsrr.flow import FlowField
from meshsrr.mesh import build_pixel_assignment
from meshsrr.operators import ObservationModel
from meshsrr.phantoms import disc_mesh, render_scene
from meshsrr.srr import SrrConfig, srr_init, srr_step
cfg = replace(preset("ex1b"), grid=200)
model = ObservationModel(build_pixel_assignment(disc_mesh(cfg.mesh_density), 200, 200),
                         cfg.resolved_kernel(), cfg.alpha_srr)
print(len(model.bands))
frames = [render_scene(cfg.scene, t, 200, 200) for t in range(3)]
state = srr_init(frames[0], model)
for y in frames:
    state = srr_step(state, y, FlowField.zeros(200, 200), SrrConfig(cfg.mu, 5), model)
    print(*map(float.hex, state.costs))
"""


def test_costs_do_not_follow_the_blas_thread_count():
    """Grid 200 outside a run takes two bands in sequence; its cost
    histories are the same bits on one OpenBLAS thread and on two."""
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p)
        outs.append(subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, check=True,
                                   capture_output=True, text=True, timeout=120).stdout)
    assert outs[0].splitlines()[0] == "2"
    assert len(outs[0].splitlines()) == 4
    assert outs[0] == outs[1]
