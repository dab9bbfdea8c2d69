import gc
import time
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from meshsrr.config import preset
from meshsrr.errors import MeshError
from meshsrr.experiment import run_experiment
from meshsrr.flow import FlowParams
from meshsrr.mesh import build_pixel_assignment
from meshsrr.phantoms import degrade, disc_mesh, render_scene, scene_flows, tshape_centers


def tiny_cfg(**kw):
    base = replace(
        preset("ex1b"),
        grid=32,
        scene=replace(preset("ex1b").scene, frames=3),
        k_iters=5,
        flow=FlowParams(iterations_per_level=5, pyramid_levels=2),
    )
    return replace(base, **kw)


class TestKnownMotionFlows:
    def test_tshape_flows_are_analytic_translations(self):
        cfg = tiny_cfg()
        flows = list(scene_flows(cfg.scene, 32, 32))
        centers = tshape_centers(cfg.scene)
        assert len(flows) == 2
        for t, f in enumerate(flows, start=1):
            du, dv = (centers[t - 1] - centers[t]) * 16.0
            assert np.allclose(f.u, du) and np.allclose(f.v, dv)


class TestRunExperiment:
    def test_static_scene_high_snr_improves_overlap(self):
        # Zero scene motion with known (hence zero) flows at the high-SNR
        # preset level; the full correction budget must not lose to the
        # plain upsampled observations.
        cfg = tiny_cfg(
            scene=replace(tiny_cfg().scene, motion_variance=0.0, frames=4),
            snr_db=10.0,
            grid=48,
            k_iters=100,
            known_motion=True,
        )
        result = run_experiment(cfg)
        assert result.srr_metrics.avg_overlap >= result.lr_metrics.avg_overlap

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(tiny_cfg(output_dir=str(out)))
        names = {p.name for p in out.iterdir()}
        assert "mesh.txt" in names
        assert {"hr_t000.pgm", "up_t000.pgm", "srr_t000.pgm",
                "lr_t000.vals"} <= names
        assert "metrics_lr.csv" in names and "metrics_srr.csv" in names
        csv = (out / "metrics_srr.csv").read_text()
        assert csv.startswith("frame,overlap,hausdorff,masd")
        assert len(result.srr_frames) == 3
        assert len(result.cost_histories) == 3

    def test_stage_times_sum_within_elapsed(self, tmp_path):
        """Timing the stages leaves the artifacts byte-identical across reruns."""
        runs = [run_experiment(tiny_cfg(output_dir=str(tmp_path / d))) for d in "ab"]
        for result in runs:
            stages = result.stage_seconds
            assert list(stages) == ["assignment", "render", "degrade", "flow",
                                    "srr", "metrics", "write"]
            assert all(s >= 0.0 for s in stages.values())
            assert sum(stages.values()) <= result.elapsed_seconds
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_no_output_dir_keeps_everything_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_experiment(tiny_cfg())
        assert list(tmp_path.iterdir()) == []
        assert len(result.lr_metrics.frames) == 3

    def test_failure_marks_directory_partial(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        import meshsrr.experiment as exp

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(exp, "write_pgm16", boom)
        with pytest.raises(OSError):
            run_experiment(tiny_cfg(output_dir=str(out)))
        assert not out.exists()
        assert (tmp_path / "run.partial").exists()

    def test_step_error_leaves_the_frames_written_so_far(self, tmp_path, monkeypatch):
        """Errors surface in frame order: frames 0 and 1 are written before
        step 2 fails, and no metric table is."""
        import meshsrr.srr as srr

        original = srr.srr_step
        steps = []

        def flaky(*args, **kwargs):
            steps.append(1)
            if len(steps) == 3:
                raise ValueError("synthetic")
            return original(*args, **kwargs)

        monkeypatch.setattr(srr, "srr_step", flaky)
        cfg = tiny_cfg(scene=replace(tiny_cfg().scene, frames=4),
                       output_dir=str(tmp_path / "run"))
        with pytest.raises(ValueError, match="synthetic") as err:
            run_experiment(cfg)
        assert err.value.__notes__ == ["frame 2"]
        names = {p.name for p in (tmp_path / "run.partial").iterdir()}
        assert {"hr_t000.pgm", "hr_t001.pgm"} <= names and "hr_t002.pgm" not in names
        assert not any(name.startswith("metrics_") for name in names)

    def test_one_observation_model_per_run(self, monkeypatch):
        import meshsrr.operators as operators

        builds = []
        original = operators.ObservationModel.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(operators.ObservationModel, "__init__", counted)
        result = run_experiment(tiny_cfg(scene=replace(tiny_cfg().scene, frames=6)))
        assert len(result.srr_frames) == 6
        assert len(builds) == 1

    @staticmethod
    def count_band_lists(monkeypatch) -> list[int]:
        """The side lengths of the banded 1-D blur matrices built from here on."""
        import meshsrr.operators as operators

        sides = []
        original = operators._band_blocks

        def counted(taps, n):
            sides.append(n)
            return original(taps, n)

        monkeypatch.setattr(operators, "_band_blocks", counted)
        return sides

    def test_one_blur_per_run(self, monkeypatch):
        """Degrading every frame, the initial smoothing and the model share
        one banded blur, whose rows and columns share one matrix on a square
        grid."""
        sides = self.count_band_lists(monkeypatch)
        cfg = replace(preset("ex1a"), grid=40, scene=replace(preset("ex1a").scene, frames=3),
                      known_motion=True)
        with pytest.warns(UserWarning, match="contain no pixel center"):
            result = run_experiment(cfg)
        assert len(result.srr_frames) == 3
        assert sides == [40]

    def test_registration_shares_the_pyramid_blurs(self, monkeypatch):
        """Every pair's pyramids take their Gaussian from one cache, so a
        20-frame estimated run builds one matrix per pyramid level below the
        top, plus the observation blur's."""
        import meshsrr.flow as flow

        flow._pyramid_kernel.cache_clear()
        sides = self.count_band_lists(monkeypatch)
        cfg = replace(preset("ex2b"), grid=100, known_motion=False)
        result = run_experiment(cfg)
        assert len(result.srr_frames) == 20
        assert sorted(sides) == [25, 50, 100, 100]

    def test_degrade_error_carries_frame_context(self, monkeypatch):
        import meshsrr.experiment as exp

        original = exp.degrade

        def flaky(*args, frame=0):
            if frame == 2:
                raise ValueError("synthetic failure")
            return original(*args, frame=frame)

        monkeypatch.setattr(exp, "degrade", flaky)
        with pytest.raises(ValueError, match="frame 2"):
            run_experiment(tiny_cfg())

    def test_degrade_error_keeps_type_and_attributes(self, monkeypatch):
        import meshsrr.experiment as exp

        class PairError(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")
                self.code, self.detail = code, detail

        original = exp.degrade

        def flaky(*args, frame=0):
            if frame == 2:
                raise PairError(5, "synthetic")
            return original(*args, frame=frame)

        monkeypatch.setattr(exp, "degrade", flaky)
        with pytest.raises(PairError) as err:
            run_experiment(tiny_cfg())
        assert (err.value.code, err.value.detail) == (5, "synthetic")
        assert err.value.__notes__ == ["frame 2"]


class TestFramesOnAccess:
    def test_result_keeps_the_observations(self):
        cfg = tiny_cfg(scene=replace(tiny_cfg().scene, frames=4))
        result = run_experiment(cfg)
        assert isinstance(result.observations, tuple) and len(result.observations) == 4
        asg = build_pixel_assignment(disc_mesh(cfg.mesh_density), 32, 32)
        for t, obs in enumerate(result.observations):
            observed = degrade(render_scene(cfg.scene, t, 32, 32), asg, cfg.resolved_kernel(),
                               cfg.snr_db, cfg.degrade_seed, frame=t)
            assert np.array_equal(obs.values, observed.values)

    @pytest.mark.parametrize("known", [True, False], ids=["known", "estimated"])
    def test_each_stage_lifts_each_observation_once(self, monkeypatch, tmp_path, known):
        """The loop lifts every observation once, for its registration, its
        step, its LR score and its writes."""
        import meshsrr.experiment as exp

        original = exp.upsample
        for out in ("", str(tmp_path / "run")):
            lifts = {}

            def counted(obs, asg):
                lifts[id(obs)] = lifts.get(id(obs), 0) + 1
                return original(obs, asg)

            monkeypatch.setattr(exp, "upsample", counted)
            cfg = tiny_cfg(scene=replace(tiny_cfg().scene, frames=4), known_motion=known,
                           output_dir=out)
            result = run_experiment(cfg)
            assert sorted(lifts.values()) == [1] * 4
            assert set(lifts) == {id(obs) for obs in result.observations}

    @pytest.mark.parametrize("known", [True, False], ids=["known", "estimated"])
    def test_each_frame_is_rendered_once(self, monkeypatch, tmp_path, known):
        """To degrade it and to score it, with or without artifacts."""
        import meshsrr.experiment as exp

        original = exp.render_scene
        for out in ("", str(tmp_path / "run")):
            renders = []

            def counted(spec, t, *args):
                renders.append(t)
                return original(spec, t, *args)

            monkeypatch.setattr(exp, "render_scene", counted)
            run_experiment(tiny_cfg(scene=replace(tiny_cfg().scene, frames=4),
                                    known_motion=known, output_dir=out))
            assert renders == [0, 1, 2, 3]

    @pytest.mark.parametrize("error", [ValueError, MeshError, MemoryError])
    def test_error_rendering_a_truth_for_scoring_keeps_its_type(self, monkeypatch, error):
        """The truth that frame t is scored against is the frame rendered to
        degrade; an error rendering it is not taken for an empty binarized
        frame ("cannot be scored") and names its frame."""
        import meshsrr.experiment as exp

        original = exp.render_scene
        renders = []

        def flaky(spec, t, *args):
            renders.append(t)
            if len(renders) == 2:
                raise error("synthetic")
            return original(spec, t, *args)

        monkeypatch.setattr(exp, "render_scene", flaky)
        with pytest.raises(error, match="synthetic") as err:
            run_experiment(tiny_cfg())
        assert type(err.value) is error
        assert err.value.__notes__ == ["frame 1"]

    def test_renders_count_toward_the_stage_that_reads_them(self, monkeypatch, tmp_path):
        """Each stage times its own calls: the render of a frame counts to
        render, the registration to flow and the lift to srr, not to the
        scoring or writing that reads them."""
        import meshsrr.experiment as exp

        delay = 0.05

        def slow(fn):
            def wrapper(*args):
                time.sleep(delay)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(exp, "render_scene", slow(exp.render_scene))
        monkeypatch.setattr(exp, "upsample", slow(exp.upsample))
        monkeypatch.setattr(exp, "horn_schunck", slow(exp.horn_schunck))
        result = run_experiment(tiny_cfg(output_dir=str(tmp_path / "run")))
        stages = result.stage_seconds
        assert stages["render"] >= 3 * delay
        assert stages["flow"] >= 2 * delay and stages["srr"] >= 3 * delay
        assert stages["metrics"] + stages["write"] < 3 * delay


@pytest.mark.parametrize("name, known", [("ex1b", True), ("ex2a", True),
                                         ("ex1b", False), ("ex2a", False)],
                         ids=["ex1b", "ex2a", "ex1b-estimated", "ex2a-estimated"])
def test_traced_peak_grows_by_about_one_frame_per_frame(name, known):
    """A run keeps per frame its observation's element values and its SRR
    frame: no rendered frame, upsampled frame or flow field. So the traced
    memory peak grows by at most 1.5 grid frames per added frame (about 1
    measured; 3 when the rendered and upsampled frames were kept, 5 with
    the lung flows, and about 4 for estimated motion while the upsampled
    observations were registered in one stack)."""
    n = 96

    def peak(frames):
        base = preset(name)
        cfg = replace(base, grid=n, k_iters=5, known_motion=known,
                      scene=replace(base.scene, frames=frames))
        gc.collect()
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = 16, 32
    per_frame = (peak(many) - peak(few)) / (many - few)
    assert per_frame <= 1.5 * n * n * 8
