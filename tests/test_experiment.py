import numpy as np
import pytest
from dataclasses import replace

from meshsrr.config import preset
from meshsrr.experiment import run_experiment
from meshsrr.flow import FlowParams
from meshsrr.phantoms import scene_flows, tshape_centers


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
        flows = scene_flows(cfg.scene, 32, 32)
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

        monkeypatch.setattr(exp, "emit_images", boom)
        with pytest.raises(OSError):
            run_experiment(tiny_cfg(output_dir=str(out)))
        assert not out.exists()
        assert (tmp_path / "run.partial").exists()

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

    def test_one_blur_per_run(self, monkeypatch):
        """Degrading every frame, the initial smoothing and the model share
        one banded blur."""
        import meshsrr.operators as operators

        builds = []
        original = operators._BandedBlur.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(operators._BandedBlur, "__init__", counted)
        cfg = replace(preset("ex1a"), grid=40, scene=replace(preset("ex1a").scene, frames=3),
                      known_motion=True)
        with pytest.warns(UserWarning, match="contain no pixel center"):
            result = run_experiment(cfg)
        assert len(result.srr_frames) == 3
        assert len(builds) == 1

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
