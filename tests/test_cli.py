import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meshsrr.cli import main
from meshsrr.fileio import (read_flow, read_values, write_mesh, write_pgm16,
                            write_values)
from meshsrr.grid import GridImage
from meshsrr.phantoms import COARSE, disc_mesh


@pytest.fixture
def small_run_args(tmp_path):
    """A fast, fully wired experiment override set."""
    out = tmp_path / "out"
    return [
        "run", "--preset", "ex1b", "-o", str(out),
        "--set", "srr.grid=32", "--set", "scene.frames=3",
        "--set", "srr.k_iters=5", "--set", "flow.iterations_per_level=5",
        "--set", "flow.pyramid_levels=2",
    ], out


class TestRunCommand:
    def test_print_defaults_exits_zero(self, capsys):
        assert main(["run", "--print-defaults"]) == 0
        text = capsys.readouterr().out
        assert "[scene]" in text and "kernel_sigma" in text

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scene]\nframes = many\n")
        assert main(["run", "-c", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exits_4(self, capsys):
        assert main(["run", "-c", "/nonexistent/x.cfg"]) == 4

    def test_bad_set_syntax_exits_2(self, capsys):
        assert main(["run", "--set", "frames=3"]) == 2

    def test_small_experiment_writes_artifacts(self, small_run_args, capsys):
        args, out = small_run_args
        assert main(args + ["--motion", "estimated"]) == 0
        series = sorted(p.name for p in (out / "estimated").glob("srr_t*.pgm"))
        assert series == ["srr_t000.pgm", "srr_t001.pgm", "srr_t002.pgm"]
        assert (out / "estimated" / "metrics_lr.csv").exists()
        assert (out / "estimated" / "metrics_srr.csv").exists()
        assert (out / "estimated" / "mesh.txt").exists()
        stdout = capsys.readouterr().out
        assert "SRR: overlap=" in stdout

    def test_both_motion_modes_reported(self, small_run_args, capsys):
        args, out = small_run_args
        assert main(args) == 0
        assert (out / "estimated" / "metrics_srr.csv").exists()
        assert (out / "known" / "metrics_srr.csv").exists()
        stdout = capsys.readouterr().out
        # The estimated sequence runs and reports first.
        assert 0 <= stdout.index("[estimated motion]") < stdout.index("[known motion]")

    def test_rerun_byte_identical(self, tmp_path):
        argv = ["run", "--preset", "ex1b",
                "--set", "srr.grid=32", "--set", "scene.frames=2",
                "--set", "srr.k_iters=3", "--set", "flow.iterations_per_level=3",
                "--set", "flow.pyramid_levels=1", "--motion", "estimated"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        files_a = sorted((a / "estimated").iterdir())
        files_b = sorted((b / "estimated").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    @pytest.mark.parametrize("setting", [
        "srr.mu=-1", "srr.mu=nan", "srr.k_iters=0", "srr.alpha=-1",
        "degrade.snr_db=inf", "degrade.snr_db=nan", "srr.kernel_sigma=nan",
        "srr.kernel_sigma=inf",
        "scene.motion_variance=nan",
        "scene.background=-2 scene.inclusion=-1",
        "degrade.snr_db=4000", "degrade.snr_db=-4000",
    ])
    def test_bad_config_value_exits_2(self, setting, monkeypatch, capsys):
        import meshsrr.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the experiment ran with a bad config value")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        argv = ["run", "--set", "srr.grid=16", "--set", "scene.frames=2",
                "--motion", "known"]
        for item in setting.split():
            argv += ["--set", item]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "degrade.snr_db=-3200",
        "scene.background=1e300 scene.inclusion=2e300",
        "scene.background=1e308 scene.inclusion=-1e308",
        # A finite blurred frame whose sums over the coarse elements overflow.
        "degrade.mesh=COARSE srr.grid=64 scene.inclusion=1e308",
    ])
    def test_non_finite_degraded_frame_exits_2(self, setting, capsys):
        """Values that pass the config checks but overflow on the way through
        the blur, the mesh averaging or the noise scaling."""
        argv = ["run", "--preset", "ex1a", "--set", "srr.grid=16",
                "--set", "scene.frames=2", "--motion", "known"]
        for item in setting.split():
            argv += ["--set", item]
        with warnings.catch_warnings():
            # The fine mesh has elements without a pixel centre at grid 16.
            warnings.filterwarnings("ignore", ".*contain no pixel center", UserWarning)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.endswith("not finite; frame 0\n")

    @pytest.mark.parametrize("sigma", ["1e-300", "1e-160"])
    def test_tiny_kernel_sigma_runs_without_warning(self, sigma, capsys):
        """A sigma whose square underflows is the delta mask, not NaN taps."""
        argv = ["run", "--preset", "ex1a", "--set", "srr.grid=16", "--set", "scene.frames=2",
                "--motion", "known", "--set", "srr.kernel_size=15",
                "--set", f"srr.kernel_sigma={sigma}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The fine mesh has elements without a pixel centre at grid 16.
            warnings.filterwarnings("ignore", ".*contain no pixel center", UserWarning)
            assert main(argv) == 0
        assert "SRR: overlap=" in capsys.readouterr().out

    @pytest.mark.parametrize("setting, size", [
        # The pixel map of 10^16 pixels (71 PiB of int64), refused by area
        # before any array sized by the grid side or the kernel is built.
        ("srr.grid=100000000", "PiB"),
        # The T-shape walk, refused when frame 0 is rendered.
        ("scene.frames=100000000000", "TiB"),
    ])
    def test_config_too_large_for_memory_exits_2(self, setting, size, capsys):
        argv = ["run", "--preset", "ex1a", "--motion", "known", "--set", "srr.grid=16",
                "--set", "scene.frames=2", "--set", setting]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: too large for memory: ")
        assert f" {size} " in err and err.count("\n") == 1

    def test_huge_grid_is_refused_in_small_memory(self):
        """A fresh interpreter refuses the 10^8 grid within 263 MiB of peak
        resident memory, the peak when the config built the 30500001-tap
        Gaussian and then failed on its 2-D mask."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p)
        argv = ["run", "--preset", "ex1a", "--motion", "known", "--set", "scene.frames=2",
                "--set", "srr.grid=100000000"]
        probe = ("import resource, subprocess, sys\n"
                 f"rc = subprocess.run([sys.executable, '-m', 'meshsrr.cli', *{argv!r}]).returncode\n"
                 "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True)
        rc, peak_kib = map(int, out.stdout.split())
        assert rc == 2 and "too large for memory" in out.stderr
        assert peak_kib <= 263 * 1024

    @pytest.mark.parametrize("key", ["scene.seed", "degrade.seed"])
    @pytest.mark.parametrize("seed", [2**63, 2**64, -2**63 - 1])
    def test_seed_outside_int64_exits_2(self, key, seed, capsys):
        """The generator key holds 64 bits: larger seeds would fail in it or
        alias another seed's stream."""
        argv = ["run", "--preset", "ex1a", "--motion", "known", "--set", "srr.grid=16",
                "--set", "scene.frames=2", "--set", f"{key}={seed}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        section = key.split(".")[0]
        assert capsys.readouterr().err == (
            f"configuration error: {section} seed {seed} is outside [-2**63, 2**63)\n")

    @pytest.mark.parametrize("key", ["scene.seed", "degrade.seed"])
    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    def test_int64_seed_limits_run(self, key, seed, capsys):
        argv = ["run", "--preset", "ex1a", "--motion", "known", "--set", "srr.grid=16",
                "--set", "scene.frames=2", "--set", f"{key}={seed}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The fine mesh has elements without a pixel centre at grid 16.
            warnings.filterwarnings("ignore", ".*contain no pixel center", UserWarning)
            assert main(argv) == 0
        assert "SRR: overlap=" in capsys.readouterr().out

    @pytest.mark.parametrize("lam", ["inf", "1e308"])
    def test_unusable_flow_lambda_exits_2(self, lam, capsys):
        argv = ["run", "--preset", "ex2a", "--motion", "estimated", "--set", "srr.grid=32",
                "--set", "scene.frames=3", "--set", f"flow.lambda={lam}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("motion", ["known", "estimated"])
    def test_empty_binarized_frame_exits_2(self, motion, capsys):
        """A scene whose estimates stay below zero leaves an empty 25%-of-max
        mask, which has no boundary to measure."""
        argv = ["run", "--preset", "ex2a", "--motion", motion,
                "--set", "srr.grid=32", "--set", "scene.frames=2",
                "--set", "scene.background=-5", "--set", "scene.inclusion=1"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: SRR sequence cannot be scored: ")
        assert err.endswith("empty mask boundary; frame 0\n")

    def test_summary_prints_stage_times(self, small_run_args, capsys):
        args, _ = small_run_args
        assert main(args + ["--motion", "known"]) == 0
        stdout = capsys.readouterr().out
        assert ("  time: assignment=" in stdout and " srr=" in stdout
                and " write=" in stdout)

    def test_known_motion_is_not_a_config_key(self, tmp_path, monkeypatch, capsys):
        """--motion selects the motion mode; a config file cannot."""
        import meshsrr.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the experiment ran with an unknown key")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        cfg = tmp_path / "known.cfg"
        cfg.write_text("[run]\nknown_motion = true\n")
        assert main(["run", "-c", str(cfg)]) == 2
        assert "unknown key 'known_motion'" in capsys.readouterr().err

    def test_step_size_refused_before_any_work(self, monkeypatch, capsys):
        import meshsrr.experiment as exp
        import meshsrr.srr as srr

        def unreachable(*args, **kwargs):
            raise AssertionError("work started with a step size mu * L >= 1")

        for module, name in ((exp, "render_scene"), (exp, "horn_schunck"),
                             (srr, "srr_step")):
            monkeypatch.setattr(module, name, unreachable)
        argv = ["run", "--set", "srr.grid=16", "--set", "scene.frames=2",
                "--motion", "estimated", "--set", "srr.mu=20"]
        assert main(argv) == 2
        assert "mu * L" in capsys.readouterr().err

    def test_alpha_that_overflows_the_bound_is_refused(self, capsys):
        argv = ["run", "--preset", "ex2b", "--motion", "known", "--set", "srr.grid=64",
                "--set", "scene.frames=3", "--set", "srr.alpha=1e308"]
        assert main(argv) == 2
        assert "mu * L = inf" in capsys.readouterr().err

    def test_step_size_refused_by_the_bound(self, monkeypatch, capsys):
        """A mu that 30 power iterations would pass but the bound refuses."""
        from dataclasses import replace
        import meshsrr.experiment as exp
        from meshsrr.config import ExperimentConfig
        from meshsrr.mesh import build_pixel_assignment
        from meshsrr.operators import ObservationModel
        from oracles import power_iteration_norm

        cfg = replace(ExperimentConfig(), grid=32)
        asg = build_pixel_assignment(disc_mesh(cfg.mesh_density), 32, 32)
        kernel = cfg.resolved_kernel()
        low = power_iteration_norm(asg, kernel, cfg.alpha_srr)
        bound = ObservationModel(asg, kernel, cfg.alpha_srr).norm_bound()
        mu = 0.5 * (1 / low + 1 / bound)
        assert mu * low < 1 <= mu * bound

        def unreachable(*args, **kwargs):
            raise AssertionError("work started with a step size mu * L >= 1")

        monkeypatch.setattr(exp, "render_scene", unreachable)
        argv = ["run", "--set", "srr.grid=32", "--set", "scene.frames=2",
                "--motion", "known", "--set", f"srr.mu={mu!r}"]
        assert main(argv) == 2
        assert "mu * L" in capsys.readouterr().err

    def test_motion_bound_that_lets_the_t_leave_the_body_exits_2(
            self, tmp_path, monkeypatch, capsys):
        import meshsrr.experiment as exp

        def unreachable(*args, **kwargs):
            raise AssertionError("a frame was rendered with the T outside the body")

        monkeypatch.setattr(exp, "render_scene", unreachable)
        monkeypatch.chdir(tmp_path)
        argv = ["run", "-o", str(tmp_path / "out"), "--set", "scene.motion_bound=0.5"]
        assert main(argv) == 2
        assert "leave the body disc" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_undecodable_config_file_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[scene]\nframes = 3\xff\n")
        assert main(["run", "-c", str(cfg)]) == 4
        assert "bad.cfg" in capsys.readouterr().err

    def test_error_message_carries_frame_note(self, small_run_args, monkeypatch, capsys):
        import meshsrr.experiment as exp
        from meshsrr.errors import FileFormatError

        def broken(*args, frame=0):
            raise FileFormatError("synthetic failure")

        monkeypatch.setattr(exp, "degrade", broken)
        args, _ = small_run_args
        assert main(args + ["--motion", "known"]) == 4
        assert "i/o error: synthetic failure; frame 0" in capsys.readouterr().err


class TestResampleCommand:
    def test_up_then_down_round_trip(self, tmp_path):
        mesh = disc_mesh(COARSE)
        mesh_path = tmp_path / "mesh.txt"
        write_mesh(mesh, mesh_path)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(mesh.n_elements)
        vals_path = tmp_path / "v.txt"
        write_values(vals, vals_path)

        up_path = tmp_path / "up.pgm"
        assert main(["resample", "up", "--mesh", str(mesh_path),
                     "--values", str(vals_path), "--grid", "64",
                     "-o", str(up_path)]) == 0

        down_path = tmp_path / "down.txt"
        assert main(["resample", "down", "--mesh", str(mesh_path),
                     "--image", str(up_path), "-o", str(down_path)]) == 0
        back = read_values(down_path)
        # One 16-bit quantization through the graymap plus averaging.
        assert np.abs(back - vals).max() <= 2e-4

    @pytest.mark.parametrize("body", [
        b"FEMESH 1\n3 1\n0 0\n1 0\n0 1\xff\n0 1 2\n",   # not UTF-8
        b"FEMESH 1\n3 1\n0 0\n1 0\n0 1\n0 2 1\n",        # clockwise element
        b"FEMESH 1\n3 1\n0 0\n1 0\n2e-1 0\n0 1 2\n",     # degenerate element
    ], ids=["non-utf8", "clockwise", "degenerate"])
    def test_bad_mesh_file_exits_4(self, tmp_path, capsys, body):
        mesh_path = tmp_path / "mesh.txt"
        mesh_path.write_bytes(body)
        vals_path = tmp_path / "v.txt"
        write_values(np.zeros(1), vals_path)
        assert main(["resample", "up", "--mesh", str(mesh_path),
                     "--values", str(vals_path), "--grid", "8",
                     "-o", str(tmp_path / "x.pgm")]) == 4
        assert "mesh.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_overlapping_elements_exit_4(self, tmp_path, capsys, direction):
        # Element 1 lies inside element 0.
        mesh_path = tmp_path / "mesh.txt"
        mesh_path.write_text("FEMESH 1\n4 2\n-1 -1\n1 -1\n0 1\n0 0\n0 1 2\n0 1 3\n")
        write_values(np.zeros(2), tmp_path / "v.txt")
        write_pgm16(GridImage(np.zeros((8, 8))), tmp_path / "g.pgm")
        source = (["--values", str(tmp_path / "v.txt"), "--grid", "8"] if direction == "up"
                  else ["--image", str(tmp_path / "g.pgm")])
        assert main(["resample", direction, "--mesh", str(mesh_path), *source,
                     "-o", str(tmp_path / "out")]) == 4
        assert "overlaps" in capsys.readouterr().err

    def test_value_range_beyond_float_exits_4(self, tmp_path, capsys):
        """Element values of +-1e308 span more than the largest float, so no
        graymap scale holds them: refused before anything is written."""
        mesh = disc_mesh(COARSE)
        write_mesh(mesh, tmp_path / "mesh.txt")
        write_values(np.where(np.arange(mesh.n_elements) % 2, 1e308, -1e308), tmp_path / "v.txt")
        out = tmp_path / "x.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["resample", "up", "--mesh", str(tmp_path / "mesh.txt"),
                         "--values", str(tmp_path / "v.txt"), "--grid", "16",
                         "-o", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {out}: value range [-1e+308, 1e+308] is too wide "
            "to rescale to 16 bits\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "mesh.txt", tmp_path / "v.txt"]

    def test_element_sums_beyond_float_exit_4(self, tmp_path, capsys):
        """Pixels of about 1.07e308 read back finite, but their sums over a
        coarse element overflow: refused naming the image, nothing written."""
        write_mesh(disc_mesh(COARSE), tmp_path / "mesh.txt")
        image = tmp_path / "g.pgm"
        image.write_bytes(b"P5\n64 64\n65535\n" + b"\xff" * (2 * 64 * 64))
        image.with_suffix(".scale.txt").write_text("offset = 1e308\nscale = 1e303\n")
        out = tmp_path / "out.vals"
        assert main(["resample", "down", "--mesh", str(tmp_path / "mesh.txt"),
                     "--image", str(image), "-o", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {image}: element values contain non-finite entries\n")
        assert not out.exists()

    def test_subnormal_value_range_exits_4(self, tmp_path, capsys):
        """Element values 0 and 5e-324 span less than 65535 normal floats, so
        the graymap scale would underflow: refused before anything is written."""
        mesh = disc_mesh(COARSE)
        write_mesh(mesh, tmp_path / "mesh.txt")
        write_values(np.where(np.arange(mesh.n_elements) % 2, 5e-324, 0.0), tmp_path / "v.txt")
        out = tmp_path / "x.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["resample", "up", "--mesh", str(tmp_path / "mesh.txt"),
                         "--values", str(tmp_path / "v.txt"), "--grid", "16",
                         "-o", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {out}: value range [0, 4.9406564584124654e-324] is too narrow "
            "to rescale to 16 bits\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "mesh.txt", tmp_path / "v.txt"]

    def test_value_count_mismatch_exits_4(self, tmp_path, capsys):
        mesh_path = tmp_path / "mesh.txt"
        write_mesh(disc_mesh(COARSE), mesh_path)
        vals_path = tmp_path / "v.txt"
        write_values(np.zeros(3), vals_path)
        assert main(["resample", "up", "--mesh", str(mesh_path),
                     "--values", str(vals_path), "--grid", "8",
                     "-o", str(tmp_path / "x.pgm")]) == 4
        assert "v.txt" in capsys.readouterr().err

    def test_missing_arguments_exit_2(self, tmp_path):
        mesh_path = tmp_path / "mesh.txt"
        write_mesh(disc_mesh(COARSE), mesh_path)
        assert main(["resample", "up", "--mesh", str(mesh_path),
                     "-o", str(tmp_path / "x.pgm")]) == 2


class TestFlowCommand:
    def test_registers_shifted_pair(self, tmp_path):
        n = 32
        xs = np.arange(n)
        X, Y = np.meshgrid(xs, xs)
        blob = lambda cx: np.exp(-((X - cx) ** 2 + (Y - 15.5) ** 2) / 18.0)
        target = tmp_path / "t.pgm"
        source = tmp_path / "s.pgm"
        write_pgm16(GridImage(blob(17.5)), target)
        write_pgm16(GridImage(blob(15.5)), source)
        out = tmp_path / "o.flow"
        assert main(["flow", "--target", str(target), "--source", str(source),
                     "--levels", "2", "-o", str(out)]) == 0
        f = read_flow(out)
        # Warping the source (blob at 15.5) by the flow must land on the
        # target (blob at 17.5), so the field points back by two pixels.
        support = blob(17.5) > 0.2
        assert abs(f.u[support].mean() + 2.0) <= 0.3


    @pytest.mark.parametrize("lam", ["inf", "1e308"])
    def test_unusable_lam_exits_2(self, tmp_path, lam, capsys):
        img = GridImage(np.arange(256.0).reshape(16, 16))
        for name in ("a.pgm", "b.pgm"):
            write_pgm16(img, tmp_path / name)
        out = tmp_path / "f.flo"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["flow", "--target", str(tmp_path / "a.pgm"), "--source",
                         str(tmp_path / "b.pgm"), "-o", str(out), "--lam", lam]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


class TestMetricsCommand:
    def test_compares_directories(self, tmp_path, capsys):
        ref = tmp_path / "ref"
        cand = tmp_path / "cand"
        ref.mkdir()
        cand.mkdir()
        img = np.zeros((16, 16))
        img[4:9, 5:11] = 2.0
        for t in range(2):
            write_pgm16(GridImage(img), ref / f"f{t}.pgm")
            write_pgm16(GridImage(img), cand / f"f{t}.pgm")
        assert main(["metrics", "--reference", str(ref),
                     "--candidate", str(cand)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("frame,overlap,hausdorff,masd")
        assert out.strip().split("\n")[-1] == "avg,1,0,0"

    def test_undecodable_sidecar_exits_4(self, tmp_path):
        ref = tmp_path / "ref"
        ref.mkdir()
        write_pgm16(GridImage(np.full((4, 4), 1.0)), ref / "a.pgm")
        (ref / "a.scale.txt").write_bytes(b"offset = 0\xff\nscale = 1\n")
        assert main(["metrics", "--reference", str(ref),
                     "--candidate", str(ref)]) == 4

    def test_count_mismatch_exits_4(self, tmp_path):
        ref = tmp_path / "ref"
        cand = tmp_path / "cand"
        ref.mkdir()
        cand.mkdir()
        write_pgm16(GridImage(np.full((4, 4), 1.0)), ref / "a.pgm")
        assert main(["metrics", "--reference", str(ref),
                     "--candidate", str(cand)]) == 4


@pytest.fixture
def cli_inputs(tmp_path):
    """A 16x16 image, a shorter one, an image that binarizes to an empty
    mask, and a mesh with its values, each in its own file or directory."""
    img = np.zeros((16, 16))
    img[4:9, 5:11] = 2.0
    for name, data in (("ref", img), ("empty", np.full((16, 16), -1.0))):
        (tmp_path / name).mkdir()
        write_pgm16(GridImage(data), tmp_path / name / "a.pgm")
    write_pgm16(GridImage(img), tmp_path / "square.pgm")
    write_pgm16(GridImage(img[:12]), tmp_path / "short.pgm")
    write_mesh(disc_mesh(COARSE), tmp_path / "mesh.txt")
    write_values(np.zeros(256), tmp_path / "v.txt")
    return tmp_path


@pytest.mark.parametrize("args,code", [
    ("metrics --reference ref --candidate ref --fraction 2", 2),
    ("flow --target square.pgm --source square.pgm --lam -1 -o o.flow", 2),
    ("flow --target square.pgm --source square.pgm --levels 0 -o o.flow", 2),
    ("resample up --mesh mesh.txt --values v.txt --grid -4 -o x.pgm", 2),
    ("flow --target square.pgm --source short.pgm -o o.flow", 4),
    ("metrics --reference ref --candidate empty", 4),
], ids=["fraction", "lam", "levels", "grid", "flow-shapes", "empty-mask"])
def test_argument_errors_exit_with_documented_code(cli_inputs, monkeypatch, capsys,
                                                  args, code):
    monkeypatch.chdir(cli_inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args.split()) == code
    prefix = "configuration error" if code == 2 else "i/o error"
    assert capsys.readouterr().err.startswith(prefix)
