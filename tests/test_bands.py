"""The SRR correction in two row bands on two processes: the bands agree
with one band, and no worker outlives the run that forked it."""
import gc
import os
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import meshsrr._bandworker as _bandworker
import meshsrr.srr as srr
from meshsrr.config import preset
from meshsrr.errors import DivergenceError
from meshsrr.experiment import run_experiment
from meshsrr.mesh import build_pixel_assignment
from meshsrr.operators import ObservationModel, _RowBand, _row_bands
from meshsrr.phantoms import disc_mesh

SRC = Path(srr.__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
    or not _bandworker.openblas_threads(),
    reason="two bands need os.fork, two CPUs and an OpenBLAS whose thread count can be set")


def small_cfg(**kw):
    """Grid 64, whose bands are rows [0, 32) and [32, 64)."""
    base = preset("ex1b")
    cfg = replace(base, grid=64, k_iters=20, known_motion=True,
                  scene=replace(base.scene, frames=3))
    return replace(cfg, **kw)


@pytest.fixture
def workers(monkeypatch):
    """Two bands on any grid; the pids of the workers forked."""
    monkeypatch.setattr(srr, "_TWO_BAND_ROWS", 1)
    pids = []
    original = srr._band_worker

    def recorded(model):
        worker = original(model)
        if worker is not None:
            pids.append(worker._pid)
        return worker

    monkeypatch.setattr(srr, "_band_worker", recorded)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def model_on(grid: int, name: str = "ex1b") -> ObservationModel:
    cfg = replace(preset(name), grid=grid)
    return ObservationModel(build_pixel_assignment(disc_mesh(cfg.mesh_density), grid, grid),
                            cfg.resolved_kernel(), cfg.alpha_srr)


def fail_gradient(monkeypatch, in_worker: bool, fail):
    """Make a band's ``half_gradient`` call ``fail`` in the worker, or in
    this process."""
    parent, original = os.getpid(), _RowBand.half_gradient

    def half_gradient(self, smooth, residual):
        if (os.getpid() != parent) == in_worker:
            fail()
        return original(self, smooth, residual)

    monkeypatch.setattr(_RowBand, "half_gradient", half_gradient)


def test_grid_100_keeps_one_band():
    assert srr._TWO_BAND_ROWS > 100


@pytest.mark.parametrize("grid", [64, 200, 201])
def test_bands_split_the_rows_in_half_with_equal_block_counts(grid):
    model = model_on(grid)
    top, bottom = _row_bands(model, np.zeros((2, model._counts.size + 1)), (None, None))
    assert (top._rows, bottom._rows) == (slice(0, grid // 2), slice(grid // 2, grid))
    blocks = [[dst.stop - dst.start for dst, _, _ in model.kernel._bands(grid, grid, band._rows)[0]]
              for band in (top, bottom)]
    assert len(blocks[0]) == len(blocks[1])
    assert sum(blocks[0]) == grid // 2 and sum(blocks[1]) == grid - grid // 2


def test_band_blurs_are_rows_of_the_whole_blur():
    model = model_on(200)
    x = np.random.default_rng(3).standard_normal((200, 200))
    whole = model.kernel.apply(x)
    for rows in (slice(0, 100), slice(100, 200), slice(37, 41)):
        assert np.allclose(model.kernel.apply(x, rows), whole[rows], rtol=0, atol=1e-14)


def test_one_cpu_keeps_one_band(workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_experiment(small_cfg(k_iters=2))
    assert workers == []


def test_two_bands_match_one_band(workers, monkeypatch):
    two = run_experiment(small_cfg())
    assert len(workers) == 1
    assert_reaped(workers[0])
    monkeypatch.setattr(srr, "_TWO_BAND_ROWS", 10 ** 9)
    one = run_experiment(small_cfg())
    assert len(workers) == 1
    for a, b in zip(two.srr_frames, one.srr_frames):
        assert np.abs(a.data - b.data).max() <= 1e-12
    for a, b in zip(two.cost_histories, one.cost_histories):
        assert len(a) == len(b) == 21
        assert np.all(np.abs(np.subtract(a, b)) <= 1e-12 * np.abs(b))
    assert two.srr_metrics.avg_overlap == pytest.approx(one.srr_metrics.avg_overlap, abs=1e-12)


def test_a_run_frees_its_worker_without_the_cycle_collector(monkeypatch):
    """Peak memory stays flat over runs: nothing keeps a closed worker, its
    shared memory or the model it holds alive in a reference cycle."""
    monkeypatch.setattr(srr, "_TWO_BAND_ROWS", 1)
    refs, original = [], _bandworker.start

    def start(model):
        worker = original(model)
        refs.append(weakref.ref(worker))
        return worker

    monkeypatch.setattr(_bandworker, "start", start)
    gc.disable()
    try:
        run_experiment(small_cfg(k_iters=2))
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_a_process_with_threads_keeps_one_band(workers):
    import threading
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        run_experiment(small_cfg(k_iters=2))
    finally:
        release.set()
        thread.join(30.0)
    assert not thread.is_alive()
    assert workers == []


def test_openblas_threads_are_restored(workers):
    get, put = _bandworker.openblas_threads()[0]
    before = get()
    put(2)
    try:
        run_experiment(small_cfg(k_iters=2))
        assert len(workers) == 1 and get() == 2
    finally:
        put(before)


def test_two_band_reruns_are_byte_identical(workers, tmp_path):
    """Acceptance criterion 10 on two bands."""
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        run_experiment(small_cfg(output_dir=str(out)))
    assert len(workers) == 2
    files = sorted(p.name for p in runs[0].iterdir())
    assert files == sorted(p.name for p in runs[1].iterdir())
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_two_bands_raise_the_same_divergence(workers, monkeypatch):
    """Both bands add the same parts into each cost, so a step size past the
    bound stops both at the iteration where one band stops."""
    monkeypatch.setattr(ObservationModel, "norm_bound", lambda self: 0.0)
    cfg = small_cfg(mu=5.0)
    messages = []
    for rows in (1, 10 ** 9):
        monkeypatch.setattr(srr, "_TWO_BAND_ROWS", rows)
        with pytest.raises(DivergenceError) as err:
            run_experiment(cfg)
        messages.append(str(err.value))
    assert len(workers) == 1
    assert_reaped(workers[0])
    assert messages[0] == messages[1]
    assert "at iteration" in messages[0]


def test_a_worker_that_raises_fails_the_run_within_seconds(workers, monkeypatch):
    def fail():
        raise ValueError("synthetic worker failure")

    fail_gradient(monkeypatch, True, fail)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="synthetic worker failure") as err:
        run_experiment(small_cfg())
    assert time.perf_counter() - t0 < 10.0
    assert err.value.__notes__ == ["frame 0"]
    assert_reaped(workers[0])


def test_a_worker_that_dies_fails_the_run_within_seconds(workers, monkeypatch):
    fail_gradient(monkeypatch, True, lambda: os._exit(3))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="band worker"):
        run_experiment(small_cfg())
    assert time.perf_counter() - t0 < 10.0
    assert_reaped(workers[0])


def test_no_worker_outlives_a_run_that_fails_at_frame_2(workers, tmp_path, monkeypatch):
    import meshsrr.experiment as exp

    original = exp.write_pgm16

    def unwritable(img, path):
        if "_t002" in path.name:
            raise PermissionError(f"cannot write {path}")
        return original(img, path)

    monkeypatch.setattr(exp, "write_pgm16", unwritable)
    with pytest.raises(PermissionError) as err:
        run_experiment(small_cfg(output_dir=str(tmp_path / "run")))
    assert err.value.__notes__ == ["frame 2"]
    assert_reaped(workers[0])


def test_keyboard_interrupt_in_a_step_kills_the_worker(workers, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    fail_gradient(monkeypatch, False, interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(small_cfg())
    assert_reaped(workers[0])


def test_leaving_a_cpu_keeps_the_affinity():
    allowed = os.sched_getaffinity(0)
    _bandworker._leave_cpu_of(os.getpid())
    assert os.sched_getaffinity(0) == allowed


def test_worker_exits_on_eof_of_its_commands():
    model = model_on(64)
    worker = _bandworker.BandWorker(model, _bandworker.openblas_threads())
    pid = worker._pid
    try:
        assert model._worker is worker
        worker._commands.close()
        deadline = time.monotonic() + 10.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        worker._pid = None
    finally:
        worker.close()
    assert model._worker is None


def run_python(code: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose stdout, a pipe, is buffered."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)


PREAMBLE = """
import os, signal
from dataclasses import replace
import meshsrr.srr as srr
from meshsrr.config import preset
from meshsrr.experiment import run_experiment
srr._TWO_BAND_ROWS = 1
base = preset("ex1b")
cfg = replace(base, grid=64, k_iters=5, known_motion=True, scene=replace(base.scene, frames=2))
"""


def test_worker_never_flushes_inherited_stdout():
    """Text buffered before the fork is written once, by the parent."""
    done = run_python(PREAMBLE + 'print("once", end="")\nrun_experiment(cfg)\n')
    assert done.returncode == 0, done.stderr
    assert done.stdout == "once"


def test_worker_leaves_with_a_killed_parent():
    """A parent killed in the middle of a run closes the command pipe, and
    the worker then exits, so the stdout pipe they share reaches EOF. The
    text the parent had buffered dies with it: the worker, which leaves on
    its own here, does not write its copy."""
    code = PREAMBLE + """
print("lost", end="")
original = srr.srr_step
def step(*args, **kwargs):
    original(*args, **kwargs)
    os.kill(os.getpid(), signal.SIGKILL)
srr.srr_step = step
run_experiment(cfg)
"""
    done = run_python(code, timeout=30.0)
    assert done.returncode == -9
    assert done.stdout == ""
