"""The SRR correction in two row bands: the bands agree with one band, a
forked worker gives the same bytes as the parent taking both bands, and no
worker outlives the run that forked it."""
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
import meshsrr.operators as operators
import meshsrr.srr as srr
from meshsrr.config import preset
from meshsrr.errors import DivergenceError
from meshsrr.experiment import run_experiment
from meshsrr.flow import FlowField
from meshsrr.mesh import build_pixel_assignment
from meshsrr.operators import ObservationModel, _RowBand
from meshsrr.phantoms import disc_mesh, render_scene

from oracles import traced_peak

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
    monkeypatch.setattr(operators, "_TWO_BAND_ROWS", 1)
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
    """Make a band's ``gradient`` call ``fail`` in the worker, or in this
    process."""
    parent, original = os.getpid(), _RowBand.gradient

    def gradient(self, *args):
        if (os.getpid() != parent) == in_worker:
            fail()
        return original(self, *args)

    monkeypatch.setattr(_RowBand, "gradient", gradient)


def test_grid_100_keeps_one_band():
    """The grid rows alone fix the bands."""
    assert [band.rows for band in model_on(100).bands()] == [slice(0, 100)]
    rows = operators._TWO_BAND_ROWS
    assert [band.rows for band in model_on(rows).bands()] == [slice(0, rows // 2),
                                                              slice(rows // 2, rows)]


@pytest.mark.parametrize("grid", [64, 200, 201])
def test_bands_split_the_rows_in_half_with_equal_block_counts(grid, monkeypatch):
    monkeypatch.setattr(operators, "_TWO_BAND_ROWS", 1)
    model = model_on(grid)
    top, bottom = model.bands()
    assert (top.rows, bottom.rows) == (slice(0, grid // 2), slice(grid // 2, grid))
    blocks = [[dst.stop - dst.start for dst, _, _ in model.kernel._bands(grid, grid, band.rows)[0]]
              for band in (top, bottom)]
    assert len(blocks[0]) == len(blocks[1])
    assert sum(blocks[0]) == grid // 2 and sum(blocks[1]) == grid - grid // 2


def test_band_blurs_are_rows_of_the_whole_blur():
    model = model_on(200)
    x = np.random.default_rng(3).standard_normal((200, 200))
    whole = model.kernel.apply(x)
    for rows in (slice(0, 100), slice(100, 200), slice(37, 41)):
        assert np.allclose(model.kernel.apply(x, rows), whole[rows], rtol=0, atol=1e-14)


def test_one_cpu_forks_no_worker(workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_experiment(small_cfg(k_iters=2))
    assert workers == []


@pytest.mark.parametrize("fault", ["no OpenBLAS", "fork fails"])
def test_no_openblas_or_a_failed_fork_gives_no_worker(monkeypatch, fault):
    """Each step then takes both bands in the parent."""
    if fault == "no OpenBLAS":
        monkeypatch.setattr(_bandworker, "openblas_threads", lambda: [])
    else:
        def refuse(model, blas):
            raise OSError("no process could be forked")
        monkeypatch.setattr(_bandworker, "BandWorker", refuse)
    assert srr._band_worker(model_on(200)) is None


def test_two_bands_match_one_band(workers, monkeypatch):
    two = run_experiment(small_cfg())
    assert len(workers) == 1
    assert_reaped(workers[0])
    monkeypatch.setattr(operators, "_TWO_BAND_ROWS", 10 ** 9)
    one = run_experiment(small_cfg())
    assert len(workers) == 1
    for a, b in zip(two.srr_frames, one.srr_frames):
        assert np.abs(a.data - b.data).max() <= 1e-12
    for a, b in zip(two.cost_histories, one.cost_histories):
        assert len(a) == len(b) == 21
        assert np.all(np.abs(np.subtract(a, b)) <= 1e-12 * np.abs(b))
    assert two.srr_metrics.avg_overlap == pytest.approx(one.srr_metrics.avg_overlap, abs=1e-12)


def test_a_worker_changes_no_bytes(workers, monkeypatch, tmp_path):
    """A run whose bottom band a forked worker takes, the same run on one
    CPU and the same run in a process with another thread alive, where the
    parent takes both bands, write the same bytes and costs."""
    import threading
    cfg = small_cfg(grid=200)  # where one band and two differ by rounding
    runs = {"worker": run_experiment(replace(cfg, output_dir=str(tmp_path / "worker")))}
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        runs["one_cpu"] = run_experiment(replace(cfg, output_dir=str(tmp_path / "one_cpu")))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        runs["thread"] = run_experiment(replace(cfg, output_dir=str(tmp_path / "thread")))
    finally:
        release.set()
        thread.join(30.0)
    assert len(workers) == 1
    files = sorted(p.name for p in (tmp_path / "worker").iterdir())
    for name in ("one_cpu", "thread"):
        assert runs[name].cost_histories == runs["worker"].cost_histories
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == files
        for file in files:
            assert ((tmp_path / name / file).read_bytes()
                    == (tmp_path / "worker" / file).read_bytes()), (name, file)


def test_a_run_frees_its_worker_without_the_cycle_collector(monkeypatch):
    """Peak memory stays flat over runs: nothing keeps a closed worker, its
    shared memory or the model it holds alive in a reference cycle."""
    monkeypatch.setattr(operators, "_TWO_BAND_ROWS", 1)
    refs, original = [], srr._band_worker

    def band_worker(model):
        worker = original(model)
        refs.append(weakref.ref(worker))
        return worker

    monkeypatch.setattr(srr, "_band_worker", band_worker)
    gc.disable()
    try:
        run_experiment(small_cfg(k_iters=2))
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_a_process_with_threads_forks_no_worker(workers):
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
        monkeypatch.setattr(operators, "_TWO_BAND_ROWS", rows)
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


def test_worker_exits_on_eof_of_its_commands(monkeypatch):
    monkeypatch.setattr(operators, "_TWO_BAND_ROWS", 1)
    model = model_on(64)
    worker = _bandworker.BandWorker(model, _bandworker.openblas_threads())
    pid = worker._pid
    try:
        worker._conn.close()
        deadline = time.monotonic() + 10.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        worker._pid = None
    finally:
        worker.close()


def step_inputs(monkeypatch):
    """Two bands on grid 64: a model, its first frame, zero flow and the
    step's settings."""
    monkeypatch.setattr(operators, "_TWO_BAND_ROWS", 1)
    cfg = small_cfg()
    return (model_on(64), render_scene(cfg.scene, 0, 64, 64), FlowField.zeros(64, 64),
            cfg.srr_config())


def test_a_step_not_handed_the_worker_does_not_use_it(monkeypatch):
    """A worker open on a model takes no band of a step that was not given
    it, and the step has the costs of the same step on a fresh model."""
    model, y, flow, cfg = step_inputs(monkeypatch)
    calls, original = [], _bandworker.BandWorker.correct

    def correct(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_bandworker.BandWorker, "correct", correct)
    worker = _bandworker.BandWorker(model, _bandworker.openblas_threads())
    try:
        step = srr.srr_step(srr.srr_init(y, model), y, flow, cfg, model)
    finally:
        worker.close()
    assert calls == []
    fresh = model_on(64)
    assert step.costs == srr.srr_step(srr.srr_init(y, fresh), y, flow, cfg, fresh).costs


def test_a_step_handed_the_worker_keeps_the_bits_and_its_state(monkeypatch):
    """A step given the worker returns the bits of the step without it, in
    an array that the worker's later steps leave alone."""
    model, y, flow, cfg = step_inputs(monkeypatch)
    worker = _bandworker.BandWorker(model, _bandworker.openblas_threads())
    try:
        first = srr.srr_step(srr.srr_init(y, model), y, flow, cfg, model, worker)
        kept = first.x_hat.data.copy()
        second = srr.srr_step(first, y, flow, cfg, model, worker)
    finally:
        worker.close()
    alone = srr.srr_step(srr.srr_init(y, model), y, flow, cfg, model)
    assert first.costs == alone.costs
    assert np.array_equal(first.x_hat.data, alone.x_hat.data)
    assert np.array_equal(first.x_hat.data, kept)
    assert second.costs == srr.srr_step(alone, y, flow, cfg, model).costs


def test_a_step_warps_once_with_or_without_the_worker(monkeypatch):
    """``srr_step`` makes the prediction of both band paths: one call of
    ``meshsrr.srr.warp_image`` per step, whether a worker takes a band."""
    model, y, flow, cfg = step_inputs(monkeypatch)
    calls, original = [], srr.warp_image

    def warp(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(srr, "warp_image", warp)
    state = srr.srr_init(y, model)
    srr.srr_step(state, y, flow, cfg, model)
    alone = len(calls)
    worker = _bandworker.BandWorker(model, _bandworker.openblas_threads())
    try:
        srr.srr_step(state, y, flow, cfg, model, worker)
    finally:
        worker.close()
    assert (alone, len(calls) - alone) == (1, 1)


def test_a_step_handed_the_worker_holds_one_estimate():
    """At grid 200 (two bands) a step given the worker predicts into the
    worker's shared memory and holds no private estimate through the
    correction: its traced peak stays under 4 grids (4.55 when it corrected
    a private copy)."""
    model = model_on(200)
    cfg = replace(small_cfg(), grid=200)
    y = render_scene(cfg.scene, 0, 200, 200)
    flow, srr_cfg = FlowField.zeros(200, 200), cfg.srr_config()
    worker = _bandworker.BandWorker(model, _bandworker.openblas_threads())
    try:
        state = srr.srr_step(srr.srr_init(y, model), y, flow, srr_cfg, model, worker)
        _, peak = traced_peak(lambda: srr.srr_step(state, y, flow, srr_cfg, model, worker))
    finally:
        worker.close()
    assert peak <= 4.0 * 200 * 200 * 8


def run_python(code: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose stdout, a pipe, is buffered."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)


PREAMBLE = """
import os, signal
from dataclasses import replace
import meshsrr.operators as operators
import meshsrr.srr as srr
from meshsrr.config import preset
from meshsrr.experiment import run_experiment
operators._TWO_BAND_ROWS = 1
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
