"""A forked worker for the bottom of a run's two SRR row bands, which
``srr._band_worker`` forks and the run hands to each ``srr.srr_step``, and
how the two processes meet: it changes a run's speed, not its bits.
Imported only by a run that may fork."""
from __future__ import annotations

import ctypes
import gc
import mmap
import multiprocessing
import os
import signal
import warnings

import numpy as np

from . import srr
from .operators import ObservationModel

# Non-blocking polls of a meeting of the bands before it blocks, every 64th
# followed by a yield: bands that share one CPU then still progress, and
# stay runnable for the scheduler to move one of them. Then blocking waits
# of ``_WAIT_S`` seconds, between which the other process is checked.
_POLLS = 100_000
_WAIT_S = 0.05


def openblas_threads() -> list:
    """The get and set functions of the thread count of each OpenBLAS loaded
    in this process. The blocks of a blur at grid 200 are large enough for
    OpenBLAS to split over its threads, and two bands whose processes each
    keep a spinning pool of them took 5x one band's time."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


def _leave_cpu_of(pid: int) -> None:
    """Move this process off the CPU that process ``pid`` last ran on, then
    let it run wherever it could before. A worker forked onto its parent's
    CPU stayed there beside it for up to a second of polling meetings, at
    1.5x one band's step time."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39: processor
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except (OSError, ValueError, IndexError):
        pass  # the scheduler places the worker


def _await(semaphore, check) -> None:
    """Acquire ``semaphore``: polled, then in blocking waits between which
    ``check`` raises if the other process has gone."""
    for poll in range(_POLLS):
        if semaphore.acquire(False):
            return
        if poll % 64 == 63:
            os.sched_yield()
    while not semaphore.acquire(timeout=_WAIT_S):
        check()


class BandWorker:
    """A forked process that takes the bottom row band of the correction of
    each ``srr.srr_step`` on ``model`` that a run hands it to, bit for bit
    as the step takes both bands without it. It holds no model.

    The one x of a step's correction, ``x``, into which the step predicts,
    and the bands' parts of the cost live in anonymous shared memory made
    before the fork. Each step's target goes down one pipe, on which the
    worker reports when it has left the step. The processes meet at two
    semaphores, whose operations also order the shared memory. The worker
    starts on a CPU other than its parent's, ignores SIGINT, collects no
    garbage cycles and leaves only through ``os._exit``: on EOF of its pipe,
    or when its parent changes.
    """

    def __init__(self, model: ObservationModel, blas):
        ctx = multiprocessing.get_context("fork")
        h, w = model.shape
        width = model._counts.size + 1  # a band's element means, then its ||S x||^2
        buffer = mmap.mmap(-1, 8 * (h * w + 2 * width))
        self.x = np.frombuffer(buffer, count=h * w).reshape(h, w)
        parts = np.frombuffer(buffer, offset=8 * h * w).reshape(2, width)
        self._posts, self._waits = ctx.Semaphore(0), ctx.Semaphore(0)
        self._conn, conn = ctx.Pipe()
        parent = os.getpid()

        def check():  # in the worker
            if os.getppid() != parent:
                raise SystemExit(1)

        def meet():  # in the worker
            self._waits.release()
            _await(self._posts, check)

        self._top, self._bottom = model.bands(parts)
        self._threads = [(put, get()) for get, put in blas]
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork beside OpenBLAS's pool threads; the
            # worker sets their count to 1 and takes no lock that they hold.
            warnings.simplefilter("ignore", DeprecationWarning)
            self._pid = os.fork()
        for put, _ in self._threads:
            put(1)  # in both processes, until close
        if self._pid == 0:
            status = 1
            try:
                gc.disable()  # no finalizer of the parent's garbage runs here
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops it
                _leave_cpu_of(parent)
                self._conn.close()
                self._serve(meet, conn, parent)
                status = 0
            finally:
                os._exit(status)
        conn.close()

    def _serve(self, meet, conn, parent: int) -> None:
        """The worker's loop: a step per command, until EOF or a new parent."""
        while True:
            while not conn.poll(_WAIT_S):
                if os.getppid() != parent:
                    return
            try:
                y_means, y_rest, cfg = conn.recv()
            except EOFError:
                return
            try:
                srr._correct([self._bottom], self.x, y_means, y_rest, cfg, meet)
                report = None
            except Exception as exc:
                report = f"{type(exc).__name__}: {exc}"
            conn.send(report)

    def correct(self, y_means: np.ndarray, y_rest: float,
                cfg: srr.SrrConfig) -> tuple[np.ndarray, list[float]]:
        """The corrections of the step's prediction in ``x``, the top band
        here and the bottom one in the worker; returns a copy of the
        corrected x and the costs. Any exception of the corrections closes
        the worker."""
        try:
            self._conn.send((y_means, y_rest, cfg))
            costs = srr._correct([self._top], self.x, y_means, y_rest, cfg, self._meet)
            report = self._report()
            if report is not None:
                raise RuntimeError(f"the band worker failed: {report}")
        except BaseException:
            self.close()
            raise
        return self.x.copy(), costs

    def _meet(self) -> None:
        self._posts.release()
        _await(self._waits, self._check)

    def _check(self) -> None:
        """Raise when the worker has left the step it shares."""
        if self._conn.poll():
            raise RuntimeError(f"the band worker left the step: {self._report()}")

    def _report(self):
        """The worker's report on its step: None, or the error it raised."""
        try:
            return self._conn.recv()
        except EOFError:
            return "it exited"

    def close(self) -> None:
        """Kill and reap the worker, once, as its run does before it ends."""
        pid, self._pid = self._pid, None
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._conn.close()
        for put, threads in self._threads:
            put(threads)
