#!/usr/bin/env python3
"""mesh-srr benchmark: whole sequences through the package's public entry
points, timed, checked and, on request, traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``END_TO_END``); with ``--trace 1``
they are the per-layer ones (``tracing.PER_LAYER``) of one traced sequence.
The exit code is 0 only when every sequence passed its correctness checks.
See ``bench/README.md`` for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

# numpy, scipy and meshsrr are imported inside the functions that use them,
# after prepare() has pinned the thread pools they read at import time.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# One process generates all load. The BLAS/OpenMP pools stay at one thread
# and the package may use every core the process is allowed to run on.
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MESH_SRR_THREADS": str(NPROC),
}

SETUP_REPEATS = 5
SEED_STRIDE = 1_000_003
COST_TOLERANCE = 1e-12  # acceptance criterion 6

# (name, unit, better) of the end-to-end metrics of an untraced run.
END_TO_END = (
    ("sequence_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("srr_overlap", "fraction", "higher"),
    ("srr_hausdorff", "normalized", "lower"),
    ("srr_masd", "normalized", "lower"),
)


@dataclass(frozen=True)
class Workload:
    """One scenario: a preset, a motion mode and ``--set`` overrides. The
    seed becomes ``scene.seed`` and ``degrade.seed``. A CLI workload runs
    ``mesh-srr run`` in-process and writes artifacts; the others call
    ``run_experiment``."""

    name: str
    preset: str
    known_motion: bool
    sets: tuple[str, ...]
    cli: bool = False

    def overrides(self, seed: int) -> tuple[str, ...]:
        return self.sets + (f"scene.seed={seed}", f"degrade.seed={seed}")

    def config(self, seed: int):
        from meshsrr.config import parse_config, preset
        lines = []
        for item in self.overrides(seed):
            key, _, value = item.partition("=")
            section, _, name = key.partition(".")
            lines.append(f"[{section}]\n{name} = {value}")
        cfg = parse_config("\n".join(lines), base=preset(self.preset))
        return replace(cfg, known_motion=self.known_motion)

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = ["run", "--preset", self.preset,
                "--motion", "known" if self.known_motion else "estimated",
                "-o", str(out)]
        for item in self.overrides(seed):
            argv += ["--set", item]
        return argv


WORKLOADS = {w.name: w for w in (
    # Paper scale, 61-tap blur, analytic motion: no flow calls at all, so it
    # is the bypass workload for registration changes and the one where the
    # blur and its adjoint weigh most.
    Workload("tshape-known-200", "ex1b", True, ("srr.grid=200",)),
    # Registration on clean frames through known_motion_flows, plus CLI and
    # config parsing, artifact writes and the 1024-element mesh.
    Workload("lung-known-100-cli", "ex2a", True, ("srr.grid=100",), cli=True),
)}


@dataclass
class Outcome:
    """One attempted sequence. The experiment result is released once
    checked, so that earlier sequences do not raise the memory peak of
    later ones; its quality metrics and cost histories are kept."""

    seconds: float
    result: object = None          # meshsrr ExperimentResult
    error: str | None = None
    digest: str | None = None      # CLI artifacts
    artifact_bytes: int = 0
    quality: tuple[float, ...] = ()
    histories: tuple = ()

    def release(self) -> None:
        if self.result is not None:
            s, lr = self.result.srr_metrics, self.result.lr_metrics
            self.quality = (s.avg_overlap, s.avg_hausdorff, s.avg_masd,
                            lr.avg_overlap, lr.avg_hausdorff, lr.avg_masd)
            self.histories = self.result.cost_histories
            self.result = None


def _digest(directory: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        total += len(blob)
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest(), total


def _run_cli(workload: Workload, seed: int, tracer) -> Outcome:
    import meshsrr.cli as cli
    captured = []
    inner = cli.run_experiment

    def capture(*args, **kwargs):
        captured.append(inner(*args, **kwargs))
        return captured[-1]

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        out = tmp / "run"
        cli.run_experiment = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                if tracer is None:
                    code = cli.main(workload.argv(seed, out))
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(workload.argv(seed, out))
                seconds = time.perf_counter() - t0
        finally:
            cli.run_experiment = inner
        outcome = Outcome(seconds, captured[0] if captured else None)
        if code != 0:
            outcome.error = f"mesh-srr run exited with code {code}"
        else:
            outcome.digest, outcome.artifact_bytes = _digest(out)
        return outcome
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_api(workload: Workload, seed: int, tracer) -> Outcome:
    from meshsrr.experiment import run_experiment
    cfg = workload.config(seed)
    t0 = time.perf_counter()
    if tracer is None:
        result = run_experiment(cfg)
    else:
        with tracer.span("experiment.run_experiment"):
            result = run_experiment(cfg)
    return Outcome(time.perf_counter() - t0, result)


def gate(outcome: Outcome, scene_kind: str) -> str | None:
    """Per-sequence correctness: finite frames, monotone cost histories and
    SRR better than the upsampled observations, as acceptance criteria 8
    (lung: overlap, Hausdorff and MASD) and 9 (T-shape: overlap and
    Hausdorff) require."""
    import numpy as np
    from meshsrr.phantoms import T_SHAPE
    result = outcome.result
    if result is None:
        return "no experiment result"
    for t, frame in enumerate(result.srr_frames):
        if not np.all(np.isfinite(frame.data)):
            return f"SRR frame {t} is not finite"
    for t, history in enumerate(result.cost_histories):
        for i, (before, after) in enumerate(zip(history, history[1:])):
            if not after <= before * (1 + COST_TOLERANCE) + COST_TOLERANCE:
                return f"cost rose at frame {t}, iteration {i}"
    s, lr = result.srr_metrics, result.lr_metrics
    if not s.avg_overlap > lr.avg_overlap:
        return f"SRR overlap {s.avg_overlap} does not beat upsampled {lr.avg_overlap}"
    if not s.avg_hausdorff < lr.avg_hausdorff:
        return f"SRR hausdorff {s.avg_hausdorff} does not beat upsampled {lr.avg_hausdorff}"
    if scene_kind != T_SHAPE and not s.avg_masd < lr.avg_masd:
        return f"SRR MASD {s.avg_masd} does not beat upsampled {lr.avg_masd}"
    return None


def sequence_seed(seed: int, index: int) -> int:
    """Seed of the index-th sequence of an untraced run: the run's own seed
    first, then seeds derived from it, so that the quality metrics average
    over several motion and noise realizations."""
    return seed + SEED_STRIDE * index


class Run:
    """The sequences of one benchmark run and their checks. A sequence that
    repeats the seed of an earlier good one must repeat its quality metrics
    bit for bit and, for the CLI, its artifacts byte for byte."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.outcomes: list[Outcome] = []
        self.references: dict[int, Outcome] = {}

    def sequence(self, seed: int, tracer=None) -> Outcome:
        runner = _run_cli if self.workload.cli else _run_api
        t0 = time.perf_counter()
        try:
            outcome = runner(self.workload, seed, tracer)
        except Exception:
            outcome = Outcome(time.perf_counter() - t0, error=traceback.format_exc())
        if outcome.error is None:
            outcome.error = gate(outcome, self.workload.config(seed).scene.kind)
        outcome.release()
        if outcome.error is None:
            ref = self.references.setdefault(seed, outcome)
            if outcome.quality != ref.quality:
                outcome.error = f"quality {outcome.quality} differs from repeat {ref.quality}"
            elif outcome.digest != ref.digest:
                outcome.error = "CLI artifacts differ from the first repeat"
        if outcome.error is not None:
            print(f"sequence {len(self.outcomes)} failed: {outcome.error}",
                  file=sys.stderr)
        self.outcomes.append(outcome)
        return outcome

    @property
    def failed(self) -> int:
        return sum(o.error is not None for o in self.outcomes)

    def good(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is None]


def measure_setup(workload: Workload, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter that imports meshsrr and
    builds the workload's mesh and pixel assignment."""
    cfg = workload.config(seed)
    code = ("import meshsrr\n"
            "from meshsrr.phantoms import disc_mesh\n"
            "from meshsrr.mesh import build_pixel_assignment\n"
            f"build_pixel_assignment(disc_mesh({cfg.mesh_density!r}), {cfg.grid}, {cfg.grid})\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed two-frame sequence at the workload's grid, so that the
    timed sequences do not pay first-use costs such as heap growth."""
    short = replace(workload, sets=workload.sets + ("scene.frames=2",))
    try:
        (_run_cli if workload.cli else _run_api)(short, seed, None)
    except Exception:
        pass  # a broken pipeline fails the timed sequences as well


def run_untraced(workload: Workload, seed: int, seconds: float,
                 min_sequences: int = 1, setup_repeats: int = SETUP_REPEATS):
    """Sequences back to back until ``seconds`` have passed (at least
    ``min_sequences``), each on its own derived seed; returns the run and
    its end-to-end metrics. Times are medians and quality metrics means
    over the sequences that passed."""
    setup = measure_setup(workload, seed, setup_repeats)
    run = Run(workload)
    warm_up(workload, seed)
    t0 = time.perf_counter()
    while len(run.outcomes) < min_sequences or time.perf_counter() - t0 < seconds:
        run.sequence(sequence_seed(seed, len(run.outcomes)))
    good = run.good() or run.outcomes
    metrics = {
        "sequence_s": statistics.median(o.seconds for o in good),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for i, name in enumerate(("srr_overlap", "srr_hausdorff", "srr_masd")):
        metrics[name] = statistics.fmean(o.quality[i] if o.quality else 0.0 for o in good)
    return run, metrics


def run_traced(workload: Workload, seed: int):
    """One untraced and one traced sequence on the same inputs; returns the
    run, the per-layer metrics of the traced one and the tracer."""
    import numpy as np
    from meshsrr.operators import warp_image
    from tracing import Tracer, layer_metrics

    run = Run(workload)
    warm_up(workload, seed)
    plain = run.sequence(seed)
    tracer = Tracer()
    with tracer.installed(seq=1):
        traced = run.sequence(seed, tracer)
    if tracer.missing:
        print(f"not found, recorded as zero calls: {', '.join(tracer.missing)}",
              file=sys.stderr)
    extras = {"srr.cost_ratio": 0.0, "flow.residual_ratio": 0.0,
              "fileio.bytes": traced.artifact_bytes,
              "trace.overhead": traced.seconds / plain.seconds}
    histories = traced.histories
    extras["srr.iterations"] = sum(len(h) - 1 for h in histories)
    cost_ratios = [h[-1] / h[0] for h in histories if h and h[0] > 0]
    if cost_ratios:
        extras["srr.cost_ratio"] = statistics.fmean(cost_ratios)
    ratios = []
    for prev, nxt, flow in tracer.flow_calls:
        before = np.linalg.norm(nxt.data - prev.data)
        if before > 0:
            ratios.append(np.linalg.norm(warp_image(nxt, flow).data - prev.data) / before)
    if ratios:
        extras["flow.residual_ratio"] = statistics.fmean(ratios)
    return run, layer_metrics(tracer, 1, extras), tracer


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report(workload: Workload, seed: int, trace: int, run: Run,
            metrics: dict, units: dict, env: dict) -> dict:
    attempted = len(run.outcomes)
    doc = {"correct": run.failed == 0, "attempted": attempted, "failed": run.failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(f"workload {workload.name}  seed {seed}  trace {trace}  "
          f"sequences {attempted}  env {json.dumps(env)}")
    for name, m in doc["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {run.failed / attempted:.6g} fraction")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(doc, workload=workload.name, seed=seed, trace=trace, env=env,
                  sequences=[{"seconds": o.seconds, "error": o.error} for o in run.outcomes])
    (OUT / f"result-{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return doc


def prepare() -> str | None:
    """Pin the thread pools and import meshsrr from this checkout's
    ``src/``; returns a message when that is not possible."""
    if not (SRC / "meshsrr" / "__init__.py").is_file():
        return f"meshsrr sources not found under {SRC}"
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import meshsrr
    if Path(meshsrr.__file__).resolve().parent != SRC / "meshsrr":
        return f"imported meshsrr from {meshsrr.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        from tracing import PER_LAYER
        run, metrics, tracer = run_traced(workload, args.seed)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json",
                     {"workload": workload.name, "seed": args.seed, "env": env})
        units = dict(PER_LAYER)
    else:
        run, metrics = run_untraced(workload, args.seed, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
    doc = _report(workload, args.seed, args.trace, run, metrics, units, env)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
