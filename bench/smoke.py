#!/usr/bin/env python3
"""Smoke check of the benchmark itself on a tiny grid and a few frames.

    python3 bench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced and untraced sequences give identical quality metrics (the
wrappers change no result), that the per-sequence call counts are as
expected, and that a sequence that raises is counted as failed without
aborting the run. Exits 0 when all checks pass. Takes about a minute.
"""
from __future__ import annotations

import json
import sys
import warnings
from dataclasses import replace

import run
from tracing import PER_LAYER

FRAMES = 4
TINY = ("srr.grid=48", f"scene.frames={FRAMES}")


def tiny(workload: run.Workload) -> run.Workload:
    return replace(workload, sets=workload.sets + TINY)


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_catalogue(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    check(declared == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END", failures)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(declared == list(PER_LAYER),
          "BENCHMARK.json per_layer matches tracing.PER_LAYER", failures)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS", failures)


def check_workload(workload: run.Workload, seed: int, failures: list[str]) -> None:
    name = workload.name
    untraced, metrics = run.run_untraced(workload, seed, seconds=0, min_sequences=2,
                                         setup_repeats=1)
    check(untraced.failed == 0, f"{name}: untraced sequences pass their checks", failures)
    check(set(metrics) == {m for m, _, _ in run.END_TO_END} and
          all(v > 0 for v in metrics.values()),
          f"{name}: every end-to-end metric is emitted and positive", failures)

    traced, layers, _ = run.run_traced(workload, seed)
    check(traced.failed == 0, f"{name}: traced run passes its checks", failures)
    check(list(layers) == [m for m, _ in PER_LAYER],
          f"{name}: every per-layer metric is emitted", failures)
    plain, wrapped = traced.outcomes
    check(plain.quality == wrapped.quality == untraced.outcomes[0].quality,
          f"{name}: traced and untraced quality metrics are identical", failures)
    flows = 0 if name.startswith("tshape") else FRAMES - 1
    check(layers["srr.srr_step.calls"] == FRAMES
          and layers["flow.horn_schunck.calls"] == flows,
          f"{name}: {FRAMES} srr_step and {flows} horn_schunck calls", failures)


def check_fault(workload: run.Workload, seed: int, failures: list[str]) -> None:
    """The first timed sequence raises inside the pipeline; the run goes
    on. The two-frame warm-up sequence is let through."""
    import meshsrr.experiment as experiment
    original = experiment.run_sequence
    calls = []

    def faulty(observations, *args, **kwargs):
        if len(observations) == FRAMES:
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected fault")
        return original(observations, *args, **kwargs)

    experiment.run_sequence = faulty
    try:
        result, _ = run.run_untraced(workload, seed, seconds=0, min_sequences=2,
                                           setup_repeats=1)
    finally:
        experiment.run_sequence = original
    check(len(result.outcomes) == 2 and result.failed == 1
          and result.outcomes[1].error is None,
          f"{workload.name}: a raising sequence counts as failed (1 of 2) "
          "and the run continues", failures)


def main() -> int:
    problem = run.prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    failures: list[str] = []
    check_catalogue(failures)
    for workload in run.WORKLOADS.values():
        check_workload(tiny(workload), 7, failures)
    check_fault(tiny(run.WORKLOADS["tshape-known-200"]), 7, failures)
    check_fault(tiny(run.WORKLOADS["lung-known-100-cli"]), 7, failures)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
