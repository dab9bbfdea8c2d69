"""Write ``tests/pinned.json``, the per-frame numbers of small runs that
``test_pinned.py`` recomputes, so that a change which moves a run's numbers
by accident fails tier-1.

The runs: every preset at grid 64 with 5 frames, known and estimated motion
(one row band), and ``ex1b`` at grid 200 with 3 frames, both motions (two
row bands, with a band worker when the process may fork one). Per frame:
the SRR frame's ``math.fsum`` and sum of squares, the first and last cost of
its step, and the LR and SRR ``FrameMetrics``.

Regenerate only for a change that moves outputs on purpose, and list the
pins that moved:

    PYTHONPATH=src python tests/regenerate_pins.py
"""
from __future__ import annotations

import json
import math
from dataclasses import astuple, replace
from pathlib import Path

from meshsrr.config import PRESET_NAMES, preset
from meshsrr.experiment import run_experiment

PINNED = Path(__file__).with_name("pinned.json")

# name -> (preset, grid, frames, known motion)
RUNS = {
    f"{name}-{grid}-{motion}": (name, grid, frames, motion == "known")
    for name, grid, frames in [(p, 64, 5) for p in PRESET_NAMES] + [("ex1b", 200, 3)]
    for motion in ("known", "estimated")
}


def frame_numbers(name: str) -> list[dict]:
    """Run ``RUNS[name]`` and return each frame's pinned numbers."""
    preset_name, grid, frames, known = RUNS[name]
    cfg = preset(preset_name)
    cfg = replace(cfg, grid=grid, known_motion=known, scene=replace(cfg.scene, frames=frames))
    result = run_experiment(cfg)
    out = []
    for x, costs, lr, srr in zip(result.srr_frames, result.cost_histories,
                                 result.lr_metrics.frames, result.srr_metrics.frames):
        out.append({
            "sum": math.fsum(x.data.ravel()),
            "sum_sq": math.fsum((x.data * x.data).ravel()),
            "cost_first": costs[0],
            "cost_last": costs[-1],
            "lr": list(astuple(lr)),
            "srr": list(astuple(srr)),
        })
    return out


def main() -> None:
    pins = {name: frame_numbers(name) for name in RUNS}
    runs = (f'"{name}": [\n' + ",\n".join(f"  {json.dumps(f)}" for f in frames) + "\n ]"
            for name, frames in pins.items())
    PINNED.write_text("{\n " + ",\n ".join(runs) + "\n}\n")
    print(f"wrote {len(pins)} runs to {PINNED}")


if __name__ == "__main__":
    main()
