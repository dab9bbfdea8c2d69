"""Outside-in tracing for the benchmark.

The tracer replaces public functions of the ``meshsrr`` modules at the
module attribute their callers look up at call time, records one span per
call in memory (name, start, end, parent, sequence id) and reduces the spans
of one sequence to the per-layer metrics listed in ``PER_LAYER``. Nothing in
the package itself is changed; ``Tracer.installed`` restores every original
on exit.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). The same span name may be bound in several
# modules; all call sites then count towards one layer metric.
SPAN_TARGETS = (
    ("meshsrr.cli", "run_experiment", "experiment.run_experiment"),
    ("meshsrr.experiment", "render_scene", "phantoms.render_scene"),
    ("meshsrr.experiment", "degrade", "phantoms.degrade"),
    ("meshsrr.experiment", "build_pixel_assignment", "mesh.build_pixel_assignment"),
    ("meshsrr.experiment", "upsample", "mesh.upsample"),
    ("meshsrr.experiment", "horn_schunck", "flow.horn_schunck"),
    ("meshsrr.experiment", "known_motion_flows", "experiment.known_motion_flows"),
    ("meshsrr.experiment", "run_sequence", "srr.run_sequence"),
    ("meshsrr.experiment", "evaluate_sequence", "metrics.evaluate_sequence"),
    ("meshsrr.experiment", "emit_images", "fileio.emit_images"),
    ("meshsrr.experiment", "write_values", "fileio.write_values"),
    ("meshsrr.experiment", "write_mesh", "fileio.write_mesh"),
    ("meshsrr.srr", "horn_schunck", "flow.horn_schunck"),
    ("meshsrr.srr", "srr_step", "srr.srr_step"),
    ("meshsrr.srr", "convolve_neumann", "operators.convolve_neumann"),
    ("meshsrr.srr", "blur_adjoint", "operators.blur_adjoint"),
    ("meshsrr.srr", "laplacian_apply", "operators.laplacian_apply"),
    ("meshsrr.srr", "warp_image", "operators.warp_image"),
    ("meshsrr.srr", "apply_hd", "mesh.apply_hd"),
    ("meshsrr.srr", "upsample", "mesh.upsample"),
    ("meshsrr.flow", "solve_linearized_flow", "flow.solve_linearized_flow"),
    ("meshsrr.flow", "build_pyramid", "flow.build_pyramid"),
    ("meshsrr.metrics", "hausdorff", "metrics.hausdorff"),
    ("meshsrr.metrics", "masd", "metrics.masd"),
)

# Per-layer metrics of one traced sequence: (name, unit). Every one is
# better when lower. Layers whose function no longer exists report zeros.
PER_LAYER = (
    ("operators.blur_adjoint.calls", "count"),
    ("operators.blur_adjoint.ms", "ms"),
    ("operators.blur_adjoint.s", "s"),
    ("operators.convolve_neumann.calls", "count"),
    ("operators.convolve_neumann.ms", "ms"),
    ("operators.convolve_neumann.s", "s"),
    ("operators.laplacian_apply.calls", "count"),
    ("operators.laplacian_apply.ms", "ms"),
    ("operators.laplacian_apply.s", "s"),
    ("operators.warp_image.s", "s"),
    ("mesh.apply_hd.calls", "count"),
    ("mesh.apply_hd.ms", "ms"),
    ("mesh.apply_hd.s", "s"),
    ("srr.srr_step.calls", "count"),
    ("srr.srr_step.ms_p50", "ms"),
    ("srr.srr_step.s", "s"),
    ("srr.srr_step.self_s", "s"),
    ("srr.iterations", "count"),
    ("srr.cost_ratio", "ratio"),
    ("grid.GridImage.count", "count"),
    ("grid.GridImage.s", "s"),
    ("flow.horn_schunck.calls", "count"),
    ("flow.horn_schunck.ms_p50", "ms"),
    ("flow.horn_schunck.s", "s"),
    ("flow.solve_linearized_flow.calls", "count"),
    ("flow.solve_linearized_flow.ms", "ms"),
    ("flow.solve_linearized_flow.s", "s"),
    ("flow.build_pyramid.s", "s"),
    ("flow.residual_ratio", "ratio"),
    ("metrics.evaluate_sequence.s", "s"),
    ("metrics.hausdorff.ms", "ms"),
    ("metrics.masd.ms", "ms"),
    ("metrics.boundary_points", "count"),
    ("mesh.build_pixel_assignment.s", "s"),
    ("mesh.upsample.s", "s"),
    ("phantoms.s", "s"),
    ("fileio.write.s", "s"),
    ("fileio.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("experiment.run_experiment.s", "s"),
    ("trace.overhead", "ratio"),
)

_ID, _PARENT, _SEQ, _NAME, _START, _END = range(6)


class Tracer:
    """In-memory span recorder with call-site wrappers.

    Spans are lists ``[id, parent_id, seq, name, start, end]``; ``seq`` is
    the sequence the span belongs to and is set by the caller before each
    sequence. Besides spans the tracer keeps plain counters (GridImage
    constructions, boundary points) and the (prev, nxt, flow) triples of
    every Horn-Schunck call for the residual check.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.seq = 0
        self.counters: dict[str, float] = {}
        self.flow_calls: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.seq, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[_ID])
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            if name == "flow.horn_schunck":
                self.flow_calls.append((args[0], args[1], result))
            return result
        return wrapper

    def _patch(self, owner, attr: str, label: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _counted_init(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters["grid.GridImage.count"] += 1
                counters["grid.GridImage.s"] += time.perf_counter() - t
        return wrapper

    def _counted_boundary(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = fn(*args, **kwargs)
            counters["metrics.boundary_points"] += points.shape[0]
            return points
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, f"{module_name}.{attr}",
                        lambda fn, name=name: self._spanned(fn, name))
        grid = importlib.import_module("meshsrr.grid")
        self._patch(getattr(grid, "GridImage", None), "__post_init__",
                    "meshsrr.grid.GridImage.__post_init__", self._counted_init)
        self._patch(importlib.import_module("meshsrr.metrics"), "boundary",
                    "meshsrr.metrics.boundary", self._counted_boundary)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, seq: int):
        """Wrap every target for the duration of one sequence."""
        self.seq = seq
        self.counters = {"grid.GridImage.count": 0, "grid.GridImage.s": 0.0,
                         "metrics.boundary_points": 0}
        self.flow_calls = []
        self.missing = []
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path, header: dict) -> None:
        """Write every recorded span, after the measured work is done."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=["id", "parent", "seq", "name", "start", "end"],
                   spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def span_stats(spans: list[list], seq: int) -> dict[str, dict]:
    """Per-name calls, total, self time and per-call durations for one
    sequence. Self time is a span's duration minus its children's."""
    mine = [s for s in spans if s[_SEQ] == seq]
    child_time: dict[int, float] = {}
    for s in mine:
        if s[_PARENT] is not None:
            child_time[s[_PARENT]] = child_time.get(s[_PARENT], 0.0) + s[_END] - s[_START]
    stats: dict[str, dict] = {}
    for s in mine:
        d = s[_END] - s[_START]
        st = stats.setdefault(s[_NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        st["calls"] += 1
        st["s"] += d
        st["self_s"] += d - child_time.get(s[_ID], 0.0)
        st["durations"].append(d)
    return stats


def layer_metrics(tracer: Tracer, seq: int, extras: dict[str, float]) -> dict[str, float]:
    """Reduce one traced sequence to the values named in ``PER_LAYER``.

    ``extras`` supplies the values measured outside the spans
    (srr.iterations, srr.cost_ratio, flow.residual_ratio, fileio.bytes,
    trace.overhead).
    """
    stats = span_stats(tracer.spans, seq)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return stats.get(name, empty)

    values = dict(extras)
    values.update(tracer.counters)
    for name, unit in PER_LAYER:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        st = get(layer)
        n = st["calls"]
        if field == "calls":
            values[name] = n
        elif field in ("s", "self_s"):
            values[name] = st[field]
        elif field == "ms":
            values[name] = 1e3 * st["s"] / n if n else 0.0
        elif field == "ms_p50":
            values[name] = 1e3 * statistics.median(st["durations"]) if n else 0.0
    values["phantoms.s"] = get("phantoms.render_scene")["s"] + get("phantoms.degrade")["s"]
    values["fileio.write.s"] = sum(get(n)["s"] for n in
                                   ("fileio.emit_images", "fileio.write_values",
                                    "fileio.write_mesh"))
    values["cli.main.self_s"] = get("cli.main")["self_s"]
    return {name: values[name] for name, _ in PER_LAYER}
