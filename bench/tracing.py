"""Spans around circlenoise's layer-boundary functions, installed from outside.

A traced run rebinds each function listed in LAYERS, by name, in every
loaded ``circlenoise`` module that holds it (the defining module included,
so calls made inside the library are seen too) and in ``cli.COMMANDS``.
Nothing in the library changes; ``installed`` puts the originals back.

Spans are kept in memory as (span id, name, start, end, parent id, op id)
and written out by ``write_spans`` when the run ends.  A span's self time
is its duration minus the time covered by its child spans; the wrapper's
own bookkeeping is charged to neither, so it shows only as the difference
between a traced and an untraced pass.  While ``tracemalloc`` is tracing,
each span also records the peak allocation above what was live when it
started.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import os
import sys
import time
import tracemalloc
from pathlib import Path

# Layer-boundary functions by module.  Helpers such as io.fmt stay
# unwrapped: fmt alone is called ~33k times per cli pass, and a span per
# call would measure the tracer rather than the layer.
LAYERS = {
    "spectral": ("covariogram_from_coeffs", "condition_at_zero", "fourier_matrices"),
    "generator": ("check_generator", "extension_dichotomy"),
    "spectrum": ("conditioned_spectrum", "secular_value", "verify_interlacing", "operator_oracle"),
    "synthesis": ("draw_coefficients", "sample_H", "sample_H0"),
    "mle": ("sample_model", "energies", "fit_joint", "fit_known_a", "fit_known_p", "asymptotics"),
    "regularity": ("empirical_holder", "structure_function", "predict_regularity"),
    "io": (
        "write_path_csv",
        "read_path_csv",
        "write_json",
        "kernel_to_dict",
        "kernel_from_dict",
        "write_manifest",
    ),
    "cli": (
        "main",
        "cmd_synth",
        "cmd_condition",
        "cmd_check",
        "cmd_spectrum",
        "cmd_regularity",
        "cmd_fit",
        "cmd_study",
        "cmd_bridge_demo",
    ),
}


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _grid_points(fn, args, kwargs, result):
    # fourier_matrices tabulates the kernel on an (M+1)^2 grid; M defaults
    # to max(4K, 512) inside the library, repeated here.
    K = _argument(fn, args, kwargs, "K")
    M = _argument(fn, args, kwargs, "M") or max(4 * K, 512)
    return (M + 1) ** 2


def _file_bytes(fn, args, kwargs, result):
    return os.path.getsize(_argument(fn, args, kwargs, "file"))


# Work counters taken at a span's boundary: name -> (stat, f(fn, args, kwargs, result)).
COUNTERS = {
    "spectral.fourier_matrices": ("grid_points", _grid_points),
    "spectrum.conditioned_spectrum": ("gaps", lambda fn, a, k, r: len(r.diagnostics["gaps"])),
    "mle.fit_joint": ("newton_iterations", lambda fn, a, k, r: r.iterations),
    "io.write_path_csv": ("bytes", _file_bytes),
    "io.write_json": ("bytes", _file_bytes),
}

# Per-layer metrics of a traced run, as function -> stats, named
# <module>.<function>.<stat> in BENCHMARK.json.  Stats not listed here are
# still written to the result file.
LAYER_METRICS = {
    "spectral.fourier_matrices": ("calls", "self_s", "peak_alloc_mb", "grid_points"),
    "spectral.covariogram_from_coeffs": ("self_s",),
    "spectral.condition_at_zero": ("self_s",),
    "generator.check_generator": ("self_s",),
    "generator.extension_dichotomy": ("self_s",),
    "spectrum.conditioned_spectrum": ("calls", "self_s", "failures", "gaps"),
    "spectrum.secular_value": ("calls",),
    "spectrum.verify_interlacing": ("self_s",),
    "spectrum.operator_oracle": ("self_s", "peak_alloc_mb"),
    "synthesis.sample_H": ("self_s",),
    "synthesis.draw_coefficients": ("self_s",),
    "synthesis.sample_H0": ("self_s", "peak_alloc_mb"),
    **{f"mle.{f}": ("self_s",) for f in LAYERS["mle"]},
    "mle.fit_joint": ("self_s", "newton_iterations"),
    **{f"regularity.{f}": ("self_s",) for f in LAYERS["regularity"]},
    **{f"io.{f}": ("self_s",) for f in LAYERS["io"]},
    "io.write_path_csv": ("self_s", "bytes"),
    "io.write_json": ("self_s", "bytes"),
    "cli.main": ("self_s",),
    **{f"cli.{f}": ("total_s", "self_s") for f in LAYERS["cli"][1:]},
}
# Units by stat; any other stat is a count.
UNITS = {
    "self_s": "s",
    "total_s": "s",
    "peak_alloc_mb": "MB",
    "bytes": "bytes",
    "overhead_s": "s",
    "untraced_s": "s",
}

_MB = 1024.0 * 1024.0


class Tracer:
    """Collects spans and per-function totals for one traced pass."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list[tuple] = []
        self.stats: dict[str, dict] = {}
        self.op_id: int | None = None
        # Open spans: [span id, start of wrapper, child seconds, live bytes
        # at entry, highest traced bytes seen so far inside the span].
        self._stack: list[list] = []
        self._next_id = 0

    def _stat(self, name: str) -> dict:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {
                "calls": 0,
                "failures": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "peak_alloc_mb": 0.0,
            }
        return stat

    def _enter(self, t_in: float) -> list:
        span_id = self._next_id
        self._next_id += 1
        live = peak = 0
        if tracemalloc.is_tracing():
            live, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][4] = max(self._stack[-1][4], peak)
            tracemalloc.reset_peak()
        frame = [span_id, t_in, 0.0, live, live]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float, failed: bool, count):
        self._stack.pop()
        span_id, t_in, child_s, live, peak_seen = frame
        duration = end - start
        stat = self._stat(name)
        stat["calls"] += 1
        stat["failures"] += failed
        stat["total_s"] += duration
        stat["self_s"] += duration - child_s
        if tracemalloc.is_tracing():
            peak_seen = max(peak_seen, tracemalloc.get_traced_memory()[1])
            stat["peak_alloc_mb"] = max(stat["peak_alloc_mb"], (peak_seen - live) / _MB)
        if count is not None:
            key, value = count
            stat[key] = stat.get(key, 0) + value
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            (span_id, name, start - self.epoch, end - self.epoch, parent and parent[0], self.op_id)
        )
        if parent is not None:
            parent[4] = max(parent[4], peak_seen)
            # Everything since this wrapper was entered, bookkeeping
            # included, is the child's, not the parent's own time.
            parent[2] += time.perf_counter() - t_in

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            frame = self._enter(t_in)
            result = None
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                count = None
                if counter is not None and not failed:
                    count = (counter[0], counter[1](fn, args, kwargs, result))
                self._exit(name, frame, start, end, failed, count)

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one benchmark op; layer spans inside share its id."""
        self.op_id = op_id
        t_in = time.perf_counter()
        frame = self._enter(t_in)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(f"op.{kind}", frame, t_in, time.perf_counter(), failed, None)
            self.op_id = None


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every function in LAYERS to its traced wrapper, then restore."""
    wrapped = {}
    for layer, names in LAYERS.items():
        home = sys.modules[f"circlenoise.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped[id(original)] = (original, tracer.wrap(f"{layer}.{fname}", original))
    holders = [
        mod.__dict__
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "circlenoise" or name.startswith("circlenoise."))
    ]
    holders.append(sys.modules["circlenoise.cli"].COMMANDS)
    saved: list[tuple] = []
    try:
        for holder in holders:
            for key, value in list(holder.items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    saved.append((holder, key, value))
                    holder[key] = pair[1]
        yield tracer
    finally:
        for holder, key, original in reversed(saved):
            holder[key] = original


def layer_metrics(stats: dict) -> dict[str, float]:
    """Values of the LAYER_METRICS names from ``Tracer.stats``; unseen ones are 0."""
    return {
        f"{func}.{stat}": stats.get(func, {}).get(stat, 0)
        for func, wanted in LAYER_METRICS.items()
        for stat in wanted
    }


def write_spans(tracer: Tracer, file: Path) -> None:
    """Write the spans as gzipped CSV, one row per span, in end order."""
    with gzip.open(file, "wt") as fh:
        fh.write("span_id,name,start_s,end_s,parent_id,op_id\n")
        for span_id, name, start, end, parent, op_id in tracer.spans:
            fh.write(
                f"{span_id},{name},{start:.9f},{end:.9f},"
                f"{'' if parent is None else parent},{'' if op_id is None else op_id}\n"
            )
